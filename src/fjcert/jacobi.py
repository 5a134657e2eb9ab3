"""Jacobi form q-expansions: generators, index-one bases, products,
torsion specialization, and numerical point evaluation.

A :class:`JacobiFormQExp` stores coefficients c(n, r) of a weight-k,
index-m form for integer n below the precision bound, as one positive
denominator den and rows num = {n: {r: numerator}} of nonzero integers;
missing entries under the bound are zero, and coeffs is a read-only
(n, r)-keyed Fraction view built on access.  Products, sums, the symmetry
audit, the lift and the series I/O work on the rows, which forms share and
no code mutates.  Index-one forms are built internally from their two theta
components, the series h_0 and h_1 collecting coefficients with even and
odd r.  For index one c(n, r) depends only on 4n - r^2, so every product
and division happens on one-variable integer series.  Both weak generators
are division-free numerators U and W over P6 = prod (1 - q^n)^6.  Weak and
holomorphic forms sum numerator products and divide by P6 once; a cusp
form is Delta times a weak form and Delta / P6 = q P18, P18 = P3^6, so a
cusp basis element is q P18 times a numerator sum, with no division.
Inside this package an index-one form of precision prec is one integer
table C of length 4 prec - 2 over a denominator, c(n, r) = C[4n - r^2],
with C[4j] = h_0[j] and C[4j - 1] = h_1[j]; the slot of discriminant -1 is
the last, C[-1], so weak, holomorphic and cusp forms share the layout.
The rows of the form are materialized from C, and :func:`_index1_table`
reads C back from them.

Restriction to a rational torsion point (N, lambda, mu) with z = tau1 *
lambda + mu produces a :class:`SpecializedExpansion`, a q-expansion in
exponents over L = N^2 whose coefficients are integer combinations of
L-th roots of unity over one denominator; :func:`window_abs` reads their
magnitudes.
"""

from __future__ import annotations

import cmath
import math
from array import array
from bisect import bisect_right
from cmath import rect
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import accumulate, chain, compress, repeat
from operator import add, attrgetter, ge, itemgetter, le, mul, truediv

from .core import (
    PrecisionError,
    _dict_add,
    _dict_div,
    _dict_mul,
    _dict_scale,
    _eis_dict,
    _kron_rows,
    parse_rat,
)
from .reduction import WINDOW_CAP, SymMatQ

__all__ = [
    "JacobiFormQExp",
    "TorsionPoint",
    "SpecializedExpansion",
    "weak_generators",
    "jacobi_space",
    "multiply",
    "certified_precision",
    "specialize_torsion",
    "fe_norm",
    "window_abs",
    "check_point",
    "evaluate",
    "evaluate_points",
]


class JacobiFormQExp:
    """Truncated Fourier expansion of a Jacobi form of weight k and index m.

    The coefficient c(n, r), for 0 <= n < prec, is num[n][r] / den: num maps
    each n with a nonzero coefficient to its row {r: numerator}, holding the
    nonzero integer numerators only, and den is the lcm of the reduced
    denominators, so equal forms have equal (den, num).  Rows are shared
    between forms (truncated, _common_rows): never mutate a stored row.
    coeffs is a read-only (n, r)-keyed Fraction view of the same values.
    For index zero only r = 0 occurs.  Weak forms may carry entries with
    4 n m - r^2 < 0; holomorphic and cusp forms are recognized by
    :meth:`is_holomorphic` and :meth:`is_cusp`.
    """

    __slots__ = ("k", "m", "prec", "den", "num", "_fterms")

    def __init__(self, k: int, m: int, prec: int, coeffs: dict):
        """Validating constructor from {(n, r): int or Fraction}."""
        rows: dict = {}
        for (n, r), v in coeffs.items():
            rows.setdefault(int(n), {})[int(r)] = v if type(v) is int else Fraction(v)
        den, num = _checked(m, prec, rows)
        self.k, self.m, self.prec, self.den, self.num, self._fterms = int(k), int(m), int(prec), den, num, None

    @classmethod
    def _trusted(cls, k: int, m: int, prec: int, den: int, num: dict) -> "JacobiFormQExp":
        """Form from nonempty rows {n: {r: nonzero int}}, 0 <= n < prec, over
        den > 0, without checks; only a common factor of den and num is
        cancelled, into new rows.  The rows of num are stored, not copied."""
        g = math.gcd(den, *_values(num))
        self = cls.__new__(cls)
        self.k, self.m, self.prec, self.den, self._fterms = k, m, prec, den // g, None
        self.num = num if g == 1 else {n: {r: v // g for r, v in row.items()} for n, row in num.items()}
        return self

    @classmethod
    def zero(cls, k: int, m: int, prec: int) -> "JacobiFormQExp":
        return cls(k, m, prec, {})

    @property
    def coeffs(self) -> "_FractionView":
        return _FractionView(self.num, self.den)

    def coeff(self, n: int, r: int):
        if n >= self.prec:
            raise PrecisionError("coefficient n=%d is beyond precision %d" % (n, self.prec))
        if n < 0:
            raise ValueError("n must be nonnegative")
        row = self.num.get(n)
        return Fraction(row.get(r, 0) if row else 0, self.den)

    def truncated(self, prec: int) -> "JacobiFormQExp":
        if prec > self.prec:
            raise PrecisionError("cannot extend precision from %d to %d" % (self.prec, prec))
        if prec == self.prec:
            return self
        num = {n: row for n, row in self.num.items() if n < prec}
        return JacobiFormQExp._trusted(self.k, self.m, prec, self.den, num)

    def is_zero(self) -> bool:
        return not self.num

    def is_holomorphic(self) -> bool:
        return all(4 * n * self.m >= max(-min(row), max(row)) ** 2 for n, row in self.num.items())

    def is_cusp(self) -> bool:
        return all(4 * n * self.m > max(-min(row), max(row)) ** 2 for n, row in self.num.items())

    def add(self, other: "JacobiFormQExp") -> "JacobiFormQExp":
        if self.k != other.k:
            raise ValueError("weight mismatch in addition")
        if self.m != other.m:
            raise ValueError("index mismatch in addition")
        prec, (den, (rows_a, rows_b)) = min(self.prec, other.prec), _common_rows((self, other))
        num = {}
        for n in {**rows_a, **rows_b}:
            a, b = rows_a.get(n, {}), rows_b.get(n, {})
            if n < prec and (row := {r: v for r in {**a, **b} if (v := a.get(r, 0) + b.get(r, 0))}):
                num[n] = row
        return JacobiFormQExp._trusted(self.k, self.m, prec, den, num)

    __add__ = add

    def scalar_mul(self, c) -> "JacobiFormQExp":
        c = Fraction(c)
        if not c:
            return JacobiFormQExp.zero(self.k, self.m, self.prec)
        num = {n: {r: v * c.numerator for r, v in row.items()} for n, row in self.num.items()}
        return JacobiFormQExp._trusted(self.k, self.m, self.prec, self.den * c.denominator, num)

    def __neg__(self):
        return self.scalar_mul(-1)

    def __sub__(self, other):
        return self.add(other.scalar_mul(-1))

    def __mul__(self, other):
        if isinstance(other, JacobiFormQExp):
            return multiply(self, other)
        return self.scalar_mul(other)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, JacobiFormQExp):
            return NotImplemented
        return (self.k, self.m, self.prec, self.den, self.num) == (other.k, other.m, other.prec, other.den, other.num)

    def __hash__(self):
        return hash((self.k, self.m, self.prec, len(self.num)))

    def __repr__(self):
        return "JacobiFormQExp(k=%d, m=%d, prec=%d, %d terms)" % (self.k, self.m, self.prec, len(self.coeffs))

    def _row_texts(self, row):
        """(rs, texts): the r of the row in order and str(c(n, r)) of each,
        with no Fraction built."""
        rs, den = sorted(row), self.den
        vs = map(row.__getitem__, rs)
        if den == 1:
            return rs, map(str, vs)
        return rs, [str(v // g) if (g := math.gcd(v, den)) == den else "%d/%d" % (v // g, den // g) for v in vs]

    def _coeff_texts(self):
        """Iterator of (n, r, str(c(n, r))) in (n, r) order."""
        return chain.from_iterable(zip(repeat(n), *self._row_texts(row)) for n, row in sorted(self.num.items()))

    def to_record(self):
        return {
            "k": self.k,
            "m": self.m,
            "prec": self.prec,
            "coeffs": [[n, r, t] for n, r, t in self._coeff_texts()],
        }

    def _json(self) -> str:
        """The text of json.dumps(self.to_record()), one join per row."""
        rows = [
            '[%d, %s"]' % (n, ('"], [%d, ' % n).join(map('%d, "%s'.__mod__, zip(*self._row_texts(row)))))
            for n, row in sorted(self.num.items())
        ]
        return '{"k": %d, "m": %d, "prec": %d, "coeffs": [%s]}' % (self.k, self.m, self.prec, ", ".join(rows))

    @classmethod
    def from_record(cls, rec) -> "JacobiFormQExp":
        """Form from its record {"k", "m", "prec", "coeffs": [[n, r, value],
        ...]}, read as the validating constructor reads {(n, r): value}:
        integer text through int(), other values through parse_rat.  Each
        distinct value text is parsed once and stands for one numerator
        object (see :class:`_Texts`)."""
        return cls._from_record(rec, _Texts())

    @classmethod
    def _from_record(cls, rec, texts: "_Texts") -> "JacobiFormQExp":
        """from_record through texts, the table of value texts that the
        slices of one file share: a record of value texts is read straight
        into its numerators over den, one dict lookup per entry; any other
        record is read value by value."""
        k, m, prec = _read_int(rec["k"]), _read_int(rec["m"]), _read_int(rec["prec"])
        coeffs = rec["coeffs"]
        found = texts.numerators(coeffs)
        if found is not None:
            den, conv = found
            try:
                rows = _read_entries(coeffs, conv)
            except KeyError:  # an entry whose unpacked value is not its item 2
                pass
            else:
                return cls._trusted(k, m, prec, den, _checked_rows(m, prec, rows))
        return cls._trusted(k, m, prec, *_checked(m, prec, _read_entries(coeffs, _Parsed())))

    def float_terms(self):
        """The rows, computed once: in storage order, one (n, lo, cs) per
        stored row n, where lo is the row's lowest r and cs the array('d')
        of c(n, lo), c(n, lo + 1), ... up to the row's highest r, zeros
        included, 8 bytes a slot.  Raises ValueError, before building
        anything, when a row spans more than WINDOW_CAP values of r."""
        if self._fterms is None:
            ends = [(min(row), max(row)) for row in self.num.values()]
            width = max((hi - lo + 1 for lo, hi in ends), default=0)
            if width > WINDOW_CAP:
                raise ValueError("a row spans %d values of r, more than %d" % (width, WINDOW_CAP))
            # int true division is correctly rounded, as float(Fraction) is
            dens = repeat(self.den)
            self._fterms = [
                (n, lo, array("d", map(truediv, map(row.get, range(lo, hi + 1), repeat(0)), dens)))
                for (n, row), (lo, hi) in zip(self.num.items(), ends)
            ]
        return self._fterms


def _read_int(v) -> int:
    """int(v), refusing with ValueError the floats and bools that int()
    would truncate or read as 0 and 1."""
    if isinstance(v, (float, bool)):
        raise ValueError("expected an integer, got %r" % (v,))
    return int(v)


def _read_value(v):
    """A record value as parse_rat reads it, only faster: plain integer text
    through int(), and "a/b" with a and b decimal text through two ints."""
    if type(v) is str:
        if v.removeprefix("-").isdecimal():
            return int(v)
        a, slash, b = v.partition("/")
        if slash and b.isdecimal() and a.removeprefix("-").isdecimal() and (q := int(b)):
            return Fraction(int(a), q)
    return parse_rat(v)


class _Texts:
    """The value texts of one file, each parsed once, and the numerators
    they stand for.  values maps a text to the int it reads as, or, for a
    text of any other value, to the text itself, whose Fraction fractions
    holds; over[den] maps a text to its numerator over den.  Every entry is
    made once per file, so a value text stands for one object throughout."""

    __slots__ = ("values", "fractions", "over")

    def __init__(self):
        self.values: dict = {}
        self.fractions: dict = {}
        self.over: dict = {}

    def numerators(self, coeffs):
        """(den, conv) when every entry [n, r, v] of coeffs has a text v:
        den is the lcm of the denominators of their values and conv maps each
        text to its numerator over den.  None when an entry has no item 2,
        an item 2 that is not text, or a text that does not parse.  Texts
        new to the table, or to over[den], cost a Python step each; the
        rest is C-level set work."""
        try:
            here = set(map(itemgetter(2), coeffs))
        except (IndexError, KeyError, TypeError):
            return None
        values, fractions = self.values, self.fractions
        new = here.difference(values)
        if not set(map(type, new)) <= {str}:
            return None
        try:
            for t in new:
                x = values[t] = _read_value(t)
                if type(x) is not int:
                    values[t], fractions[t] = t, x
        except ValueError:
            return None
        fracs = here.intersection(fractions)
        if not fracs:
            return 1, values
        den = math.lcm(*(fractions[t].denominator for t in fracs))
        over = self.over.setdefault(den, {})
        for t in here.difference(over):
            x = fractions[t] if t in fractions else values[t]
            over[t] = x.numerator * (den // x.denominator)
        return den, over


class _Parsed:
    """parsed[v] is _read_value(v): records read value by value."""

    __getitem__ = staticmethod(_read_value)


def _read_entries(coeffs, values) -> dict:
    """Rows {n: {r: values[v]}} of the entries [n, r, v], in record order."""
    rows: dict = {}
    last = row = None
    for n, r, v in coeffs:
        if type(n) is not int or type(r) is not int:
            n, r = _read_int(n), _read_int(r)
        if n != last:
            row, last = rows.setdefault(n, {}), n
        row[r] = values[v]
    return rows


def _checked(m: int, prec: int, rows: dict):
    """(den, num) from rows {n: {r: int or Fraction}} for a form of index m
    and precision prec; ValueError on values such a form cannot hold.  The
    numerators over den go through one table, so equal ones are one object."""
    if set(map(type, _values(rows))) <= {int}:
        return 1, _checked_rows(m, prec, rows)
    values = set(_values(rows))
    den = math.lcm(*map(attrgetter("denominator"), values))
    scaled = {v: v.numerator * (den // v.denominator) for v in values}
    return den, _checked_rows(m, prec, {n: dict(zip(row, map(scaled.__getitem__, row.values()))) for n, row in rows.items()})


def _checked_rows(m: int, prec: int, rows: dict) -> dict:
    """rows {n: {r: v}} without their zero values; ValueError unless they
    fit a form of index m and precision prec."""
    if m < 0:
        raise ValueError("index must be nonnegative")
    if prec < 0:
        raise ValueError("precision must be nonnegative")
    if not all(_values(rows)):
        rows = {n: row for n, row in ((n, {r: v for r, v in row.items() if v}) for n, row in rows.items()) if row}
    if rows and (min(rows) < 0 or max(rows) >= prec):
        raise ValueError("stored n outside [0, prec)")
    if m == 0 and any(r for row in rows.values() for r in row):
        raise ValueError("index zero forms have r = 0 only")
    return rows


def _values(rows: dict):
    """Every value of the rows {n: {r: v}}, row by row."""
    return chain.from_iterable(map(dict.values, rows.values()))


class _FractionView(Mapping):
    """Read-only {(n, r): Fraction} view of integer rows over den."""

    def __init__(self, num: dict, den: int):
        self._num, self._den = num, den

    def __getitem__(self, key):
        n, r = key
        return Fraction(self._num[n][r], self._den)

    def __iter__(self):
        return ((n, r) for n, row in self._num.items() for r in row)

    def __len__(self):
        return sum(map(len, self._num.values()))


def multiply(a: JacobiFormQExp, b: JacobiFormQExp) -> JacobiFormQExp:
    """Product of Jacobi forms; weights and indices add, precision is the min."""
    return _convolve([a], [b])[0]


def _convolve(fa, fb) -> list:
    """[sum_i fa[i] * fb[m - i] for m < min(len fa, len fb)], by one kernel
    call, for forms whose index grows by one per list position."""
    k, m0 = fa[0].k + fb[0].k, fa[0].m + fb[0].m
    prec = min(phi.prec for phi in (*fa, *fb))
    (den_a, rows_a), (den_b, rows_b) = _common_rows(fa), _common_rows(fb)
    # the kernel packs one slot per r of a row's span; a product row spans both
    span = _r_span(rows_a[: len(fb)], prec) + _r_span(rows_b[: len(fa)], prec) + 1
    if span > WINDOW_CAP:
        raise ValueError("product rows span %d values of r, more than %d" % (span, WINDOW_CAP))
    rows = _kron_rows(rows_a, rows_b, prec)
    return [JacobiFormQExp._trusted(k, m0 + m, prec, den_a * den_b, num) for m, num in enumerate(rows)]


def _r_span(rows, prec: int) -> int:
    """max r - min r over the rows n < prec of the forms in rows, 0 if none."""
    ends = [r for s in rows for n, row in s.items() if n < prec for r in (min(row), max(row))]
    return max(ends) - min(ends) if ends else 0


def _common_rows(phis):
    """(den, rows): rows[i] is phis[i].num written over den, the lcm of
    their denominators; the rows of a form already over den are its own."""
    den = math.lcm(*(phi.den for phi in phis))
    rows = []
    for phi in phis:
        s = den // phi.den
        rows.append(phi.num if s == 1 else {n: {r: v * s for r, v in row.items()} for n, row in phi.num.items()})
    return den, rows


# ---------------------------------------------------------------------------
# index-one generator series
#
# All building blocks are integer-keyed series.  With SA' = sum over odd
# j >= 1 of q^((j^2-1)/4) = sum_{n>=0} q^(n(n+1)) and SBq = 1 + 2 sum_{i>=1}
# q^(i^2), the two weak generators have theta components (even-r series H0[j]
# at discriminant 4j, odd-r series H1[j] at discriminant 4j - 1) U / P6 and
# W / P6, where
#
#   weight -2:  U = (-2 SA',  SBq)
#   weight  0:  W = (2 SA' T44 + 8 SBq^3 T2,  SBq T44 - 64 q SA'^3 T2)
#
#   P6  = P3^2,   P3 = prod (1 - q^n)^3 = sum_j (-1)^j (2j+1) q^(j(j+1)/2)
#   T2  = B^2,    B = sum_{n>=0} q^(n(n+1)/2), so SA' = B(q^2)
#   T44 = Th4^4,  Th4 = 1 + 2 sum_{n>=1} (-1)^n q^(n^2), the theta_4(2 tau) series
#
# W is the weight-0 theta quotient (2 SA'/T2 + 8 SBq^3/T44, SBq/T2 - 64 q
# SA'^3/T44) times T2 T44 = P6, since B Th4^2 = P3: psi(q) phi(-q)^2 = f(-q)^3
# by phi(-q) = f(-q)^2/f(-q^2) and psi(q) = f(-q^2)^2/f(-q).  A weak or
# holomorphic form sums numerator products and divides by P6 once, as two exact
# divisions by P3.  A cusp form is Delta = q P3^8 times a weak form, so it is
# q P18 (P18 = P3^6) times a numerator sum, with no division.  U takes no
# product and W takes 11, so W is built, and cached, only when a block reads
# it.  The theta series and P3 are sparse rows for the kernel.  The tests pin
# the identities and the components against a two-variable theta quotient.


@lru_cache(maxsize=None)
def _series_sa(emax: int):
    out = {}
    j = 1
    while (j * j - 1) // 4 < emax:
        out[(j * j - 1) // 4] = 1
        j += 2
    return out


@lru_cache(maxsize=None)
def _series_sbq(emax: int):
    out = {0: 1}
    i = 1
    while i * i < emax:
        out[i * i] = 2
        i += 1
    return out


@lru_cache(maxsize=None)
def _series_p3(emax: int):
    out = {}
    j = 0
    while j * (j + 1) // 2 < emax:
        out[j * (j + 1) // 2] = (1 if j % 2 == 0 else -1) * (2 * j + 1)
        j += 1
    return out


@lru_cache(maxsize=None)
def _series_p18(emax: int):
    """P18 = P3^6 as P9^2, P9 from two products by the sparse P3."""
    p3 = _series_p3(emax)
    p9 = _dict_mul(_dict_mul(p3, p3, emax), p3, emax)
    return _dict_mul(p9, p9, emax)


@lru_cache(maxsize=None)
def _series_b(emax: int):
    return {n * (n + 1) // 2: 1 for n in range(math.isqrt(8 * emax) + 1) if n * (n + 1) // 2 < emax}


@lru_cache(maxsize=None)
def _series_th4(emax: int):
    return {e: (-v if math.isqrt(e) % 2 else v) for e, v in _series_sbq(emax).items()}


def _numerators(jlen: int):
    """The theta components (U, W) of P6 times the weak generators of
    weights -2 and 0, below discriminant index jlen."""
    return _numerator_u(jlen), _numerator_w(jlen)


def _numerator_u(jlen: int):
    """U = (-2 SA', SBq), which takes no product."""
    return _dict_scale(_series_sa(jlen), -2), _series_sbq(jlen)


@lru_cache(maxsize=None)
def _numerator_w(jlen: int):
    """W = (2 SA' T44 + 8 SBq^3 T2, SBq T44 - 64 q SA'^3 T2), built on first
    use: it takes 11 products, and a cusp form of weight 10 never reads it."""
    sa, sbq, b, th4 = _series_sa(jlen), _series_sbq(jlen), _series_b(jlen), _series_th4(jlen)

    def mul(*factors):
        return reduce(lambda f, g: _dict_mul(f, g, jlen), factors)

    t2, th4sq = mul(b, b), mul(th4, th4)
    t44, corr = mul(th4sq, th4sq), mul(sa, sa, sa, t2)
    w0 = _dict_add(_dict_scale(mul(sa, t44), 2), _dict_scale(mul(sbq, sbq, sbq, t2), 8))
    w1 = _dict_add(mul(sbq, t44), {e + 1: -64 * v for e, v in corr.items() if e + 1 < jlen})
    return w0, w1


def _over_p6(h: dict, jlen: int) -> dict:
    """The exact quotient h / P6 below jlen, as two divisions by P3."""
    p3 = _series_p3(jlen)
    return _dict_div(_dict_div(h, p3, jlen), p3, jlen)


def _table(h0: dict, h1: dict, prec: int) -> list:
    """The discriminant table C of the index-one form with theta components
    h0 and h1 below prec: C[4j] = h0[j], C[4j - 1] = h1[j]."""
    table = [0] * (4 * prec - 2)
    for j, v in h0.items():
        table[4 * j] = v
    for j, v in h1.items():
        table[4 * j - 1] = v
    return table


def _materialize_index1(k: int, prec: int, den: int, table: list) -> JacobiFormQExp:
    """Index-one form with c(n, r) = table[4n - r^2] / den for n < prec."""
    num = {}
    for n in range(prec):
        rmax = math.isqrt(4 * n + 1)
        rs = range(-rmax, rmax + 1)
        vals = [table[4 * n - r * r] for r in rs]
        if row := dict(zip(compress(rs, vals), filter(None, vals))):
            num[n] = row
    return JacobiFormQExp._trusted(k, 1, prec, den, num)


def _index1_table(phi: JacobiFormQExp) -> list:
    """C with c(phi; n, r) = C[4n - r^2] / phi.den for n < phi.prec, for an
    index-one form phi with 4n - r^2 >= -1 on its support; ValueError unless
    the stored coefficients are a function of 4n - r^2."""
    prec = phi.prec
    table = [0] * (4 * prec - 2)
    for n, row in phi.num.items():
        for r, v in row.items():
            d = 4 * n - r * r
            if table[d] != v:
                if table[d]:
                    raise ValueError("lift input: c(%d, %d) differs from another coefficient at 4n - r^2 = %d" % (n, r, d))
                table[d] = v
    # each nonzero C[d] stands for every r = d mod 2 with r^2 < 4 prec - d;
    # all stored keys agree with C, so equal counts mean none is missing
    full = 0
    for d in range(-1, 4 * prec - 3):
        if table[d]:
            rb = math.isqrt(4 * prec - d - 1)
            full += 2 * (rb // 2) + 1 if d % 2 == 0 else 2 * ((rb + 1) // 2)
    if full != len(phi.coeffs):
        raise ValueError("lift input: %d coefficients stored, %d needed for a function of 4n - r^2" % (len(phi.coeffs), full))
    return table


@lru_cache(maxsize=None)
def weak_generators(prec: int):
    """The two standard weak index-one generators, of weights -2 and 0.

    Normalized so the n = 0 coefficient rows in r = -1, 0, 1 are (1, -2, 1)
    and (1, 10, 1) respectively.
    """
    if prec < 1:
        raise ValueError("precision must be at least 1")
    u, w = _numerators(prec)
    tables = (_table(_over_p6(h0, prec), _over_p6(h1, prec), prec) for h0, h1 in (u, w))
    return tuple(_materialize_index1(k, prec, 1, table) for k, table in zip((-2, 0), tables))


def _mform_monomials(w: int, emax: int):
    """Integer q-expansions of the monomials E4^a E6^b of weight w, a
    descending; the one monomial of weight 0 is {0: 1}.  A product starts
    from its first factor, so no series is multiplied by 1."""
    e4, e6 = (_eis_dict(4, emax), _eis_dict(6, emax)) if w > 2 else ({}, {})
    mul = lambda f, g: _dict_mul(f, g, emax)  # noqa: E731
    factors = ([e4] * a + [e6] * ((w - 4 * a) // 6) for a in range(w // 4, -1, -1) if (w - 4 * a) % 6 == 0)
    return [reduce(mul, fs[1:], dict(fs[0])) if fs else {0: 1} for fs in factors]


def _space_components(k: int, cusp: bool, prec: int):
    """Yield (den, C) for each basis element of :func:`jacobi_space`, each
    built only when it is taken: the element is the index-one form
    c(n, r) = C[4n - r^2] / den below prec, with no common factor of den > 0
    and C left.  ValueError on a bad k or prec comes at the first next()."""
    if k < 4 or k % 2 == 1:
        raise ValueError("weight must be an even integer at least 4")
    if prec < 1:
        raise ValueError("precision must be at least 1")
    for h0, h1 in (_cusp_components if cusp else _holomorphic_components)(k, prec):
        table = _table(h0, h1, prec)
        # c(n, r) = c(n, -r), so the lead in (n, |r|) order is the first
        # nonzero value over n, then r >= 0; it becomes the denominator
        ds = (4 * n - r * r for n in range(prec) for r in range(math.isqrt(4 * n + 1) + 1))
        lead = next((v for d in ds if (v := table[d])), 1)
        g = math.gcd(lead, *table) * (1 if lead > 0 else -1)
        yield lead // g, [v // g for v in table]


def _holomorphic_components(k: int, prec: int):
    """Theta components of the holomorphic basis, up to constants: holomorphy
    at discriminant -1, where U and W have coefficient 1, is the one condition
    on the monomials of weights k + 2 (times U / P6) and k (times W / P6), and
    its kernel basis is e_f - e_0 over f >= 1."""
    mons_a = _mform_monomials(k + 2, prec)
    first = _dict_scale(mons_a[0], -1)
    for a, b in [(_dict_add(mon, first), {}) for mon in mons_a[1:]] + [(first, mon) for mon in _mform_monomials(k, prec)]:
        yield tuple(_over_p6(_dict_add(_dict_mul(a, u, prec), _dict_mul(b, w, prec)), prec) for u, w in zip(*_numerators(prec)))


def _cusp_components(k: int, prec: int):
    """Theta components of the cusp basis, up to constants, by products only:
    the conditions at discriminants -1 and 0 give the kernel basis mon_f -
    mon_0, f >= 1, in each block.  As a descends, mon_f = mon_0 (E6^2/E4^3)^f,
    and E4^3 - E6^2 = 1728 Delta makes mon_f - mon_0 = -1728 Delta sum_{t<f}
    mon'_t, mon' of weight 12 less.  Delta / P6 = q P18, so element f is
    q P18 U sum_{t<f} mon'_t with mon' of weight k - 10, and likewise with W
    and weight k - 12 (Eichler-Zagier, Thm. 9.3)."""
    jlen = prec - 1  # the factor q shifts every exponent by one
    for w, numerator in ((k - 10, _numerator_u), (k - 12, _numerator_w)):
        mons = _mform_monomials(w, jlen)
        if not mons:
            continue
        g0, g1 = (_dict_mul(_series_p18(jlen), c, jlen) for c in numerator(prec))
        x: dict = {}
        for mon in mons:
            x = _dict_add(x, mon)
            # x = 1 (weight 0) leaves g as it is: g is already a product below jlen
            yield tuple({e + 1: v for e, v in (g if x == {0: 1} else _dict_mul(x, g, jlen)).items()} for g in (g0, g1))


def jacobi_space(k: int, cusp: bool, prec: int):
    """Basis of the index-one space of weight k, holomorphic or cuspidal.

    Each basis element is normalized so its first nonzero coefficient in
    lexicographic (n, |r|) order equals one.  Returns [] when the space is
    trivial.
    """
    return [_materialize_index1(k, prec, den, table) for den, table in _space_components(k, cusp, prec)]


# ---------------------------------------------------------------------------
# torsion specialization


@dataclass(frozen=True)
class TorsionPoint:
    """Rational torsion datum (N, lambda, mu), entries stored as integer
    numerators over N; z = tau1 * lambda + mu."""

    N: int
    lam: tuple
    mu: tuple

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be positive")
        lam = self.lam if isinstance(self.lam, tuple) else (self.lam,)
        mu = self.mu if isinstance(self.mu, tuple) else (self.mu,)
        if len(lam) != len(mu) or not lam:
            raise ValueError("lambda and mu must have equal positive length")
        object.__setattr__(self, "lam", tuple(int(x) for x in lam))
        object.__setattr__(self, "mu", tuple(int(x) for x in mu))

    @property
    def genus_minus_one(self) -> int:
        return len(self.lam)

    def lam_frac(self) -> Fraction:
        return Fraction(self.lam[0], self.N)

    def mu_frac(self) -> Fraction:
        return Fraction(self.mu[0], self.N)

    def z_at(self, tau1: complex) -> complex:
        return tau1 * float(self.lam_frac()) + float(self.mu_frac())


@dataclass(frozen=True)
class SpecializedExpansion:
    """Restriction of a weight-k slice to a torsion point, a q-expansion in
    exponents over L = N^2 (the level) below the certified precision prec.

    The coefficient of q^(e / L) is sum_j coeffs[e][j] e(j / L) / den for
    each stored e, 0 <= e < prec L, and zero for any other e.  Each inner
    dict holds the nonzero int weights of the roots e(j / L), 0 <= j < L,
    and is nonempty; den > 0 and the numerators share no factor, so equal
    expansions have equal fields.  The roots are not reduced modulo
    cyclotomic relations, so a stored coefficient may still be zero.
    """

    k: int
    N: int
    prec: Fraction
    den: int
    coeffs: dict

    @property
    def level(self) -> int:
        return self.N * self.N

    def value(self, e: int) -> complex:
        """The coefficient of q^(e / L) as a complex number: each weight
        over den correctly rounded to a float, times its root, the real and
        imaginary parts each summed by math.fsum."""
        L, den = self.level, self.den
        terms = [v / den * cmath.exp(2j * math.pi * j / L) for j, v in self.coeffs.get(e, {}).items()]
        return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def _ceil_2sqrt(p: int, m: int) -> int:
    x = 4 * p * m
    s = math.isqrt(x)
    return s if s * s == x else s + 1


def certified_precision(P: int, m: int, lam: Fraction) -> Fraction:
    """Certified precision of the specialization of an index-m slice of
    precision P at lam: P + m lam^2 - |lam| ceil(2 sqrt(P m)), or 0 if that
    is negative.  This is (sqrt(P) - |lam| sqrt(m))^2 with the square root
    rounded up, the sharp threshold below which no discarded row n >= P can
    contribute: their exponents are at least P - |lam| 2 sqrt(P m) + m lam^2.
    """
    p2 = P + m * lam * lam - abs(lam) * _ceil_2sqrt(P, m)
    return p2 if p2 > 0 else Fraction(0)


def specialize_torsion(phi: JacobiFormQExp, p: TorsionPoint) -> SpecializedExpansion:
    """Expansion of e(m lam^2 tau1) phi(tau1, tau1 lam + mu) in powers of
    e(tau1 / N^2).

    The exponent attached to (n, r) is n + r lam + m lam^2 and the
    root-of-unity factor is e(r mu).  The output precision is
    :func:`certified_precision`.  Each stored row is checked by its
    smallest exponent: ValueError when it is negative (the input is not
    holomorphic), and the row is skipped whole when it is at or above the
    precision; otherwise only the terms below the precision are read, picked
    out of the row by one C-level filter on r.
    """
    if p.genus_minus_one != 1:
        raise ValueError("unsupported genus")
    N = p.N
    a = p.lam[0]
    c = p.mu[0]
    m = phi.m
    L = N * N
    p2 = certified_precision(phi.prec, m, p.lam_frac())
    bound_num = math.ceil(p2 * L)
    # exponents times L are n L + r aN + m a^2: in a row they are smallest at
    # the lowest r when aN > 0, at the highest when aN < 0, and below the
    # bound exactly for r <= B // aN, resp. r >= -(B // -aN), B = bound_num - 1 - base
    aN, shift = a * N, m * a * a
    acc: dict = {}
    for n, row in phi.num.items():
        base = n * L + shift
        low = base + (aN * min(row) if aN > 0 else aN * max(row) if aN else 0)
        if low < 0:
            raise ValueError("specialization needs nonnegative exponents; input is not holomorphic")
        if low >= bound_num:
            continue
        B = bound_num - 1 - base
        keep = filter(partial(ge, B // aN) if aN > 0 else partial(le, -(B // -aN)), row) if aN else row
        for r in keep:
            j = (r * c * N) % L
            slot = acc.setdefault(base + r * aN, {})
            slot[j] = slot.get(j, 0) + row[r]
    coeffs = {}
    for num, w in acc.items():
        w = {j: v for j, v in w.items() if v}
        if w:
            coeffs[num] = w
    g = math.gcd(phi.den, *_values(coeffs))
    if g > 1:
        coeffs = {num: {j: v // g for j, v in w.items()} for num, w in coeffs.items()}
    return SpecializedExpansion(phi.k, N, p2, phi.den // g, coeffs)


def window_abs(eta: SpecializedExpansion, S) -> list:
    """|c_x(eta)| for each exponent x of the window S, in the order of S.

    S is a list of 1x1 matrices (or plain rationals).  Every requested
    exponent must lie below the certified precision of eta.
    """
    L, pnum, pden = eta.level, eta.prec.numerator, eta.prec.denominator
    out = []
    for t in S:
        if isinstance(t, SymMatQ):
            p, q = t.gram[0][0], t.den
        else:
            x = Fraction(t)
            p, q = x.numerator, x.denominator
        # x = p / q >= prec and x L = e, compared and scaled on integers
        if p * pden >= pnum * q:
            raise PrecisionError("window exponent %s is beyond specialized precision %s" % (Fraction(p, q), eta.prec))
        e, rest = divmod(p * L, q)
        out.append(0.0 if rest else abs(eta.value(e)))
    return out


def fe_norm(eta: SpecializedExpansion, S) -> float:
    """Sum of coefficient magnitudes of eta over the exponent window S
    (see :func:`window_abs`)."""
    return math.fsum(window_abs(eta, S))


# ---------------------------------------------------------------------------
# numerical evaluation


def check_point(tau1: complex, z: complex = 0j) -> None:
    """Raise ValueError unless tau1 and z are finite and Im tau1 > 0."""
    if not (cmath.isfinite(tau1) and cmath.isfinite(z)):
        raise ValueError("tau1 and z must be finite")
    if tau1.imag <= 0:
        raise ValueError("tau1 must have positive imaginary part")


_TWO_PI = 2 * math.pi
_TWO_PI_I = 2j * math.pi


def evaluate(phi: JacobiFormQExp, tau1: complex, z: complex) -> complex:
    """Numerical value sum c(n, r) e(n tau1 + r z) over the stored window:
    the one-point case of :func:`evaluate_points`, with its rounding, its
    mirror property and its errors."""
    return evaluate_points([phi], [(tau1, z)])[0][0]


def evaluate_points(phis, points) -> list:
    """[[phi(tau1, z) for phi in phis] for (tau1, z) in points], the values
    of the stored truncations, in two steps.

    Points that share tau1 and y = Im z share a *line* of each nonzero
    form: G_r = sum_n c(n, r) e(n tau1 + r i y), built once.  Each stored
    row n is summed from the end r0 with the largest factor
    |e(n tau1 + r0 i y)|, the lowest r when y >= 0 and the highest when
    y < 0: it adds e(n tau1 + r0 i y) c(n, r) s^|r - r0| to G_r, with
    s = exp(-2 pi |y|) <= 1.  So no stored factor exceeds the row's
    largest.  The value at x + i y is then one *phase sum*
    sum_r G_r e(r x), each e(r x) of modulus one: the terms of r = k and
    r = -k are added first, and these pairs are added from k = 0 outward.
    A line holds one slot per r of the union of the form's row spans,
    split at the gaps between them, so never more slots than
    :meth:`JacobiFormQExp.float_terms` holds.  The phases e(r x) of a
    point are computed once for all forms.

    Mirror property: s is the same for y and -y, the start factor of a row
    at -y has the exponent of the mirrored row at y, e(r x) is a function
    of the product r x, and a pair's sum does not depend on which of its
    two terms comes first.  So when c(n, r) = c(n, -r), the values at z
    and -z are bit for bit equal.

    Raises ValueError when a point fails :func:`check_point`, when e(z) or
    e(-z) is 0 or overflows, when a row's start factor or a value
    overflows ("a term overflows"), and, before building anything for that
    form, when a row spans more than WINDOW_CAP values of r (see
    :meth:`JacobiFormQExp.float_terms`)."""
    points = list(points)
    lines: dict = {}  # (tau1, Im z) -> indices of its points
    for i, (tau1, z) in enumerate(points):
        check_point(tau1, z)
        try:  # |e(z)| or |e(-z)| is exp(2 pi |Im z|)
            math.exp(_TWO_PI * abs(z.imag))
        except OverflowError:
            raise ValueError("e(z) or e(-z) is 0 or overflows at z = %r" % z) from None
        lines.setdefault((tau1, z.imag + 0.0), []).append(i)  # + 0.0: -0.0 and 0.0 share a line
    out = [[0j] * len(phis) for _ in points]
    forms = [(j, rows, _Layout(rows)) for j, phi in enumerate(phis) for rows in (phi.float_terms(),) if rows]
    if not forms:
        return out
    # every span of a form lies in one span of the union of all, so each
    # form cuts its phases from one table per point
    union, offsets = _spans(chain.from_iterable(lay.spans for *_, lay in forms))
    cuts = [[slice(o, o + b - a + 1) for a, b in lay.spans for o in (_slot(union, offsets, a),)] for *_, lay in forms]
    width = max(len(cs) for _, rows, _ in forms for _, _, cs in rows)
    for (tau1, y), idx in lines.items():
        pw = list(accumulate(repeat(math.exp(-_TWO_PI * abs(y)), width - 1), mul, initial=1.0))
        gs = [_line(rows, lay, tau1, y, pw, points[idx[0]][1]) for _, rows, lay in forms]
        for i in idx:
            z = points[i][1]
            rs = chain.from_iterable(range(a, b + 1) for a, b in union)
            table = list(map(rect, repeat(1.0), map(mul, rs, repeat(_TWO_PI * z.real))))  # e(r x), from the product r 2 pi x
            for (j, _, lay), g, cut in zip(forms, gs, cuts):
                out[i][j] = _phase_sum(g, lay, chain.from_iterable(map(table.__getitem__, cut)), tau1, z)
    return out


def _spans(intervals):
    """(spans, offsets): the union of closed integer intervals (a, b) as
    sorted disjoint [a, b], split at gaps only (touching intervals merge),
    and the slot where each span starts when they are laid out one after
    another; offsets[-1] is the number of slots."""
    spans: list = []
    for a, b in sorted(intervals):
        if spans and a <= spans[-1][1] + 1:
            spans[-1][1] = max(spans[-1][1], b)
        else:
            spans.append([a, b])
    return spans, list(accumulate((b - a + 1 for a, b in spans), initial=0))


def _slot(spans, offsets, r: int) -> int:
    """The slot of r, which lies in one of the spans."""
    k = bisect_right(spans, r, key=itemgetter(0)) - 1
    return offsets[k] + r - spans[k][0]


class _Layout:
    """Where a form's line keeps G_r: its rows' r spans, merged and split
    at gaps (spans), laid out one after another in size slots, row i
    starting at slots[i].  The phase sum adds the pair r = k, r = -k for
    k = 0, 1, ... in turn: plus and minus hold the slots of r = k and of
    r = -k, run by run of k, slot size (a zero) where one is absent; r = 0
    pairs with the zero.  Runs are ranges, so the pairing costs no memory
    per slot."""

    __slots__ = ("spans", "slots", "size", "plus", "minus")

    def __init__(self, rows):
        self.spans, offsets = _spans((lo, lo + len(cs) - 1) for _, lo, cs in rows)
        self.size = size = offsets[-1]
        self.slots = [_slot(self.spans, offsets, lo) for _, lo, _ in rows]
        # (first k, last k, slot of r = 0 or where it would be) of each span's r >= 0 and r <= -1 parts
        pos = [(max(a, 0), b, o - a) for (a, b), o in zip(self.spans, offsets) if b >= 0]
        neg = [(max(-b, 1), -a, o - a) for (a, b), o in zip(self.spans, offsets) if a < 0]
        ends = sorted({e for lo, hi, _ in pos + neg for e in (lo, hi + 1)})
        self.plus, self.minus = [], []
        for k0, k1 in zip(ends, ends[1:]):  # on [k0, k1) each side is present throughout or absent throughout
            p = next((base + k0 for lo, hi, base in pos if lo <= k0 <= hi), None)
            m = next((base - k0 for lo, hi, base in neg if lo <= k0 <= hi), None)
            if p is not None or m is not None:
                n = k1 - k0
                self.plus.append((size,) * n if p is None else range(p, p + n))
                self.minus.append((size,) * n if m is None else range(m, m - n, -1))


def _line(rows, lay: _Layout, tau1: complex, y: float, pw: list, z: complex) -> list:
    """G_r over the form's layout, a flat list of complex (see
    :func:`evaluate_points`); pw holds s^0, s^1, ... and z is the first
    point of the line, for messages."""
    g = [0j] * lay.size
    up = y < 0
    try:  # cmath.exp raises on an overflowing start factor
        for (n, lo, cs), o in zip(rows, lay.slots):
            w = len(cs)
            start = cmath.exp(_TWO_PI_I * (n * tau1 + complex(0.0, (lo + w - 1 if up else lo) * y)))
            g[o : o + w] = map(add, g[o : o + w], map(mul, repeat(start), map(mul, cs, pw[w - 1 :: -1] if up else pw)))
    except OverflowError:
        raise ValueError("a term overflows at tau1 = %r, z = %r" % (tau1, z)) from None
    return g


def _phase_sum(g: list, lay: _Layout, phases, tau1: complex, z: complex) -> complex:
    """sum_r G_r e(r x) over a line g and its phases in slot order: the
    pair r = +-k added first, and the pairs from k = 0 outward."""
    terms = list(map(mul, g, phases))
    terms.append(0j)
    pairs = map(add, map(terms.__getitem__, chain.from_iterable(lay.plus)), map(terms.__getitem__, chain.from_iterable(lay.minus)))
    total = sum(pairs, 0j)
    if not cmath.isfinite(total):
        raise ValueError("a term overflows at tau1 = %r, z = %r" % (tau1, z))
    return total
