"""Exact arithmetic primitives: rationals, roots of unity, q-expansions.

Coefficient arithmetic throughout the package is exact.  Rational numbers
are ``fractions.Fraction``; coefficients mixing rationals with roots of
unity use :class:`CycElem`, a formal group ring element
``sum_j w[j] * e(j/L)`` with ``e(x) = exp(2 pi i x)``.  The group ring is
deliberately not reduced modulo cyclotomic relations, so equality of
``CycElem`` values is formal; numerical comparisons must go through
:func:`cyc_eval`.

A :class:`QExpansion` is a truncated series ``sum c(x) q^x`` whose
exponents ``x`` are nonnegative elements of ``(1/L) * Z`` below a rational
precision bound ``prec``: absent exponents under the bound are zero, and
reading at or above the bound raises :class:`PrecisionError`.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count, repeat
from operator import itemgetter, sub
from struct import iter_unpack

__all__ = [
    "PrecisionError",
    "CycElem",
    "QExpansion",
    "bernoulli",
    "sigma",
    "eisenstein_qexp",
    "cyc_eval",
    "rat_str",
    "parse_rat",
]


class PrecisionError(ValueError):
    """Raised when a coefficient beyond the stored precision is requested."""


def rat_str(x) -> str:
    return str(Fraction(x))


def parse_rat(s: str) -> Fraction:
    """Fraction from text such as "3", "-7/2" or "0.25"; ValueError on bad text,
    a zero denominator included."""
    try:
        return Fraction(str(s).strip())
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (s,)) from None


# ---------------------------------------------------------------------------
# elementary number theory


@lru_cache(maxsize=None)
def _bernoulli_upto(n: int) -> tuple:
    if n == 0:
        return (Fraction(1),)
    prev = _bernoulli_upto(n - 1)
    # recurrence sum_{k=0}^{m} binom(m+1, k) B_k = 0, solved for B_m
    acc = Fraction(0)
    for k in range(n):
        acc += math.comb(n + 1, k) * prev[k]
    return prev + (-acc / (n + 1),)


def bernoulli(n: int) -> Fraction:
    """n-th Bernoulli number, with the convention bernoulli(1) = -1/2."""
    if n < 0:
        raise ValueError("bernoulli index must be nonnegative")
    return _bernoulli_upto(n)[n]


def sigma(k: int, n: int) -> int:
    """Divisor power sum sigma_k(n) = sum of d^k over positive d dividing n."""
    if n < 1:
        raise ValueError("sigma requires n >= 1")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d ** k
            e = n // d
            if e != d:
                total += e ** k
        d += 1
    return total


# ---------------------------------------------------------------------------
# roots of unity


class CycElem:
    """Formal rational combination of L-th roots of unity.

    ``CycElem(L, {j: w_j})`` stands for ``sum_j w_j e(j/L)``.  Addition and
    multiplication act on exponents mod L; mixed orders are lifted to the
    lcm.  No cyclotomic reduction is performed, so two elements may be
    formally distinct while numerically equal; use :func:`cyc_eval` when a
    numerical comparison is intended.
    """

    __slots__ = ("L", "w")

    def __init__(self, L: int, weights):
        if L < 1:
            raise ValueError("order must be a positive integer")
        self.L = L
        acc: dict = {}
        for j, c in weights.items():
            c = Fraction(c)
            if c:
                j = j % L
                acc[j] = acc.get(j, Fraction(0)) + c
        self.w = {j: c for j, c in acc.items() if c}

    @classmethod
    def _trusted(cls, L: int, w: dict) -> "CycElem":
        """Element from nonzero Fraction weights keyed by int 0 <= j < L,
        with L >= 1, without checks."""
        self = cls.__new__(cls)
        self.L, self.w = L, w
        return self

    @classmethod
    def root(cls, j: int, L: int) -> "CycElem":
        """The single root of unity e(j/L)."""
        return cls(L, {j: Fraction(1)})

    @classmethod
    def coerce(cls, x, L: int = 1) -> "CycElem":
        if isinstance(x, CycElem):
            return x if L == x.L else x.rescaled(math.lcm(x.L, L))
        return cls(L, {0: Fraction(x)})

    def rescaled(self, L2: int) -> "CycElem":
        if L2 % self.L != 0:
            raise ValueError("new order must be a multiple of the old one")
        f = L2 // self.L
        return CycElem(L2, {j * f: c for j, c in self.w.items()})

    def is_zero(self) -> bool:
        return not self.w

    def __bool__(self) -> bool:
        return bool(self.w)

    def _pair(self, other):
        other = CycElem.coerce(other)
        L = math.lcm(self.L, other.L)
        a = self if self.L == L else self.rescaled(L)
        b = other if other.L == L else other.rescaled(L)
        return a, b, L

    def __add__(self, other):
        a, b, L = self._pair(other)
        w = dict(a.w)
        for j, c in b.w.items():
            w[j] = w.get(j, Fraction(0)) + c
        return CycElem(L, w)

    __radd__ = __add__

    def __neg__(self):
        return CycElem(self.L, {j: -c for j, c in self.w.items()})

    def __sub__(self, other):
        return self + (-CycElem.coerce(other))

    def __rsub__(self, other):
        return CycElem.coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            return CycElem(self.L, {j: w * c for j, w in self.w.items()})
        a, b, L = self._pair(other)
        out: dict = {}
        for j1, c1 in a.w.items():
            for j2, c2 in b.w.items():
                j = (j1 + j2) % L
                out[j] = out.get(j, Fraction(0)) + c1 * c2
        return CycElem(L, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycElem.coerce(other)
        if not isinstance(other, CycElem):
            return NotImplemented
        a, b, _ = self._pair(other)
        return a.w == b.w

    def __hash__(self):
        # hash on the reduced support over the exact order
        g = math.gcd(self.L, math.gcd(*self.w.keys())) if self.w else self.L
        return hash((self.L // g, tuple(sorted((j // g, c) for j, c in self.w.items()))))

    def __repr__(self):
        if not self.w:
            return "CycElem(%d, 0)" % self.L
        parts = " + ".join("%s*e(%d/%d)" % (c, j, self.L) for j, c in sorted(self.w.items()))
        return "CycElem(%s)" % parts

    def to_record(self):
        return {"L": self.L, "w": [[j, rat_str(c)] for j, c in sorted(self.w.items())]}

    @classmethod
    def from_record(cls, rec) -> "CycElem":
        return cls(int(rec["L"]), {int(j): parse_rat(c) for j, c in rec["w"]})


def cyc_eval(x) -> complex:
    """Numerical value of a CycElem (or plain rational) as a complex number."""
    if isinstance(x, (int, Fraction)):
        return complex(x)
    re = []
    im = []
    for j, c in x.w.items():
        v = float(c) * cmath.exp(2j * math.pi * j / x.L)
        re.append(v.real)
        im.append(v.imag)
    return complex(math.fsum(re), math.fsum(im))


# ---------------------------------------------------------------------------
# value helpers shared by QExpansion (Fraction or CycElem entries)


def _vadd(a, b):
    if isinstance(a, CycElem) or isinstance(b, CycElem):
        return CycElem.coerce(a) + b
    return a + b


def _vmul(a, b):
    if isinstance(a, CycElem) or isinstance(b, CycElem):
        return CycElem.coerce(a) * b
    return a * b


def _viszero(x) -> bool:
    if isinstance(x, CycElem):
        return x.is_zero()
    return x == 0


def _value_record(v):
    if isinstance(v, CycElem):
        return v.to_record()
    return rat_str(v)


def _value_from_record(rec):
    if isinstance(rec, dict):
        return CycElem.from_record(rec)
    return parse_rat(rec)


# ---------------------------------------------------------------------------
# q-expansions


class QExpansion:
    """Truncated q-expansion with exponents in (1/L)*Z and exact coefficients.

    ``coeffs`` maps exponent numerators (integers, the exponent times L) to
    Fraction or CycElem values.  Invariants: numerators are >= 0 and lie
    strictly below ``prec * L``.  Anything absent below the bound is zero;
    reading at or beyond the bound raises PrecisionError.
    """

    __slots__ = ("L", "prec", "coeffs")

    def __init__(self, L: int, coeffs: dict, prec):
        if L < 1:
            raise ValueError("exponent denominator must be positive")
        prec = Fraction(prec)
        if prec < 0:
            raise ValueError("precision must be nonnegative")
        self.L = L
        self.prec = prec
        bound = prec * L
        out = {}
        for e, v in coeffs.items():
            if _viszero(v):
                continue
            if e < 0:
                raise ValueError("negative exponent in q-expansion")
            if e >= bound:
                raise ValueError("stored exponent at or beyond precision")
            out[int(e)] = v
        self.coeffs = out

    @classmethod
    def _trusted(cls, L: int, coeffs: dict, prec: Fraction) -> "QExpansion":
        """Expansion from nonzero values keyed by int numerators 0 <= e < prec * L,
        with L >= 1 and prec a nonnegative Fraction, without checks."""
        self = cls.__new__(cls)
        self.L, self.prec, self.coeffs = L, prec, coeffs
        return self

    @classmethod
    def zero(cls, prec, L: int = 1) -> "QExpansion":
        return cls(L, {}, prec)

    @classmethod
    def one(cls, prec, L: int = 1) -> "QExpansion":
        return cls(L, {0: Fraction(1)} if Fraction(prec) > 0 else {}, prec)

    def coeff(self, x):
        """Coefficient at rational exponent x; PrecisionError beyond prec."""
        x = Fraction(x)
        if x >= self.prec:
            raise PrecisionError("exponent %s is at or beyond precision %s" % (x, self.prec))
        num = x * self.L
        if num.denominator != 1:
            return Fraction(0)
        return self.coeffs.get(int(num), Fraction(0))

    def items(self):
        """Sorted (exponent, value) pairs with exponents as Fractions."""
        return [(Fraction(e, self.L), v) for e, v in sorted(self.coeffs.items())]

    def rescaled(self, L2: int) -> "QExpansion":
        if L2 % self.L != 0:
            raise ValueError("new denominator must be a multiple of the old one")
        f = L2 // self.L
        return QExpansion(L2, {e * f: v for e, v in self.coeffs.items()}, self.prec)

    def truncated(self, prec2) -> "QExpansion":
        prec2 = Fraction(prec2)
        if prec2 > self.prec:
            raise PrecisionError("cannot extend precision by truncation")
        bound = prec2 * self.L
        return QExpansion(self.L, {e: v for e, v in self.coeffs.items() if e < bound}, prec2)

    def _pair(self, other):
        L = math.lcm(self.L, other.L)
        a = self if self.L == L else self.rescaled(L)
        b = other if other.L == L else other.rescaled(L)
        return a, b, L

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QExpansion.one(self.prec).scalar_mul(other)
        a, b, L = self._pair(other)
        prec = min(a.prec, b.prec)
        bound = prec * L
        out = {e: v for e, v in a.coeffs.items() if e < bound}
        for e, v in b.coeffs.items():
            if e < bound:
                out[e] = _vadd(out.get(e, Fraction(0)), v)
        return QExpansion(L, {e: v for e, v in out.items() if not _viszero(v)}, prec)

    __radd__ = __add__

    def __neg__(self):
        return self.scalar_mul(Fraction(-1))

    def __sub__(self, other):
        return self + (-other if isinstance(other, QExpansion) else -Fraction(other))

    def scalar_mul(self, c) -> "QExpansion":
        if isinstance(c, CycElem) or Fraction(c) != 0:
            return QExpansion(self.L, {e: _vmul(v, c) for e, v in self.coeffs.items()}, self.prec)
        return QExpansion.zero(self.prec, self.L)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycElem)):
            return self.scalar_mul(other)
        a, b, L = self._pair(other)
        prec = min(a.prec, b.prec)
        emax = math.ceil(prec * L)
        orders = [v.L for v in (*a.coeffs.values(), *b.coeffs.values()) if isinstance(v, CycElem)]
        if not orders:
            return QExpansion(L, _dict_mul(a.coeffs, b.coeffs, emax), prec)
        # one row per exponent, indexed by the root e(j/R); CycElem folds j mod R
        R = math.lcm(*orders)
        rows_a = {e: CycElem.coerce(v, R).w for e, v in a.coeffs.items()}
        rows_b = {e: CycElem.coerce(v, R).w for e, v in b.coeffs.items()}
        return QExpansion(L, {e: CycElem(R, w) for e, w in _kron_rational(rows_a, rows_b, emax).items()}, prec)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, QExpansion):
            return NotImplemented
        a, b, _ = self._pair(other)
        if a.prec != b.prec or set(a.coeffs) != set(b.coeffs):
            return False
        return all(a.coeffs[e] == b.coeffs[e] for e in a.coeffs)

    def __hash__(self):
        return hash((self.L, self.prec, tuple(sorted(self.coeffs))))

    def __repr__(self):
        head = ", ".join(
            "q^%s: %s" % (Fraction(e, self.L), v) for e, v in sorted(self.coeffs.items())[:6]
        )
        more = "" if len(self.coeffs) <= 6 else ", ..."
        return "QExpansion(L=%d, prec=%s, {%s%s})" % (self.L, self.prec, head, more)

    def to_record(self):
        return {
            "L": self.L,
            "prec": rat_str(self.prec),
            "coeffs": [[e, _value_record(v)] for e, v in sorted(self.coeffs.items())],
        }

    @classmethod
    def from_record(cls, rec) -> "QExpansion":
        coeffs = {int(e): _value_from_record(v) for e, v in rec["coeffs"]}
        return cls(int(rec["L"]), coeffs, parse_rat(rec["prec"]))


def eisenstein_qexp(k: int, prec) -> QExpansion:
    """Level-one Eisenstein series E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n."""
    if k not in (4, 6):
        raise ValueError("unsupported weight for eisenstein_qexp: %r" % (k,))
    if Fraction(prec) < 1:
        raise ValueError("precision must be at least 1")
    return QExpansion(1, _eis_dict(k, int(Fraction(prec))), prec)


@lru_cache(maxsize=None)
def _eis_dict(k: int, emax: int) -> dict:
    """{n: c_n} of E_k below emax; cached and shared, so callers must not mutate it."""
    factor = -2 * k / bernoulli(k)
    assert factor.denominator == 1
    factor = int(factor)
    d = {0: 1}
    for n in range(1, emax):
        d[n] = factor * sigma(k - 1, n)
    return d


# ---------------------------------------------------------------------------
# integer-keyed series helpers (internal work horses)
#
# Plain dicts {exponent: value} truncated below emax.  Every series product
# in the package runs through one exact kernel, _kron_rows, by Kronecker
# substitution on integer rows (rational series clear their denominators
# in _kron_rational first): each row is packed into one Python int as
# base-X digits with X = 2^(8w), from that row's own lowest exponent, and
# CPython's bignum multiply does the convolution.  A row with at most one
# nonzero slot in eight of its span (rounded up, so a single term counts),
# such as a theta series or a constant, keeps its terms too: a product
# with it is sum_k v_k (x << 8w k) over its terms, the same integer as the
# bignum product, in one shift and one add per term instead of a Karatsuba
# product over the whole span.  A row product starts at
# the sum of its two rows' lowest exponents; it is shifted by whole slots
# (<< 8w * shift) onto the lowest exponent of its output row and summed
# there, so an output row, however many slice and row pairs land on it, is
# unpacked once.  A product coefficient is a sum of at most t terms, t the
# smaller term count of the two factors, so
# |c| < 2^(bits max|a| + bits max|b| + bits t); a slot of
# 8w >= that + 2 bits holds it with room for its sign.  Signs are handled by
# a bias: with half = 2^(8w-1) added to every slot, each slot is a
# nonnegative digit below X and no slot borrows from its neighbour.  So
# packing is one int.from_bytes of the joined slot bytes of v + half, minus
# the bias (int.from_bytes of n copies of the slot bytes of 0), and
# unpacking is one int.to_bytes of the biased sum, cut into slots and
# read back at C level.


def _kron_pack(row: dict, w: int):
    """(lo, sum_e row[e] X^(e - lo) with X = 2^(8w), its slot count, terms),
    lo = min(row); terms is None unless the row is sparse (at most one
    nonzero slot in eight, rounded up), and then {v: [8w (e - lo) for each
    e with row[e] = v]} with len(row) entries in all."""
    lo = min(row)
    n = max(row) - lo + 1
    half = 1 << (8 * w - 1)
    zero = half.to_bytes(w, "little")
    slots = [zero] * n
    for e, v in row.items():
        slots[e - lo] = (v + half).to_bytes(w, "little")
    terms = None
    if 8 * (len(row) - 1) < n:
        terms = {}
        for e, v in row.items():
            terms.setdefault(v, []).append(8 * w * (e - lo))
    return lo, int.from_bytes(b"".join(slots), "little") - int.from_bytes(zero * n, "little"), n, terms


def _kron_unpack(x: int, lo: int, n: int, w: int) -> dict:
    """The nonzero digits of x = sum_{k<n} c_k X^k, |c_k| < X/2, keyed lo + k."""
    half = 1 << (8 * w - 1)
    buf = (x + int.from_bytes(half.to_bytes(w, "little") * n, "little")).to_bytes(n * w, "little")
    digits = map(int.from_bytes, map(itemgetter(0), iter_unpack("%ds" % w, buf)), repeat("little"))
    vals = list(map(sub, digits, repeat(half)))
    return dict(compress(zip(count(lo), vals), vals))


def _shifted_product(terms: dict, x: int, shift: int) -> int:
    """(sum_v v sum_{s in terms[v]} 2^s) * x << shift: one product v * x per
    distinct value, then one shift and one add per term."""
    acc = 0
    for v, ss in terms.items():
        vx = v * x
        for s in ss:
            acc += vx << s + shift
    return acc


def _kron_rows(a: list, b: list, nmax: int) -> list:
    """c[m] = sum_i a[i] * b[m - i] for m < min(len a, len b), on
    two-variable integer series {n: {e: int}}, each c[m] holding its
    nonzero rows n < nmax.

    Each input row is packed once, the shifted row products are summed
    per (m, n), and each output row is unpacked once.  A pair with a sparse
    row is multiplied by shifted adds over the terms of its sparser row.
    When a and b are equal (a square), each unordered pair (i, m - i) is
    multiplied once and doubled.
    """
    out = [{} for _ in range(min(len(a), len(b)))]
    a = [{n: row for n, row in s.items() if n < nmax and row} for s in a[: len(out)]]
    b = [{n: row for n, row in s.items() if n < nmax and row} for s in b[: len(out)]]
    same = a == b
    rows_a = [row for s in a for row in s.values()]
    rows_b = [row for s in b for row in s.values()]
    terms = min(sum(map(len, rows_a)), sum(map(len, rows_b)))
    bits_a = max((max(map(abs, row.values())) for row in rows_a), default=0).bit_length()
    bits_b = max((max(map(abs, row.values())) for row in rows_b), default=0).bit_length()
    w = (bits_a + bits_b + terms.bit_length() + 2 + 7) // 8
    packed_a = [[(n, len(row), *_kron_pack(row, w)) for n, row in sorted(s.items())] for s in a]
    packed_b = packed_a if same else [[(n, len(row), *_kron_pack(row, w)) for n, row in sorted(s.items())] for s in b]
    for m, c in enumerate(out):
        acc: dict = {}  # n -> (lowest exponent, sum of the products shifted onto it, slot count)
        for i in range(m // 2 + 1 if same else m + 1):
            dbl = same and i < m - i  # this product stands for that of (m - i, i) too: shift one more bit
            for n1, t1, lo1, x1, l1, s1 in packed_a[i]:
                for n2, t2, lo2, x2, l2, s2 in packed_b[m - i]:
                    n = n1 + n2
                    if n >= nmax:
                        break
                    lo = lo1 + lo2
                    base, x, slots = acc.get(n, (lo, 0, 0))
                    if lo < base:
                        base, x, slots = lo, x << 8 * w * (base - lo), slots + base - lo
                    shift = 8 * w * (lo - base) + dbl
                    if s1 is None and s2 is None:
                        p = (x1 * x2) << shift
                    elif s2 is None or (s1 is not None and t1 <= t2):
                        p = _shifted_product(s1, x2, shift)
                    else:
                        p = _shifted_product(s2, x1, shift)
                    acc[n] = (base, x + p, max(slots, lo - base + l1 + l2 - 1))
        for n, (base, x, slots) in acc.items():
            row = _kron_unpack(x, base, slots, w)
            if row:
                c[n] = row
    return out


def _kron_rational(a: dict, b: dict, nmax: int) -> dict:
    """_kron_rows of one rational series by another, each scaled by the lcm of its denominators."""
    den_a = math.lcm(*(v.denominator for row in a.values() for v in row.values()))
    den_b = math.lcm(*(v.denominator for row in b.values() for v in row.values()))
    a = {n: {e: v.numerator * (den_a // v.denominator) for e, v in row.items()} for n, row in a.items()}
    b = {n: {e: v.numerator * (den_b // v.denominator) for e, v in row.items()} for n, row in b.items()}
    rows, d = _kron_rows([a], [b], nmax)[0], den_a * den_b
    return rows if d == 1 else {n: {e: Fraction(v, d) for e, v in row.items()} for n, row in rows.items()}


def _dict_mul(a: dict, b: dict, emax: int) -> dict:
    """Exact truncated product of one-variable series."""
    return {e: v for e, v in _kron_rational({0: a}, {0: b}, 1).get(0, {}).items() if e < emax}


def _dict_div(num: dict, den: dict, emax: int) -> dict:
    """Exact truncated quotient num/den of integer-keyed series; den must
    have constant term 1 and no negative exponents."""
    if den.get(0) != 1 or min(den) < 0:
        raise ValueError("divisor must have constant term 1")
    if num and min(num) < 0:
        raise ValueError("quotient would have exponents below zero")
    tail = sorted((e, c) for e, c in den.items() if e)
    res: dict = {}
    nmin = min(num) if num else 0
    for k in range(nmin, emax):
        v = num.get(k, 0)
        for j, c in tail:
            if j > k - nmin:
                break
            prev = res.get(k - j)
            if prev is not None:
                v -= c * prev
        if v:
            res[k] = v
    return res


def _dict_scale(a: dict, c) -> dict:
    if not c:
        return {}
    return {e: v * c for e, v in a.items()}


def _dict_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, v in b.items():
        w = out.get(e, 0) + v
        if w:
            out[e] = w
        elif e in out:
            del out[e]
    return out
