"""Symmetric formal Fourier-Jacobi series of cogenus one.

A :class:`FormalFJ` of weight k holds Jacobi expansions phi_0 .. phi_{M_max}
with phi_m of index m, standing for the series sum phi_m(tau1, z) q2^m.
Its combined coefficient view c(f; t) attaches phi_m's coefficient at
(n, r) to the half-integral matrix t = [[n, r/2], [r/2, m]].  The symmetry
c(f; t[u]) = det(u)^k c(f; t) is audited on a finite window against the
three standard generators of GL2(Z).

The module also provides the arithmetic lift that generates honest
symmetric test series from an index-one cusp form, polynomials over the
graded ring acting on such series, and the monicization step that turns a
polynomial relation with cuspidal leading behavior into a monic one.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import accumulate, compress, repeat
from operator import attrgetter, floordiv, mul, sub

from .core import PrecisionError, _Algebra, _read_int, rat_str
# evaluate and multiply are not called here: bench/spans.py traces calls under these names
from .jacobi import (  # noqa: F401
    JacobiFormQExp,
    _common_rows,
    _convolve,
    _index1_table,
    _prefixes,
    _Table,
    _Texts,
    _texts_over,
    check_point,
    evaluate,
    evaluate_points,
    multiply,
)

__all__ = [
    "FormalFJ",
    "SymmetryReport",
    "PolynomialOverM",
    "check_symmetry",
    "gritsenko_lift",
    "poly_eval",
    "monicize",
    "rho",
    "evaluate_partial",
]

_REAL, _IMAG = attrgetter("real"), attrgetter("imag")

# generators of GL2(Z), as they label violations: swap, reflection, shear
_SWAP = ((0, 1), (1, 0))
_REFLECTION = ((1, 0), (0, -1))
_SHEAR = ((1, 0), (1, 1))


class FormalFJ(_Algebra):
    """Formal Fourier-Jacobi series: weight k, slices phis[0..M_max]."""

    __slots__ = ("k", "M_max", "phis", "_cuspidal")

    def __init__(self, k: int, M_max: int, phis):
        phis = tuple(phis)
        if M_max < 0 or len(phis) != M_max + 1:
            raise ValueError("need exactly M_max + 1 slices")
        for m, phi in enumerate(phis):
            if phi.m != m:
                raise ValueError("slice %d has index %d" % (m, phi.m))
            if phi.k != k:
                raise ValueError("slice %d has weight %d, series has weight %d" % (m, phi.k, k))
        self.k = int(k)
        self.M_max = int(M_max)
        self.phis = phis
        self._cuspidal = None

    @classmethod
    def zero(cls, k: int, M_max: int, prec: int) -> "FormalFJ":
        return cls(k, M_max, [JacobiFormQExp.zero(k, m, prec) for m in range(M_max + 1)])

    @classmethod
    def one(cls, M_max: int, prec: int) -> "FormalFJ":
        phis = [JacobiFormQExp(0, 0, prec, {(0, 0): 1} if prec > 0 else {})]
        phis += [JacobiFormQExp.zero(0, m, prec) for m in range(1, M_max + 1)]
        return cls(0, M_max, phis)

    @property
    def prec(self) -> int:
        return min(phi.prec for phi in self.phis)

    def coeff(self, n: int, r: int, m: int):
        """Combined coefficient c(f; t), t = [[n, r/2], [r/2, m]]."""
        if m < 0 or m > self.M_max:
            raise PrecisionError("slice index m=%d is beyond M_max=%d" % (m, self.M_max))
        return self.phis[m].coeff(n, r)

    def is_cuspidal(self) -> bool:
        """phi_0 vanishes and every other slice is a cusp form (4nm - r^2 > 0
        on its support); for symmetric series of holomorphic slices the
        second part follows from the first.  The slices are scanned once
        per series; later calls return the stored answer."""
        if self._cuspidal is None:
            self._cuspidal = self.phis[0].is_zero() and all(phi.is_cusp() for phi in self.phis[1:])
        return self._cuspidal

    def is_zero(self) -> bool:
        return all(phi.is_zero() for phi in self.phis)

    def add(self, other: "FormalFJ") -> "FormalFJ":
        """The sum to the smaller M_max; the slices' add refuses two weights."""
        mmax = min(self.M_max, other.M_max)
        return FormalFJ(self.k, mmax, [self.phis[m].add(other.phis[m]) for m in range(mmax + 1)])

    def scalar_mul(self, c) -> "FormalFJ":
        return FormalFJ(self.k, self.M_max, [phi.scalar_mul(c) for phi in self.phis])

    def multiply(self, other: "FormalFJ") -> "FormalFJ":
        slices = _convolve(self.phis, other.phis)
        return FormalFJ(self.k + other.k, len(slices) - 1, slices)

    def __eq__(self, other):
        if not isinstance(other, FormalFJ):
            return NotImplemented
        return self.k == other.k and self.M_max == other.M_max and self.phis == other.phis

    def __repr__(self):
        return "FormalFJ(k=%d, M_max=%d, prec=%d)" % (self.k, self.M_max, self.prec)

    def to_record(self):
        """The series record; the slices over one denominator read their
        value texts from one table, each text made once."""
        tables = _Table(_texts_over)
        return {
            "k": self.k,
            "M_max": self.M_max,
            "phis": [phi._record(tables[phi.den]) for phi in self.phis],
        }

    def write_json(self, fh) -> None:
        """Write the text of json.dumps(self.to_record()) to fh, the header
        and then one slice at a time, without the record.  As in to_record,
        the slices over one denominator share one table of value texts, and
        every slice shares one table of r prefixes."""
        tables, prefix = _Table(_texts_over), _prefixes()
        fh.write('{"k": %d, "M_max": %d, "phis": [' % (self.k, self.M_max))
        for m, phi in enumerate(self.phis):
            if m:
                fh.write(", ")
            fh.write(phi._json(tables[phi.den], prefix))
        fh.write("]}")

    @classmethod
    def from_record(cls, rec) -> "FormalFJ":
        """Series from its record; each entry of rec["phis"] is a slice
        record or a JacobiFormQExp already built from one.  The slice
        records share one table of value texts, as in the CLI reader."""
        texts = _Texts()
        return cls(
            _read_int(rec["k"]),
            _read_int(rec["M_max"]),
            [r if isinstance(r, JacobiFormQExp) else JacobiFormQExp._from_record(r, texts) for r in rec["phis"]],
        )


class SymmetryReport:
    """Result of the finite symmetry audit.

    violations holds dicts {"t": (n, r, m), "u": row tuples, "lhs": value,
    "rhs": value}; checked counts verified identities, skipped counts
    window images that fell outside the stored precision.
    """

    def __init__(self, weight: int, bound: int, checked: int, skipped: int, violations):
        self.weight = weight
        self.bound = bound
        self.checked = checked
        self.skipped = skipped
        self.violations = list(violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_record(self):
        return {
            "weight": self.weight,
            "bound": self.bound,
            "checked": self.checked,
            "skipped": self.skipped,
            "violations": [
                {
                    "t": list(v["t"]),
                    "u": ";".join(",".join(str(x) for x in row) for row in v["u"]),
                    "lhs": rat_str(v["lhs"]),
                    "rhs": rat_str(v["rhs"]),
                }
                for v in self.violations
            ],
        }

    def to_text(self) -> str:
        lines = [
            "symmetry audit: weight %d, bound %d" % (self.weight, self.bound),
            "checked %d, skipped %d, violations %d" % (self.checked, self.skipped, len(self.violations)),
        ]
        for v in self.to_record()["violations"]:
            lines.append("t=%s u=%s lhs=%s rhs=%s" % (tuple(v["t"]), v["u"], v["lhs"], v["rhs"]))
        return "\n".join(lines) + "\n"


def check_symmetry(f: FormalFJ, bound: int) -> SymmetryReport:
    """Audit c(f; t[u]) = det(u)^k c(f; t) on the window n, m <= bound,
    |r| <= 2 bound, for the three GL2(Z) generators.

    With t = (n, r, m) for [[n, r/2], [r/2, m]], the images t[u] are the
    swap (m, r, n) and the reflection (n, -r, m), both of det -1, and the
    shear (n + r + m, r + 2m, m).  The first two stay in the window, as
    bound <= M_max and bound < prec; shear images with n + r + m outside
    [0, prec) are skipped and counted, not treated as violations.  Integer
    numerators over the slices' common denominator are compared, a whole
    window of r for each (n, m) at once; violations are listed only where
    such a comparison fails, in (n, m, r, generator) order.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if bound > f.M_max or bound >= f.prec:
        raise ValueError("bound %d exceeds stored precision (prec %d, M_max %d)" % (bound, f.prec, f.M_max))
    sign = -1 if f.k % 2 else 1
    prec, b, empty = f.prec, bound, {}
    # rows[m][n] maps r to the numerator of c(n, r, m) over den
    den, rows = _common_rows(f.phis[: b + 1])
    # window[m][n][r + 2b] = c(n, r, m) on the window |r| <= 2b, one tuple per distinct row
    windows = _Table(lambda row: _dense(row, -2 * b, 2 * b + 1))
    window = [[windows.of(s.get(n, empty)) for n in range(b + 1)] for s in rows]
    skipped = 0
    bad = []  # (n, m, r, generator, lhs numerator, rhs numerator)
    for m, s in enumerate(rows):
        # column j of slice m's band holds c(x, x + m - b + j, m) for x = 0, 1, ...,
        # so the shear images c(n + r + m, r + 2m, m) of row n are column b - n at x = n + r + m
        band = list(zip(*(_dense(s.get(x, empty), x + m - b, x + m + 1) for x in range(min(prec, 3 * b + m + 1)))))
        for n in range(b + 1):
            v = window[m][n]
            want = v if sign == 1 else tuple(-c for c in v)
            for g, w in enumerate((window[n][m], v[::-1])):
                if w != want:
                    bad += [(n, m, i - 2 * b, g, w[i], want[i]) for i in range(4 * b + 1) if w[i] != want[i]]
            # r from -(n + m) to hi keeps 0 <= n + r + m < prec; the rest of the window is skipped
            hi = min(2 * b, prec - 1 - n - m)
            skipped += 2 * b - n - m + 2 * b - hi
            src, img = v[2 * b - n - m : 2 * b + hi + 1], band[b - n][: n + m + hi + 1]
            if src != img:
                bad += [(n, m, i - n - m, 2, w, c) for i, (c, w) in enumerate(zip(src, img)) if c != w]
    bad.sort()
    checked = 3 * (b + 1) ** 2 * (4 * b + 1) - skipped
    gens = (_SWAP, _REFLECTION, _SHEAR)
    violations = [
        {"t": (n, r, m), "u": gens[g], "lhs": Fraction(lhs, den), "rhs": Fraction(rhs, den)} for n, m, r, g, lhs, rhs in bad
    ]
    return SymmetryReport(f.k, bound, checked, skipped, violations)


def _dense(row: dict, start: int, stop: int) -> tuple:
    """The values of row at r = start, ..., stop - 1, zero where none is stored."""
    return tuple(map(row.get, range(start, stop), repeat(0)))


def gritsenko_lift(phi: JacobiFormQExp, M_max: int, prec: int) -> FormalFJ:
    """Arithmetic lift of an index-one cusp form to a symmetric cuspidal
    series: c(F; n, r, m) = sum over d | gcd(n, r, m) of d^(k-1)
    c(phi; n m / d^2, r / d).

    Needs phi stored past (prec - 1) * M_max, and c(phi; n, r) a function
    of 4n - r^2 on the stored rows, as for every index-one form; raises
    ValueError otherwise.  The sums run on integer numerators over phi's
    denominator (times that of d^(k-1) when k < 1).
    """
    if phi.m != 1:
        raise ValueError("lift input must have index 1")
    if not phi.is_cusp():
        raise ValueError("lift input must be cuspidal")
    return _lift(phi.k, phi.den, _index1_table(phi), M_max, prec)


def _lift(k: int, den: int, table: list, M_max: int, prec: int) -> FormalFJ:
    """Lift of the weight-k index-one cusp form c(n, r) = table[4n - r^2] / den:
    c(F; n, r, m) = sum over d | gcd(n, r, m) of d^(k-1) table[(4nm - r^2) / d^2],
    over den times the denominator of d^(k-1) when k < 1.  ValueError when
    table[0] or table[-1] (discriminant 0 or -1) is nonzero.  Equal values
    are one int object throughout the series, as in the CLI reader, and
    equal rows are one dict: row n of slice m is built once per nm,
    gcd(n, m) and factor the slice cancels, and each slice is stored in
    lowest terms as built.  The series is known cuspidal without a scan:
    phi_0 is zero and every stored entry has 4nm - r^2 >= 1."""
    need = (prec - 1) * M_max
    if len(table) <= 4 * need:
        raise PrecisionError(
            "generator stores %d rows; the requested series needs more than %d" % ((len(table) + 3) // 4, need)
        )
    if table[0] or table[-1]:
        raise ValueError("lift input is not a cusp form: nonzero coefficient at discriminant %d" % (-1 if table[-1] else 0))
    dpow = [Fraction(d) ** (k - 1) for d in range(1, max(M_max, 1) + 1)]
    scale = math.lcm(*(p.denominator for p in dpow))
    weight = [0] + [p.numerator * (scale // p.denominator) for p in dpow]
    w1 = weight[1]
    squares = [r * r for r in range(math.isqrt(max(4 * need - 1, 0)) + 1)]
    shared = {}  # every value of the series, mapped to itself
    # row n of slice m depends on (n, m) through nm and gcd(n, m) only, and on
    # the factor the slice cancels: each half row and each row is built once
    halves = {}  # (nm, gcd(n, m)) -> (row on r >= 0 before cancelling, gcd of its values)
    built = {}  # (nm, gcd(n, m), cancelled factor) -> row, empty for a zero row
    slices = [JacobiFormQExp.zero(k, 0, prec)]
    for m in range(1, M_max + 1):
        keys = [(n * m, math.gcd(n, m)) for n in range(1, prec)]
        for key in keys:
            if key in halves:
                continue
            nm, g = key
            base = 4 * nm
            rb = math.isqrt(base - 1)
            # row n on r >= 0, mirrored as 4nm - r^2 and d | r are even in r:
            # the divisor d = 1, then each d > 1 of g on r = 0 mod d
            half = list(map(table.__getitem__, map(sub, repeat(base), squares[: rb + 1])))
            if w1 != 1:
                half = list(map(mul, half, repeat(w1)))
            for d in range(2, g + 1):
                if g % d == 0:
                    w, dd = weight[d], d * d
                    for r in range(0, rb + 1, d):
                        half[r] += w * table[(base - r * r) // dd]
            halves[key] = half, math.gcd(*half)
        # the slice's factor in common with den is cancelled before its rows are built
        g = math.gcd(den * scale, *(halves[key][1] for key in keys))
        rows = {}
        for n, key in enumerate(keys, 1):
            row_key = key + (g,)
            if row_key not in built:
                half = halves[key][0]
                rb = len(half) - 1
                if g != 1:
                    half = list(map(floordiv, half, repeat(g)))
                half = list(map(shared.setdefault, half, half))
                vals = half[:0:-1] + half
                built[row_key] = dict(zip(compress(range(-rb, rb + 1), vals), filter(None, vals)))
            if row := built[row_key]:
                rows[n] = row
        slices.append(JacobiFormQExp._stored(k, m, prec, den * scale // g, rows))
    f = FormalFJ(k, M_max, slices)
    f._cuspidal = True
    return f


class PolynomialOverM:
    """Polynomial sum a_i X^i with FormalFJ coefficients obeying the weight
    ladder weight(a_i) = k0 + (d - i) k."""

    __slots__ = ("coeffs", "k0", "k")

    def __init__(self, coeffs, k0: int, k: int):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("need at least one coefficient")
        d = len(coeffs) - 1
        for i, a in enumerate(coeffs):
            want = k0 + (d - i) * k
            if a.k != want:
                raise ValueError("coefficient %d has weight %d, ladder requires %d" % (i, a.k, want))
        self.coeffs = coeffs
        self.k0 = int(k0)
        self.k = int(k)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def leading(self) -> FormalFJ:
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        lead = self.coeffs[-1]
        if lead.k != 0:
            return False
        one = FormalFJ.one(lead.M_max, lead.prec)
        return all(lead.phis[m].truncated(one.prec) == one.phis[m] for m in range(lead.M_max + 1))

    def to_record(self):
        return {
            "k0": self.k0,
            "k": self.k,
            "coeffs": [a.to_record() for a in self.coeffs],
        }

    @classmethod
    def from_record(cls, rec) -> "PolynomialOverM":
        return cls(
            [FormalFJ.from_record(r) for r in rec["coeffs"]],
            _read_int(rec["k0"]),
            _read_int(rec["k"]),
        )


def poly_eval(q: PolynomialOverM, f: FormalFJ) -> FormalFJ:
    """Horner evaluation sum a_i f^i."""
    if f.k != q.k:
        raise ValueError("series weight %d does not match polynomial step %d" % (f.k, q.k))
    acc, top = q.coeffs[-1], q.degree - 1
    if top >= 0 and q.is_monic():
        # 1 * f is f on the common (M_max, prec): skip that product
        mmax, prec = min(acc.M_max, f.M_max), min(acc.prec, f.prec)
        acc = FormalFJ(f.k, mmax, [phi.truncated(prec) for phi in f.phis[: mmax + 1]]).add(q.coeffs[top])
        top -= 1
    for i in range(top, -1, -1):
        acc = acc.multiply(f).add(q.coeffs[i])
    return acc


def monicize(q: PolynomialOverM, f: FormalFJ, f_c: FormalFJ):
    """Monic relation from a general one: R has coefficients
    b_i = a_d^(d-1-i) f_c^(d-i) a_i (and b_d = 1), h = a_d f_c f.

    f_c must be a nonzero cuspidal series; h is then cuspidal, and
    poly_eval(R, h) vanishes whenever poly_eval(Q, f) does.
    """
    a_d = q.coeffs[-1]
    if a_d.is_zero():
        raise ValueError("leading coefficient is zero")
    if f_c.is_zero():
        raise ValueError("f_c is zero")
    if not f_c.is_cuspidal():
        raise ValueError("f_c must be cuspidal")
    d = q.degree
    ell = f_c.k
    h = a_d.multiply(f_c).multiply(f)
    step = q.k0 + ell + q.k
    bs = []
    for i in range(d):
        b = q.coeffs[i]
        for _ in range(d - 1 - i):
            b = b.multiply(a_d)
        for _ in range(d - i):
            b = b.multiply(f_c)
        bs.append(b)
    mmax = min([b.M_max for b in bs] + [h.M_max])
    prec = min([b.prec for b in bs] + [h.prec])
    bs = [FormalFJ(b.k, mmax, [b.phis[m].truncated(prec) for m in range(mmax + 1)]) for b in bs]
    bs.append(FormalFJ.one(mmax, prec))
    return PolynomialOverM(bs, 0, step), h


def rho(tau) -> float:
    """Schur complement of Im(tau): Im(tau2) - (Im z)^2 / Im(tau1).

    Im(tau) is positive definite iff Im(tau1) > 0 and rho(tau) > 0.  Raises
    ValueError unless tau1 and z pass check_point and tau2 is finite.
    """
    t1, z, t2 = complex(tau[0][0]), complex(tau[0][1]), complex(tau[1][1])
    check_point(t1, z)
    if not cmath.isfinite(t2):
        raise ValueError("tau2 must be finite")
    return t2.imag - z.imag * z.imag / t1.imag


def siegel_point(tau):
    """(tau1, z, tau2) of a 2x2 complex symmetric tau; raises ValueError
    unless rho accepts tau and Im(tau) is positive definite."""
    schur = rho(tau)
    if complex(tau[0][1]) != complex(tau[1][0]):
        raise ValueError("tau must be symmetric")
    if schur <= 0:
        raise ValueError("imaginary part of tau is not positive definite")
    return complex(tau[0][0]), complex(tau[0][1]), complex(tau[1][1])


def q2_sum(values, tau2: complex) -> complex:
    """Sum of values[m] q2^m, q2 = e(tau2), each part added by math.fsum;
    ValueError when a part overflows a float."""
    q2 = cmath.exp(2j * math.pi * tau2)
    terms = list(map(mul, values, accumulate(repeat(q2), mul, initial=1.0 + 0j)))
    try:
        return complex(math.fsum(map(_REAL, terms)), math.fsum(map(_IMAG, terms)))
    except OverflowError:
        raise ValueError("a sum over q2 overflows a float at tau2 = %r" % tau2) from None


def evaluate_partial(f: FormalFJ, tau, M: int) -> complex:
    """Value of the partial series sum_{m <= M} phi_m(tau1, z) q2^m.

    tau is a 2x2 complex symmetric matrix with positive definite
    imaginary part.
    """
    if M > f.M_max:
        raise PrecisionError("partial sum M=%d is beyond M_max=%d" % (M, f.M_max))
    t1, z, t2 = siegel_point(tau)
    return q2_sum(evaluate_points(f.phis[: M + 1], [(t1, z)])[0], t2)
