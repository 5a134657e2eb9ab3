"""Exact arithmetic primitives: rational text, Bernoulli numbers, divisor
sums, level-one Eisenstein coefficients and the integer series kernel.

Coefficient arithmetic throughout the package is exact.  Rational numbers
are ``fractions.Fraction``; every series product runs on integer series
(``{exponent: int}`` dicts, or rows of them) through one kernel,
:func:`_kron_rows`, and rational series are kept as integer numerators over
one denominator by their owners.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import compress, count, repeat
from operator import itemgetter, sub
from struct import iter_unpack

__all__ = [
    "PrecisionError",
    "bernoulli",
    "sigma",
    "rat_str",
    "parse_rat",
]


class PrecisionError(ValueError):
    """Raised when a coefficient beyond the stored precision is requested."""


def rat_str(x) -> str:
    return str(Fraction(x))


# the digit limit of int <-> str conversion; CPython 3.10 before 3.10.7 has none
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)

# a run of digits as Fraction reads it: from Python 3.11 on, with single
# underscores between digits (PEP 515)
_DIGITS = r"\d+(?:_\d+)*" if sys.version_info >= (3, 11) else r"\d+"

# the decimal texts Fraction reads: sign, integer part, fraction part, exponent; compiled on first use
_DECIMAL = r"([-+]?)(?=\d|\.\d)(\d*|{0})(?:\.(\d*|{0}))?(?:[eE]([-+]?{0}))?".format(_DIGITS)


def _decimal_parts(t: str):
    """(n, e) with n >= 0 and |value| = n * 10^e for a decimal text t that
    Fraction reads, or None for any other text.  Under a digit limit L,
    n < 10^(2 L): the int conversions of the two parts, as in Fraction,
    raise ValueError past L digits each."""
    m = re.fullmatch(_DECIMAL, t)
    if m is None:
        return None
    _, whole, frac, exp = m.groups()
    frac = (frac or "").replace("_", "")
    return int(whole or "0") * 10 ** len(frac) + int(frac or "0"), int(exp or "0") - len(frac)


def _too_long(n: int, e: int, limit: int) -> bool:
    """True iff n * 10^e, n > 0, has a numerator or a denominator of more than
    limit digits in lowest terms, with no power of ten built past 3 * limit
    digits."""
    if e >= 0:
        return e >= limit or n >= 10 ** (limit - e)
    if -e >= 3 * limit:  # the denominator is at least 10^-e / n > 10^limit
        return True
    d = 10**-e
    c = math.gcd(n, d)
    return max(n // c, d // c) >= 10**limit


def parse_rat(s: str) -> int | Fraction:
    """The value of text such as "3", "-7/2", "0.25" or "1e-3": an int for
    [sign]digits, a Fraction for any other text that Fraction reads.
    ValueError on bad text, a zero denominator included, and on a value whose
    numerator or denominator has more digits than sys.get_int_max_str_digits()
    allows (0: no limit), so that every value read can be printed.
    [sign]digits and [sign]digits/digits are read by int() alone; every other
    text, underscores included, goes through Fraction, which decides what it
    reads on each Python version."""
    t = (s if type(s) is str else str(s)).strip()
    limit = _int_max_str_digits()
    # without an exponent, no part of a text of at most limit characters is longer
    if limit and ("e" in t or "E" in t or len(t) > limit):
        parts = _decimal_parts(t)
        if parts is not None:
            n, e = parts
            if n == 0:  # Fraction would build 10^|e| first
                return Fraction(0)
            if _too_long(n, e, limit):
                raise ValueError("numerator or denominator exceeds the limit (%d digits) for integer string conversion" % limit)
    if (t[1:] if t[:1] in "+-" else t).isdecimal():
        return int(t)
    num, slash, den = t.partition("/")
    if slash and den.isdecimal() and (num[1:] if num[:1] in "+-" else num).isdecimal() and (q := int(den)):
        return Fraction(int(num), q)
    try:
        return Fraction(t)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (s,)) from None


def _read_int(v) -> int:
    """int(v), refusing with ValueError a float, a bool and any other
    number that int() would change: it truncates a Fraction or a Decimal
    and reads a bool as 0 or 1.  A text is read by int()."""
    if type(v) is int:
        return v
    if isinstance(v, (float, bool)) or (type(v) is not str and int(v) != v):
        raise ValueError("expected an integer, got %r" % (v,))
    return int(v)


class _Record:
    """Base of the small value classes, cheaper to import than the standard
    decorator, which loads inspect and ast: a subclass names its fields in
    __slots__ and sets them, in that order, through _Record.__init__.  ==,
    hash and repr go field by field; assignment raises AttributeError."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(map("%s=%r".__mod__, zip(self.__slots__, self._fields()))))

    def __reduce__(self):  # copy and pickle through __init__: restoring slot state would assign
        return type(self), self._fields()

    def __setattr__(self, name, *value):
        raise AttributeError("cannot assign to or delete field %r" % (name,))

    __delattr__ = __setattr__


class _Algebra:
    """f + g, -f, f - g, f * g and c * f = f * c over add, scalar_mul, multiply."""

    __slots__ = ()

    def __add__(self, other):
        return self.add(other)

    def __neg__(self):
        return self.scalar_mul(-1)

    def __sub__(self, other):
        return self.add(other.scalar_mul(-1))

    def __mul__(self, other):
        return self.multiply(other) if isinstance(other, type(self)) else self.scalar_mul(other)

    __rmul__ = __mul__


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
# Plain dicts {exponent: int} truncated below emax.  Every series product
# in the package runs through one exact kernel, _kron_rows, by Kronecker
# substitution on integer rows (a Jacobi form's rows are its numerators
# over one denominator, see jacobi._common_rows): each row is packed into
# one Python int as base-X digits with X = 2^(8w), from that row's own
# lowest exponent, and CPython's bignum multiply does the convolution.  A
# row with at most one nonzero slot in eight of its span (rounded up, so a
# single term counts), such as a theta series or a constant, keeps its
# terms too: a product with it is sum_k v_k (x << 8w k) over its terms, the
# same integer as the bignum product, in one shift and one add per term
# instead of a Karatsuba product over the whole span.  A row product starts
# at the sum of its two rows' lowest exponents; it is shifted by whole slots
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


def _dict_mul(a: dict, b: dict, emax: int) -> dict:
    """Exact truncated product of one-variable integer series."""
    return {e: v for e, v in _kron_rows([{0: a}], [{0: b}], 1)[0].get(0, {}).items() if e < emax}


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
