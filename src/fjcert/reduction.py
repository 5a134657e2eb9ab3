"""Reduction theory for small positive definite rational matrices.

Covers exact Minkowski reduction at sizes one to three, the block
decomposition attached to a rational torsion direction lambda (a tool of
its own: jacobi.specialize_torsion substitutes z = tau1 lambda + mu and
does not call it), and the enumeration of the finite exponent windows.

A SymMatQ is stored as its integer Gram matrix g = D t over the least
D > 0 that clears the entry denominators, and reduction and its checks
work on g alone: rounding is floor division on integer pairs, the
Minkowski conditions are integer linear forms in the entries of g, and the
Hermite bound compares integer products, in which the powers of D cancel.
Text is read into (g, D) and printed from it, so the reduce command
builds no Fraction for a matrix with integer entries.  Unimodular matrices
keep integer entries and determinant +-1 as a constructor invariant.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .core import _read_int, parse_rat

__all__ = [
    "CapacityError",
    "SymMatQ",
    "UnimodularMat",
    "is_positive_definite",
    "act",
    "minkowski_reduce",
    "hermite_check",
    "torsion_decomposition",
    "corner_swap",
    "enumerate_S",
]


class CapacityError(RuntimeError):
    """Raised when an enumeration or a search would exceed its cap."""


# ---------------------------------------------------------------------------
# matrix types


def _text_rows(s: str):
    """The entries of the matrix text "a,b;b,c" as int or Fraction row lists."""
    return [[parse_rat(x) for x in part.split(",")] for part in s.strip().split(";")]


def _check_shape(rows):
    """ValueError unless rows is a square matrix of size one to three."""
    s = len(rows)
    if s < 1 or any(len(r) != s for r in rows):
        raise ValueError("matrix must be square")
    if s > 3:
        raise ValueError("matrix size above three is not supported")


class SymMatQ:
    """Symmetric rational matrix t of size one to three, stored as the
    integer Gram matrix gram = den t, den > 0 the least integer that clears
    the denominators of t: gcd(den, *gram) = 1, so equal matrices have equal
    fields."""

    __slots__ = ("size", "gram", "den")

    def __init__(self, rows):
        rows = [[x if isinstance(x, (int, Fraction)) else parse_rat(x) if isinstance(x, str) else Fraction(x) for x in row] for row in rows]
        _check_shape(rows)
        for i in range(len(rows)):
            for j in range(i):
                a, b = rows[i][j], rows[j][i]
                if not (a is b or a == b):
                    raise ValueError("matrix must be symmetric")
        g, self.den = _integral(rows)
        self.size, self.gram = len(g), tuple(map(tuple, g))

    @classmethod
    def _trusted(cls, g, den: int) -> "SymMatQ":
        """The matrix g / den for a symmetric integer matrix g of size one to
        three and den > 0, unchecked; a common factor of den and g cancels."""
        c = math.gcd(den, *itertools.chain.from_iterable(g))
        t = cls.__new__(cls)
        t.size, t.den = len(g), den // c
        t.gram = tuple(tuple(x // c for x in row) for row in g) if c > 1 else tuple(map(tuple, g))
        return t

    @property
    def rows(self):
        """The entries as Fraction row tuples."""
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.gram)

    def __getitem__(self, ij):
        i, j = ij
        return Fraction(self.gram[i][j], self.den)

    def det(self) -> Fraction:
        return Fraction(_det(self.gram), self.den**self.size)

    def __eq__(self, other):
        return isinstance(other, SymMatQ) and self.den == other.den and self.gram == other.gram

    def __hash__(self):
        return hash((self.gram, self.den))

    def __repr__(self):
        return "SymMatQ(%s)" % (self.to_text(),)

    def to_text(self) -> str:
        """The entries as "a,b;b,c"; no Fraction is built when den is 1."""
        if self.den == 1:
            return ";".join(",".join(map(str, row)) for row in self.gram)
        return ";".join(",".join([str(Fraction(x, self.den)) for x in row]) for row in self.gram)

    @classmethod
    def from_text(cls, s: str) -> "SymMatQ":
        """The matrix of the text "a,b;b,c"; no Fraction is built for a plain
        integer entry."""
        return cls(_text_rows(s))


class UnimodularMat:
    """Integer matrix of size one to three with determinant +1 or -1."""

    __slots__ = ("size", "rows")

    def __init__(self, rows):
        rows = [tuple(map(_read_int, row)) for row in rows]
        _check_shape(rows)
        d = _det(rows)
        if d not in (1, -1):
            raise ValueError("determinant must be +1 or -1, got %s" % d)
        self.size = len(rows)
        self.rows = tuple(rows)

    @classmethod
    def identity(cls, s: int) -> "UnimodularMat":
        return cls([[1 if i == j else 0 for j in range(s)] for i in range(s)])

    def det(self) -> int:
        return _det(self.rows)

    def __matmul__(self, other: "UnimodularMat") -> "UnimodularMat":
        return UnimodularMat(_matmul(self.rows, other.rows))

    def column(self, j: int):
        return tuple(self.rows[i][j] for i in range(self.size))

    def __eq__(self, other):
        return isinstance(other, UnimodularMat) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "UnimodularMat(%s)" % (self.to_text(),)

    def to_text(self) -> str:
        return ";".join(",".join(map(str, row)) for row in self.rows)


# ---------------------------------------------------------------------------
# dense helpers (row sequences over Fraction or int)


def _det(m):
    """Determinant of a square matrix of size one to three."""
    s = len(m)
    if s == 1:
        return m[0][0]
    if s == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _matmul(a, b):
    n, k, m2 = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m2)] for i in range(n)]


# ---------------------------------------------------------------------------
# core operations


def _positive_definite(g) -> bool:
    """True iff every leading principal minor of the square matrix g is positive."""
    for k in range(1, len(g) + 1):
        if _det([row[:k] for row in g[:k]]) <= 0:
            return False
    return True


def is_positive_definite(t: SymMatQ) -> bool:
    """True iff all leading principal minors are positive, tested on the
    integer matrix t.gram = den t (the signs agree)."""
    return _positive_definite(t.gram)


def act(t: SymMatQ, u) -> SymMatQ:
    """Right action t[u] = u^T t u for an integer matrix u of matching size,
    a UnimodularMat or a sequence of rows."""
    ur = u.rows if isinstance(u, UnimodularMat) else u
    if len(ur) != t.size:
        raise ValueError("size mismatch between matrix and action")
    return SymMatQ._trusted(_matmul(list(zip(*ur)), _matmul(t.gram, ur)), t.den)


def _round_half_to_zero(p: int, q: int) -> int:
    """Nearest integer to p / q for q > 0, ties toward zero, so a boundary
    off-diagonal entry with 2|g_ij| = g_ii is left in place instead of
    oscillating."""
    if p > 0:
        return -((q - 2 * p) // (2 * q))
    return (2 * p + q) // (2 * q)


def _integral(rows):
    """(g, D): the int or Fraction entries of rows times D, the lcm of their
    denominators, as fresh int lists."""
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in rows], scale


# the upper-triangle entries (a, b), a <= b, of a matrix of size s
_ENTRIES = {s: [(a, b) for a in range(s) for b in range(a, s)] for s in (1, 2, 3)}

# the rows of the identity of size s, copied as the start of a transform
_IDENTITY = {s: UnimodularMat.identity(s).rows for s in (1, 2, 3)}

# every x in {-1, 0, 1}^s whose first nonzero entry is -1, one of each pair
# +-x, in itertools.product order, with the index j of its last nonzero entry
# and the coefficients of g[x] in the entries of _ENTRIES[s]: x_a^2 for g_aa
# and 2 x_a x_b for g_ab, a < b
_CONDITIONS = {
    s: [
        (x, max(i for i in range(s) if x[i]), tuple(x[a] * x[b] * (1 if a == b else 2) for a, b in _ENTRIES[s]))
        for x in itertools.product((-1, 0, 1), repeat=s)
        if next((v for v in x if v), 0) == -1
    ]
    for s in (1, 2, 3)
}


def _first_violation(g):
    """The first (x, j) in _CONDITIONS with g[x] < g_kk for some k <= j, or None.

    For s <= 3 the inequalities g[x] >= g_kk, over every nonzero x in
    {-1, 0, 1}^s and every k up to the last nonzero index j of x, are the
    whole of Minkowski reduction (Cassels, Rational Quadratic Forms, ch. 12).
    x = e_j orders the diagonal and x = e_j +- e_i bounds 2|g_ij| by g_ii.
    Some k <= j has g[x] < g_kk exactly when g[x] is below the largest of
    g_00 .. g_jj.  Since g[x] = g[-x], half the list is scanned: in product
    order over all of {-1, 0, 1}^s the twin whose first nonzero entry is -1
    comes first, so the first violation found is the same.
    """
    s = len(g)
    entries = [g[a][b] for a, b in _ENTRIES[s]]
    top = list(itertools.accumulate([g[k][k] for k in range(s)], max))
    for x, j, coeffs in _CONDITIONS[s]:
        if sum(map(operator.mul, coeffs, entries)) < top[j]:
            return x, j
    return None


def _swap(g, u, i):
    """Exchange basis vectors i and i + 1: columns of u, rows and columns of g."""
    for m in (g, u):
        for row in m:
            row[i], row[i + 1] = row[i + 1], row[i]
    g[i], g[i + 1] = g[i + 1], g[i]


def _replace(g, u, j, c):
    """Replace basis vector j by sum_i c_i b_i (c_j = +-1, so u stays unimodular)."""
    for m in (g, u):
        for row in m:
            row[j] = sum(ci * v for ci, v in zip(c, row))
    g[j] = [sum(ci * row[k] for ci, row in zip(c, g)) for k in range(len(g))]


def minkowski_reduce(n: SymMatQ):
    """Minkowski-reduce a positive definite matrix of size one to three.

    Returns (reduced, rho) with reduced = n[rho] and rho unimodular, where
    reduced[x] >= reduced_kk for every nonzero x in {-1, 0, 1}^s and every k
    up to the last nonzero index of x.  At these sizes that finite list is
    Minkowski reduction: the diagonal is nondecreasing, 2|reduced_ij| <=
    reduced_ii for i < j, and reduced_00 is the minimum of the form over
    nonzero integer vectors.  Signs are normalized so that reduced_01 and
    reduced_02 are nonnegative.  Raises ValueError unless n is positive
    definite.
    """
    if not _positive_definite(n.gram):
        raise ValueError("matrix must be positive definite")
    s = n.size
    g = [list(row) for row in n.gram]
    u = [list(row) for row in _IDENTITY[s]]
    # Swaps keep the trace of g and sort the diagonal in finitely many steps.
    # A shear with r != 0 lowers g_jj, and a replacement by x lowers g_jj to
    # g[x] < g_kk <= g_jj, so each lowers the positive integer trace of g and
    # the loop ends.
    while True:
        changed = False
        for end in range(s - 1, 0, -1):
            for i in range(end):
                if g[i][i] > g[i + 1][i + 1]:
                    _swap(g, u, i)
                    changed = True
        for i in range(s):
            for j in range(i + 1, s):
                r = _round_half_to_zero(g[i][j], g[i][i])
                if r:  # b_j -> b_j - r b_i: one column, then one row of g
                    for m in (g, u):
                        for row in m:
                            row[j] -= r * row[i]
                    g[j] = [a - r * b for a, b in zip(g[j], g[i])]
                    changed = True
        if not changed:
            bad = _first_violation(g)
            if bad is None:
                break
            x, j = bad
            _replace(g, u, j, x)
    for j in range(1, s):
        if g[0][j] < 0:
            _replace(g, u, j, [-int(k == j) for k in range(s)])
    return SymMatQ._trusted(g, n.den), UnimodularMat(u)


# gamma_s^s as (numerator, denominator)
_HERMITE_POW = {1: (1, 1), 2: (4, 3), 3: (2, 1)}


def _hermite_gram(g) -> bool:
    """The bound of hermite_check on the Gram matrix g = D n of any D > 0,
    with neither of its checks: both sides carry the factor D^s.  For the
    gram of a matrix that minkowski_reduce returns, both checks hold."""
    num, den = _HERMITE_POW[len(g)]
    return g[0][0] ** len(g) * den <= num * _det(g)


def hermite_check(n: SymMatQ) -> bool:
    """Check (n_00)^s <= gamma_s^s det(n) for a Minkowski reduced matrix.

    gamma_s^s is 1, 4/3, 2 at sizes 1, 2, 3.  Raises ValueError unless n is
    positive definite, then unless n[x] >= n_kk for every nonzero x in
    {-1, 0, 1}^s and every k up to the last nonzero index of x, the
    condition list that minkowski_reduce establishes.  The bound is tested
    on n.gram.
    """
    if not _positive_definite(n.gram):
        raise ValueError("matrix must be positive definite")
    bad = _first_violation(n.gram)
    if bad is not None:
        raise ValueError("input is not Minkowski reduced: n[x] < n_kk at x = %s" % (bad[0],))
    return _hermite_gram(n.gram)


# ---------------------------------------------------------------------------
# torsion decomposition


def _xgcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _col_reduce(v):
    """Unimodular W with v @ W = (1, 0, ..., 0) for primitive integer v."""
    s = len(v)
    w = list(v)
    cols = [[1 if i == j else 0 for i in range(s)] for j in range(s)]  # cols[j][i]
    for i in range(1, s):
        if w[i] == 0:
            continue
        g, x, y = _xgcd(w[0], w[i])
        c0 = [x * cols[0][t] + y * cols[i][t] for t in range(s)]
        ci = [
            -(w[i] // g) * cols[0][t] + (w[0] // g) * cols[i][t] for t in range(s)
        ]
        cols[0], cols[i] = c0, ci
        w[0], w[i] = g, 0
    if w[0] == -1:
        cols[0] = [-x for x in cols[0]]
        w[0] = 1
    if w[0] != 1:
        raise ValueError("vector must be primitive")
    rows = [[cols[j][i] for j in range(s)] for i in range(s)]
    return UnimodularMat(rows)


def corner_swap(g: int) -> UnimodularMat:
    """Permutation matrix exchanging the first and last coordinates."""
    rows = [[1 if i == j else 0 for j in range(g)] for i in range(g)]
    rows[0][0] = rows[g - 1][g - 1] = 0
    rows[0][g - 1] = rows[g - 1][0] = 1
    return UnimodularMat(rows)


def torsion_decomposition(lam, M: int, n: SymMatQ | None = None):
    """Block decomposition attached to a torsion direction lambda.

    lam is a vector of g-1 rationals in (1/M)Z with lcm of denominators
    exactly M.  Returns (u, rho, xi) with u unimodular of size g, rho an
    integer (g-1)x(g-1) block with |det rho| = M, and xi an integer column,
    satisfying [[I, 0], [-lam^T, 1]] u = [[rho, xi], [0, 1/M]] s where s is
    the corner swap permutation.  When a positive definite target n is
    supplied, u is post-composed so that n[rho] is Minkowski reduced.
    """
    lam = [Fraction(x) for x in lam]
    gm1 = len(lam)
    if gm1 < 1 or gm1 > 2:
        raise ValueError("unsupported genus")
    if M < 1:
        raise ValueError("denominator must be positive")
    nums = []
    for x in lam:
        y = x * M
        if y.denominator != 1:
            raise ValueError("lambda is not in (1/M)Z")
        nums.append(int(y))
    g = 0
    for x in nums:
        g = math.gcd(g, abs(x))
    if math.gcd(g, M) != 1:
        raise ValueError("M is not the exact denominator of lambda")
    size = gm1 + 1
    w = tuple(-x for x in nums) + (M,)
    u = _col_reduce(w)
    # flip the kernel columns so their topmost nonzero entry is positive
    cols = [list(u.column(j)) for j in range(size)]
    for j in range(1, size):
        lead = next((x for x in cols[j] if x != 0), 0)
        if lead < 0:
            cols[j] = [-x for x in cols[j]]
    u = UnimodularMat([[cols[j][i] for j in range(size)] for i in range(size)])
    rho, xi = _extract_blocks(lam, M, u)
    if n is not None:
        _, vhat = minkowski_reduce(act(n, rho))
        u = u @ _rho_transform(size, vhat)
        rho, xi = _extract_blocks(lam, M, u)
    return u, rho, xi


def _extract_blocks(lam, M, u):
    size = u.size
    gm1 = size - 1
    # the top block of B u is just the top block of u
    top = [u.rows[i] for i in range(gm1)]
    # column positions of rho inside B u: last column first, then middle
    pos = [size - 1] + list(range(1, size - 1))
    rho = tuple(tuple(top[i][pos[j]] for j in range(gm1)) for i in range(gm1))
    xi = tuple(top[i][0] for i in range(gm1))
    # exactness audit of the bottom row: (-lam, 1) u = (1/M) e_1
    bottom = [
        sum(-lam[t] * u.rows[t][j] for t in range(gm1)) + u.rows[gm1][j]
        for j in range(size)
    ]
    expect = [Fraction(1, M)] + [Fraction(0)] * (size - 1)
    if bottom != expect:
        raise AssertionError("internal decomposition identity failed")
    if abs(_det(rho)) != M:
        raise AssertionError("internal block determinant check failed")
    return rho, xi


def _rho_transform(size: int, vhat: UnimodularMat) -> UnimodularMat:
    """Right factor replacing rho by rho vhat while fixing xi."""
    gm1 = size - 1
    pos = [size - 1] + list(range(1, size - 1))
    rows = [[0] * size for _ in range(size)]
    rows[0][0] = 1
    for i in range(gm1):
        for j in range(gm1):
            rows[pos[i]][pos[j]] = vhat.rows[i][j]
    return UnimodularMat(rows)


# ---------------------------------------------------------------------------
# exponent window enumeration


# default cap of enumerate_S on candidates, of jacobi._convolve on the values
# of r one product row spans, and of JacobiFormQExp.float_terms, which
# evaluate_points calls for each form, on the values r = -R .. R of the
# form's evaluation line, R its largest stored |r|
WINDOW_CAP = 10**6


def enumerate_S(N: int, b, g: int, cap: int = WINDOW_CAP):
    """Exponent window: positive definite (g-1)-matrices over (1/(2 N^2)) Z
    with diagonal entries below b * N^(8 (g-1)^2), in lexicographic order of
    scaled entries.

    The candidates are the integer matrices k = 2 N^2 t with diagonal in
    [1, kmax]^s and |k_ij| <= isqrt(k_ii k_jj - 1), which positive
    definiteness requires.  cap bounds the number of candidates examined;
    they are counted before any is built, and CapacityError is raised past
    cap.  At sizes one and two every candidate is kept.
    """
    if N < 1:
        raise ValueError("N must be positive")
    b = Fraction(b)
    if b < 0:
        raise ValueError("b must be nonnegative")
    s = g - 1
    if s < 1 or s > 3:
        raise ValueError("unsupported genus")
    den, top = 2 * N * N, b * N ** (8 * s * s)
    kmax = max(math.ceil(top * den) - 1, 0)  # largest integer below top * den, or 0
    pairs = list(itertools.combinations(range(s), 2))

    def boxes():
        for d in itertools.product(range(1, kmax + 1), repeat=s):
            yield d, [range(-x, x + 1) for x in (math.isqrt(d[i] * d[j] - 1) for i, j in pairs)]

    # every diagonal has at least one candidate, so kmax^s settles wide windows
    # at once; otherwise the running count stops at the first diagonal past cap
    counts = itertools.accumulate(math.prod(map(len, offs)) for _, offs in boxes())
    if kmax**s > cap or any(n > cap for n in counts):
        raise CapacityError("more than %d candidates to examine" % cap)
    # product order is the lexicographic order of (diagonal, off-diagonal), so no sort
    out = []
    for d, offs in boxes():
        for off in itertools.product(*offs):
            g = [[d[i] if i == j else 0 for j in range(s)] for i in range(s)]
            for (i, j), x in zip(pairs, off):
                g[i][j] = g[j][i] = x
            if _positive_definite(g):
                out.append(SymMatQ._trusted(g, den))
    return out
