"""Schoolbook series products and binary reduction: the differential oracles
for the kernel and for the Minkowski loop.

These are the package's original pure-Python convolution loops, kept
verbatim (apart from being free functions here) so that tests can assert
that the Kronecker-substitution kernel in ``fjcert.core`` gives equal
results: ``dict_mul`` is the old ``core._dict_mul``, ``qexp_mul`` the old
``QExpansion.__mul__`` and ``jacobi_multiply`` the old ``jacobi.multiply``.

``jacobi_space`` rebuilds the index-one spaces the old way: the kernel of
the holomorphy and cusp conditions by generic Gaussian elimination over Q
(``_kernel_basis``, the old ``jacobi._kernel_basis``), every product
through ``dict_mul``, the generator denominators P6, T2 and T44 expanded
to dense series and divided out whole, rational theta components
materialized through the validating constructor, and the normalization
applied to the materialized form.

``space_components`` is the old ``jacobi._space_components`` body: it
takes the kernel of the holomorphy and cusp conditions as e_f - e_p with a
cusp pivot p, and divides every basis element's numerator sum by P6, also
for cusp forms, where the package now multiplies by q P18 instead.  Its
(den, C) must be the package's, element for element.

``reduce2`` is the old ``reduction._reduce2``, the Gauss reduction loop
for binary forms that the general Minkowski loop replaced; on binary forms
the two must return the same (form, transform) pair.

``minkowski_reduce`` and ``hermite_check`` are the Fraction versions of
the general loop and its check, with their helpers ``_round_half_to_zero``,
``_round_half_up`` and ``_first_violation``: rounding on Fraction
quotients, each condition g[x] summed over all s^2 entries and compared
with every g_kk, and the Hermite bound on the Fraction determinant.
``completion2`` is the old pair branch of ``unimodular_completion``.  The
integer loop, the integer checks and the completion must agree with them.

``check_symmetry`` is the old ``fjseries.check_symmetry``: it forms every
image t[u] = u^T t u with generic 2x2 arithmetic and reads the Fraction
view of the slices.  The closed-form integer audit must return an equal
report: counts, violations in the same order, the same values.

``gritsenko_lift`` is the old ``fjseries.gritsenko_lift``: it reads the
generator's (n, r)-keyed numerators, c(phi; n m / d^2, r / d), where the
lift now reads one table by discriminant.  ``jacobi_to_record`` and
``jacobi_from_record`` are the old ``JacobiFormQExp.to_record`` and
``from_record``, the latter with its own copy of the old ``_checked``: the
one-pass series writer must produce the bytes of ``json.dumps`` of the old
record, and the reader must accept, reject and return what the old one did.

``pad_index0`` and ``coeff_table`` are the old ``FormalFJ`` methods of
those names, which only tests called: a series whose one slice is an
index-zero q-expansion, and every stored coefficient keyed by HalfIntIndex.

``poly_eval`` is the old ``fjseries.poly_eval``: Horner from the leading
coefficient, every step one product by f (here through ``series_multiply``),
with no shortcut for a leading coefficient of one.  ``evaluate`` is the old
``jacobi.evaluate``: it tabulates x^n for every n up to the largest stored
one and y^r for every r between 0 and the stored extremes, multiplies them
term by term, and raises where a table overflows even when no term does.
``evaluate_terms`` is the per-term oracle for both: each term from its own
``cmath.exp``, for the caller to add with ``math.fsum``.  ``window_abs`` is
the old ``jacobi.window_abs``, which compares and scales each window
exponent as a ``Fraction``.  ``specialize_torsion`` is the old
``jacobi.specialize_torsion``: it computes the exponent of every stored
term, raises at the first negative one and drops those at or above the
certified precision one by one, where the package skips whole rows and
reads only the terms below the precision.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from functools import lru_cache

from fjcert.core import CycElem, PrecisionError, QExpansion, _dict_add, _dict_div, _dict_mul, _dict_scale, _eis_dict, _vadd, _vmul, _viszero, cyc_eval, parse_rat
from fjcert import jacobi
from fjcert.fjseries import FormalFJ, SymmetryReport
from fjcert.jacobi import (
    JacobiFormQExp,
    _numerators,
    _over_p6,
    _series_p3,
    _series_sa,
    _series_sbq,
    _table,
    index0_from_qexp,
)
from fjcert.reduction import (
    HalfIntIndex,
    SymMatQ,
    UnimodularMat,
    _integral,
    _positive_definite,
    _replace,
    _swap,
    _xgcd,
    act,
)


def dict_mul(a: dict, b: dict, emax: int) -> dict:
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    ai = sorted(a.items())
    bi = sorted(b.items())
    b0 = bi[0][0]
    out: dict = {}
    for e1, v1 in ai:
        lim = emax - e1
        if b0 >= lim:
            break
        for e2, v2 in bi:
            if e2 >= lim:
                break
            e = e1 + e2
            prev = out.get(e)
            out[e] = v1 * v2 if prev is None else prev + v1 * v2
    return {e: v for e, v in out.items() if v}


def qexp_mul(self: QExpansion, other) -> QExpansion:
    if isinstance(other, (int, Fraction, CycElem)):
        return self.scalar_mul(other)
    a, b, L = self._pair(other)
    prec = min(a.prec, b.prec)
    bound = prec * L
    out: dict = {}
    bi = sorted(b.coeffs.items())
    for e1, v1 in sorted(a.coeffs.items()):
        lim = bound - e1
        if bi and bi[0][0] >= lim:
            break
        for e2, v2 in bi:
            if e2 >= lim:
                break
            e = e1 + e2
            prev = out.get(e)
            tv = _vmul(v1, v2)
            out[e] = tv if prev is None else _vadd(prev, tv)
    return QExpansion(L, {e: v for e, v in out.items() if not _viszero(v)}, prec)


def jacobi_multiply(a: JacobiFormQExp, b: JacobiFormQExp) -> JacobiFormQExp:
    """Product of Jacobi forms; weights and indices add, precision is the min."""
    prec = min(a.prec, b.prec)
    k = a.k + b.k
    m = a.m + b.m
    if not a.coeffs or not b.coeffs:
        return JacobiFormQExp.zero(k, m, prec)
    den_a = 1
    for v in a.coeffs.values():
        den_a = den_a * Fraction(v).denominator // math.gcd(den_a, Fraction(v).denominator)
    den_b = 1
    for v in b.coeffs.values():
        den_b = den_b * Fraction(v).denominator // math.gcd(den_b, Fraction(v).denominator)
    a_by_n: dict = {}
    for (n, r), v in a.coeffs.items():
        if n < prec:
            a_by_n.setdefault(n, []).append((r, int(v * den_a)))
    b_by_n: dict = {}
    for (n, r), v in b.coeffs.items():
        if n < prec:
            b_by_n.setdefault(n, []).append((r, int(v * den_b)))
    bns = sorted(b_by_n)
    acc: dict = {}
    for n1 in sorted(a_by_n):
        rows1 = a_by_n[n1]
        for n2 in bns:
            n = n1 + n2
            if n >= prec:
                break
            rows2 = b_by_n[n2]
            for r1, v1 in rows1:
                for r2, v2 in rows2:
                    key = (n, r1 + r2)
                    prev = acc.get(key)
                    acc[key] = v1 * v2 if prev is None else prev + v1 * v2
    d = den_a * den_b
    if d == 1:
        out = {key: v for key, v in acc.items() if v}
    else:
        out = {}
        for key, v in acc.items():
            if v:
                out[key] = Fraction(v, d)
    return JacobiFormQExp(k, m, prec, out)


# the old generator construction: dense denominators, schoolbook products


def _dict_shift(a: dict, s: int) -> dict:
    return {e + s: v for e, v in a.items()}


@lru_cache(maxsize=None)
def _series_p6(emax: int):
    p3 = _series_p3(emax)
    return dict_mul(p3, p3, emax)


@lru_cache(maxsize=None)
def _series_t2(emax: int):
    base = {}
    n = 0
    while n * (n + 1) // 2 < emax:
        base[n * (n + 1) // 2] = 1
        n += 1
    return dict_mul(base, base, emax)


@lru_cache(maxsize=None)
def _series_t2_double(emax: int):
    base = {}
    n = 0
    while n * (n + 1) < emax:
        base[n * (n + 1)] = 1
        n += 1
    return dict_mul(base, base, emax)


@lru_cache(maxsize=None)
def _series_t32(emax: int):
    base = {0: 1}
    n = 1
    while n * n < emax:
        base[n * n] = 2
        n += 1
    return dict_mul(base, base, emax)


@lru_cache(maxsize=None)
def _series_t44(emax: int):
    base = {0: 1}
    n = 1
    while n * n < emax:
        base[n * n] = -2 if n % 2 else 2
        n += 1
    sq = dict_mul(base, base, emax)
    return dict_mul(sq, sq, emax)


@lru_cache(maxsize=None)
def _phi_m2_components(jlen: int):
    p6 = _series_p6(jlen)
    h0 = _dict_scale(_dict_div(_series_sa(jlen), p6, jlen), -2)
    h1 = _dict_div(_series_sbq(jlen), p6, jlen)
    return h0, h1


@lru_cache(maxsize=None)
def _phi0_components(jlen: int):
    sa = _series_sa(jlen)
    sbq = _series_sbq(jlen)
    t2 = _series_t2(jlen)
    t44 = _series_t44(jlen)
    h0 = _dict_add(
        _dict_scale(_dict_div(sa, t2, jlen), 2),
        _dict_scale(_dict_div(dict_mul(sbq, _series_t32(jlen), jlen), t44, jlen), 8),
    )
    corr = _dict_div(dict_mul(sa, _series_t2_double(jlen), jlen), t44, jlen)
    h1 = _dict_add(
        _dict_div(sbq, t2, jlen),
        {e: v for e, v in _dict_shift(_dict_scale(corr, -64), 1).items() if e < jlen},
    )
    return h0, h1


@lru_cache(maxsize=None)  # the only change: the oracle grid reuses each weight four times
def _mform_monomials(w: int, emax: int):
    """Integer q-expansions of the monomials E4^a E6^b of weight w, a descending."""
    if w < 0 or w % 2 == 1 or w == 2:
        return []
    if w == 0:
        return [{0: 1}]
    out = []
    for a in range(w // 4, -1, -1):
        rem = w - 4 * a
        if rem % 6:
            continue
        b = rem // 6
        cur = {0: 1}
        e4 = _eis_dict(4, emax)
        e6 = _eis_dict(6, emax)
        for _ in range(a):
            cur = dict_mul(cur, e4, emax)
        for _ in range(b):
            cur = dict_mul(cur, e6, emax)
        out.append(cur)
    return out


def _kernel_basis(rows, ncols):
    """Reduced kernel basis of a small rational matrix, deterministic order."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(mat)):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -mat[i][f]
        basis.append(vec)
    return basis


def _materialize_index1(k: int, prec: int, h0: dict, h1: dict) -> JacobiFormQExp:
    """Index-one form from rational theta components, through the validating
    constructor: c(n, r) is h0[d/4] for d = 4n - r^2 divisible by 4, else h1[(d+1)/4]."""
    coeffs = {}
    for n in range(prec):
        rmax = math.isqrt(4 * n + 1)
        for r in range(-rmax, rmax + 1):
            d = 4 * n - r * r
            v = h0.get(d // 4, 0) if d % 4 == 0 else h1.get((d + 1) // 4, 0)
            if v:
                coeffs[(n, r)] = v
    return JacobiFormQExp(k, 1, prec, coeffs)


def jacobi_space(k: int, cusp: bool, prec: int):
    """Basis of the index-one space of weight k, holomorphic or cuspidal.

    Each basis element is normalized so its first nonzero coefficient in
    lexicographic (n, |r|) order equals one.  Returns [] when the space is
    trivial.
    """
    if k < 4 or k % 2 == 1:
        raise ValueError("weight must be an even integer at least 4")
    if prec < 1:
        raise ValueError("precision must be at least 1")
    mons_a = _mform_monomials(k + 2, prec)
    mons_b = _mform_monomials(k, prec)
    na, nb = len(mons_a), len(mons_b)
    ncand = na + nb
    if ncand == 0:
        return []
    # the only linear conditions are at discriminants -1 (holomorphy) and 0
    # (cuspidality); both generators contribute their constant there
    rows = [[Fraction(1)] * ncand]
    if cusp:
        rows.append([Fraction(-2)] * na + [Fraction(10)] * nb)
    basis_vecs = _kernel_basis(rows, ncand)
    if not basis_vecs:
        return []
    h_m2 = _phi_m2_components(prec)
    h_0 = None
    out = []
    for vec in basis_vecs:
        acc0: dict = {}
        acc1: dict = {}
        for i, x in enumerate(vec):
            if not x:
                continue
            if i < na:
                mon = mons_a[i]
                comp = h_m2
            else:
                mon = mons_b[i - na]
                if h_0 is None:
                    h_0 = _phi0_components(prec)
                comp = h_0
            acc0 = _dict_add(acc0, _dict_scale(dict_mul(mon, comp[0], prec), x))
            acc1 = _dict_add(acc1, _dict_scale(dict_mul(mon, comp[1], prec), x))
        form = _materialize_index1(k, prec, acc0, acc1)
        out.append(_lex_normalize(form))
    return out


def space_components(k: int, cusp: bool, prec: int) -> list:
    """(den, C) for each basis element of :func:`jacobi_space`: the element
    is the index-one form c(n, r) = C[4n - r^2] / den below prec, with no
    common factor of den > 0 and C left."""
    if k < 4 or k % 2 == 1:
        raise ValueError("weight must be an even integer at least 4")
    if prec < 1:
        raise ValueError("precision must be at least 1")
    mons_a = jacobi._mform_monomials(k + 2, prec)
    mons_b = jacobi._mform_monomials(k, prec)
    na, nb = len(mons_a), len(mons_b)
    # the only linear conditions are at discriminants -1 (holomorphy) and 0
    # (cuspidality): sum x = 0 and, for cusp forms, -2 sum_{i<na} x_i + 10 sum_{i>=na} x_i
    # = 0.  Their reduced kernel basis is e_f - e_p over the non-pivots f; the pivots
    # are 0 and, for cusp forms with both blocks nonempty, na.
    both = cusp and na > 0 and nb > 0
    out = []
    for f in range(1, na + nb):
        if both and f == na:
            continue
        vec = [0] * (na + nb)
        vec[f], vec[na if both and f > na else 0] = 1, -1
        acc0, acc1 = {}, {}
        # sum_i x_i mon_i h / P6 = ((sum_i x_i mon_i) h) / P6: one product per numerator
        for mons, xs, (h0, h1) in zip((mons_a, mons_b), (vec[:na], vec[na:]), _numerators(prec)):
            mon: dict = {}
            for m, x in zip(mons, xs):
                mon = _dict_add(mon, _dict_scale(m, x))
            if mon:
                acc0 = _dict_add(acc0, _dict_mul(mon, h0, prec))
                acc1 = _dict_add(acc1, _dict_mul(mon, h1, prec))
        table = _table(_over_p6(acc0, prec), _over_p6(acc1, prec), prec)
        # c(n, r) = c(n, -r), so the lead in (n, |r|) order is the first
        # nonzero value over n, then r >= 0; it becomes the denominator
        ds = (4 * n - r * r for n in range(prec) for r in range(math.isqrt(4 * n + 1) + 1))
        lead = next((v for d in ds if (v := table[d])), 1)
        g = math.gcd(lead, *table) * (1 if lead > 0 else -1)
        out.append((lead // g, [v // g for v in table]))
    return out


def _lex_normalize(phi: JacobiFormQExp) -> JacobiFormQExp:
    lead = min(phi.coeffs, key=lambda nr: (nr[0], abs(nr[1]), nr[1])) if phi.coeffs else None
    if lead is None:
        return phi
    c = phi.coeffs[lead]
    if c == 1:
        return phi
    return phi.scalar_mul(Fraction(1) / Fraction(c))


def _round_half_up(x: Fraction) -> int:
    return math.floor(x + Fraction(1, 2))


def _round_half_to_zero(x: Fraction) -> int:
    """Nearest integer, ties toward zero, so a boundary off-diagonal entry
    with 2|t_ij| = t_ii is left in place instead of oscillating."""
    if x > 0:
        return math.ceil(x - Fraction(1, 2))
    return math.floor(x + Fraction(1, 2))


# every nonzero x in {-1, 0, 1}^s, in itertools.product order, with the index
# of its last nonzero entry
_CONDITIONS = {
    s: [(x, max(i for i in range(s) if x[i])) for x in itertools.product((-1, 0, 1), repeat=s) if any(x)]
    for s in (1, 2, 3)
}


def _first_violation(g):
    """The first (x, j) in _CONDITIONS with g[x] < g_kk for some k <= j, or None.

    For s <= 3 the inequalities g[x] >= g_kk, over every nonzero x in
    {-1, 0, 1}^s and every k up to the last nonzero index j of x, are the
    whole of Minkowski reduction (Cassels, Rational Quadratic Forms, ch. 12).
    x = e_j orders the diagonal and x = e_j +- e_i bounds 2|g_ij| by g_ii.
    """
    s = len(g)
    for x, j in _CONDITIONS[s]:
        value = sum(g[a][b] * x[a] * x[b] for a in range(s) for b in range(s))
        if any(value < g[k][k] for k in range(j + 1)):
            return x, j
    return None


def minkowski_reduce(n: SymMatQ):
    """Minkowski-reduce a positive definite matrix of size one to three.

    Returns (reduced, rho) with reduced = n[rho] and rho unimodular, where
    reduced[x] >= reduced_kk for every nonzero x in {-1, 0, 1}^s and every k
    up to the last nonzero index of x.  At these sizes that finite list is
    Minkowski reduction: the diagonal is nondecreasing, 2|reduced_ij| <=
    reduced_ii for i < j, and reduced_00 is the minimum of the form over
    nonzero integer vectors.  Signs are normalized so that reduced_01 and
    reduced_02 are nonnegative.
    """
    g, scale = _integral(n.rows)
    if not _positive_definite(g):
        raise ValueError("matrix must be positive definite")
    s = n.size
    if s > 3:
        raise ValueError("reduction implemented for sizes one to three only")
    u = [[int(i == j) for j in range(s)] for i in range(s)]
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
                r = _round_half_to_zero(Fraction(g[i][j], g[i][i]))
                if r:
                    _replace(g, u, j, [int(k == j) - r * int(k == i) for k in range(s)])
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
    return SymMatQ([[Fraction(x, scale) for x in row] for row in g]), UnimodularMat(u)


_HERMITE_POW = {1: Fraction(1), 2: Fraction(4, 3), 3: Fraction(2)}


def hermite_check(n: SymMatQ) -> bool:
    """Check (n_00)^s <= gamma_s^s det(n) for a Minkowski reduced matrix.

    gamma_s^s is 1, 4/3, 2 at sizes 1, 2, 3.  Raises ValueError unless n is
    positive definite and n[x] >= n_kk for every nonzero x in {-1, 0, 1}^s
    and every k up to the last nonzero index of x, the condition list that
    minkowski_reduce establishes.
    """
    s = n.size
    if s not in _HERMITE_POW:
        raise ValueError("size must be one to three")
    g = _integral(n.rows)[0]
    if not _positive_definite(g):
        raise ValueError("matrix must be positive definite")
    bad = _first_violation(g)
    if bad is not None:
        raise ValueError("input is not Minkowski reduced: n[x] < n_kk at x = %s" % (bad[0],))
    return n[0, 0] ** s <= _HERMITE_POW[s] * n.det()


def completion2(a: int, b: int) -> UnimodularMat:
    """Unimodular matrix with last row (a, b), for a primitive pair."""
    # minimal top row solving x*b - y*a = 1, sign-normalized so that
    # (0,1) completes to the identity and (1,0) to the plain swap
    gg, x0, y0 = _xgcd(b, -a)
    assert gg == 1
    # shift by multiples of (a, b) to minimize the top row
    k = _round_half_up(Fraction(x0 * a + y0 * b, a * a + b * b))
    x0, y0 = x0 - k * a, y0 - k * b
    if x0 < 0 or (x0 == 0 and y0 < 0):
        x0, y0 = -x0, -y0
    return UnimodularMat([[x0, y0], [a, b]])


def reduce2(t: SymMatQ):
    u = UnimodularMat.identity(2)
    swap = UnimodularMat([[0, 1], [1, 0]])
    for _ in range(10000):
        if t[0, 0] > t[1, 1]:
            t, u = act(t, swap), u @ swap
        r = _round_half_to_zero(t[0, 1] / t[0, 0])
        if r != 0:
            shear = UnimodularMat([[1, -r], [0, 1]])
            t, u = act(t, shear), u @ shear
        if r == 0 and t[0, 0] <= t[1, 1]:
            break
    else:  # pragma: no cover
        raise RuntimeError("reduction failed to terminate")
    if t[0, 1] < 0:
        flip = UnimodularMat([[1, 0], [0, -1]])
        t, u = act(t, flip), u @ flip
    return t, u


# generators of GL2(Z): swap, a reflection, a shear
GENERATORS = (
    ((0, 1), (1, 0)),
    ((1, 0), (0, -1)),
    ((1, 0), (1, 1)),
)


def _gen_det(u) -> int:
    return u[0][0] * u[1][1] - u[0][1] * u[1][0]


def check_symmetry(f: FormalFJ, bound: int) -> SymmetryReport:
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if bound > f.M_max or bound >= f.prec:
        raise ValueError("bound %d exceeds stored precision (prec %d, M_max %d)" % (bound, f.prec, f.M_max))
    sign = -1 if f.k % 2 else 1
    checked = 0
    skipped = 0
    violations = []
    prec = f.prec
    for n in range(bound + 1):
        for m in range(bound + 1):
            for r in range(-2 * bound, 2 * bound + 1):
                for u in GENERATORS:
                    # doubled Gram matrix keeps everything integral
                    a, b = u[0]
                    c, d = u[1]
                    t00, t01, t11 = 2 * n, r, 2 * m
                    # u^T T u
                    s00 = a * (a * t00 + c * t01) + c * (a * t01 + c * t11)
                    s01 = b * (a * t00 + c * t01) + d * (a * t01 + c * t11)
                    s11 = b * (b * t00 + d * t01) + d * (b * t01 + d * t11)
                    n2, r2, m2 = s00 // 2, s01, s11 // 2
                    if n2 < 0 or m2 < 0 or n2 >= prec or m2 > f.M_max:
                        skipped += 1
                        continue
                    det = _gen_det(u)
                    lhs = f.phis[m2].coeffs.get((n2, r2), Fraction(0))
                    rhs = f.phis[m].coeffs.get((n, r), Fraction(0))
                    if det == -1 and sign == -1:
                        rhs = -rhs
                    checked += 1
                    if lhs != rhs:
                        violations.append({"t": (n, r, m), "u": u, "lhs": lhs, "rhs": rhs})
    return SymmetryReport(f.k, bound, checked, skipped, violations)


def series_multiply(f: FormalFJ, g: FormalFJ) -> FormalFJ:
    """Slice-by-slice product: phi_m = sum_i f_i g_(m-i), each term by the
    schoolbook jacobi_multiply, summed as Fractions below the common prec."""
    k = f.k + g.k
    mmax = min(f.M_max, g.M_max)
    prec = min(f.prec, g.prec)
    slices = []
    for m in range(mmax + 1):
        acc: dict = {}
        for i in range(m + 1):
            for (n, r), v in jacobi_multiply(f.phis[i], g.phis[m - i]).coeffs.items():
                if n < prec:
                    acc[(n, r)] = acc.get((n, r), Fraction(0)) + v
        slices.append(JacobiFormQExp(k, m, prec, acc))
    return FormalFJ(k, mmax, slices)


def poly_eval(q, f: FormalFJ) -> FormalFJ:
    """Horner evaluation sum a_i f^i, one schoolbook product per step."""
    acc = q.coeffs[-1]
    for i in range(q.degree - 1, -1, -1):
        acc = series_multiply(acc, f).add(q.coeffs[i])
    return acc


def evaluate(phi: JacobiFormQExp, tau1: complex, z: complex) -> complex:
    """Numerical value sum c(n, r) e(n tau1 + r z) over the stored window."""
    jacobi.check_point(tau1, z)
    x = cmath.exp(2j * math.pi * tau1)
    try:
        y = cmath.exp(2j * math.pi * z)
        yinv = 1.0 / y
    except (OverflowError, ZeroDivisionError):
        yinv = cmath.inf
    if cmath.isinf(yinv):
        raise ValueError("e(z) or e(-z) is 0 or overflows at z = %r" % z)
    terms = sorted((n, r, v / phi.den) for n, row in phi.num.items() for r, v in row.items())
    if not terms:
        return 0j
    nmax = terms[-1][0]  # terms are sorted, so this is the largest stored n
    rmin = min(0, *(r for _, r, _ in terms))
    rmax = max(0, *(r for _, r, _ in terms))
    if nmax + 1 > jacobi.WINDOW_CAP:
        raise ValueError("n up to %d needs more than %d powers of x" % (nmax, jacobi.WINDOW_CAP))
    if rmax - rmin + 1 > jacobi.WINDOW_CAP:
        raise ValueError("r span %d..%d needs more than %d powers of y" % (rmin, rmax, jacobi.WINDOW_CAP))
    xs = [1.0 + 0j]
    for _ in range(nmax):
        xs.append(xs[-1] * x)
    ypw = {0: 1.0 + 0j}
    cur = 1.0 + 0j
    for r in range(1, rmax + 1):
        cur *= y
        ypw[r] = cur
    cur = 1.0 + 0j
    for r in range(-1, rmin - 1, -1):
        cur *= yinv
        ypw[r] = cur
    vals = [c * xs[n] * ypw[r] for n, r, c in terms]
    try:  # fsum raises on an overflowing sum and on inf - inf
        total = complex(math.fsum(v.real for v in vals), math.fsum(v.imag for v in vals))
    except (OverflowError, ValueError):
        total = cmath.nan
    if not cmath.isfinite(total):
        raise ValueError("a term overflows at tau1 = %r, z = %r" % (tau1, z))
    return total


def evaluate_terms(phi: JacobiFormQExp, tau1: complex, z: complex) -> list:
    """Every term c(n, r) e(n tau1 + r z) of the stored window, each from its
    own cmath.exp, with no power table and no shared factor."""
    t, den = 2j * math.pi, phi.den
    return [v / den * cmath.exp(t * (n * tau1 + r * z)) for n, row in phi.num.items() for r, v in row.items()]


def window_abs(eta, S) -> list:
    """|c_x(eta)| for each exponent x of the window S, in the order of S."""
    exp = eta.expansion
    out = []
    for t in S:
        x = t[0, 0] if hasattr(t, "rows") else Fraction(t)
        if x >= exp.prec:
            raise PrecisionError("window exponent %s is beyond specialized precision %s" % (x, exp.prec))
        e = x * exp.L
        c = exp.coeffs.get(e.numerator) if e.denominator == 1 else None
        out.append(0.0 if c is None else abs(cyc_eval(c)))
    return out


def specialize_torsion(phi: JacobiFormQExp, p) -> jacobi.SpecializedExpansion:
    """Expansion of e(m lam^2 tau1) phi(tau1, tau1 lam + mu) in powers of
    e(tau1 / N^2), one exponent per stored term."""
    if p.genus_minus_one != 1:
        raise ValueError("unsupported genus")
    N = p.N
    a = p.lam[0]
    c = p.mu[0]
    m = phi.m
    L = N * N
    p2 = jacobi.certified_precision(phi.prec, m, p.lam_frac())
    bound_num = math.ceil(p2 * L)
    acc: dict = {}
    for n, row in phi.num.items():
        for r, v in row.items():
            num = n * L + r * a * N + m * a * a
            if num < 0:
                raise ValueError("specialization needs nonnegative exponents; input is not holomorphic")
            if num >= bound_num:
                continue
            j = (r * c * N) % L
            slot = acc.setdefault(num, {})
            slot[j] = slot.get(j, 0) + v
    den = phi.den
    coeffs = {num: CycElem(L, {j: Fraction(v, den) for j, v in w.items()}) for num, w in acc.items() if any(w.values())}
    return jacobi.SpecializedExpansion(phi.k, N, QExpansion._trusted(L, coeffs, p2))


def jacobi_to_record(self: JacobiFormQExp):
    den = self.den

    def text(v):  # str(Fraction(v, den)), without building the Fraction
        g = math.gcd(v, den)
        return str(v // g) if g == den else "%d/%d" % (v // g, den // g)

    return {
        "k": self.k,
        "m": self.m,
        "prec": self.prec,
        "coeffs": [[n, r, str(v) if den == 1 else text(v)] for n, row in sorted(self.num.items()) for r, v in sorted(row.items())],
    }


def jacobi_from_record(rec) -> JacobiFormQExp:
    k, m, prec = int(rec["k"]), int(rec["m"]), int(rec["prec"])
    # int() reads plain integer text as parse_rat does, only faster
    vals = {
        (int(n), int(r)): int(v) if type(v) is str and v.removeprefix("-").isdecimal() else parse_rat(v)
        for n, r, v in rec["coeffs"]
    }
    den, num = _checked(m, prec, vals)
    return JacobiFormQExp._trusted(k, m, prec, den, _rows(num))


def _rows(num: dict) -> dict:
    """{(n, r): v} grouped into the package's rows {n: {r: v}}."""
    rows: dict = {}
    for (n, r), v in num.items():
        rows.setdefault(n, {})[r] = v
    return rows


def _checked(m: int, prec: int, vals: dict):
    """(den, num) from {(n, r): int or Fraction} for a form of index m and
    precision prec; ValueError on values such a form cannot hold."""
    if m < 0:
        raise ValueError("index must be nonnegative")
    if prec < 0:
        raise ValueError("precision must be nonnegative")
    if not all(vals.values()):
        vals = {key: v for key, v in vals.items() if v}
    if vals and (min(vals)[0] < 0 or max(vals)[0] >= prec):
        raise ValueError("stored n outside [0, prec)")
    if m == 0 and any(r for _, r in vals):
        raise ValueError("index zero forms have r = 0 only")
    fracs = [v for v in vals.values() if type(v) is not int]
    if not fracs:
        return 1, vals
    den = math.lcm(*(v.denominator for v in fracs))
    return den, {key: v.numerator * (den // v.denominator) for key, v in vals.items()}


def gritsenko_lift(phi: JacobiFormQExp, M_max: int, prec: int) -> FormalFJ:
    """Arithmetic lift of an index-one cusp form to a symmetric cuspidal
    series: c(F; n, r, m) = sum over d | gcd(n, r, m) of d^(k-1)
    c(phi; n m / d^2, r / d).

    Needs phi stored past (prec - 1) * M_max.  The sums run on integer
    numerators over phi's denominator (times that of d^(k-1) when k < 1).
    """
    if phi.m != 1:
        raise ValueError("lift input must have index 1")
    if not phi.is_cusp():
        raise ValueError("lift input must be cuspidal")
    need = (prec - 1) * M_max
    if phi.prec <= need:
        raise PrecisionError(
            "generator stores %d rows; the requested series needs more than %d" % (phi.prec, need)
        )
    k = phi.k
    dpow = [Fraction(d) ** (k - 1) for d in range(1, max(M_max, 1) + 1)]
    scale = math.lcm(*(p.denominator for p in dpow))
    weight = [0] + [p.numerator * (scale // p.denominator) for p in dpow]
    table = {(n, r): v for n, row in phi.num.items() for r, v in row.items()}
    slices = [JacobiFormQExp.zero(k, 0, prec)]
    for m in range(1, M_max + 1):
        num = {}
        for n in range(1, prec):
            rb = math.isqrt(4 * n * m - 1)
            g0 = math.gcd(n, m)
            for r in range(-rb, rb + 1):
                g = math.gcd(g0, r)
                if g == 1:
                    total = table.get((n * m, r), 0) * weight[1]
                else:
                    total = 0
                    for d in range(1, g + 1):
                        if g % d == 0:
                            total += weight[d] * table.get((n * m // (d * d), r // d), 0)
                if total:
                    num[(n, r)] = total
        slices.append(JacobiFormQExp._trusted(k, m, prec, phi.den * scale, _rows(num)))
    return FormalFJ(k, M_max, slices)


def pad_index0(k: int, qe, M_max: int, prec: int) -> FormalFJ:
    """Series whose only slice is an index-zero embedding of qe."""
    phi0 = index0_from_qexp(k, qe).truncated(prec)
    phis = [phi0] + [JacobiFormQExp.zero(k, m, prec) for m in range(1, M_max + 1)]
    return FormalFJ(k, M_max, phis)


def coeff_table(f: FormalFJ, bound: int | None = None) -> dict:
    """All stored coefficients of f as a HalfIntIndex-keyed map."""
    out = {}
    mtop = f.M_max if bound is None else min(bound, f.M_max)
    for m in range(mtop + 1):
        for (n, r), v in f.phis[m].coeffs.items():
            out[HalfIntIndex(Fraction(n), Fraction(r), m)] = v
    return out
