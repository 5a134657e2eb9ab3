"""Tests for index-one Jacobi expansions against brute-force theta quotients.

The oracles here are deliberately primitive: two-variable theta squares are
accumulated by looping over lattice points, eta powers come from multiplying
out (1 - q^n) factors one at a time, and quotients are computed column by
column in the elliptic variable.  None of it shares code with the library.
"""

import cmath
import hashlib
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fjcert import jacobi
from fjcert.core import PrecisionError, _eis_dict
from fjcert.fjseries import _lift
from fjcert.jacobi import (
    JacobiFormQExp,
    SpecializedExpansion,
    TorsionPoint,
    certified_precision,
    evaluate,
    fe_norm,
    jacobi_space,
    multiply,
    specialize_torsion,
    weak_generators,
)
from fjcert.reduction import SymMatQ


# ---------------------------------------------------------------------------
# oracle machinery


def poly_mul(a, b, prec):
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            e = e1 + e2
            if e < prec:
                out[e] = out.get(e, 0) + v1 * v2
    return {e: v for e, v in out.items() if v}


def euler_pow6(prec):
    """(prod_{n>=1} (1 - q^n))^6, multiplied out factor by factor."""
    base = {0: 1}
    for n in range(1, prec):
        base = poly_mul(base, {0: 1, n: -1}, prec)
    out = {0: 1}
    for _ in range(6):
        out = poly_mul(out, base, prec)
    return out


def divide_columns(num, den, prec):
    """Solve num = out * den column by column in the second variable."""
    cols = {}
    for (n, r), v in num.items():
        cols.setdefault(r, {})[n] = v
    out = {}
    d0 = den[0]
    for r, col in cols.items():
        q = {}
        for n in range(prec):
            s = Fraction(col.get(n, 0))
            for i, qi in q.items():
                dv = den.get(n - i)
                if dv:
                    s -= qi * dv
            if s:
                q[n] = s / d0
        for n, v in q.items():
            out[(n, r)] = v
    return out


def odd_theta_square(prec):
    """Square of the odd two-variable theta series, stripped of its q^(1/4)
    prefactor, as a dict over the integer exponent lattice."""
    out = {}
    B = math.isqrt(2 * prec) + 2
    for j in range(-B, B + 1):
        for l in range(-B, B + 1):
            e = (j * j + j + l * l + l) // 2
            if 0 <= e < prec:
                key = (e, j + l + 1)
                out[key] = out.get(key, 0) + (-1) ** (j + l)
    return {key: v for key, v in out.items() if v}


def theta_quotient_sum(prec):
    """4 (f2 + f3 + f4) with f_i the squared normalized theta quotients.

    f3 and f4 are assembled on the doubled exponent lattice; their
    half-integer rows must cancel in the sum, which is asserted.
    """
    B = math.isqrt(4 * prec) + 2
    num2, den2 = {}, {}
    for j in range(-B, B + 1):
        for l in range(-B, B + 1):
            e = (j * j + j + l * l + l) // 2
            if 0 <= e < prec:
                key = (e, j + l + 1)
                num2[key] = num2.get(key, 0) + 1
                den2[e] = den2.get(e, 0) + 1
    f2 = divide_columns(num2, den2, prec)
    dprec = 2 * prec
    num3, den3, num4, den4 = {}, {}, {}, {}
    for j in range(-B, B + 1):
        for l in range(-B, B + 1):
            e2 = j * j + l * l
            if e2 < dprec:
                key = (e2, j + l)
                s = (-1) ** (j + l)
                num3[key] = num3.get(key, 0) + 1
                den3[e2] = den3.get(e2, 0) + 1
                num4[key] = num4.get(key, 0) + s
                den4[e2] = den4.get(e2, 0) + s
    f3 = divide_columns(num3, den3, dprec)
    f4 = divide_columns(num4, den4, dprec)
    total = {}
    for part in (f3, f4):
        for key, v in part.items():
            total[key] = total.get(key, 0) + v
    for (n, r), v in f2.items():
        key = (2 * n, r)
        total[key] = total.get(key, 0) + v
    total = {key: v for key, v in total.items() if v}
    assert all(e2 % 2 == 0 for e2, _ in total), "half-integer rows survived"
    return {(e2 // 2, r): 4 * v for (e2, r), v in total.items()}


def conv_oracle(a, b):
    prec = min(a.prec, b.prec)
    out = {}
    for (n1, r1), v1 in a.coeffs.items():
        for (n2, r2), v2 in b.coeffs.items():
            n = n1 + n2
            if n < prec:
                key = (n, r1 + r2)
                out[key] = out.get(key, Fraction(0)) + Fraction(v1) * Fraction(v2)
    return JacobiFormQExp(a.k + b.k, a.m + b.m, prec, out)


def as_fr(coeffs):
    return {key: Fraction(v) for key, v in coeffs.items()}


# ---------------------------------------------------------------------------
# the two weak generators


def test_weight_minus_two_matches_theta_quotient():
    prec = 11
    oracle = divide_columns(odd_theta_square(prec), euler_pow6(prec), prec)
    oracle = {key: v for key, v in oracle.items() if v}
    phi_m2, _ = weak_generators(prec)
    assert phi_m2.k == -2 and phi_m2.m == 1 and phi_m2.prec == prec
    assert as_fr(phi_m2.coeffs) == as_fr(oracle)


def test_weight_zero_matches_theta_quotient():
    prec = 9
    oracle = theta_quotient_sum(prec)
    _, phi_0 = weak_generators(prec)
    assert phi_0.k == 0 and phi_0.m == 1 and phi_0.prec == prec
    assert as_fr(phi_0.coeffs) == as_fr(oracle)


def test_generator_leading_rows():
    phi_m2, phi_0 = weak_generators(6)
    assert [phi_m2.coeff(0, r) for r in (-1, 0, 1)] == [1, -2, 1]
    assert [phi_m2.coeff(1, r) for r in range(-2, 3)] == [-2, 8, -12, 8, -2]
    assert [phi_0.coeff(0, r) for r in (-1, 0, 1)] == [1, 10, 1]
    assert [phi_0.coeff(1, r) for r in range(-2, 3)] == [10, -64, 108, -64, 10]


def test_generators_are_weak_not_holomorphic():
    phi_m2, phi_0 = weak_generators(5)
    assert not phi_m2.is_holomorphic()
    assert not phi_0.is_holomorphic()
    assert not phi_m2.is_zero()


def test_generator_coefficients_depend_on_discriminant_and_parity():
    # c(n, r) is a function of (4n - r^2, r mod 2) alone
    for phi in weak_generators(12):
        seen = {}
        for (n, r), v in phi.coeffs.items():
            key = (4 * n - r * r, r % 2)
            assert seen.setdefault(key, v) == v
        for (n, r) in list(phi.coeffs):
            if n + r + 1 < phi.prec:
                assert phi.coeff(n + r + 1, r + 2) == phi.coeff(n, r)
            assert phi.coeff(n, -r) == phi.coeff(n, r)


def test_weak_generators_validation():
    with pytest.raises(ValueError):
        weak_generators(0)


# ---------------------------------------------------------------------------
# container behavior


def test_coeff_window_and_errors():
    phi, _ = weak_generators(4)
    assert phi.coeff(2, 99) == 0
    with pytest.raises(PrecisionError):
        phi.coeff(4, 0)
    with pytest.raises(ValueError):
        phi.coeff(-1, 0)


def test_constructor_validation():
    with pytest.raises(ValueError):
        JacobiFormQExp(0, 1, 3, {(3, 0): 1})
    with pytest.raises(ValueError):
        JacobiFormQExp(0, 1, 3, {(-1, 0): 1})
    with pytest.raises(ValueError):
        JacobiFormQExp(0, 0, 3, {(1, 1): 1})
    with pytest.raises(ValueError):
        JacobiFormQExp(0, -1, 3, {})
    # zero values are dropped rather than validated
    assert JacobiFormQExp(0, 1, 3, {(0, 0): 0}).is_zero()


def test_constructor_reads_text_with_parse_rat():
    # a text value is refused past the digit limit before its power of ten is built
    with pytest.raises(ValueError, match="exceeds the limit"):
        JacobiFormQExp(4, 1, 3, {(1, 0): "1e5000"})
    phi = JacobiFormQExp(4, 1, 3, {(1, 0): "1/2", (2, 1): 0.25})
    assert phi.coeff(1, 0) == Fraction(1, 2) and phi.coeff(2, 1) == Fraction(1, 4)
    # any other value is read by Fraction: a float is its binary value, not its text
    assert JacobiFormQExp(4, 1, 3, {(1, 0): 0.1}).coeff(1, 0) == Fraction(0.1) != Fraction("0.1")


def test_truncated():
    _, phi = weak_generators(9)
    short = phi.truncated(5)
    assert short.prec == 5
    assert short.coeff(4, 0) == phi.coeff(4, 0)
    with pytest.raises(PrecisionError):
        short.coeff(5, 0)
    assert phi.truncated(9) is phi
    with pytest.raises(PrecisionError):
        short.truncated(7)
    # a negative precision is refused as the constructor refuses it
    with pytest.raises(ValueError, match="precision must be nonnegative"):
        short.truncated(-1)


def test_add_and_scalar():
    phi_m2, phi_0 = weak_generators(6)
    with pytest.raises(ValueError):
        phi_m2.add(phi_0)
    s = phi_m2 + phi_m2
    assert s.coeff(1, 1) == 2 * phi_m2.coeff(1, 1)
    assert (phi_m2 - phi_m2).is_zero()
    assert phi_m2.scalar_mul(Fraction(1, 3)).coeff(0, 0) == Fraction(-2, 3)
    assert (2 * phi_m2).coeff(0, 1) == 2
    for bad in (float("inf"), float("-inf"), "1/0"):
        with pytest.raises(ValueError, match="factor must be a finite rational"):
            phi_m2.scalar_mul(bad)
    with pytest.raises(ValueError):
        phi_m2.scalar_mul(float("nan"))


def test_record_round_trip():
    basis = jacobi_space(10, True, 7)
    phi = basis[0]
    rec = phi.to_record()
    assert rec["k"] == 10 and rec["m"] == 1
    assert JacobiFormQExp.from_record(rec) == phi


def test_record_text_is_the_reduced_fraction():
    coeffs = {(1, r): Fraction(r, 6) for r in range(-12, 13) if r}
    coeffs[(0, 0)] = Fraction(2**200 + 1, 6)
    coeffs[(0, 1)] = Fraction(-3 * 2**200, 6)
    for phi in (JacobiFormQExp(4, 1, 2, coeffs), JacobiFormQExp(4, 1, 2, {(1, 1): 5, (0, 0): -2**90})):
        assert phi.to_record()["coeffs"] == [[n, r, str(c)] for (n, r), c in sorted(phi.coeffs.items())]


def test_theta_denominators_are_p6():
    # B Th4^2 = P3 (psi(q) phi(-q)^2 = f(-q)^3), so T2 T44 = P6: one denominator serves both generators
    e = 2000
    b, th4, p3 = jacobi._series_b(e), jacobi._series_th4(e), jacobi._series_p3(e)
    th4sq = jacobi._dict_mul(th4, th4, e)
    assert jacobi._dict_mul(b, th4sq, e) == p3
    t2, t44 = jacobi._dict_mul(b, b, e), jacobi._dict_mul(th4sq, th4sq, e)
    assert jacobi._dict_mul(t2, t44, e) == jacobi._dict_mul(p3, p3, e)
    # the exponents (j^2 - 1)/4 over odd j are n(n + 1), so SA' = B(q^2), and
    # the weight-0 numerator takes T2d = (sum q^(n(n+1)))^2 as SA'^2
    for e in (1, 2, 9, 30, 301, 1561, 2000):
        sa, b_q2 = jacobi._series_sa(e), {2 * x: v for x, v in jacobi._series_b(e).items() if 2 * x < e}
        assert sa == b_q2
        assert jacobi._dict_mul(b_q2, b_q2, e) == jacobi._dict_mul(sa, sa, e)


def test_theta_builders_match_their_definitions():
    # B = sum q^(j(j+1)/2), SA' = sum q^(j(j+1)) and P3 = sum (-1)^j (2j+1) q^(j(j+1)/2), term by term
    for emax in range(61):
        b, sa, p3 = {}, {}, {}
        for j in range(emax + 1):
            if j * (j + 1) // 2 < emax:
                b[j * (j + 1) // 2] = 1
                p3[j * (j + 1) // 2] = (-1) ** j * (2 * j + 1)
            if j * (j + 1) < emax:
                sa[j * (j + 1)] = 1
        assert jacobi._series_b(emax) == b
        assert jacobi._series_sa(emax) == sa
        assert jacobi._series_p3(emax) == p3


def test_generators_divide_only_by_p3(monkeypatch):
    divisors, divide = [], jacobi._dict_div

    def spy(num, den, emax):
        divisors.append((den, emax))
        return divide(num, den, emax)

    monkeypatch.setattr(jacobi, "_dict_div", spy)
    weak_generators.cache_clear()
    weak_generators(23)
    for k in range(4, 41, 2):
        for cusp in (False, True):
            jacobi_space(k, cusp, 23)
    weak_generators.cache_clear()
    assert divisors
    assert all(den == jacobi._series_p3(emax) for den, emax in divisors)


def test_delta_over_p6_is_q_p18():
    # Delta = (E4^3 - E6^2) / 1728 = q P3^8, and the cusp basis multiplies by Delta / P6 = q P18
    e = 600
    mul = lambda a, b: jacobi._dict_mul(a, b, e)  # noqa: E731
    e4, e6 = jacobi._eis_dict(4, e), jacobi._eis_dict(6, e)
    diff = jacobi._dict_add(mul(mul(e4, e4), e4), jacobi._dict_scale(mul(e6, e6), -1))
    assert all(v % 1728 == 0 for v in diff.values())
    delta = {x: v // 1728 for x, v in diff.items()}
    assert delta[1] == 1 and delta[2] == -24 and delta[11] == 534612 and len(delta) == e - 1
    p3 = jacobi._series_p3(e)
    p6 = mul(p3, p3)
    p18 = mul(mul(p6, p6), p6)
    assert {x + 1: v for x, v in mul(mul(p6, p6), mul(p6, p6)).items() if x + 1 < e} == delta
    assert {x + 1: v for x, v in mul(p18, p6).items() if x + 1 < e} == delta
    assert jacobi._series_p18(e) == p18  # built as P9^2


def test_cusp_basis_builds_w_only_when_its_block_is_reached():
    # weight 10 reads only the U block (M_{-2} has no monomial); weight 12 reads only W
    prec = 157
    jacobi._numerator_w.cache_clear()
    try:
        assert next(jacobi._space_components(10, True, prec))
        assert len(list(jacobi._space_components(10, True, prec))) == 1
        assert jacobi._numerator_w.cache_info().currsize == 0
        assert next(jacobi._space_components(12, True, prec))
        assert jacobi._numerator_w.cache_info().currsize == 1
        assert jacobi._numerators(prec)[1] is jacobi._numerator_w(prec)
    finally:
        jacobi._numerator_w.cache_clear()


def test_space_components_hash_is_pinned():
    # (den, C) of every basis element for k = 4-40, holomorphic and cusp, at
    # prec 30 and 301: the digest of the construction before W was built on
    # demand and before P18 was built as P9^2 by sparse products
    h = hashlib.sha256()
    for prec in (30, 301):
        for k in range(4, 41, 2):
            for cusp in (False, True):
                for den, table in jacobi._space_components(k, cusp, prec):
                    h.update(repr((prec, k, cusp, den, table)).encode())
    assert h.hexdigest() == "ffe0621ca2b7b126204d194430dd7bf033f5eff02a00d7c2714f22bef1681ea5"


def test_cusp_basis_makes_no_division(monkeypatch):
    calls = []

    def spy(num, den, emax):
        calls.append(emax)
        raise AssertionError("the cusp basis divides")

    monkeypatch.setattr(jacobi, "_dict_div", spy)
    for k in range(10, 41, 2):
        assert list(jacobi._space_components(k, True, 50))
        assert jacobi_space(k, True, 31)
    assert not calls


# ---------------------------------------------------------------------------
# multiplication


def test_multiply_identity_and_zero():
    one = JacobiFormQExp(0, 0, 6, {(0, 0): 1})
    zero = JacobiFormQExp.zero(3, 2, 6)
    phi_m2, _ = weak_generators(6)
    assert multiply(one, phi_m2) == phi_m2
    prod = multiply(zero, phi_m2)
    assert prod.is_zero() and prod.k == 1 and prod.m == 3


def test_multiply_weights_and_convolution():
    phi_m2, phi_0 = weak_generators(7)
    prod = multiply(phi_m2, phi_0)
    assert prod.k == -2 and prod.m == 2 and prod.prec == 7
    assert prod == conv_oracle(phi_m2, phi_0)
    e4 = JacobiFormQExp(4, 0, 7, {(n, 0): v for n, v in _eis_dict(4, 7).items()})
    lifted = multiply(e4, phi_m2)
    assert lifted.k == 2 and lifted.m == 1
    assert lifted == conv_oracle(e4, phi_m2)


def test_multiply_commutes_on_generators():
    phi_m2, phi_0 = weak_generators(6)
    assert multiply(phi_m2, phi_0) == multiply(phi_0, phi_m2)


def test_multiply_caps_the_r_span():
    # the kernel would pack 10^9 slots for the row n = 1 alone
    a = JacobiFormQExp(0, 1, 3, {(1, 0): 1, (1, 10**9): 1})
    with pytest.raises(ValueError, match="span"):
        multiply(a, a)


def test_multiply_cap_counts_the_product_span(monkeypatch):
    # rows spanning 0..4 and -5..0 give product rows spanning -5..4: 10 slots
    monkeypatch.setattr(jacobi, "WINDOW_CAP", 10)
    a = JacobiFormQExp(0, 1, 3, {(0, 0): 1, (1, 4): 1})
    b = JacobiFormQExp(0, 1, 3, {(1, -5): 1, (1, 0): 1})
    assert multiply(a, b) == conv_oracle(a, b)
    with pytest.raises(ValueError, match="span"):
        multiply(a, JacobiFormQExp(0, 1, 3, {(1, -6): 1, (1, 0): 1}))
    # rows at or beyond the product precision are not packed, so they do not count
    c = JacobiFormQExp(0, 1, 4, {(0, 0): 1, (3, -6): 1})
    assert multiply(a, c) == conv_oracle(a, c)


small_form = st.builds(
    lambda keys: JacobiFormQExp(
        2, 1, 4, {(n, r): Fraction(c) for (n, r, c) in keys}
    ),
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(-3, 3), st.integers(-9, 9)),
        max_size=6,
    ),
)


@given(small_form, small_form, small_form)
def test_multiply_laws(a, b, c):
    assert multiply(a, b) == multiply(b, a)
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
    assert multiply(a, b + c) == multiply(a, b) + multiply(a, c)


# ---------------------------------------------------------------------------
# the index-one spaces


def dim_mforms(k):
    if k < 0 or k % 2:
        return 0
    return k // 12 + (0 if k % 12 == 2 else 1)


def dim_cusp_forms(k):
    return max(dim_mforms(k) - 1, 0) if k >= 4 else 0


def rank_of(vectors):
    mat = [list(v) for v in vectors]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("k", [4, 6, 8, 10, 12, 16])
def test_space_dimensions(k):
    holo = jacobi_space(k, False, 6)
    cusp = jacobi_space(k, True, 6)
    assert len(holo) == dim_mforms(k) + dim_cusp_forms(k + 2)
    assert len(cusp) == dim_cusp_forms(k) + dim_cusp_forms(k + 2)
    support = sorted({key for phi in holo for key in phi.coeffs})
    if holo:
        vecs = [[Fraction(phi.coeffs.get(key, 0)) for key in support] for phi in holo]
        assert rank_of(vecs) == len(holo)
    for phi in holo:
        assert phi.k == k and phi.m == 1
        assert phi.is_holomorphic()
    for phi in cusp:
        assert phi.is_cusp()


def test_space_normalization_is_lex():
    for phi in jacobi_space(16, False, 6):
        lead = min(phi.coeffs, key=lambda nr: (nr[0], abs(nr[1]), nr[1]))
        assert phi.coeffs[lead] == 1


def test_cusp_ten_pinned_values():
    phi = jacobi_space(10, True, 7)[0]
    assert phi.coeff(1, 0) == 1
    assert phi.coeff(1, 1) == Fraction(-1, 2)
    assert phi.coeff(1, -1) == Fraction(-1, 2)
    assert phi.coeff(2, 1) == 8
    assert phi.coeff(0, 0) == 0


def test_cusp_ten_matches_independent_construction():
    # the kernel at weight 10 is spanned by the discriminant form times the
    # weight -2 generator; build that product from scratch and compare
    prec = 7
    e6 = euler_pow6(prec)
    e24 = poly_mul(poly_mul(e6, e6, prec), poly_mul(e6, e6, prec), prec)
    disc = {e + 1: v for e, v in e24.items() if e + 1 < prec}
    gen = divide_columns(odd_theta_square(prec), euler_pow6(prec), prec)
    prod = {}
    for d, dv in disc.items():
        for (n, r), v in gen.items():
            if d + n < prec:
                key = (d + n, r)
                prod[key] = prod.get(key, Fraction(0)) + dv * v
    scaled = {key: -v / 2 for key, v in prod.items() if v}
    phi = jacobi_space(10, True, prec)[0]
    assert as_fr(phi.coeffs) == scaled


def test_space_validation():
    with pytest.raises(ValueError):
        jacobi_space(7, True, 5)
    with pytest.raises(ValueError):
        jacobi_space(2, False, 5)
    with pytest.raises(ValueError):
        jacobi_space(10, True, 0)
    assert jacobi_space(4, True, 8) == []


# ---------------------------------------------------------------------------
# torsion points and specialization


def test_torsion_point_basics():
    p = TorsionPoint(2, 1, 0)
    assert p.lam == (1,) and p.mu == (0,)
    assert p.genus_minus_one == 1
    assert p.lam_frac() == Fraction(1, 2)
    assert p.mu_frac() == 0
    assert p.z_at(2j) == 1j
    q = TorsionPoint(3, (1, 2), (0, 1))
    assert q.genus_minus_one == 2
    with pytest.raises(ValueError):
        TorsionPoint(0, 1, 0)
    with pytest.raises(ValueError):
        TorsionPoint(2, (1, 0), (1,))


def weights(eta, e):
    """{j: weight} of the root e(j / L) in the coefficient of q^(e / L), as Fractions."""
    return {j: Fraction(v, eta.den) for j, v in eta.coeffs.get(e, {}).items()}


def test_specialize_at_origin_gives_row_sums(phi10):
    eta = specialize_torsion(phi10, TorsionPoint(1, 0, 0))
    assert eta.k == 10 and eta.N == 1 and eta.level == 1
    assert eta.prec == phi10.prec
    for n in range(phi10.prec):
        want = sum(
            (v for (nn, r), v in phi10.coeffs.items() if nn == n), Fraction(0)
        )
        assert weights(eta, n).get(0, 0) == want


def test_specialize_half_shift_alternates_signs(phi10):
    # mu = 1/2 stores each row split by parity of r, on fourth roots 1, -1
    eta = specialize_torsion(phi10, TorsionPoint(2, 0, 1))
    assert eta.level == 4
    for n in range(phi10.prec):
        slots = {}
        for (nn, r), v in phi10.coeffs.items():
            if nn == n:
                j = 0 if r % 2 == 0 else 2
                slots[j] = slots.get(j, Fraction(0)) + Fraction(v)
        slots = {j: v for j, v in slots.items() if v}
        assert weights(eta, 4 * n) == slots


def test_specialize_quarter_lattice(phi10):
    # lam = 1/2 at index 1 shifts every exponent into (1/4)Z off the integers
    eta = specialize_torsion(phi10, TorsionPoint(2, 1, 0))
    assert eta.level == 4
    P = phi10.prec
    want_prec = Fraction(P) + Fraction(1, 4) - Fraction(math.isqrt(4 * P) + (0 if math.isqrt(4 * P) ** 2 == 4 * P else 1), 2)
    assert eta.prec == want_prec
    for num in eta.coeffs:
        assert num % 2 == 1


def test_specialize_values_by_direct_sum(phi10):
    N, a, c = 3, 1, 2
    eta = specialize_torsion(phi10, TorsionPoint(N, a, c))
    L = N * N
    direct = {}
    for (n, r), v in phi10.coeffs.items():
        num = n * L + r * a * N + a * a
        j = (r * c * N) % L
        slot = direct.setdefault(num, {})
        j_val = slot.get(j, Fraction(0)) + Fraction(v)
        slot[j] = j_val
    for num in eta.coeffs:
        assert weights(eta, num) == {j: v for j, v in direct[num].items() if v}


def test_specialize_is_linear(phi10):
    a = phi10.truncated(12)
    b = phi10.scalar_mul(Fraction(3, 7)).truncated(12)
    p = TorsionPoint(2, 1, 1)
    left = specialize_torsion(a + b, p)
    eta_a, eta_b = specialize_torsion(a, p), specialize_torsion(b, p)
    assert left.prec == eta_a.prec == eta_b.prec
    for e in set(left.coeffs) | set(eta_a.coeffs) | set(eta_b.coeffs):
        right = weights(eta_a, e)
        for j, v in weights(eta_b, e).items():
            right[j] = right.get(j, 0) + v
        assert weights(left, e) == {j: v for j, v in right.items() if v}


@pytest.mark.parametrize("point", [(1, 0, 0), (2, 1, 0), (2, 0, 1), (3, 1, 2), (4, 3, 1)])
def test_specialize_trusted_result_equals_validated(lift40, point):
    # the fields equal those rebuilt from the Fraction weights over their lcm
    # denominator, so den and the numerators share no factor
    f, _ = lift40
    p = TorsionPoint(*point)
    for m in range(1, f.M_max + 1):
        eta = specialize_torsion(f.phis[m], p)
        L = eta.level
        assert type(eta.prec) is Fraction and type(eta.den) is int and eta.den > 0
        fracs = {e: weights(eta, e) for e in eta.coeffs}
        den = math.lcm(*(v.denominator for w in fracs.values() for v in w.values()))
        assert den == eta.den
        assert {e: {j: int(v * den) for j, v in w.items()} for e, w in fracs.items()} == eta.coeffs
        for e, w in eta.coeffs.items():
            assert type(e) is int and 0 <= e < eta.prec * L and w
            assert all(type(j) is int and 0 <= j < L and type(v) is int and v for j, v in w.items())


def test_certified_precision_is_zero_below_m_lam_squared(lift40):
    # at prec 4 < 40 / 4, slice 40 at lam = 1/2 keeps no exponent: its rows
    # n >= 4 near n = 10 reach q^(1/2), where the prec-40 lift has 222,720
    small = _lift(10, *next(jacobi._space_components(10, True, 121)), 40, 4)
    p = TorsionPoint(2, 1, 0)
    assert certified_precision(4, 40, Fraction(1, 2)) == 0
    eta = specialize_torsion(small.phis[40], p)
    assert eta.prec == 0 and eta.coeffs == {}
    deep = specialize_torsion(lift40[0].phis[40], p)
    assert sum(weights(deep, 2).values()) == 222720
    # below the certified precision every slice agrees with the prec-40 lift
    for m in range(1, 41):
        eta, deep = specialize_torsion(small.phis[m], p), specialize_torsion(lift40[0].phis[m], p)
        assert (eta.prec == 0 or 4 >= m / 4) and eta.prec <= deep.prec
        assert all(weights(eta, e) == weights(deep, e) for e in range(math.ceil(eta.prec * 4)))


def test_certified_precision_bounds_every_discarded_row():
    # a row n >= P holds r with r^2 <= 4nm, its least exponent n - |lam| isqrt(4nm) + m lam^2,
    # here times N^2 for lam = a / N; past n = 2 m lam^2 + 2 p2 + 1 it is (sqrt n - |lam| sqrt m)^2 > p2
    lams = [(a, N) for N in range(1, 4) for a in range(-4, 7) if math.gcd(a, N) == 1]
    for P in range(1, 13):
        for m in range(1, 13):
            for a, N in lams:
                p2 = certified_precision(P, m, Fraction(a, N)) * N * N
                assert p2.denominator == 1
                for n in range(P, P + math.ceil((2 * m * a * a + 2 * p2) / (N * N)) + 2):
                    assert n * N * N - abs(a) * N * math.isqrt(4 * n * m) + m * a * a >= p2, (P, m, a, N, n)


def test_specialized_value_pinned():
    # e(1/4) = i, e(3/9) + e(6/9) = -1, and zero where nothing is stored
    eta = SpecializedExpansion(10, 2, Fraction(3), 2, {0: {0: 2}, 1: {1: 2}, 2: {1: 1, 3: -1}})
    assert eta.value(0) == 1
    assert eta.value(1) == pytest.approx(1j)
    assert eta.value(2) == pytest.approx(1j)
    assert eta.value(3) == 0
    eta = SpecializedExpansion(10, 3, Fraction(1), 1, {0: {3: 1, 6: 1}})
    assert eta.value(0) == pytest.approx(-1 + 0j, abs=1e-12)


def test_specialize_rejects_weak_input():
    phi_m2, _ = weak_generators(6)
    with pytest.raises(ValueError):
        specialize_torsion(phi_m2, TorsionPoint(2, 1, 0))


def test_specialize_rejects_higher_genus(phi10):
    with pytest.raises(ValueError):
        specialize_torsion(phi10, TorsionPoint(2, (1, 0), (0, 0)))


# ---------------------------------------------------------------------------
# norms over exponent windows


def test_fe_norm_basic_windows():
    phi = JacobiFormQExp(0, 1, 3, {(0, 0): Fraction(1), (1, 1): Fraction(3)})
    eta = specialize_torsion(phi, TorsionPoint(1, 0, 0))
    assert fe_norm(eta, [Fraction(1)]) == pytest.approx(3.0)
    assert fe_norm(eta, [Fraction(1, 2)]) == 0.0
    assert fe_norm(eta, [SymMatQ([[Fraction(1)]]), Fraction(2)]) == pytest.approx(3.0)
    with pytest.raises(PrecisionError):
        fe_norm(eta, [Fraction(3)])


def test_fe_norm_zero_form():
    eta = specialize_torsion(JacobiFormQExp.zero(8, 1, 5), TorsionPoint(1, 0, 0))
    assert fe_norm(eta, [Fraction(0), Fraction(1), Fraction(2)]) == 0.0


def test_fe_norm_is_nonnegative_sum(phi10):
    eta = specialize_torsion(phi10, TorsionPoint(2, 1, 1))
    window = [Fraction(num, 4) for num in (1, 3, 5, 7)]
    val = fe_norm(eta, window)
    assert val >= 0.0
    single = sum(fe_norm(eta, [x]) for x in window)
    assert val == pytest.approx(single)


# ---------------------------------------------------------------------------
# numerical evaluation


def numeric_theta_quotient(tau, z):
    def f(zeta_form):
        num, den = 0j, 0j
        for n in range(-50, 51):
            qn, zn = zeta_form(n)
            num += qn * zn
            den += qn
        return (num / den) ** 2

    def f2(n):
        h = n + 0.5
        return (
            cmath.exp(1j * math.pi * tau * h * h),
            cmath.exp(2j * math.pi * z * h),
        )

    def f3(n):
        return (
            cmath.exp(1j * math.pi * tau * n * n),
            cmath.exp(2j * math.pi * z * n),
        )

    def f4(n):
        return (
            (-1) ** n * cmath.exp(1j * math.pi * tau * n * n),
            cmath.exp(2j * math.pi * z * n),
        )

    return 4 * (f(f2) + f(f3) + f(f4))


def test_evaluate_weight_zero_generator_is_twelve_at_origin():
    _, phi_0 = weak_generators(30)
    for n in range(1, 30):
        assert sum(v for (nn, r), v in phi_0.coeffs.items() if nn == n) == 0
    assert sum(v for (nn, r), v in phi_0.coeffs.items() if nn == 0) == 12
    assert abs(evaluate(phi_0, 1j, 0j) - 12) < 1e-9


def test_evaluate_matches_numeric_theta_quotient():
    _, phi_0 = weak_generators(40)
    for tau, z in [(1j, 0.2 + 0.1j), (0.3 + 1.1j, 0.05 - 0.2j)]:
        got = evaluate(phi_0, tau, z)
        want = numeric_theta_quotient(tau, z)
        assert abs(got - want) < 1e-8


def test_evaluate_weight_minus_two_vanishes_at_origin():
    phi_m2, _ = weak_generators(25)
    assert abs(evaluate(phi_m2, 0.7j, 0j)) < 1e-12


def test_evaluate_constant_and_zero():
    one = JacobiFormQExp(0, 0, 5, {(0, 0): 1})
    assert evaluate(one, 1j, 0.3j) == 1
    zero = JacobiFormQExp.zero(5, 1, 5)
    assert evaluate(zero, 1j, 0j) == 0j


def _traced_peak(call):
    """(call(), the peak traced allocation in bytes while it ran)."""
    tracemalloc.start()
    try:
        value = call()
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluate_work_follows_the_stored_rows(phi10):
    # a declared precision far above the stored rows allocates nothing and changes no bit
    wide = JacobiFormQExp._trusted(phi10.k, phi10.m, 10**6, phi10.den, phi10.num)
    value, peak = _traced_peak(lambda: evaluate(wide, 0.4j, 0.1j))
    assert value == evaluate(phi10, 0.4j, 0.1j)
    assert peak < 10**6


@pytest.mark.parametrize("r", [10**9, -(10**9)])
def test_evaluate_caps_the_y_power_table(r):
    # a lone row at r = +-10^9 lays out the line r = -10^9 .. 10^9: refused before any power is tabulated
    phi = JacobiFormQExp(4, 1, 2, {(1, r): 1})

    def refused():
        with pytest.raises(ValueError, match="more than %d" % jacobi.WINDOW_CAP):
            evaluate(phi, 1j, 0.1j)

    assert _traced_peak(refused)[1] < 10**4


def test_evaluate_refuses_far_rows_before_building():
    # rows at r = -10^9 and 10^9 need a line of 2 10^9 + 1 slots: refused before it is built
    far = JacobiFormQExp(4, 1, 4, {(1, -(10**9)): 1, (2, 0): 2, (3, 10**9): 3})
    near = JacobiFormQExp(4, 1, 2, {(1, 1): 5})

    def refused():
        with pytest.raises(ValueError, match="more than"):
            jacobi.evaluate_points([far, near], [(1j, 0.3), (1j, 0.25 + 0j)])

    assert _traced_peak(refused)[1] < 10**4


def test_evaluate_cap_counts_every_tabulated_power(monkeypatch):
    # the line of R = 4 holds r = -4 .. 4, 9 slots, and needs the powers s^0 .. s^8 of s = e(z) or e(-z)
    monkeypatch.setattr(jacobi, "WINDOW_CAP", 10)
    assert evaluate(JacobiFormQExp(4, 1, 2, {(1, -4): 1, (1, 4): 2}), 0.5j, 0.1j)
    assert evaluate(JacobiFormQExp(4, 1, 3, {(1, 0): 2, (2, 4): 3}), 0.5j, 0.1j)
    # R = 5 needs 11 slots, whether one row or several reach it
    for coeffs in ({(1, -5): 1, (1, 5): 2}, {(1, 0): 1, (1, 5): 1}, {(1, -5): 1, (2, 0): 1}, {(1, -4): 1, (2, 5): 1}):
        with pytest.raises(ValueError, match="spans 11 values of r"):
            evaluate(JacobiFormQExp(4, 1, 3, coeffs), 0.5j, 0.1j)


def test_evaluate_tabulates_no_powers_of_x():
    # a lone coefficient at n = 10^9 is one start factor, which underflows to 0
    phi = JacobiFormQExp(4, 1, 10**9 + 1, {(10**9, 0): 1})
    value, peak = _traced_peak(lambda: evaluate(phi, 1j, 0.1j))
    assert value == 0j and peak < 10**4


def test_evaluate_row_cap_allocates_nothing():
    # one row from r = -5 10^5 to 5 10^5 spans WINDOW_CAP + 1 values: refused before its 8 MB list is built
    phi = JacobiFormQExp(4, 1, 2, {(1, -(5 * 10**5)): 1, (1, 5 * 10**5): 1})

    def refused():
        with pytest.raises(ValueError, match="more than %d" % jacobi.WINDOW_CAP):
            evaluate(phi, 1j, 0.1j)

    assert _traced_peak(refused)[1] < 10**4


def test_evaluate_validates_upper_half_plane(phi10):
    with pytest.raises(ValueError):
        evaluate(phi10, 1.0 + 0j, 0j)
    with pytest.raises(ValueError):
        evaluate(phi10, -2j, 0j)


@pytest.mark.parametrize(
    "tau1, z, message",
    [
        (complex("nanj"), 0j, "finite"),
        (complex("1e400j"), 0j, "finite"),
        (complex("nan+1j"), 0j, "finite"),
        (1j, complex("nanj"), "finite"),
        (1j, complex("1e400j"), "finite"),
        (1j, 120j, r"e\(z\) or e\(-z\)"),  # e(z) underflows to 0
        (1j, -120j, r"e\(z\) or e\(-z\)"),  # e(z) overflows
        (1j, 50j, "a term overflows"),  # powers of e(-z) overflow
    ],
)
def test_evaluate_rejects_non_finite_and_overflowing_points(phi10, tau1, z, message):
    with pytest.raises(ValueError, match=message):
        evaluate(phi10, tau1, z)


def test_evaluate_tail_shrinks_with_precision(phi10):
    # the truncation error |phi10_P - phi10| at a fixed point falls as P grows;
    # at |q| = exp(-0.8 pi) the gap at P = 16 stays far above round-off
    full = evaluate(phi10, 0.4j, 0.1j)
    gaps = [abs(evaluate(phi10.truncated(P), 0.4j, 0.1j) - full) for P in (8, 12, 16)]
    assert gaps[0] > gaps[1] > gaps[2] > 0
