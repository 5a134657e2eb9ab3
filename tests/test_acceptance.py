"""Desk-scale acceptance checks for the whole pipeline, one per criterion.

Each test prints one `[criterion N] PASS/FAIL - detail` line directly to the
terminal before asserting, so a full run can be skimmed at a glance.
Criterion 5 checks the Cauchy gap of the disc partial sums S_M at
|q2| = 0.5 exp(-pi/2) between M = 45 and M' <= 90. The terms there decay
roughly like 0.5^m, so the tail past m = 20 is itself about 5.5e-4 and no
correct evaluation brings |S40 - S20| below the 1e-8 tolerance. From M = 41
on the uniform gap max_{M < M' <= 2M} |S_M' - S_M| is below it (2.7e-8 at
M = 40, 1.1e-9 at M = 45); M = 35 passes |S70 - S35| only by cancellation.
"""

import cmath
import math
import random
import time
from fractions import Fraction

import schoolbook
from fjcert.convergence import (
    BoundConfig,
    CompactBoxSpec,
    growth_fit,
    partial_sum_bound_check,
)
from fjcert.core import _dict_mul, _eis_dict
from fjcert.fjseries import (
    FormalFJ,
    PolynomialOverM,
    check_symmetry,
    monicize,
    poly_eval,
)
from fjcert.jacobi import TorsionPoint, evaluate, jacobi_space, specialize_torsion, weak_generators
from fjcert.reduction import (
    SymMatQ,
    corner_swap,
    enumerate_S,
    hermite_check,
    minkowski_reduce,
    torsion_decomposition,
)


def announce(capfd, num, ok, detail):
    with capfd.disabled():
        print("[criterion %d] %s - %s" % (num, "PASS" if ok else "FAIL", detail))


def square_relation(f):
    prod = f.multiply(f)
    return PolynomialOverM(
        [
            FormalFJ.zero(2 * f.k, prod.M_max, prod.prec) - prod,
            FormalFJ.zero(f.k, f.M_max, f.prec),
            FormalFJ.one(f.M_max, f.prec),
        ],
        0,
        f.k,
    )


# ---------------------------------------------------------------------------


def test_criterion_1_lift_symmetry(lift12, capfd):
    f, build_s = lift12
    t0 = time.perf_counter()
    rep = check_symmetry(f, 10)
    elapsed = build_s + time.perf_counter() - t0
    ok = rep.ok and elapsed < 60.0
    announce(
        capfd, 1, ok,
        "weight-10 lift (prec 12, M_max 12): %d checked, %d violations, %.1fs of 60s"
        % (rep.checked, len(rep.violations), elapsed),
    )
    assert rep.ok and not rep.violations
    assert elapsed < 60.0


def test_criterion_2_reduction_matches_exhaustive_minimum(capfd):
    rng = random.Random(414213)
    window = [
        (x, y)
        for x in range(-5, 6)
        for y in range(-5, 6)
        if (x, y) != (0, 0) and math.gcd(x, y) == 1
    ]
    t0 = time.perf_counter()
    checked = 0
    for _ in range(500):
        while True:
            a, b, c, d = (rng.randrange(-6, 7) for _ in range(4))
            if a * d - b * c != 0:
                break
        den = rng.randrange(1, 7)
        off = Fraction(a * b + c * d, den)
        t = SymMatQ([[Fraction(a * a + c * c, den), off], [off, Fraction(b * b + d * d, den)]])
        reduced, _ = minkowski_reduce(t)
        best = min(t[0, 0] * x * x + 2 * t[0, 1] * x * y + t[1, 1] * y * y for x, y in window)
        assert reduced[0, 0] == best
        assert hermite_check(reduced)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 500 and elapsed < 60.0
    announce(capfd, 2, ok, "500 random rational forms, exact minimum match, %.1fs of 60s" % elapsed)
    assert ok


def decomposition_sides(lam, M, u, rho, xi):
    g = len(lam) + 1
    left_factor = [[Fraction(int(i == j)) for j in range(g)] for i in range(g)]
    for j, x in enumerate(lam):
        left_factor[g - 1][j] = -Fraction(x)
    left = [
        [sum(left_factor[i][k] * u.rows[k][j] for k in range(g)) for j in range(g)]
        for i in range(g)
    ]
    right_block = [[Fraction(0)] * g for _ in range(g)]
    for i in range(g - 1):
        for j in range(g - 1):
            right_block[i][j] = Fraction(rho[i][j])
        right_block[i][g - 1] = Fraction(xi[i])
    right_block[g - 1][g - 1] = Fraction(1, M)
    s = corner_swap(g)
    right = [
        [sum(right_block[i][k] * s.rows[k][j] for k in range(g)) for j in range(g)]
        for i in range(g)
    ]
    return left, right


def test_criterion_3_torsion_decomposition_identity(capfd):
    cases = 0
    for M in range(1, 13):
        lams = [(Fraction(a, M),) for a in range(M) if M == 1 or math.gcd(a, M) == 1]
        lams += [
            (Fraction(a, M), Fraction(c, M))
            for a in range(M)
            for c in range(M)
            if M == 1 or math.gcd(math.gcd(a, c), M) == 1
        ]
        for lam in lams:
            u, rho, xi = torsion_decomposition(lam, M)
            left, right = decomposition_sides(lam, M, u, rho, xi)
            assert left == right
            det = rho[0][0] if len(rho) == 1 else rho[0][0] * rho[1][1] - rho[0][1] * rho[1][0]
            assert abs(det) == M
            cases += 1
    announce(capfd, 3, True, "exact identity and |det rho| = M in %d cases, M <= 12, both sizes" % cases)
    assert cases > 400


def test_criterion_4_growth_bound(lift40, capfd):
    f, build_s = lift40
    t0 = time.perf_counter()
    deg = growth_fit(
        [specialize_torsion(f.phis[m], TorsionPoint(1, 0, 0)) for m in range(1, 41)],
        f.k, 2, enumerate_S(1, 1, 2), BoundConfig(b=1),
    )
    fit = growth_fit(
        [specialize_torsion(f.phis[m], TorsionPoint(2, 1, 0)) for m in range(1, 41)],
        f.k, 2, enumerate_S(2, Fraction(1, 32), 2), BoundConfig(b=Fraction(1, 32)),
    )
    elapsed = build_s + time.perf_counter() - t0
    slope = fit.witnesses["slope"]
    ok = deg.passed and fit.verdict == "pass" and slope <= 11.0 and elapsed < 300.0
    announce(
        capfd, 4, ok,
        "N=1 %s, N=2 slope %.3f <= 11.0, 40 slices, %.1fs of 300s" % (deg.verdict, slope, elapsed),
    )
    assert deg.verdict == "degenerate-pass"
    assert fit.verdict == "pass" and slope <= 11.0
    assert elapsed < 300.0


def test_criterion_5_convergence_disc(lift24_90, capfd):
    f, _ = lift24_90
    q2 = 0.5 * math.exp(-math.pi / 2)
    vals = [0j] + [evaluate(f.phis[m], 1j, 0.5j) for m in range(1, 91)]
    sums = [0j]
    for m in range(1, 91):
        sums.append(sums[-1] + vals[m] * q2**m)
    s45, s90 = sums[45], sums[90]
    # (45, 90), not (20, 40): the series itself has |S40 - S20| = 5.5e-4 here
    gap = max(abs(sums[m] - s45) for m in range(46, 91))
    tol_gap = 1e-8 * max(1.0, abs(s45))
    direct = 0j
    for m in range(1, 91):
        for (n, r), v in f.phis[m].coeffs.items():
            direct += float(v) * cmath.exp(2j * math.pi * (n * 1j + r * 0.5j)) * q2**m
    rel = abs(direct - s90) / abs(s90)
    ok = gap < tol_gap and rel <= 1e-6
    announce(
        capfd, 5, ok,
        "uniform gap max |S_M'-S45| over 45 < M' <= 90 = %.3e, |S90-S45| = %.3e (tol %.3e), "
        "direct double-sum rel err %.3e (tol 1e-06)"
        % (gap, abs(s90 - s45), tol_gap, rel),
    )
    assert rel <= 1e-6
    assert gap < tol_gap


def test_criterion_6_locally_bounded_certificate(lift10_40, capfd):
    f, build_s = lift10_40
    t0 = time.perf_counter()
    q = square_relation(f)
    lo = -0.2 / math.sqrt(2)
    xs = [lo + i * (-2 * lo) / 4 for i in range(5)]
    box = CompactBoxSpec(tuple((1j, complex(x, y)) for x in xs for y in xs), 0.1)
    rep = partial_sum_bound_check(f, q, box, range(1, 41), kappa=1.1, points=5)
    elapsed = build_s + time.perf_counter() - t0
    ok = rep.verdict == "pass" and elapsed < 600.0
    announce(
        capfd, 6, ok,
        "max partial sum %.3e below bound %.3e on %d samples, %.1fs of 600s"
        % (rep.witnesses["max_partial_sum"], rep.witnesses["bound"], rep.witnesses["grid_size"], elapsed),
    )
    assert rep.verdict == "pass"
    assert rep.witnesses["grid_size"] == 625
    assert elapsed < 600.0


def test_criterion_7_monicize_contract(lift8, capfd):
    f_c, _ = lift8
    prec, mmax = f_c.prec, f_c.M_max
    pad4 = schoolbook.pad_index0(4, _eis_dict(4, prec), mmax, prec)
    e10 = _dict_mul(_eis_dict(4, prec), _eis_dict(6, prec), prec)
    f = f_c.add(schoolbook.pad_index0(10, e10, mmax, prec))
    a0 = FormalFJ.zero(24, mmax, prec) - pad4.multiply(f).multiply(f)
    q = PolynomialOverM([a0, FormalFJ.zero(14, mmax, prec), pad4], 4, 10)
    assert not q.is_monic() and poly_eval(q, f).is_zero()
    r, h = monicize(q, f, f_c)
    ok = r.is_monic() and h.is_cuspidal() and poly_eval(r, h).is_zero()
    announce(
        capfd, 7, ok,
        "non-monic degree-2 relation: R monic, h cuspidal, R(h) = 0 exactly at prec %d" % prec,
    )
    assert r.is_monic()
    assert h.is_cuspidal() and not h.is_zero()
    assert poly_eval(r, h).is_zero()


def test_criterion_8_invariance_suite(lift8, phi10, capfd):
    f, _ = lift8
    phi_m2, phi_0 = weak_generators(9)
    forms = [phi_m2, phi_0, phi10] + jacobi_space(10, False, 12) + [f.phis[m] for m in range(1, 5)]
    shifts = 0
    for phi in forms:
        for (n, r), v in phi.coeffs.items():
            n2, r2 = n + r + phi.m, r + 2 * phi.m
            if 0 <= n2 < phi.prec:
                assert phi.coeff(n2, r2) == v
                shifts += 1
            assert phi.coeff(n, -r) == v  # even weight throughout

    h0, h1 = jacobi_space(10, False, 12)
    p = TorsionPoint(3, 1, 2)
    combined = h0.scalar_mul(Fraction(2, 3)) + h1.scalar_mul(-5)
    left, eta0, eta1 = (specialize_torsion(phi, p) for phi in (combined, h0, h1))
    assert left.prec == eta0.prec == eta1.prec
    for e in set(left.coeffs) | set(eta0.coeffs) | set(eta1.coeffs):
        right = {}
        for eta, c in ((eta0, Fraction(2, 3)), (eta1, -5)):
            for j, v in eta.coeffs.get(e, {}).items():
                right[j] = right.get(j, 0) + c * Fraction(v, eta.den)
        assert {j: Fraction(v, left.den) for j, v in left.coeffs.get(e, {}).items()} == {j: v for j, v in right.items() if v}

    worst = 0.0
    checks = [(phi10, TorsionPoint(3, 1, 2), 0.3 + 1.1j), (f.phis[1], TorsionPoint(2, 1, 0), 1j), (f.phis[2], TorsionPoint(2, 1, 0), 1j)]
    for phi, pt, tau1 in checks:
        eta = specialize_torsion(phi, pt)
        series_val = sum(eta.value(e) * cmath.exp(2j * math.pi * complex(Fraction(e, eta.level)) * tau1) for e in sorted(eta.coeffs))
        lam = pt.lam_frac()
        twist = cmath.exp(2j * math.pi * phi.m * float(lam * lam) * tau1)
        point_val = twist * evaluate(phi, tau1, pt.z_at(tau1))
        worst = max(worst, abs(series_val - point_val))
    ok = worst <= 1e-8
    announce(
        capfd, 8, ok,
        "index shift (%d cases), r-symmetry, linear specialization, eta identity off by %.1e (tol 1e-08)"
        % (shifts, worst),
    )
    assert shifts > 100
    assert worst <= 1e-8
