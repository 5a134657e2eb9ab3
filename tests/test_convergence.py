"""Tests for the sampled convergence certificates and their reports."""

import cmath
import copy
import csv
import json
import math
import pickle
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import schoolbook
from fjcert import convergence, fjseries, jacobi
from fjcert.convergence import (
    TORSION_N_CAP,
    TORSION_TOL,
    BoundConfig,
    CompactBoxSpec,
    ConvergenceReport,
    _torsion_search,
    c_constant,
    c_constant_exact,
    d_eps,
    growth_fit,
    k_eps_grid,
    partial_sum_bound_check,
    pointwise_convergence_check,
    rho,
    write_csv,
)
from fjcert.core import PrecisionError, _eis_dict
from fjcert.fjseries import FormalFJ, PolynomialOverM, evaluate_partial, gritsenko_lift, q2_sum, siegel_point
from fjcert.jacobi import JacobiFormQExp, SpecializedExpansion, TorsionPoint, jacobi_space, specialize_torsion
from fjcert.reduction import CapacityError, enumerate_S


def square_relation(f):
    """Monic witness polynomial X^2 - f*f for a weight-k series f."""
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
# disc constant and Schur complement


def test_c_constant_pinned_values():
    assert c_constant(1j, TorsionPoint(2, 1, 0)) == 0.25
    assert c_constant(2j, TorsionPoint(2, 1, 0)) == 0.5
    assert c_constant(1j, TorsionPoint(2, 0, 1)) == 0.0
    assert c_constant(1j, TorsionPoint(1, 0, 0)) == 0.0
    got = c_constant_exact(Fraction(3, 2), TorsionPoint(3, 1, 2))
    assert got == Fraction(1, 6) and isinstance(got, Fraction)


def test_c_constant_rejects_higher_cogenus():
    with pytest.raises(ValueError):
        c_constant(1j, TorsionPoint(2, (1, 1), (0, 0)))


@given(st.integers(1, 9), st.integers(-12, 12), st.integers(-12, 12), st.integers(-12, 12))
def test_c_constant_ignores_mu(n, a, c1, c2):
    y = Fraction(7, 5)
    assert c_constant_exact(y, TorsionPoint(n, a, c1)) == c_constant_exact(y, TorsionPoint(n, a, c2))


def test_rho_pinned_values():
    assert rho(((1j, 0), (0, 1j))) == 1.0
    assert rho(((1j, 0.5j), (0.5j, 1j))) == 0.75
    with pytest.raises(ValueError):
        rho(((1.0 + 0j, 0), (0, 1j)))
    for bad in (complex("nanj"), complex("1e400j")):
        for tau in (((bad, 0), (0, 1j)), ((1j, bad), (bad, 1j)), ((1j, 0), (0, bad))):
            with pytest.raises(ValueError, match="finite"):
                rho(tau)
            with pytest.raises(ValueError, match="finite"):
                siegel_point(tau)


@given(
    st.floats(0.1, 10),
    st.floats(-3, 3),
    st.floats(0.1, 10),
    st.floats(-3, 3),
)
def test_rho_is_imag_determinant_over_corner(y1, yz, y2, x):
    tau = ((complex(x, y1), complex(0.2, yz)), (complex(0.2, yz), complex(-x, y2)))
    det = y1 * y2 - yz * yz
    assert rho(tau) == pytest.approx(det / y1, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# locating torsion points


@given(st.integers(1, 8), st.integers(-16, 16), st.integers(-16, 16))
def test_torsion_search_is_minimal_and_close(n, a, c):
    tau1 = 0.3 + 1.1j
    z = tau1 * (a / n) + (c / n)
    got = _torsion_search(tau1, z, 1e-9, 8)
    assert got.N <= n
    assert abs(got.z_at(tau1) - z) < 1e-9


def test_torsion_search_is_capped():
    tau1 = 0.3 + 1.1j
    assert _torsion_search(tau1, tau1 * (5 / 47) + 3 / 47, 1e-12, 50) == TorsionPoint(47, (5,), (3,))
    assert _torsion_search(tau1, tau1 * (5 / 53) + 3 / 53, 1e-12, 50) is None


# ---------------------------------------------------------------------------
# configuration containers


def test_bound_config_coerces_and_validates():
    cfg = BoundConfig()
    assert cfg.b == 1 and cfg.slack == 0.5 and cfg.caps == 10**6
    assert BoundConfig(b="1/32").b == Fraction(1, 32)
    with pytest.raises(ValueError):
        BoundConfig(b=0)
    with pytest.raises(ValueError):
        BoundConfig(slack=-0.1)
    for slack in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="slack"):
            BoundConfig(slack=slack)
    for caps in (0, -1):
        with pytest.raises(ValueError, match="caps"):
            BoundConfig(caps=caps)
    assert BoundConfig(slack=0, caps=1).caps == 1
    # a b that Fraction cannot take is a ValueError, as is a caps that is not an integer
    for b in (math.inf, -math.inf, "1/0"):
        with pytest.raises(ValueError, match="b must be a finite rational"):
            BoundConfig(b=b)
    for caps in (math.nan, 2.5, 1e6, True):
        with pytest.raises(ValueError, match="expected an integer"):
            BoundConfig(caps=caps)
    assert BoundConfig(caps="7").caps == 7 and type(BoundConfig(caps=Fraction(8)).caps) is int


def test_compact_box_validates_and_round_trips():
    box = CompactBoxSpec(((1j, 0.25j), (0.5 + 2j, 0.1 + 0j)), 0.125)
    rec = {"eps": 0.125, "U": [["1j", "0.25j"], ["0.5+2j", "0.1+0j"]]}  # a box file, read as bound-report reads it
    assert CompactBoxSpec(tuple(rec["U"]), rec["eps"]) == box
    with pytest.raises(ValueError):
        CompactBoxSpec(((1j, 0j),), 0.0)
    with pytest.raises(ValueError):
        CompactBoxSpec(((1j, 0j),), 1.0)
    with pytest.raises(ValueError):
        CompactBoxSpec(((1.0 + 0j, 0j),), 0.5)
    with pytest.raises(ValueError):
        CompactBoxSpec((), 0.1)
    for t, z in (("nanj", "0j"), ("1e400+1j", "0j"), ("1j", "nanj"), ("1j", "1e400j")):
        with pytest.raises(ValueError, match="finite"):
            CompactBoxSpec(((t, z),), 0.1)


# the five value classes, each with a field-wise repr: frozen ones are hashable
# unless a field is a dict, and a report is unhashable and can be changed
VALUES = [
    (TorsionPoint(2, 1, 0), "TorsionPoint(N=2, lam=(1,), mu=(0,))"),
    (SpecializedExpansion(10, 2, Fraction(5, 2), 3, {0: {1: 2}}),
     "SpecializedExpansion(k=10, N=2, prec=Fraction(5, 2), den=3, coeffs={0: {1: 2}})"),
    (BoundConfig(b="1/32", slack=0, caps=5), "BoundConfig(b=Fraction(1, 32), slack=0, caps=5)"),
    (CompactBoxSpec(((1j, 0.25j),), 0.125), "CompactBoxSpec(U=((1j, 0.25j),), eps=0.125)"),
    (ConvergenceReport("c", "p", "pass"),
     "ConvergenceReport(criterion='c', paper_ref='p', verdict='pass', witnesses={}, tolerances={}, series={}, sampled={})"),
]


@pytest.mark.parametrize("value, text", VALUES, ids=[type(v).__name__ for v, _ in VALUES])
def test_value_classes_keep_their_contract(value, text):
    assert repr(value) == text
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and not twin != value and type(twin) is type(value)
    assert value != text and value != None  # noqa: E711
    field = text[text.index("(") + 1 : text.index("=")]  # the first field
    if isinstance(value, ConvergenceReport):
        with pytest.raises(TypeError):
            hash(value)
        changed = copy.deepcopy(value)
        changed.verdict = "fail"
        assert changed.verdict == "fail" and changed != value
        return
    if isinstance(value, SpecializedExpansion):
        with pytest.raises(TypeError):  # coeffs is a dict
            hash(value)
    else:
        assert hash(value) == hash(copy.deepcopy(value))
    with pytest.raises(AttributeError):
        setattr(value, field, 1)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == text


def test_value_classes_read_their_fields():
    p = TorsionPoint(2, 1, 0)
    assert p == TorsionPoint(2, (1,), (0,)) == TorsionPoint(N=2, lam=(1,), mu=(0,)) == TorsionPoint("2", 1, "0")
    assert hash(p) == hash(TorsionPoint(2, (1,), (0,))) and {p: "x"}[TorsionPoint(2, (1,), (0,))] == "x"
    assert len({p, TorsionPoint(2, (1,), (0,)), TorsionPoint(2, 0, 1)}) == 2
    assert TorsionPoint(2, 1, 0) != TorsionPoint(4, 2, 0)  # equal points, different data
    eta = SpecializedExpansion(k=10, N=2, prec=Fraction(5, 2), den=3, coeffs={0: {1: 2}})
    assert eta == SpecializedExpansion(10, 2, Fraction(5, 2), 3, {0: {1: 2}}) and eta.level == 4
    cfg = BoundConfig(b=Fraction(1, 32), slack=0.25, caps=100)  # by keyword, as cli builds it
    assert (cfg.b, cfg.slack, cfg.caps) == (Fraction(1, 32), 0.25, 100) and cfg == BoundConfig(Fraction(1, 32), 0.25, 100)
    assert BoundConfig() == BoundConfig(1, 0.5, 10**6) != BoundConfig(caps=10)
    box = CompactBoxSpec(U=[("1j", 0)], eps=0.5)
    assert box.U == ((1j, 0j),) and box == CompactBoxSpec(((1j, 0j),), 0.5)
    # each report left without dicts gets fresh ones
    a, b = ConvergenceReport("c", "p", "pass"), ConvergenceReport("c", "p", "pass")
    a.witnesses["x"] = 1
    a.series["s"] = (["m"], [])
    assert b.witnesses == b.tolerances == b.series == b.sampled == {} and a != b
    assert ConvergenceReport("c", "p", "pass", sampled={"s": "t"}).sampled == {"s": "t"}


# ---------------------------------------------------------------------------
# report plumbing


def make_report(verdict="pass"):
    return ConvergenceReport(
        "demo",
        "a demonstration claim",
        verdict,
        {"gap": Fraction(1, 32), "point": 1 + 2j, "path": [Fraction(3, 2), 2]},
        {"rtol": 1e-8},
        {"tbl": (["a", "b"], [[1, Fraction(1, 2)], [2, 3]])},
    )


def test_report_passed_property():
    assert make_report("pass").passed
    assert make_report("degenerate-pass").passed
    assert not make_report("fail").passed
    assert not make_report("hypothesis-failure").passed


def test_report_record_is_json_ready():
    rec = make_report().to_record()
    json.dumps(rec)
    assert rec["witnesses"]["gap"] == "1/32"
    assert rec["witnesses"]["path"] == ["3/2", 2]
    assert rec["series"]["tbl"]["rows"] == [[1, "1/2"], [2, 3]]


def test_report_text_save_and_csv(tmp_path):
    rep = make_report()
    text = rep.to_text()
    assert "verdict: pass" in text
    assert "gap = 1/32" in text
    assert "tbl: 2 rows (a, b)" in text
    # what cli writes: the report text, and each series through write_csv
    (tmp_path / "report.txt").write_text(rep.to_text())
    assert (tmp_path / "report.txt").read_text() == text
    write_csv(tmp_path / "tbl.csv", *rep.series["tbl"])
    with open(tmp_path / "tbl.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["a", "b"], ["1", "1/2"], ["2", "3"]]


def test_write_csv_round_trip(tmp_path):
    write_csv(tmp_path / "t.csv", ["m", "v"], [[1, Fraction(5, 4)], [2, 0.5]])
    with open(tmp_path / "t.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["m", "v"], ["1", "5/4"], ["2", "0.5"]]


# ---------------------------------------------------------------------------
# growth of specialized slices


def lift_etas(f, scale=1):
    p = TorsionPoint(2, 1, 0)
    out = []
    for m in range(1, f.M_max + 1):
        phi = f.phis[m] if scale == 1 else f.phis[m].scalar_mul(Fraction(scale) ** m)
        out.append(specialize_torsion(phi, p))
    return out


def test_growth_fit_on_lift_slices(lift8):
    f, _ = lift8
    S = enumerate_S(2, Fraction(1, 128), 2)
    assert len(S) == 15
    rep = growth_fit(lift_etas(f), f.k, 2, S, BoundConfig(b=Fraction(1, 128)))
    assert rep.verdict == "pass" and rep.passed
    assert rep.tolerances == {"slack": 0.5, "threshold": 11.0}
    assert set(rep.witnesses) == {"b", "slope", "intercept", "ratio_max", "nonzero_points", "window_size"}
    assert rep.witnesses["slope"] == pytest.approx(4.2312487616, rel=1e-9)
    assert rep.witnesses["ratio_max"] == pytest.approx(7.0)
    assert rep.witnesses["nonzero_points"] == 8
    assert rep.witnesses["window_size"] == 15
    header, rows = rep.series["fe_norms"]
    assert header == ["m", "fe_norm"] and len(rows) == 8
    assert [m for m, _ in rows] == list(range(1, 9))
    # the slope is labelled as a sample, in the record and in the text report
    assert list(rep.sampled) == ["slope"] and "8 slices m <= 8" in rep.sampled["slope"]
    assert rep.to_record()["sampled"] == rep.sampled
    assert "sampled:\n  slope: least-squares fit" in rep.to_text()


def test_growth_fit_pinned_where_every_coefficient_has_several_roots():
    # at lambda = 0, mu = 1/3 each specialized coefficient sums the rows' terms
    # over the roots e(r/3); at gcd(lambda N, N) = 1 each is one root times a rational
    phi = jacobi_space(10, True, 109)[0]
    f = gritsenko_lift(phi, 12, 10)
    etas = [specialize_torsion(f.phis[m], TorsionPoint(3, 0, 1)) for m in range(1, 13)]
    assert sum(len(w) > 1 for eta in etas for w in eta.coeffs.values()) == sum(len(eta.coeffs) for eta in etas) == 106
    b = Fraction(1, 1024)
    rep = growth_fit(etas, f.k, 2, enumerate_S(3, b, 2), BoundConfig(b=b))
    assert rep.verdict == "pass"
    assert rep.witnesses["slope"] == 4.174497760255132
    assert rep.witnesses["intercept"] == 8.636200290550384
    assert rep.witnesses["ratio_max"] == 1458.0


def test_growth_fit_flags_fast_growth(lift8):
    f, _ = lift8
    S = enumerate_S(2, Fraction(1, 128), 2)
    rep = growth_fit(lift_etas(f, scale=32), f.k, 2, S, BoundConfig())
    assert rep.verdict == "fail" and not rep.passed
    assert rep.witnesses["slope"] > 11.0


def test_growth_fit_degenerate_on_zero_slices():
    p = TorsionPoint(2, 1, 0)
    etas = [specialize_torsion(JacobiFormQExp.zero(10, m, 8), p) for m in range(1, 9)]
    S = enumerate_S(2, Fraction(1, 128), 2)
    rep = growth_fit(etas, 10, 2, S, BoundConfig())
    assert rep.verdict == "degenerate-pass" and rep.passed
    assert rep.witnesses["nonzero_points"] == 0
    assert rep.witnesses["ratio_max"] == 0.0
    assert len(rep.series["fe_norms"][1]) == 8
    # no fit, so nothing sampled to label
    assert rep.sampled == {} and "sampled" not in rep.to_record() and "sampled:" not in rep.to_text()


def test_growth_fit_needs_eight_slices():
    p = TorsionPoint(2, 1, 0)
    etas = [specialize_torsion(JacobiFormQExp.zero(10, m, 8), p) for m in range(1, 8)]
    with pytest.raises(ValueError):
        growth_fit(etas, 10, 2, enumerate_S(2, Fraction(1, 128), 2), BoundConfig())


# ---------------------------------------------------------------------------
# pointwise convergence audit


def geometric_series(mmax):
    """Cuspidal series whose every nonzero slice is the single term q^1."""
    phis = [JacobiFormQExp.zero(10, 0, 3)]
    phis += [JacobiFormQExp(10, m, 3, {(1, 0): Fraction(1)}) for m in range(1, mmax + 1)]
    return FormalFJ(10, mmax, phis)


def specializations(f, p):
    """eta_m = specialize_torsion(f.phis[m], p) for m = 1 .. M_max, as certify builds them."""
    return [specialize_torsion(phi, p) for phi in f.phis[1:]]


def test_pointwise_passes_on_geometric_terms():
    f = geometric_series(60)
    p = TorsionPoint(2, 0, 1)
    rep = pointwise_convergence_check(f, specializations(f, p), p, 1j, 0.5, 30)
    assert rep.verdict == "pass"
    w = rep.witnesses
    assert w["C"] == 0.0 and w["disc_radius"] == 1.0 and w["q2_abs"] == 0.5
    assert w["tail_start"] == 1 and w["M"] == 30
    assert w["S_M"] == pytest.approx(math.exp(-2 * math.pi) * (1 - 0.5**30), rel=1e-12)
    assert "cauchy_witness" not in w and "decay_witness" not in w
    header, rows = rep.series["partial_sums"]
    assert header == ["M", "partial_sum"] and len(rows) == 60


def test_pointwise_geometry_on_lift(lift40):
    # every slice of lift40 up to 2M = 40 is certified at (2, 1, 0)
    f, _ = lift40
    p = TorsionPoint(2, 1, 0)
    rep = pointwise_convergence_check(f, specializations(f, p), p, 1j, 0.5, 20)
    w = rep.witnesses
    assert w["C"] == 0.25
    assert w["disc_radius"] == pytest.approx(math.exp(-math.pi / 2), rel=1e-12)
    assert w["q2_abs"] == pytest.approx(0.5 * math.exp(-math.pi / 2), rel=1e-12)
    assert w["max_digits"] == convergence.POINTWISE_DIGITS and "unresolved_terms" not in w
    header, rows = rep.series["terms"]
    assert header == ["m", "term", "radius"] and [row[0] for row in rows] == list(range(1, 41))
    assert all(0 < Decimal(r) <= Decimal(t) * convergence.TERM_RTOL for _, t, r in rows)


def test_pointwise_refuses_a_slice_with_no_certified_precision(lift_wide):
    # prec 6 certifies nothing at (2, 1, 0) from m = 14 on: 6 + m/4 - ceil(2 sqrt(6m))/2 <= 0
    f, _ = lift_wide
    p = TorsionPoint(2, 1, 0)
    etas = specializations(f, p)
    assert etas[12].prec > 0 and etas[13].prec == 0
    with pytest.raises(PrecisionError, match="slice m = 14 has certified precision 0"):
        pointwise_convergence_check(f, etas, p, 1j, 0.5, 20)
    assert pointwise_convergence_check(f, etas, p, 1j, 0.5, 6).witnesses["M"] == 6


def test_pointwise_fails_near_disc_boundary(lift_wide):
    f, _ = lift_wide
    p = TorsionPoint(2, 0, 1)
    rep = pointwise_convergence_check(f, specializations(f, p), p, 1j, 0.99, 2)
    assert rep.verdict == "fail"
    assert "cauchy_witness" in rep.witnesses
    assert rep.witnesses["S_2M"] > rep.witnesses["S_M"]


def test_pointwise_validation(lift8):
    f, _ = lift8
    p = TorsionPoint(2, 0, 1)
    etas = specializations(f, p)
    with pytest.raises(ValueError):
        pointwise_convergence_check(FormalFJ.one(4, 4), etas, p, 1j, 0.5, 2)
    with pytest.raises(ValueError):
        pointwise_convergence_check(f, etas, p, 1j, 0.0, 2)
    with pytest.raises(ValueError):
        pointwise_convergence_check(f, etas, p, 1j, 1.0, 2)
    with pytest.raises(PrecisionError):
        pointwise_convergence_check(f, etas, p, 1j, 0.5, 5)
    with pytest.raises(ValueError):
        pointwise_convergence_check(f, etas, p, 1j, 0.5, 0)
    with pytest.raises(ValueError, match="specializations"):
        pointwise_convergence_check(f, etas[:3], p, 1j, 0.5, 2)
    with pytest.raises(ValueError, match="specializations"):
        pointwise_convergence_check(f, specializations(f, TorsionPoint(3, 0, 1)), p, 1j, 0.5, 2)
    for tau1 in (-1j, 0j, complex(math.inf, 1)):
        with pytest.raises(ValueError, match="tau1"):
            pointwise_convergence_check(f, etas, p, tau1, 0.5, 2)


@pytest.mark.parametrize("tau1", [1j, 0.3 + 1.1j, 1e10j, 0.3 + 1e10j], ids=["i", "0.3+1.1i", "1e10i", "0.3+1e10i"])
@pytest.mark.parametrize("point", [(2, 1, 1), (3, 1, 1), (3, 2, 1)], ids=str)
def test_decimal_terms_lie_within_their_radius_of_the_sum_at_twice_the_digits(lift12, point, tau1):
    # N = 3 has level 9: its roots e(j/9) and, off Re tau1 = 0, e(tau1/L)
    # come from the cos and sin series; N = 2 at tau1 = i is exact up to exp.
    # At Im tau1 = 1e10 (which the check reaches at lambda = 0, where C = 0)
    # the exp argument -2 pi Im(tau1) / L has 10 integer digits, whose
    # rounding every power of e(tau1/L) carries, and the terms lie near
    # 10^-(10^9): they are compared in decimal's widest exponent range
    f, _ = lift12
    etas = list(enumerate(specializations(f, TorsionPoint(*point)), 1))
    digits = convergence.POINTWISE_DIGITS
    low = convergence._decimal_terms(etas, tau1, 0.5, digits)
    high = convergence._decimal_terms(etas, tau1, 0.5, 2 * digits)
    with localcontext(convergence._context(4 * digits)):
        for (m, _), (v, r), (v2, r2) in zip(etas, low, high):
            assert 0 < v and abs(v - v2) <= r + r2 and r2 < r, m
        assert any(v != v2 for (v, _), (v2, _) in zip(low, high))


def test_decimal_terms_agree_with_evaluate_points(lift40):
    # the two routes at (2, 1, 0): evaluate_points sums every stored row in
    # floats, the decimal sum the specialization below its certified precision
    f, _ = lift40
    p = TorsionPoint(2, 1, 0)
    rep = pointwise_convergence_check(f, specializations(f, p), p, 1j, 0.5, 20)
    q2 = rep.witnesses["q2_abs"]
    floats = jacobi.evaluate_points(f.phis[:41], [(1j, p.z_at(1j))])[0]
    for m, term, _ in rep.series["terms"][1]:
        want = abs(floats[m]) * q2**m
        assert abs(float(term) - want) <= 1e-13 * want, m


def test_pointwise_terms_at_2_1_1_are_resolved_where_floats_give_noise(lift40):
    # phi_m(i, (i + 1)/2) vanishes for even m (weight 10, S fixes the point up
    # to a lattice shift), so the truncated sums are far below the float noise
    # of evaluate_points (2.91e1 and 9.70e8 at m = 20 and 30); each even-m term
    # is resolved, at up to 160 digits
    f, _ = lift40
    p = TorsionPoint(2, 1, 1)
    rep = pointwise_convergence_check(f, specializations(f, p), p, 1j, 0.1, 20)
    w = rep.witnesses
    assert "unresolved_terms" not in w and w["max_digits"] == 160
    rows = rep.series["terms"][1]
    assert all(0 < Decimal(r) <= Decimal(t) * convergence.TERM_RTOL for _, t, r in rows)
    phi_abs = {m: float(t) / w["q2_abs"] ** m for m, t, _ in rows}
    assert phi_abs[20] == pytest.approx(5.17e-21, rel=1e-3)
    assert phi_abs[30] == pytest.approx(4.05e-3, rel=1e-3)
    # the verdict still fails, on the decay rule: odd-m terms outgrow the
    # even-m ones up to the last index.  That is the rule's problem
    # (ROADMAP item 1), not the terms'
    assert rep.verdict == "fail" and w["tail_start"] == 39 and "cauchy_witness" not in w


def test_pointwise_counts_an_unresolved_term_at_value_plus_radius(lift40, monkeypatch):
    # with no doubling and too few digits, the even-m terms at (2, 1, 1) stay
    # above their radius: they are named and summed as value + radius
    f, _ = lift40
    p = TorsionPoint(2, 1, 1)
    monkeypatch.setattr(convergence, "POINTWISE_DOUBLINGS", 0)
    rep = pointwise_convergence_check(f, specializations(f, p), p, 1j, 0.1, 20)
    w = rep.witnesses
    assert w["max_digits"] == convergence.POINTWISE_DIGITS
    named = [int(m) for m in w["unresolved_terms"].split(":")[0][4:].split(", ")]
    assert named and all(m % 2 == 0 for m in named)
    rows = rep.series["terms"][1]
    sums = rep.series["partial_sums"][1]
    want = sum(Decimal(t) + (Decimal(r) if m in named else 0) for m, t, r in rows)
    assert sums[-1][1] == pytest.approx(float(want), rel=1e-15)


def test_pointwise_refuses_a_disc_radius_below_the_floats(lift8):
    f, _ = lift8
    p = TorsionPoint(2, 1, 0)
    etas = specializations(f, p)
    with pytest.raises(ValueError, match="underflows a float"):
        pointwise_convergence_check(f, etas, p, 1000j, 0.5, 4)
    # at 300j the disc radius is a float and the terms, down to 1e-616, are not zero
    rep = pointwise_convergence_check(f, etas, p, 300j, 0.5, 4)
    assert all(Decimal(t) > 0 for _, t, _ in rep.series["terms"][1])
    # with lambda = 0 the disc is the unit disc, and a term leaves even
    # decimal's exponent range before any float does
    p = TorsionPoint(2, 0, 1)
    with pytest.raises(ValueError, match="decimal exponent range"):
        pointwise_convergence_check(f, specializations(f, p), p, 1e300j, 0.5, 4)


# ---------------------------------------------------------------------------
# box grids and the sampled sup


def test_k_eps_grid_shape_and_schur_values():
    box = CompactBoxSpec(((1j, 0.25j), (0.5 + 2j, 0.1 + 0j)), 0.2)
    grid = k_eps_grid(box, points=3)
    assert len(grid) == 2 * 3 * 3
    want_rho = {0.2, 0.2 + (5.0 - 0.2) / 2, 5.0}
    seen_rho = set()
    seen_re = set()
    for (t1, z), (z2, t2) in grid:
        assert z2 == z
        seen_rho.add(round(rho(((t1, z), (z, t2))), 9))
        seen_re.add(t2.real)
    assert seen_rho == {round(v, 9) for v in want_rho}
    assert seen_re == {0.0, 1 / 3, 2 / 3}
    assert len(k_eps_grid(box, points=1)) == 2


def test_k_eps_grid_rejects_bad_scale():
    box = CompactBoxSpec(((1j, 0.25j),), 0.2)
    with pytest.raises(ValueError):
        k_eps_grid(box, eps_scale=10.0)
    with pytest.raises(ValueError):
        k_eps_grid(box, eps_scale=0.0)


def test_d_eps_matches_direct_sup(lift8):
    f, _ = lift8
    q = square_relation(f)
    box = CompactBoxSpec(((1j, 0.25j), (1j, 0.1 + 0.05j)), 0.1)
    grid = k_eps_grid(box, points=3)
    random.Random(7).shuffle(grid)  # repeated (tau1, z) are no longer adjacent
    got = d_eps(q, box, grid)
    want = max(1.0 + abs(evaluate_partial(q.coeffs[0], tau, q.coeffs[0].M_max)) for tau in grid)
    assert got == want
    assert got > 1.0


def test_d_eps_builds_one_line_per_slice_and_line_and_one_phase_sum_per_point(lift8, monkeypatch):
    f, _ = lift8
    q = square_relation(f)
    # the second and third points share tau1 = i and Im z = 0.05: one line
    box = CompactBoxSpec(((1j, 0.25j), (1j, 0.1 + 0.05j), (1j, -0.2 + 0.05j), (0.5 + 1j, 0.15j)), 0.1)
    calls, lines, sums = [], [], []
    evaluate_points, line, phase_sum = convergence.evaluate_points, jacobi._line, jacobi._phase_sum
    monkeypatch.setattr(convergence, "evaluate_points", lambda phis, pts: calls.append(list(pts)) or evaluate_points(phis, pts))
    # the rows and the lines stay referenced, so their ids name one slice and one line each
    monkeypatch.setattr(jacobi, "_line", lambda rows, R, t1, y, *rest: lines.append((rows, t1, y, line(rows, R, t1, y, *rest))) or lines[-1][-1])
    monkeypatch.setattr(jacobi, "_phase_sum", lambda g, R, phases, t1, z: sums.append((g, t1, z)) or phase_sum(g, R, phases, t1, z))
    monkeypatch.setattr(fjseries, "evaluate", None)  # no one-point call is left
    d_eps(q, box, k_eps_grid(box, points=5))
    coeffs = [a for a in q.coeffs[:-1] if not a.is_zero()]
    nonzero = sum(not phi.is_zero() for a in coeffs for phi in a.phis)
    assert calls == [list(box.U)] * len(coeffs)
    keys = [(id(rows), t1, y) for rows, t1, y, _ in lines]
    assert len(keys) == len(set(keys)) == 3 * nonzero
    keys = [(id(g), t1, z) for g, t1, z in sums]
    assert len(keys) == len(set(keys)) == len(box.U) * nonzero
    assert {id(g) for g, *_ in sums} == {id(g) for *_, g in lines}


def test_box_checks_make_one_evaluate_points_call(lift8, monkeypatch):
    f, _ = lift8
    q = square_relation(f)
    box = CompactBoxSpec(((1j, 0.25j), (1j, 0.1 + 0.05j), (0.5 + 1j, 0.15j)), 0.1)
    calls = []
    evaluate_points, ids = convergence.evaluate_points, lambda phis: list(map(id, phis))
    monkeypatch.setattr(convergence, "evaluate_points", lambda phis, pts: calls.append((ids(phis), list(pts))) or evaluate_points(phis, pts))
    partial_sum_bound_check(f, q, box, [1, 2, 4, 8], points=3)
    # d_eps: one call per nonzero coefficient of q; then one for f up to the largest M
    coeffs = [a for a in q.coeffs[:-1] if not a.is_zero()]
    assert calls == [(ids(a.phis), list(box.U)) for a in coeffs] + [(ids(f.phis[:9]), list(box.U))]
    calls.clear()
    # the pointwise check sums the specializations, and evaluates no slice
    p = TorsionPoint(2, 1, 0)
    pointwise_convergence_check(f, specializations(f, p), p, 1j, 0.5, 4)
    assert calls == []


def plain_partial_sums(slice_vals, tau2, mtop):
    """|sum_{1 <= m <= M} slice_vals[m] q2^m| for M = 1 .. mtop, by the
    plain loop partial_sum_bound_check ran before it used accumulate."""
    q2 = cmath.exp(2j * math.pi * tau2)
    acc, w, out = 0j, 1.0 + 0j, [0.0]
    for m in range(1, mtop + 1):
        w *= q2
        acc += slice_vals[m] * w
        out.append(abs(acc))
    return out


def test_box_certificate_sums_match_a_plain_loop_bit_for_bit(lift8):
    # the per-grid-point partial sums, row maxima and argmax are those of
    # the plain loop over the same slice values; z and -z tie bit for bit,
    # and the first of the twins keeps the argmax
    f, _ = lift8
    q = square_relation(f)
    box = CompactBoxSpec(((0.5 + 1j, -0.15j), (1j, 0.1 + 0.05j), (0.5 + 1j, 0.15j)), 0.1)
    rep = partial_sum_bound_check(f, q, box, [8, 1, 4, 2], points=3)
    assert "tau1=0.5+1j z=-0-0.15j" in rep.witnesses["argmax"]
    rows, best, argmax = {m: 0.0 for m in (1, 2, 4, 8)}, 0.0, None
    for tau in k_eps_grid(box, 2.0, 3):
        t1, z, t2 = siegel_point(tau)
        sums = plain_partial_sums(jacobi.evaluate_points(f.phis[:9], [(t1, z)])[0], t2, 8)
        for m in sorted(rows):
            rows[m] = max(rows[m], sums[m])
            if sums[m] > best:
                best, argmax = sums[m], (m, t1, z, t2)
    assert rep.series["partial_sums"][1] == [[m, rows[m]] for m in sorted(rows)]
    assert rep.witnesses["max_partial_sum"] == best
    assert rep.witnesses["argmax"] == "M=%d tau1=%s z=%s tau2=%s" % (argmax[0], *map(convergence._cplx_str, argmax[1:]))


@given(st.lists(st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), max_size=30),
       st.builds(complex, st.floats(-1, 1), st.floats(0.01, 2)))
def test_q2_sum_matches_a_plain_loop_bit_for_bit(values, tau2):
    q2 = cmath.exp(2j * math.pi * tau2)
    terms, w = [], 1.0 + 0j
    for v in values:
        terms.append(v * w)
        w *= q2
    want = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    got = q2_sum(values, tau2)
    assert (got.real, got.imag) == (want.real, want.imag)


def test_d_eps_is_one_for_plain_x():
    q = PolynomialOverM([FormalFJ.zero(10, 2, 3), FormalFJ.one(2, 3)], 0, 10)
    box = CompactBoxSpec(((1j, 0.25j),), 0.1)
    assert d_eps(q, box, k_eps_grid(box, points=2)) == 1.0


def test_d_eps_validation(lift8):
    f, _ = lift8
    box = CompactBoxSpec(((1j, 0.25j),), 0.1)
    doubled = PolynomialOverM(
        [FormalFJ.zero(10, f.M_max, f.prec), FormalFJ.one(f.M_max, f.prec).scalar_mul(2)], 0, 10
    )
    with pytest.raises(ValueError):
        d_eps(doubled, box, k_eps_grid(box, points=2))
    with pytest.raises(ValueError):
        d_eps(square_relation(f), box, [])


def test_near_torsion_detection():
    # the search partial_sum_bound_check makes for each box point
    def near(tau1, z):
        return _torsion_search(tau1, z, TORSION_TOL, TORSION_N_CAP) is not None

    assert near(1j, 0.25j)
    assert near(1j, 0.5 + 0j)
    assert not near(1j, 0.1 + 0.05j)
    assert not near(0.5 + 1j, 0.15j)


# ---------------------------------------------------------------------------
# compact-box partial sum certificate


def test_box_certificate_passes_on_square_relation(lift8):
    f, _ = lift8
    q = square_relation(f)
    box = CompactBoxSpec(((1j, 0.25j), (1j, 0.1 + 0.05j), (0.5 + 1j, 0.15j)), 0.1)
    rep = partial_sum_bound_check(f, q, box, [1, 2, 4, 8], points=3)
    assert rep.verdict == "pass"
    w = rep.witnesses
    assert w["grid_size"] == 27
    assert w["bound"] == pytest.approx(
        1.1 * w["D_eps"] * math.exp(-0.2 * math.pi) / (1 - math.exp(-0.2 * math.pi)), rel=1e-12
    )
    assert w["margin"] == pytest.approx(w["bound"] - w["max_partial_sum"], rel=1e-12)
    assert w["max_partial_sum"] < w["bound"]
    # z = i/4 is 4-torsion, so the flagged subgrid is exercised on this box
    assert w["max_on_torsion_subgrid"] > 0
    assert w["torsion_subgrid_pass"]
    assert max(w["max_on_torsion_subgrid"], w["max_off_torsion"]) == w["max_partial_sum"]
    assert "argmax" in w
    header, rows = rep.series["partial_sums"]
    assert header == ["M", "max_abs_partial_sum"]
    assert [m for m, _ in rows] == [1, 2, 4, 8]
    # both sups are maxima over the sample grids, and say so
    assert sorted(rep.sampled) == ["D_eps", "max_partial_sum"]
    assert rep.sampled["D_eps"].startswith("max over the 27 points of k_eps_grid(box, 1.0, 3)")
    assert rep.sampled["max_partial_sum"].startswith("max over the 27 points of k_eps_grid(box, 2.0, 3)")
    assert rep.to_record()["sampled"] == rep.sampled and "  D_eps: max over the 27 points" in rep.to_text()
    assert rep.tolerances == {"kappa": 1.1, "eps": 0.1}


def test_box_certificate_reports_hypothesis_failures(lift8, monkeypatch):
    f, _ = lift8
    box = CompactBoxSpec(((1j, 0.25j),), 0.1)
    doubled = PolynomialOverM(
        [FormalFJ.zero(10, f.M_max, f.prec), FormalFJ.one(f.M_max, f.prec).scalar_mul(2)], 0, 10
    )
    rep = partial_sum_bound_check(f, doubled, box, [1], points=2)
    assert rep.verdict == "hypothesis-failure" and not rep.passed
    assert rep.witnesses["failed_precondition"] == "polynomial is not monic"

    e4 = schoolbook.pad_index0(4, _eis_dict(4, f.prec), f.M_max, f.prec)
    plain_x4 = PolynomialOverM([FormalFJ.zero(4, f.M_max, f.prec), FormalFJ.one(f.M_max, f.prec)], 0, 4)
    rep = partial_sum_bound_check(e4, plain_x4, box, [1], points=2)
    assert rep.verdict == "hypothesis-failure"
    assert rep.witnesses["failed_precondition"] == "series is not cuspidal"

    plain_x = PolynomialOverM([FormalFJ.zero(10, f.M_max, f.prec), FormalFJ.one(f.M_max, f.prec)], 0, 10)
    rep = partial_sum_bound_check(f, plain_x, box, [1], points=2)
    assert rep.verdict == "hypothesis-failure"
    assert rep.witnesses["failed_precondition"] == "q(f) is nonzero to stored precision"

    # a step other than the weight of f is reported before poly_eval would reject it
    step12 = PolynomialOverM([FormalFJ.zero(12, f.M_max, f.prec), FormalFJ.one(f.M_max, f.prec)], 0, 12)
    monkeypatch.setattr(convergence, "poly_eval", None)  # a call would raise TypeError
    rep = partial_sum_bound_check(f, step12, box, [1], points=2)
    assert rep.verdict == "hypothesis-failure"
    assert rep.witnesses["failed_precondition"] == "series weight 10 does not match polynomial step 12"


def test_box_certificate_samples_the_shrunken_box(lift8, monkeypatch):
    f, _ = lift8
    q = square_relation(f)
    box = CompactBoxSpec(((1j, 0.25j), (1j, 0.1 + 0.05j)), 0.1)
    scales = []
    grid = convergence.k_eps_grid
    monkeypatch.setattr(convergence, "k_eps_grid", lambda b, scale, points: scales.append(scale) or grid(b, scale, points))
    rep = partial_sum_bound_check(f, q, box, [1, 8], points=3)
    assert sorted(scales) == [1.0, 2.0] and rep.witnesses["grid_size"] == 18
    # from eps = 1/2 on, [2 eps, 1/(2 eps)] is empty
    for eps in (0.5, 0.7):
        with pytest.raises(ValueError):
            partial_sum_bound_check(f, q, CompactBoxSpec(box.U, eps), [1], points=2)


@pytest.mark.parametrize("kappa", [math.inf, math.nan, 0.0, -1.0], ids=["inf", "nan", "zero", "negative"])
def test_box_certificate_refuses_kappa_outside_the_positive_reals(lift8, monkeypatch, kappa):
    # an infinite kappa would pass any sums, and nan, 0 or -1 fail them on a meaningless bound
    f, _ = lift8
    q = square_relation(f)
    box = CompactBoxSpec(((1j, 0.25j),), 0.1)
    monkeypatch.setattr(convergence, "poly_eval", lambda *args: pytest.fail("poly_eval ran"))
    with pytest.raises(ValueError, match="kappa must be finite and positive"):
        partial_sum_bound_check(f, q, box, [1], kappa=kappa, points=2)


def test_k_eps_grid_is_capped(monkeypatch):
    box = CompactBoxSpec(((1j, 0.25j), (1j, 0.1 + 0.05j)), 0.1)
    with pytest.raises(CapacityError):
        k_eps_grid(box, points=10**9)
    monkeypatch.setattr(convergence, "GRID_CAP", 50)
    assert len(k_eps_grid(box, points=5)) == 50
    with pytest.raises(CapacityError):
        k_eps_grid(box, points=6)


def test_box_certificate_mlist_validation(lift8):
    f, _ = lift8
    q = square_relation(f)
    box = CompactBoxSpec(((1j, 0.25j),), 0.1)
    with pytest.raises(ValueError):
        partial_sum_bound_check(f, q, box, [], points=2)
    with pytest.raises(ValueError):
        partial_sum_bound_check(f, q, box, [0, 1], points=2)
    with pytest.raises(ValueError):
        partial_sum_bound_check(f, q, box, [f.M_max + 1], points=2)
    rep = partial_sum_bound_check(f, q, box, [2, 2.0], points=2)
    assert [m for m, _ in rep.series["partial_sums"][1]] == [2]


def test_box_certificate_checks_mlist_entries_as_read(lift8):
    # a billion-entry M_list fails at its first entry past M_max, not after collecting it
    f, _ = lift8
    q = square_relation(f)
    box = CompactBoxSpec(((1j, 0.25j),), 0.1)
    read = []

    def entries():
        for m in range(1, 10**9 + 1):
            read.append(m)
            yield m

    with pytest.raises(ValueError, match="M_max"):
        partial_sum_bound_check(f, q, box, entries(), points=2)
    assert len(read) == f.M_max + 1
    with pytest.raises(ValueError, match="M_max"):
        partial_sum_bound_check(f, q, box, range(1, 10**9 + 1), points=2)
