"""Tests for formal Fourier-Jacobi series, the lift, and polynomial algebra."""

import cmath
import hashlib
import io
import json
import math
import random
import sys
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import schoolbook
from fjcert.core import PrecisionError, QExpansion, eisenstein_qexp, parse_rat
from fjcert.fjseries import (
    FormalFJ,
    PolynomialOverM,
    SymmetryReport,
    _lift,
    check_symmetry,
    evaluate_partial,
    extract_phi_m,
    gritsenko_lift,
    monicize,
    poly_eval,
)
from fjcert.jacobi import (
    JacobiFormQExp,
    _index1_table,
    _materialize_index1,
    _space_components,
    jacobi_space,
    multiply,
    weak_generators,
)
from fjcert.reduction import HalfIntIndex


# ---------------------------------------------------------------------------
# container basics


def test_constructor_validates_slices():
    phis = [JacobiFormQExp.zero(8, m, 5) for m in range(3)]
    f = FormalFJ(8, 2, phis)
    assert f.prec == 5 and f.M_max == 2
    with pytest.raises(ValueError):
        FormalFJ(8, 3, phis)
    bad = [JacobiFormQExp.zero(8, m + 1, 5) for m in range(3)]
    with pytest.raises(ValueError):
        FormalFJ(8, 2, bad)
    mixed = [JacobiFormQExp.zero(8, 0, 5), JacobiFormQExp.zero(6, 1, 5)]
    with pytest.raises(ValueError):
        FormalFJ(8, 1, mixed)


def test_one_and_zero_and_pad():
    one = FormalFJ.one(3, 6)
    assert one.coeff(0, 0, 0) == 1
    assert one.coeff(1, 0, 0) == 0
    assert not one.is_cuspidal() and not one.is_zero()
    zero = FormalFJ.zero(4, 3, 6)
    assert zero.is_zero() and zero.is_cuspidal()
    e4 = schoolbook.pad_index0(4, eisenstein_qexp(4, 9), 3, 6)
    assert e4.prec == 6
    assert e4.coeff(1, 0, 0) == 240
    assert e4.coeff(1, 0, 1) == 0
    assert not e4.is_cuspidal()


def test_cuspidal_needs_cusp_slices(lift8):
    f, _ = lift8
    weak = JacobiFormQExp(10, 2, f.prec, {(1, 3): 1})  # 4nm - r^2 = -1
    bent = FormalFJ(10, f.M_max, f.phis[:2] + (weak,) + f.phis[3:])
    assert f.is_cuspidal() and not bent.is_cuspidal()
    assert bent.phis[0].is_zero()


def test_coeff_access_forms(lift8):
    f, _ = lift8
    t = HalfIntIndex(Fraction(2), Fraction(1), 2)
    assert f.coeff(t) == f.coeff(2, 1, 2)
    with pytest.raises(ValueError):
        f.coeff(HalfIntIndex(Fraction(1, 2), Fraction(1), 1))
    with pytest.raises(PrecisionError):
        f.coeff(1, 1, f.M_max + 1)
    with pytest.raises(TypeError):
        f.coeff((1, 1, 1))
    with pytest.raises(TypeError):
        f.coeff(1, 1)


def test_coeff_table_round_trip(lift8):
    f, _ = lift8
    table = schoolbook.coeff_table(f)
    assert all(isinstance(key, HalfIntIndex) for key in table)
    total = sum(len(phi.coeffs) for phi in f.phis)
    assert len(table) == total
    assert [extract_phi_m(table, m, k=f.k, prec=f.prec) for m in range(f.M_max + 1)] == list(f.phis)
    small = schoolbook.coeff_table(f, bound=2)
    assert all(key.m <= 2 for key in small)


def test_add_and_scalar(lift8):
    f, _ = lift8
    g = f + f
    assert g.coeff(1, 1, 1) == 2 * f.coeff(1, 1, 1)
    assert (f - f).is_zero()
    with pytest.raises(ValueError):
        f.add(FormalFJ.one(f.M_max, f.prec))
    short = FormalFJ.zero(10, 3, 4)
    assert (f + short).M_max == 3


def test_record_round_trip(lift8):
    f, _ = lift8
    rec = f.to_record()
    assert FormalFJ.from_record(rec) == f


# sha256 of json.dumps(record), recorded while slices still held Fraction
# values: the integer storage must write the same bytes
LIFT8_SHA256 = "2f054e79f849262b8dc3062d8c23ca1c8a87f3d8949885b4ef2c4079b3ed7701"
RELATION8_SHA256 = "aa6bb1502858385e5f193e6d277e6de8d61c7e84d0fb5823316fb3194326a3d6"


def sha256_of(rec) -> str:
    return hashlib.sha256(json.dumps(rec).encode()).hexdigest()


def test_lift_and_relation_records_are_pinned(lift8):
    f, _ = lift8
    assert sha256_of(f.to_record()) == LIFT8_SHA256
    prod = f.multiply(f)
    q = PolynomialOverM(
        [
            FormalFJ.zero(2 * f.k, prod.M_max, prod.prec) - prod,
            FormalFJ.zero(f.k, f.M_max, f.prec),
            FormalFJ.one(f.M_max, f.prec),
        ],
        0,
        f.k,
    )
    assert sha256_of(q.to_record()) == RELATION8_SHA256


@pytest.mark.parametrize("text", ["2/4", " 3 ", "0.25", "-0", "-3/6", "+5", "1_000", "-12345678901234567890123", 3, 0.25])
def test_record_values_read_as_parse_rat(text):
    rec = {"k": 4, "m": 1, "prec": 3, "coeffs": [[1, 0, text], [2, 1, "1/3"]]}
    if "_" in str(text) and sys.version_info < (3, 11):  # Fraction reads "1_000" from Python 3.11 on
        with pytest.raises(ValueError):
            parse_rat(text)
        with pytest.raises(ValueError):
            JacobiFormQExp.from_record(rec)
        return
    phi = JacobiFormQExp.from_record(rec)
    assert phi.coeff(1, 0) == parse_rat(text)
    assert phi.coeff(2, 1) == Fraction(1, 3)
    assert phi.den == math.lcm(parse_rat(text).denominator, 3)
    back = JacobiFormQExp.from_record(phi.to_record())
    assert back == phi and back.to_record() == phi.to_record()


def old_record(f: FormalFJ) -> dict:
    return {"k": f.k, "M_max": f.M_max, "phis": [schoolbook.jacobi_to_record(phi) for phi in f.phis]}


def mixed_denominators() -> FormalFJ:
    """Slices over den 1, 2 and 6, negative numerators, and an empty slice."""
    phis = [
        JacobiFormQExp.zero(4, 0, 3),
        JacobiFormQExp(4, 1, 3, {(1, 0): -7, (2, -1): 12345678901234567890, (2, 1): -1}),
        JacobiFormQExp(4, 2, 3, {(1, 0): Fraction(-3, 2), (1, 1): 4, (2, -2): Fraction(1, 2)}),
        JacobiFormQExp(4, 3, 3, {(1, 0): Fraction(-5, 6), (1, 1): Fraction(2, 3), (2, 0): Fraction(-1, 2), (2, 3): -2}),
    ]
    return FormalFJ(4, 3, phis)


@pytest.mark.parametrize("case", ["lift8", "lift40", "zero", "mixed"])
def test_series_text_is_json_of_the_record(case, request):
    f = {"zero": lambda: FormalFJ.zero(10, 3, 4), "mixed": mixed_denominators}.get(case)
    f = f() if f else request.getfixturevalue(case)[0]
    if case == "mixed":
        assert [phi.den for phi in f.phis] == [1, 1, 2, 6]
    out = io.StringIO()
    f.write_json(out)
    text = out.getvalue()
    assert text == json.dumps(f.to_record()) == json.dumps(old_record(f))
    assert FormalFJ.from_record(json.loads(text)) == f


# values the old reader takes through int(), through parse_rat, or rejects
RECORD_TEXTS = ["-0", "+3", " 4", "4 ", "1_0", "1__0", "\u0663", "\u00b2", "2/4", "-6/4", "1/-2", "+1/2", " 1/2",
                "1 /2", "1/ 2", "1/0", "0/0", "-0/5", "1/2/3", "-/2", "0.25", "1e3", "-", "", "nan", "inf", "1/\u0663"]
record_values = st.one_of(
    st.sampled_from(RECORD_TEXTS),
    st.text(alphabet="0123456789-+/ _.e\u0663", max_size=6),
    st.integers(),
    st.floats(),
    st.none(),
    st.booleans(),
)


def assert_read_as_before(coeffs):
    rec = {"k": 4, "m": 1, "prec": 3, "coeffs": coeffs}
    try:
        want = schoolbook.jacobi_from_record(rec)
    except (KeyError, TypeError, ValueError):
        with pytest.raises((KeyError, TypeError, ValueError)):
            JacobiFormQExp.from_record(rec)
        return
    assert JacobiFormQExp.from_record(rec) == want


@pytest.mark.parametrize("value", RECORD_TEXTS + [3, -3, 0, 0.25, 1e3, 1e300, float("nan"), None, True])
def test_record_reader_matches_old_reader_on_each_value(value):
    assert_read_as_before([[1, 0, value], [2, 1, "1/3"]])


@pytest.mark.parametrize("entry", [(1, 0, "5"), "105", {0: 1, 1: 0, 2: "5"}, {2: "5"}, [1, 0, "5", 0], [1, 0], [1, 0, ["5"]], 7])
def test_record_reader_matches_old_reader_on_odd_entries(entry):
    # entries that are not lists [n, r, text], or whose item 2 is not the value they unpack to
    assert_read_as_before([[2, 1, "1/3"], entry])
    assert_read_as_before([entry, [2, 1, "4"]])


@settings(max_examples=300)
@given(st.lists(st.tuples(st.integers(-1, 3), st.integers(-2, 2), record_values), max_size=6))
def test_record_reader_matches_old_reader(coeffs):
    assert_read_as_before([list(c) for c in coeffs])


@settings(max_examples=200)
@given(st.lists(st.lists(st.tuples(st.integers(0, 3), st.integers(-2, 2), record_values), max_size=6), min_size=1, max_size=4))
def test_series_reader_shares_texts_and_reads_as_before(slices):
    # the slices of one record share one table of value texts, across
    # denominators: each slice still reads as the old reader reads it alone
    rec = {"k": 4, "M_max": len(slices) - 1, "phis": [
        {"k": 4, "m": m, "prec": 4, "coeffs": [[n, r if m else 0, v] for n, r, v in coeffs]} for m, coeffs in enumerate(slices)
    ]}
    try:
        want = [schoolbook.jacobi_from_record(phi) for phi in rec["phis"]]
    except (KeyError, TypeError, ValueError):
        with pytest.raises((KeyError, TypeError, ValueError)):
            FormalFJ.from_record(rec)
        return
    assert FormalFJ.from_record(rec).phis == tuple(want)


def test_slice_storage_is_canonical():
    half = JacobiFormQExp(4, 1, 3, {(1, 0): Fraction(1, 2), (2, 1): Fraction(3, 2)})
    assert (half.den, half.num) == (2, {1: {0: 1}, 2: {1: 3}})
    assert half.coeffs == {(1, 0): Fraction(1, 2), (2, 1): Fraction(3, 2)}
    whole = half + half
    assert (whole.den, whole.num) == (1, {1: {0: 1}, 2: {1: 3}})
    assert whole == JacobiFormQExp(4, 1, 3, {(1, 0): 1, (2, 1): Fraction(6, 2)})
    assert half.scalar_mul(4).den == 1 and half.scalar_mul(Fraction(1, 3)).den == 6
    mixed = JacobiFormQExp(4, 1, 3, {(1, 0): 1, (2, 1): Fraction(1, 2)})
    assert mixed.truncated(2).den == 1 and (mixed - mixed).den == 1


def assert_canonical(phi):
    """num holds nonempty rows of nonzero ints at 0 <= n < prec, over a
    den > 0 with no factor in common with every numerator."""
    assert phi.den > 0
    assert all(0 <= n < phi.prec and row for n, row in phi.num.items())
    values = [v for row in phi.num.values() for v in row.values()]
    assert all(type(v) is int and v for v in values)
    assert math.gcd(phi.den, *values) == 1


small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)
slice_coeffs = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(-3, 3)), small_fractions, max_size=8)


@settings(max_examples=100)
@given(slice_coeffs, slice_coeffs, small_fractions, st.integers(0, 4), st.sampled_from([1, 2, 6]), st.data())
def test_slice_storage_stays_canonical(a, b, c, cut, den, data):
    # zero values in the input, sums that cancel whole rows, and products and
    # lifts whose numerators share a factor with den
    phi, psi = JacobiFormQExp(4, 1, 4, a), JacobiFormQExp(4, 1, 4, b)
    read = JacobiFormQExp.from_record({"k": 4, "m": 1, "prec": 4, "coeffs": [[n, r, str(v)] for (n, r), v in a.items()]})
    assert read == phi
    table = [0] + data.draw(st.lists(st.integers(-2, 2).map(lambda v: 2 * v), min_size=24, max_size=24)) + [0]
    lift = _lift(4, den, table, 3, 3)  # generator precision (3 - 1) * 3 + 1 = 7: 26 slots
    forms = [phi, psi, read, phi + psi, phi - psi, phi.scalar_mul(c), phi.scalar_mul(0), phi.truncated(cut)]
    for form in forms + [multiply(phi, psi), multiply(phi, phi)] + list(lift.phis):
        assert_canonical(form)
    assert (phi - phi) == JacobiFormQExp.zero(4, 1, 4) and (phi - phi).num == {}


# a slice, a series and a polynomial record, each reading a field of every kind
def slice_record():
    return {"k": 4, "m": 1, "prec": 3, "coeffs": [[1, 0, "2"]]}


def series_record():
    return {"k": 4, "M_max": 1, "phis": [JacobiFormQExp.zero(4, 0, 3).to_record(), slice_record()]}


def poly_record():
    return {"k0": 4, "k": 10, "coeffs": [series_record()]}


def set_field(rec, field, value):
    if field in ("n", "r"):
        rec["coeffs"][0][0 if field == "n" else 1] = value
    else:
        rec[field] = value


@pytest.mark.parametrize(
    "cls, record, field",
    [(JacobiFormQExp, slice_record, f) for f in ("k", "m", "prec", "n", "r")]
    + [(FormalFJ, series_record, f) for f in ("k", "M_max")]
    + [(PolynomialOverM, poly_record, f) for f in ("k0", "k")],
)
def test_record_readers_refuse_floats_and_bools_in_integer_fields(cls, record, field):
    # int() would read 10.9 as 10 and True as 1
    want = cls.from_record(record())
    rec = record()
    old = rec[field] if field in rec else rec["coeffs"][0][("n", "r").index(field)]
    for value in (old + 0.9, float(old), True, False):
        set_field(rec, field, value)
        with pytest.raises(ValueError, match="expected an integer"):
            cls.from_record(rec)
    # exact integers are read as before, as ints and as integer text
    set_field(rec, field, str(old))
    assert cls.from_record(rec).to_record() == want.to_record()


# ---------------------------------------------------------------------------
# the arithmetic lift


def test_lift_slice_zero_and_weight(lift8):
    f, _ = lift8
    assert f.k == 10
    assert f.phis[0].is_zero()
    assert f.is_cuspidal()


def test_lift_index_one_slice_is_the_input(lift8, phi10):
    f, _ = lift8
    for (n, r), v in f.phis[1].coeffs.items():
        assert phi10.coeff(n, r) == v
    for n in range(f.prec):
        for r in range(-3, 4):
            assert f.coeff(n, r, 1) == phi10.coeff(n, r)


def test_lift_divisor_sums(lift8, phi10):
    f, _ = lift8
    # gcd 1: plain transport of the generator coefficient
    assert f.coeff(2, 1, 3) == phi10.coeff(6, 1)
    # gcd 2: two divisor terms with d^(k-1) weights
    assert f.coeff(2, 2, 2) == phi10.coeff(4, 2) + 2 ** 9 * phi10.coeff(1, 1)
    # gcd 3 at the corner
    assert f.coeff(3, 3, 3) == phi10.coeff(9, 3) + 3 ** 9 * phi10.coeff(1, 1)


def test_lift_is_symmetric_in_n_and_m(lift8):
    f, _ = lift8
    for n in range(f.prec):
        for m in range(f.M_max + 1):
            if n <= f.M_max and m < f.prec:
                for r in range(-4, 5):
                    assert f.coeff(n, r, m) == f.coeff(m, r, n)


def test_lift_slices_vanish_at_origin(lift8):
    # summing each row over r restricts to z = 0; the results live in a
    # space of level-one cusp forms that is trivial at this weight
    f, _ = lift8
    for phi in f.phis:
        for n in range(phi.prec):
            row = sum(v for (nn, r), v in phi.coeffs.items() if nn == n)
            assert row == 0


@pytest.mark.parametrize("mmax, prec", [(4, 4), (8, 6), (12, 10), (40, 40)])
@pytest.mark.parametrize("weight", [10, 12, 16, 18, 20])
def test_lift_by_discriminant_matches_old_lift(weight, mmax, prec):
    gen_prec = (prec - 1) * mmax + 1
    den, table = next(_space_components(weight, True, gen_prec))
    phi = _materialize_index1(weight, gen_prec, den, table)  # jacobi_space(weight, True, gen_prec)[0]
    want = schoolbook.gritsenko_lift(phi, mmax, prec)
    # the gen-lift path, from the generator's table, and the public one, from phi
    assert _lift(weight, den, table, mmax, prec) == want
    assert gritsenko_lift(phi, mmax, prec) == want


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([-2, 4, 10]),
    st.sampled_from([1, 2, 6]),
    st.sampled_from([1, 2, 3]),
    st.integers(1, 6),
    st.integers(1, 5),
    st.data(),
)
def test_lift_of_any_cusp_table_matches_old_lift(k, den, factor, mmax, prec, data):
    # zero coefficients inside a row, slices sharing a factor with den, and the
    # denominators of d^(k-1) for k < 1
    gen_prec = (prec - 1) * mmax + 1
    entries = st.integers(-3, 3).map(lambda v: v * factor)
    table = [0] + data.draw(st.lists(entries, min_size=4 * gen_prec - 4, max_size=4 * gen_prec - 4)) + [0]
    phi = _materialize_index1(k, gen_prec, den, table)
    assert _lift(k, den, table, mmax, prec) == schoolbook.gritsenko_lift(phi, mmax, prec)


def test_lift_rejects_input_that_is_not_a_function_of_the_discriminant(phi10):
    # c(3, 1) shares 4n - r^2 = 11 with c(3, -1), c(5, 3), c(9, 5) and c(15, 7)
    assert phi10.num[3][1] == phi10.num[3][-1] != 0
    # stored rows are shared, never edited: both variants copy every row
    changed = {n: dict(row) for n, row in phi10.num.items()}
    changed[3][1] += 1
    missing = {n: {r: v for r, v in row.items() if (n, r) != (3, 1)} for n, row in phi10.num.items()}
    for num in (changed, missing):
        bad = JacobiFormQExp._trusted(10, 1, phi10.prec, phi10.den, num)
        assert bad.is_cusp()
        with pytest.raises(ValueError, match="4n - r\\^2"):
            gritsenko_lift(bad, 2, 3)
    assert gritsenko_lift(phi10, 2, 3) == schoolbook.gritsenko_lift(phi10, 2, 3)


def test_lift_rejects_a_table_with_a_coefficient_at_discriminant_0_or_minus_1(phi10):
    weak = weak_generators(30)[0]
    table = _index1_table(weak)
    # the discriminant -1 coefficient sits in the last slot
    assert table[0] == -2 and table[-1] == 1
    assert _materialize_index1(weak.k, weak.prec, weak.den, table) == weak
    with pytest.raises(ValueError, match="discriminant -1"):
        _lift(-2, 1, table, 2, 3)
    cusp = _index1_table(phi10)
    assert cusp[0] == cusp[-1] == 0
    with pytest.raises(ValueError, match="discriminant 0"):
        _lift(10, phi10.den, [1] + cusp[1:], 2, 3)
    with pytest.raises(ValueError, match="discriminant -1"):
        _lift(10, phi10.den, cusp[:-1] + [1], 2, 3)
    assert _lift(10, phi10.den, cusp, 2, 3) == gritsenko_lift(phi10, 2, 3)


def test_lift_input_validation(phi10):
    weak, _ = weak_generators(30)
    with pytest.raises(ValueError):
        gritsenko_lift(weak, 2, 3)
    holo = jacobi_space(10, False, 30)[0]
    if not holo.is_cusp():
        with pytest.raises(ValueError):
            gritsenko_lift(holo, 2, 3)
    with pytest.raises(PrecisionError):
        gritsenko_lift(phi10, 12, 12)
    two_index = JacobiFormQExp.zero(10, 2, 40)
    with pytest.raises(ValueError):
        gritsenko_lift(two_index, 2, 3)


# ---------------------------------------------------------------------------
# the symmetry audit


def test_lift_passes_audit(lift8):
    f, _ = lift8
    report = check_symmetry(f, 6)
    assert report.ok
    assert report.violations == []
    assert report.checked > 0 and report.skipped > 0
    assert report.checked + report.skipped == 7 * 7 * 25 * 3
    assert report.weight == 10 and report.bound == 6


def test_product_of_lifts_passes_audit(lift8):
    f, _ = lift8
    report = check_symmetry(f.multiply(f), 6)
    assert report.ok


def test_zero_series_passes_audit():
    report = check_symmetry(FormalFJ.zero(11, 5, 6), 5)
    assert report.ok and report.checked > 0


def test_corrupted_coefficient_is_caught(lift8):
    f, _ = lift8
    slices = list(f.phis)
    bad = dict(slices[2].coeffs)
    bad[(1, 1)] = bad.get((1, 1), Fraction(0)) + 1
    slices[2] = JacobiFormQExp(f.k, 2, slices[2].prec, bad)
    g = FormalFJ(f.k, f.M_max, slices)
    report = check_symmetry(g, 5)
    assert not report.ok
    # the corrupted entry is seen from both sides of each generator move
    assert len(report.violations) == 6
    assert all(v["lhs"] != v["rhs"] for v in report.violations)
    text = report.to_text()
    assert "violations 6" in text
    rec = report.to_record()
    assert len(rec["violations"]) == 6


def test_audit_bound_validation(lift8):
    f, _ = lift8
    with pytest.raises(ValueError):
        check_symmetry(f, f.M_max + 1)
    with pytest.raises(ValueError):
        check_symmetry(f, f.prec)
    with pytest.raises(ValueError):
        check_symmetry(f, -1)


def orbit_series(k, prec, M_max, start, seed):
    """Nonzero series with the exact generator symmetry at odd weight,
    built by propagating one value along the group action inside the
    stored window."""
    gens = [
        ((0, 1), (1, 0)),
        ((1, 0), (0, -1)),
        ((1, 0), (1, 1)),
        ((1, 0), (-1, 1)),
    ]
    values = {start: Fraction(seed)}
    queue = deque([start])
    while queue:
        n, r, m = queue.popleft()
        v = values[(n, r, m)]
        for (a, b), (c, d) in gens:
            t00, t01, t11 = 2 * n, r, 2 * m
            s00 = a * (a * t00 + c * t01) + c * (a * t01 + c * t11)
            s01 = b * (a * t00 + c * t01) + d * (a * t01 + c * t11)
            s11 = b * (b * t00 + d * t01) + d * (b * t01 + d * t11)
            key = (s00 // 2, s01, s11 // 2)
            det = a * d - b * c
            w = v if det == 1 or k % 2 == 0 else -v
            if key[0] < 0 or key[2] < 0 or key[0] >= prec or key[2] > M_max:
                continue
            if key in values:
                assert values[key] == w, "orbit is inconsistent"
            else:
                values[key] = w
                queue.append(key)
    slices = []
    for m in range(M_max + 1):
        coeffs = {(n, r): v for (n, r, mm), v in values.items() if mm == m}
        slices.append(JacobiFormQExp(k, m, prec, coeffs))
    return FormalFJ(k, M_max, slices)


def test_odd_weight_sign_convention():
    # the Gram matrix [[6,1],[1,4]] has no automorphisms of determinant -1,
    # so a nonzero equivariant assignment exists on its orbit
    f = orbit_series(9, 8, 4, (3, 1, 2), 5)
    assert not f.is_zero()
    report = check_symmetry(f, 4)
    assert report.ok and report.checked > 0
    # the same table declared at even weight must fail on reflections
    slices = [JacobiFormQExp(10, phi.m, phi.prec, dict(phi.coeffs)) for phi in f.phis]
    g = FormalFJ(10, f.M_max, slices)
    bad = check_symmetry(g, 4)
    assert not bad.ok
    assert any(v["lhs"] == -v["rhs"] for v in bad.violations)


# ---------------------------------------------------------------------------
# the closed-form audit against the generic u^T t u loop of tests/schoolbook.py


def corrupted(f, m, key, delta):
    """f with delta added to its coefficient at (n, r) = key in slice m."""
    slices = list(f.phis)
    bad = dict(slices[m].coeffs)
    bad[key] = bad.get(key, Fraction(0)) + delta
    slices[m] = JacobiFormQExp(f.k, m, slices[m].prec, bad)
    return FormalFJ(f.k, f.M_max, slices)


def audit_record(f, bound):
    """The audit's record, asserted equal to the oracle's."""
    rec = check_symmetry(f, bound).to_record()
    assert rec == schoolbook.check_symmetry(f, bound).to_record()
    return rec


def test_audit_matches_generic_oracle(lift8):
    f, _ = lift8
    assert audit_record(f, 7)["violations"] == []
    assert audit_record(f.multiply(f), 7)["violations"] == []
    half = corrupted(f, 3, (2, 1), Fraction(1, 2))
    assert half.phis[3].den == 2
    rec = audit_record(half, 7)
    assert any(v["lhs"].endswith("/2") or v["rhs"].endswith("/2") for v in rec["violations"])
    # odd weight: every swap and reflection compares against -c(f; t)
    odd = orbit_series(9, 8, 4, (3, 1, 2), 5)
    assert audit_record(odd, 4)["violations"] == []
    assert audit_record(corrupted(odd, 2, (3, 1), Fraction(1, 3)), 4)["violations"]
    even = FormalFJ(10, odd.M_max, [JacobiFormQExp(10, phi.m, phi.prec, dict(phi.coeffs)) for phi in odd.phis])
    assert audit_record(even, 4)["violations"]


def test_audit_matches_generic_oracle_on_random_corruptions(lift8):
    f, _ = lift8
    rng = random.Random(6)
    for _ in range(20):
        m = rng.randrange(1, f.M_max + 1)
        key = (rng.randrange(f.prec), rng.randrange(-2 * f.prec, 2 * f.prec + 1))
        delta = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 3]))
        audit_record(corrupted(f, m, key, delta), rng.randrange(f.prec))


# ---------------------------------------------------------------------------
# slice extraction


def test_extract_phi_m_round_trip(lift8):
    f, _ = lift8
    table = schoolbook.coeff_table(f)
    phi2 = extract_phi_m(table, 2, k=f.k, prec=f.prec)
    assert phi2 == f.phis[2]


def test_extract_phi_m_triple_keys_and_defaults():
    table = {(0, 0, 0): Fraction(7), (3, 1, 2): Fraction(2)}
    phi = extract_phi_m(table, 2)
    assert phi.k == 0 and phi.m == 2 and phi.prec == 4
    assert phi.coeff(3, 1) == 2
    empty = extract_phi_m({}, 1)
    assert empty.prec == 0 and empty.is_zero()
    short = extract_phi_m(table, 2, prec=3)
    assert (3, 1) not in short.coeffs


def test_extract_phi_m_validates_keys():
    bad = {HalfIntIndex(Fraction(1, 2), Fraction(0), 1): Fraction(1)}
    with pytest.raises(ValueError):
        extract_phi_m(bad, 1)


# ---------------------------------------------------------------------------
# polynomials over the series ring


def xsq_minus_fsq(f):
    ff = f.multiply(f)
    a0 = -ff
    a1 = FormalFJ.zero(f.k, f.M_max, f.prec)
    a2 = FormalFJ.one(f.M_max, f.prec)
    return PolynomialOverM([a0, a1, a2], 0, f.k)


def test_polynomial_ladder_validation(lift8):
    f, _ = lift8
    q = xsq_minus_fsq(f)
    assert q.degree == 2 and q.is_monic()
    assert q.leading().k == 0
    with pytest.raises(ValueError):
        PolynomialOverM([FormalFJ.one(f.M_max, f.prec), f], 0, 10)
    with pytest.raises(ValueError):
        PolynomialOverM([], 0, 10)


def test_is_monic_rejects_scaled_leading(lift8):
    f, _ = lift8
    q = xsq_minus_fsq(f)
    doubled = PolynomialOverM(
        [q.coeffs[0], q.coeffs[1], q.coeffs[2].scalar_mul(2)], 0, f.k
    )
    assert not doubled.is_monic()


def test_precision_zero_polynomials_answer():
    one = FormalFJ.one(2, 0)
    assert one.prec == 0 and one.is_zero() and one == FormalFJ.zero(0, 2, 0)
    q = PolynomialOverM([FormalFJ.zero(20, 2, 0), FormalFJ.zero(10, 2, 0), one], 0, 10)
    assert q.is_monic()
    # at precision 0 every series is zero, the leading coefficient included
    with pytest.raises(ValueError, match="leading coefficient is zero"):
        monicize(q, FormalFJ.zero(10, 2, 0), FormalFJ.zero(10, 2, 0))


def test_poly_eval_identity_and_root(lift8):
    f, _ = lift8
    ident = PolynomialOverM(
        [FormalFJ.zero(f.k, f.M_max, f.prec), FormalFJ.one(f.M_max, f.prec)],
        0,
        f.k,
    )
    assert poly_eval(ident, f) == f
    q = xsq_minus_fsq(f)
    assert poly_eval(q, f).is_zero()
    with pytest.raises(ValueError):
        poly_eval(q, FormalFJ.one(f.M_max, f.prec))


def test_polynomial_record_round_trip(lift8):
    f, _ = lift8
    q = xsq_minus_fsq(FormalFJ(f.k, 4, [phi.truncated(5) for phi in f.phis[:5]]))
    rec = q.to_record()
    back = PolynomialOverM.from_record(rec)
    assert back.k0 == q.k0 and back.k == q.k
    assert all(a == b for a, b in zip(back.coeffs, q.coeffs))


def test_monicize_degree_two(lift8):
    f, _ = lift8
    small = FormalFJ(f.k, 5, [phi.truncated(6) for phi in f.phis[:6]])
    e4q, e6q = eisenstein_qexp(4, 6), eisenstein_qexp(6, 6)
    e4 = schoolbook.pad_index0(4, e4q, 5, 6)
    pad14 = schoolbook.pad_index0(14, e4q * e4q * e6q, 5, 6)
    pad24 = schoolbook.pad_index0(24, e4q * e4q * e4q * e6q * e6q, 5, 6)
    q = PolynomialOverM([pad24, pad14, e4], 4, 10)
    r, h = monicize(q, small, small)
    assert r.is_monic()
    assert r.k0 == 0 and r.k == 4 + 10 + 10
    assert h == e4.multiply(small).multiply(small)
    assert h.is_cuspidal()
    # R(h) = a_d^(d-1) f_c^d Q(f), exactly
    lhs = poly_eval(r, h)
    rhs = e4.multiply(small).multiply(small).multiply(poly_eval(q, small))
    assert lhs == rhs


def test_monicize_validation(lift8):
    f, _ = lift8
    q = xsq_minus_fsq(f)
    with pytest.raises(ValueError):
        monicize(q, f, FormalFJ.one(f.M_max, f.prec))
    with pytest.raises(ValueError):
        monicize(q, f, FormalFJ.zero(0, f.M_max, f.prec))
    zero_lead = PolynomialOverM(
        [q.coeffs[0], q.coeffs[1], FormalFJ.zero(0, f.M_max, f.prec)], 0, f.k
    )
    with pytest.raises(ValueError):
        monicize(zero_lead, f, f)


# ---------------------------------------------------------------------------
# partial sums at a point


def test_partial_sum_matches_direct_sum(lift8):
    f, _ = lift8
    tau1 = 0.2 + 1.1j
    z = 0.1 + 0.3j
    tau2 = -0.4 + 1.5j
    tau = ((tau1, z), (z, tau2))
    got = evaluate_partial(f, tau, 6)
    want = 0j
    for m in range(7):
        for (n, r), v in f.phis[m].coeffs.items():
            want += float(v) * cmath.exp(2j * math.pi * (n * tau1 + r * z + m * tau2))
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_partial_sum_zero_slice(lift8):
    f, _ = lift8
    tau = ((1j, 0.1j), (0.1j, 1j))
    assert evaluate_partial(f, tau, 0) == 0


def test_partial_sum_validation(lift8):
    f, _ = lift8
    with pytest.raises(PrecisionError):
        evaluate_partial(f, ((1j, 0j), (0j, 1j)), f.M_max + 1)
    with pytest.raises(ValueError):
        evaluate_partial(f, ((1j, 0.1j), (0.2j, 1j)), 2)
    with pytest.raises(ValueError):
        evaluate_partial(f, ((1j, 1.5j), (1.5j, 1j)), 2)
    with pytest.raises(ValueError):
        evaluate_partial(f, ((-1j, 0j), (0j, 1j)), 2)
