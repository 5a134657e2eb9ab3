"""Tests for formal Fourier-Jacobi series, the lift, and polynomial algebra."""

import cmath
import hashlib
import io
import json
import math
import random
import sys
from collections import deque
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import schoolbook
from fjcert import jacobi
from fjcert.cli import _load_record
from fjcert.core import PrecisionError, _dict_mul, _eis_dict, parse_rat
from fjcert.fjseries import (
    FormalFJ,
    PolynomialOverM,
    SymmetryReport,
    _lift,
    check_symmetry,
    evaluate_partial,
    gritsenko_lift,
    monicize,
    poly_eval,
)
from fjcert.jacobi import (
    JacobiFormQExp,
    TorsionPoint,
    _common_rows,
    _index1_table,
    _materialize_index1,
    _space_components,
    jacobi_space,
    multiply,
    weak_generators,
)
from fjcert.reduction import UnimodularMat


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
    e4 = schoolbook.pad_index0(4, _eis_dict(4, 9), 3, 6)
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
    with pytest.raises(PrecisionError):
        f.coeff(1, 1, f.M_max + 1)
    with pytest.raises(TypeError):
        f.coeff((1, 1, 1))
    with pytest.raises(TypeError):
        f.coeff(1, 1)


def test_coeff_table_round_trip(lift8):
    f, _ = lift8
    table = schoolbook.coeff_table(f)
    total = sum(len(phi.coeffs) for phi in f.phis)
    assert len(table) == total
    assert all(v != 0 and f.coeff(*key) == v for key, v in table.items())
    small = schoolbook.coeff_table(f, bound=2)
    assert all(m <= 2 for _, _, m in small)


def test_add_and_scalar(lift8):
    f, _ = lift8
    g = f + f
    assert g.coeff(1, 1, 1) == 2 * f.coeff(1, 1, 1)
    assert (f - f).is_zero()
    with pytest.raises(ValueError):
        f.add(FormalFJ.one(f.M_max, f.prec))
    # refused by slice 0's add
    with pytest.raises(ValueError, match="weight mismatch in addition"):
        f + FormalFJ.zero(12, f.M_max, f.prec)
    short = FormalFJ.zero(10, 3, 4)
    assert (f + short).M_max == 3


# each operator of the two series types, and the method it stands for
OPERATORS = {
    "f + g": (lambda f, g: f + g, lambda f, g: f.add(g)),
    "-f": (lambda f, g: -f, lambda f, g: f.scalar_mul(-1)),
    "f - g": (lambda f, g: f - g, lambda f, g: f.add(g.scalar_mul(-1))),
    "f * g": (lambda f, g: f * g, lambda f, g: f.multiply(g)),
    "2 * f": (lambda f, g: 2 * f, lambda f, g: f.scalar_mul(2)),
    "f * 2": (lambda f, g: f * 2, lambda f, g: f.scalar_mul(2)),
}


@pytest.mark.parametrize("op", sorted(OPERATORS))
@pytest.mark.parametrize("kind", ["series", "slice"])
def test_operators_are_their_methods(lift8, kind, op):
    f, _ = lift8
    g = FormalFJ(f.k, 5, [phi.truncated(6) for phi in f.phis[:6]]).scalar_mul(Fraction(-1, 3))
    if kind == "slice":
        f, g = f.phis[2], g.phis[2]
    operator, method = OPERATORS[op]
    got = operator(f, g)
    assert type(got) is type(f) and not got.is_zero()
    assert got == method(f, g)


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
    assert sha256_of(schoolbook.square_relation(f).to_record()) == RELATION8_SHA256


@pytest.mark.parametrize("text", ["2/4", " 3 ", "0.25", "-0", "-3/6", "+5", "1_000", "-12345678901234567890123", 3, 0.25])
def test_record_values_read_as_parse_rat(text):
    rec = {"k": 4, "m": 1, "prec": 3, "coeffs": [[1, 0, text], [2, 1, "1/3"]]}
    if type(text) is float:  # its text 0.25 need not be its binary value, so a float is refused
        with pytest.raises(ValueError, match="expected a value text or an integer"):
            JacobiFormQExp.from_record(rec)
        return
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


@pytest.mark.parametrize("value", [1.0, True])
def test_record_values_are_typed_entry_by_entry(value):
    # 1, 1.0 and True are one set element: each entry's value is typed, in
    # one slice and across the slices of one file, whose table already holds 1
    with pytest.raises(ValueError, match="expected a value text or an integer"):
        JacobiFormQExp.from_record({"k": 4, "m": 1, "prec": 3, "coeffs": [[1, 0, 1], [2, 1, value]]})
    for first in ("1", 1):
        phis = [{"k": 4, "m": 0, "prec": 3, "coeffs": [[1, 0, first]]}, {"k": 4, "m": 1, "prec": 3, "coeffs": [[1, 0, value]]}]
        with pytest.raises(ValueError, match="expected a value text or an integer"):
            FormalFJ.from_record({"k": 4, "M_max": 1, "phis": phis})


@pytest.mark.parametrize("entry", [[2, 1, [1]], (2, 1, [1])])
def test_record_values_that_are_unhashable_are_refused(entry):
    # each value is typed before the values are put in a set, so a list is a ValueError, not a TypeError
    for coeffs in ([[1, 0, "1"], entry], [(1, 0, "1"), entry]):
        with pytest.raises(ValueError) as err:
            JacobiFormQExp.from_record({"k": 4, "m": 1, "prec": 3, "coeffs": coeffs})
        assert str(err.value) == "expected a value text or an integer, got [1]"


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


@pytest.mark.parametrize("case", ["lift8", "lift40", "zero", "mixed", "mixed read as JSON"])
def test_series_text_is_json_of_the_record(case, request, tmp_path):
    if case == "mixed read as JSON":
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(mixed_denominators().to_record()))
        f = _load_record(str(path), FormalFJ)
    elif case in ("zero", "mixed"):
        f = FormalFJ.zero(10, 3, 4) if case == "zero" else mixed_denominators()
    else:
        f = request.getfixturevalue(case)[0]
    if case.startswith("mixed"):
        assert [phi.den for phi in f.phis] == [1, 1, 2, 6]
    if case == "lift40":
        # slices over den 1 and 2 that share rows: 1,006 row objects for 1,560 rows
        assert {phi.den for phi in f.phis} == {1, 2}
        assert len({id(row) for phi in f.phis for row in phi.num.values()}) == 1006
    out = io.StringIO()
    f.write_json(out)
    text = out.getvalue()
    assert text == json.dumps(f.to_record()) == json.dumps(old_record(f))
    assert FormalFJ.from_record(json.loads(text)) == f


def test_series_writer_makes_each_value_text_once(lift40, monkeypatch):
    # the slices share one text table per denominator, so write_json and
    # to_record each make one text per distinct (den, numerator) of the series
    f, _ = lift40
    made = []
    value_text = jacobi._value_text
    monkeypatch.setattr(jacobi, "_value_text", lambda den, v: made.append((den, v)) or value_text(den, v))
    pairs = {(phi.den, v) for phi in f.phis for row in phi.num.values() for v in row.values()}
    f.write_json(io.StringIO())
    assert sorted(made) == sorted(pairs)
    made.clear()
    f.to_record()
    assert sorted(made) == sorted(pairs)


# slice denominators: 1, 2, 3, 6 and one odd denominator above 2^64
WRITER_DENS = [1, 2, 3, 6, 3**41]


@st.composite
def written_series(draw):
    """Series whose slices mix the denominators of WRITER_DENS, numerators
    that cancel against them and numerators above 2^64, over rows that are
    dense, sparse, negative in r only, or reach |r| in the thousands."""
    M_max = draw(st.integers(0, 3))
    phis = []
    for m in range(M_max + 1):
        prec, den = draw(st.integers(0, 5)), draw(st.sampled_from(WRITER_DENS))
        numerators = st.one_of(
            st.integers(-30, 30),
            st.integers(-9, 9).map(lambda x: x * den),
            st.integers(2**64, 2**80),
            st.integers(-(2**80), -(2**64)),
        )
        rs = st.one_of(
            st.sets(st.integers(-3, 3), min_size=1),
            st.sets(st.integers(-5000, 5000), min_size=1, max_size=4),
            st.sets(st.integers(-3000, -1), min_size=1, max_size=4),
        ) if m else st.just({0})
        coeffs = {}
        for n in draw(st.sets(st.integers(0, prec - 1), min_size=1, max_size=4)) if prec else ():
            for r in draw(rs):
                coeffs[n, r] = Fraction(draw(numerators), den)
        phis.append(JacobiFormQExp(8, m, prec, coeffs))
    return FormalFJ(8, M_max, phis)


@settings(max_examples=150)
@given(written_series())
def test_series_writer_matches_the_record_and_the_old_writer(tmp_path_factory, f):
    out = io.StringIO()
    f.write_json(out)
    text = out.getvalue()
    assert text == json.dumps(f.to_record()) == json.dumps(old_record(f))
    path = tmp_path_factory.getbasetemp() / "written.json"
    path.write_text(text)
    assert _load_record(str(path), FormalFJ) == f


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


def has_float_value(coeffs):
    """True when an entry [n, r, v] of coeffs has a float v, which the record
    reader refuses where the old reader read its text."""
    return any(isinstance(c, list) and len(c) == 3 and type(c[2]) is float for c in coeffs)


def has_repeated_entry(coeffs):
    """True when two entries [n, r, v] of coeffs name one (n, r), which the
    record reader refuses where the old reader kept the last."""
    keys = [tuple(c[:2]) for c in coeffs if type(c) in (list, tuple) and len(c) == 3]
    return len(set(keys)) < len(keys)


def assert_read_as_before(coeffs):
    rec = {"k": 4, "m": 1, "prec": 3, "coeffs": coeffs}
    if has_float_value(coeffs):
        with pytest.raises(ValueError):
            JacobiFormQExp.from_record(rec)
        return
    try:
        want = schoolbook.jacobi_from_record(rec)
    except (KeyError, TypeError, ValueError):
        with pytest.raises((KeyError, TypeError, ValueError)):
            JacobiFormQExp.from_record(rec)
        return
    if has_repeated_entry(coeffs):
        with pytest.raises(ValueError, match="two entries at"):
            JacobiFormQExp.from_record(rec)
        return
    assert JacobiFormQExp.from_record(rec) == want


@pytest.mark.parametrize("value", RECORD_TEXTS + [3, -3, 0, 0.25, 1e3, 1e300, float("nan"), None, True])
def test_record_reader_matches_old_reader_on_each_value(value):
    assert_read_as_before([[1, 0, value], [2, 1, "1/3"]])


@pytest.mark.parametrize("entry", [(1, 0, "5"), "105", {0: 1, 1: 0, 2: "5"}, {2: "5"}, [1, 0, "5", 0], [1, 0], [1, 0, ["5"]], 7])
def test_record_reader_matches_old_reader_on_odd_entries(entry):
    # a 3-item list or tuple is an entry; anything else is refused, where the
    # old reader unpacked "105" as [1, 0, "5"] and a dict by its keys
    for coeffs in ([[2, 1, "1/3"], entry], [entry, [2, 1, "4"]]):
        if type(entry) in (list, tuple):
            assert_read_as_before(coeffs)
        else:
            with pytest.raises(ValueError, match=r"expected an entry \[n, r, value\]"):
                JacobiFormQExp.from_record({"k": 4, "m": 1, "prec": 3, "coeffs": coeffs})


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
    if any(has_float_value(phi["coeffs"]) for phi in rec["phis"]):
        with pytest.raises(ValueError):
            FormalFJ.from_record(rec)
        return
    try:
        want = [schoolbook.jacobi_from_record(phi) for phi in rec["phis"]]
    except (KeyError, TypeError, ValueError):
        with pytest.raises((KeyError, TypeError, ValueError)):
            FormalFJ.from_record(rec)
        return
    if any(has_repeated_entry(phi["coeffs"]) for phi in rec["phis"]):
        with pytest.raises(ValueError, match="two entries at"):
            FormalFJ.from_record(rec)
        return
    assert FormalFJ.from_record(rec).phis == tuple(want)


@pytest.mark.parametrize("coeffs", [[[1, 0, "1/2"], [1, 0, "1"]], [[1, 0, "1"], [2, 1, "3"], [1, 0, "1"]], [[1, 0, 2], ["1", 0, 2]]])
def test_record_with_an_entry_listed_twice_is_refused(coeffs):
    # the old reader kept the last value, over a den that counted the one it dropped
    rec = {"k": 4, "m": 1, "prec": 3, "coeffs": coeffs}
    with pytest.raises(ValueError, match=r"two entries at \(n, r\) = \(1, 0\)"):
        JacobiFormQExp.from_record(rec)
    with pytest.raises(ValueError, match="two entries at"):
        FormalFJ.from_record({"k": 4, "M_max": 1, "phis": [JacobiFormQExp.zero(4, 0, 3).to_record(), rec]})
    with pytest.raises(ValueError, match="two entries at"):
        JacobiFormQExp(4, 1, 3, {(n, r): v for n, r, v in coeffs} | {("1", 0): 5})


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


# a slice, a series and a polynomial record, each reading a field of every
# kind, and the arguments of the constructors that read integers
def slice_record():
    return {"k": 4, "m": 1, "prec": 3, "coeffs": [[1, 0, "2"]]}


def slice_args():
    return {"k": 4, "m": 1, "prec": 3, "n": 1, "r": 0}


def jacobi_form(a):
    return JacobiFormQExp(a["k"], a["m"], a["prec"], {(a["n"], a["r"]): 2})


def matrix_args():
    return {"a": 1, "b": 0}


def unimodular_mat(a):
    return UnimodularMat([[a["a"], a["b"]], [0, 1]])


def torsion_args():
    return {"N": 2, "lam": 1, "mu": 0}


def torsion_point(a):
    return TorsionPoint(a["N"], (a["lam"],), (a["mu"],))


def series_record():
    return {"k": 4, "M_max": 1, "phis": [JacobiFormQExp.zero(4, 0, 3).to_record(), slice_record()]}


def poly_record():
    return {"k0": 4, "k": 10, "coeffs": [series_record()]}


def set_field(rec, field, value):
    if field in rec:
        rec[field] = value
    else:
        rec["coeffs"][0][("n", "r").index(field)] = value


def record_of(x):
    return x.to_record() if hasattr(x, "to_record") else x


@pytest.mark.parametrize(
    "cls, record, field",
    [(JacobiFormQExp, slice_record, f) for f in ("k", "m", "prec", "n", "r")]
    + [(FormalFJ, series_record, f) for f in ("k", "M_max")]
    + [(PolynomialOverM, poly_record, f) for f in ("k0", "k")]
    + [(jacobi_form, slice_args, f) for f in ("k", "m", "prec", "n", "r")]
    + [(unimodular_mat, matrix_args, f) for f in ("a", "b")]
    + [(torsion_point, torsion_args, f) for f in ("N", "lam", "mu")],
)
def test_record_readers_refuse_floats_and_bools_in_integer_fields(cls, record, field):
    # int() would read 10.9 as 10, True as 1, and Fraction(21, 2) or Decimal("10.5") as 10
    read = getattr(cls, "from_record", cls)
    want = read(record())
    rec = record()
    old = rec[field] if field in rec else rec["coeffs"][0][("n", "r").index(field)]
    for value in (old + 0.9, float(old), True, False, Fraction(2 * old + 1, 2), Decimal(old) + Decimal("0.5")):
        set_field(rec, field, value)
        with pytest.raises(ValueError, match="expected an integer"):
            read(rec)
    # exact integers are read as before: as integer text, and as an integral Fraction or Decimal
    for value in (str(old), Fraction(old), Decimal(old)):
        set_field(rec, field, value)
        assert record_of(read(rec)) == record_of(want)


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
    f = _lift(k, den, table, mmax, prec)
    assert f == schoolbook.gritsenko_lift(phi, mmax, prec)
    # the lift stores its slices without a second gcd pass: each is already in lowest terms
    for phi in f.phis:
        assert math.gcd(phi.den, *(v for row in phi.num.values() for v in row.values())) == 1


def test_lift_builds_each_row_once(lift40):
    # row n of slice m depends on (n, m) through nm and gcd(n, m), and on the
    # factor the slice cancels: rows 2 of slice 3 and 6 of slice 1 are one dict
    f, _ = lift40
    assert f.phis[3].num[2] is f.phis[1].num[6]
    # slices 2 and 1 cancel different factors, so their rows at nm = 6 differ
    assert [phi.den for phi in f.phis[1:3]] == [2, 1]
    assert f.phis[2].num[3] is not f.phis[1].num[6]
    rows = [row for phi in f.phis for row in phi.num.values()]
    assert len(rows) == 1560 and len({id(row) for row in rows}) == 1006
    assert all(list(row) == sorted(row) for row in rows)


def test_common_rows_write_a_shared_row_over_den_once(lift40):
    # the slices over den 1 share rows, and so do their rows written over den 2
    f, _ = lift40
    den, rows = _common_rows(f.phis)
    assert den == 2
    scaled = [(id(row), den // phi.den) for phi in f.phis for row in phi.num.values()]
    assert len({id(row) for s in rows for row in s.values()}) == len(set(scaled)) < len(scaled)
    for phi, s in zip(f.phis, rows):
        assert s.keys() == phi.num.keys()
        assert all(s[n] == {r: v * (den // phi.den) for r, v in row.items()} for n, row in phi.num.items())
        assert (s is phi.num) == (phi.den == den)


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


def test_audit_reads_the_row_each_slice_holds_where_lift_slices_share_one(lift12):
    # rows 2 of slice 3 and 6 of slice 1 are one dict, and the audit lays
    # out one window per row object: a changed copy in slice 3 alone is a
    # row of its own, caught from every generator that reads it
    f, _ = lift12
    assert f.phis[3].num[2] is f.phis[1].num[6]
    assert check_symmetry(f, 8).ok
    bent = dict(f.phis[3].num[2])
    bent[1] += 1
    slices = list(f.phis)
    phi = slices[3]
    slices[3] = JacobiFormQExp._stored(phi.k, phi.m, phi.prec, phi.den, {**phi.num, 2: bent})
    g = FormalFJ(f.k, f.M_max, slices)
    assert g.phis[1].num[6] is f.phis[1].num[6] and g.phis[1].num[6][1] == bent[1] - 1
    report = check_symmetry(g, 8)
    assert report.to_record() == schoolbook.check_symmetry(g, 8).to_record()
    assert {tuple(v["t"]) for v in report.violations} == {(2, -1, 3), (2, 1, 3), (3, 1, 2), (4, -5, 3)}


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
    e4q, e6q = _eis_dict(4, 6), _eis_dict(6, 6)
    e10q = _dict_mul(e4q, e6q, 6)
    e4 = schoolbook.pad_index0(4, e4q, 5, 6)
    pad14 = schoolbook.pad_index0(14, _dict_mul(e4q, e10q, 6), 5, 6)
    pad24 = schoolbook.pad_index0(24, _dict_mul(e4q, _dict_mul(e10q, e10q, 6), 6), 5, 6)
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
