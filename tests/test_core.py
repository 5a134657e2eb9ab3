import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fjcert import (
    CycElem,
    PrecisionError,
    QExpansion,
    bernoulli,
    cyc_eval,
    eisenstein_qexp,
    parse_rat,
    rat_str,
    sigma,
)
from fjcert.core import _dict_div

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)


def test_rat_str_round_trip():
    for x in (Fraction(0), Fraction(5), Fraction(-7, 3), Fraction(22, 7)):
        assert parse_rat(rat_str(x)) == x
    assert rat_str(Fraction(3)) == "3"
    assert rat_str(Fraction(-1, 2)) == "-1/2"


@given(rationals)
def test_rat_str_round_trip_random(x):
    assert parse_rat(rat_str(x)) == x


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_recurrence():
    # sum_{k <= n} binom(n+1, k) B_k = 0 for n >= 1
    for n in range(1, 20):
        total = sum(math.comb(n + 1, k) * bernoulli(k) for k in range(n + 1))
        assert total == 0


def test_sigma_values():
    assert sigma(3, 1) == 1
    assert sigma(3, 2) == 9
    assert sigma(1, 6) == 12
    assert sigma(0, 12) == 6
    assert sigma(3, 6) == 252


def test_sigma_rejects_nonpositive():
    with pytest.raises(ValueError):
        sigma(1, 0)


# ---------------------------------------------------------------------------
# CycElem


def test_cyc_eval_pinned():
    assert cyc_eval(CycElem.root(0, 4)) == pytest.approx(1 + 0j)
    assert cyc_eval(CycElem.root(1, 4)) == pytest.approx(1j)
    both = CycElem.root(1, 3) + CycElem.root(2, 3)
    assert cyc_eval(both) == pytest.approx(-1 + 0j, abs=1e-12)


def test_cyc_root_normalizes_mod_order():
    assert CycElem.root(5, 4) == CycElem.root(1, 4)
    assert CycElem.root(-1, 4) == CycElem.root(3, 4)


def test_cyc_mixed_order_arithmetic():
    a = CycElem.root(1, 2)
    b = CycElem.root(2, 4)
    # same value, same formal slot after rescaling to a common order
    assert a == b
    assert a + b == b * 2
    assert cyc_eval(a + b) == pytest.approx(-2 + 0j)


def test_cyc_record_round_trip():
    x = CycElem(8, {1: Fraction(2, 3), 5: Fraction(-1)})
    rec = x.to_record()
    assert CycElem.from_record(rec) == x


cyc_elems = st.builds(
    lambda pairs: CycElem(12, dict(pairs)),
    st.lists(st.tuples(st.integers(0, 11), rationals), max_size=4),
)


@given(cyc_elems, cyc_elems, cyc_elems)
def test_cyc_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)


@given(cyc_elems, cyc_elems)
def test_cyc_eval_is_ring_hom(a, b):
    assert cyc_eval(a + b) == pytest.approx(cyc_eval(a) + cyc_eval(b), abs=1e-12)
    assert cyc_eval(a * b) == pytest.approx(cyc_eval(a) * cyc_eval(b), abs=1e-10)


# ---------------------------------------------------------------------------
# QExpansion


def _qe(L, prec, entries):
    return QExpansion(L, {k: Fraction(v) for k, v in entries.items()}, Fraction(prec))


def test_qexpansion_basics():
    f = _qe(1, 5, {0: 1, 2: -3})
    assert f.coeff(Fraction(2)) == -3
    assert f.coeff(Fraction(1)) == 0
    assert f.coeff(Fraction(1, 2)) == 0  # off-lattice below precision
    with pytest.raises(PrecisionError):
        f.coeff(Fraction(5))
    with pytest.raises(ValueError):
        _qe(1, 5, {-1: 1})


def test_qexpansion_add_min_precision():
    f = _qe(1, 5, {0: 1, 4: 7})
    g = _qe(1, 3, {0: 2})
    h = f + g
    assert h.prec == 3
    assert h.coeff(Fraction(0)) == 3
    with pytest.raises(PrecisionError):
        h.coeff(Fraction(4))


def test_qexpansion_scalar_add_at_precision_zero():
    for f in (QExpansion.zero(0), QExpansion.zero(0) + 1, QExpansion.zero(0) - 1, 1 + QExpansion.zero(0, 3)):
        assert f.prec == 0 and f.is_zero()
    assert QExpansion.zero(Fraction(1, 2)) + 5 == _qe(1, Fraction(1, 2), {0: 5})


def test_qexpansion_mul_min_precision_and_values():
    f = _qe(1, 4, {0: 1, 1: 1})
    g = _qe(1, 6, {0: 1, 1: -1})
    h = f * g
    assert h.prec == 4
    assert h.coeff(Fraction(0)) == 1
    assert h.coeff(Fraction(1)) == 0
    assert h.coeff(Fraction(2)) == -1


def test_qexpansion_mixed_lattice_add():
    f = _qe(2, 3, {1: 1})  # q^(1/2)
    g = _qe(3, 3, {1: 1})  # q^(1/3)
    h = f + g
    assert h.L == 6
    assert h.coeff(Fraction(1, 2)) == 1
    assert h.coeff(Fraction(1, 3)) == 1


def test_qexpansion_record_round_trip():
    f = QExpansion(4, {2: Fraction(1, 2), 3: CycElem.root(1, 4)}, Fraction(9, 4))
    rec = f.to_record()
    g = QExpansion.from_record(rec)
    assert g == f
    assert rec["prec"] == "9/4"


small_series = st.builds(
    lambda entries: _qe(1, 6, {k: v for k, v in entries.items() if v}),
    st.dictionaries(st.integers(0, 5), rationals, max_size=5),
)


@given(small_series, small_series, small_series)
def test_qexpansion_ring_laws(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(small_series, small_series)
def test_qexpansion_convolution_oracle(f, g):
    h = f * g
    for n in range(6):
        want = sum(
            (f.coeffs.get(i, 0) * g.coeffs.get(n - i, 0) for i in range(n + 1)),
            Fraction(0),
        )
        assert h.coeff(Fraction(n)) == want


# ---------------------------------------------------------------------------
# Eisenstein series


def test_eisenstein_pinned():
    e4 = eisenstein_qexp(4, 2)
    assert e4.coeff(Fraction(0)) == 1
    assert e4.coeff(Fraction(1)) == 240
    e6 = eisenstein_qexp(6, 1)
    assert e6.coeff(Fraction(0)) == 1
    e6 = eisenstein_qexp(6, 2)
    assert e6.coeff(Fraction(1)) == -504


def test_eisenstein_rejects_other_weights():
    with pytest.raises(ValueError):
        eisenstein_qexp(8, 4)
    with pytest.raises(ValueError):
        eisenstein_qexp(4, 0)


def test_discriminant_combination():
    # (E4^3 - E6^2) / 1728 is the discriminant cusp form q - 24q^2 + 252q^3 ...
    prec = 6
    e4 = eisenstein_qexp(4, prec)
    e6 = eisenstein_qexp(6, prec)
    diff = e4 * e4 * e4 + (e6 * e6).scalar_mul(-1)
    delta = diff.scalar_mul(Fraction(1, 1728))
    expect = {1: 1, 2: -24, 3: 252, 4: -1472, 5: 4830}
    for n, c in expect.items():
        assert delta.coeff(Fraction(n)) == c


def test_dict_div_needs_constant_term_one():
    num = {0: 1, 1: 2}
    assert _dict_div(num, {0: 1, 1: -1}, 4) == {0: 1, 1: 3, 2: 3, 3: 3}
    for den in ({0: 2, 1: 1}, {0: -1}, {1: 1}, {}, {-1: 1, 0: 1}):
        with pytest.raises(ValueError):
            _dict_div(num, den, 4)
