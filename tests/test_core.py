import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fjcert import (
    bernoulli,
    parse_rat,
    rat_str,
    sigma,
)
from fjcert import core
from fjcert.core import _dict_add, _dict_div, _dict_mul, _dict_scale, _eis_dict

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


@settings(max_examples=300)
@given(
    st.sampled_from(["", "-", "+"]),
    st.text("0123456789", min_size=1, max_size=30),
    st.one_of(st.none(), st.text("0123456789", max_size=30)),
    st.one_of(st.none(), st.integers(-80, 80)),
)
def test_parse_rat_refuses_exactly_the_values_past_the_digit_limit(sign, whole, frac, exp):
    # under a limit of 20 digits, a decimal text is refused exactly when the
    # numerator or denominator of its value in lowest terms has more digits
    text = sign + whole + ("" if frac is None else "." + frac) + ("" if exp is None else "e%d" % exp)
    x = Fraction(text)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_int_max_str_digits", lambda: 20)
        if len(str(abs(x.numerator))) > 20 or len(str(x.denominator)) > 20:
            with pytest.raises(ValueError, match="exceeds the limit"):
                parse_rat(text)
        else:
            assert parse_rat(text) == x


@pytest.mark.parametrize("text", ["1e20", "1e-20", "1" * 11 + "." + "1" * 10, "0.5e-20"])
def test_parse_rat_limit_boundary(monkeypatch, text):
    monkeypatch.setattr(core, "_int_max_str_digits", lambda: 20)
    with pytest.raises(ValueError, match="exceeds the limit"):
        parse_rat(text)
    # one digit fewer in the numerator or the denominator is accepted
    for ok in ("1e19", "2e-20", "1" * 10 + "." + "1" * 10, "0.5e-19", "25e-21", "1" + "0" * 25 + "e-40"):
        assert parse_rat(ok) == Fraction(ok)


def test_parse_rat_decides_from_the_text_before_building():
    # at the interpreter's own limit: no power of ten with 10^8 digits is built
    for text in ("1e5000", "1e-5000", "1e100000000", "-7.5E100000000", "3e-100000000"):
        with pytest.raises(ValueError, match="exceeds the limit"):
            parse_rat(text)
    assert parse_rat("0e100000000") == parse_rat("-0.000e-100000000") == 0
    for text in ("e5", ".e5", "_1e5", "1e", "1e5.5", "nan", "inf"):
        with pytest.raises(ValueError):
            parse_rat(text)


@pytest.mark.parametrize("text", ["1_0.2_5e1_0", "0_0e5", "0.0_0e-1_0", "1_000", "1__0e5", "1_e5", "1e_5"])
def test_parse_rat_reads_underscores_as_fraction_does(text):
    # Fraction reads PEP 515 underscores from Python 3.11 on; before that,
    # parse_rat must refuse them too, the zero shortcut included
    try:
        expected = Fraction(text)
    except ValueError:
        with pytest.raises(ValueError):
            parse_rat(text)
    else:
        assert parse_rat(text) == expected


# digits, signs, the slash, a space, the underscore, the point and the
# exponent, an Arabic-Indic three (a decimal digit) and a superscript two
# (a digit, but not a decimal one)
RAT_ALPHABET = "0123456789+-/ _.e\u0663\u00b2"
INTEGER_TEXT = re.compile(r"\s*[+-]?\d+\s*")


@pytest.mark.parametrize("limit", [None, 20])
@settings(max_examples=400)
@given(st.text(RAT_ALPHABET, max_size=30))
@example("0" * 25 + "5")
@example(" -" + "9" * 21)
@example("1" * 10 + "/" + "3" * 15)
@example("\u0663" * 22)
@example("1/+2")
@example("+1/2 ")
@example("1/0")
def test_parse_rat_reads_as_fraction(limit, text):
    # Fraction is the judge: parse_rat returns its value where it reads the
    # text and the value is within the digit limit, as an int exactly for
    # [sign]digits, and raises ValueError everywhere else
    assume(not re.search(r"e[-+]?[\d_]{6}", text))  # no power of ten past 10^99999 for Fraction to build
    with pytest.MonkeyPatch.context() as patch:
        if limit is not None:
            patch.setattr(core, "_int_max_str_digits", lambda: limit)
        bound = 10 ** core._int_max_str_digits()
        try:
            want = Fraction(text)
        except (ValueError, ZeroDivisionError):
            want = None
        if want is None or bound > 1 and max(abs(want.numerator), want.denominator) >= bound:
            with pytest.raises(ValueError):
                parse_rat(text)
            return
        got = parse_rat(text)
    assert got == want
    assert type(got) is (int if INTEGER_TEXT.fullmatch(text) else Fraction)


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
# Eisenstein series


def test_eisenstein_pinned():
    assert _eis_dict(4, 2) == {0: 1, 1: 240}
    assert _eis_dict(6, 1) == {0: 1}
    assert _eis_dict(6, 2) == {0: 1, 1: -504}


def test_discriminant_combination():
    # E4^3 - E6^2 = 1728 Delta, Delta the discriminant cusp form q - 24q^2 + 252q^3 ...
    prec = 6
    e4, e6 = _eis_dict(4, prec), _eis_dict(6, prec)
    cube = _dict_mul(_dict_mul(e4, e4, prec), e4, prec)
    diff = _dict_add(cube, _dict_scale(_dict_mul(e6, e6, prec), -1))
    assert diff == _dict_scale({1: 1, 2: -24, 3: 252, 4: -1472, 5: 4830}, 1728)


def test_dict_div_needs_constant_term_one():
    num = {0: 1, 1: 2}
    assert _dict_div(num, {0: 1, 1: -1}, 4) == {0: 1, 1: 3, 2: 3, 3: 3}
    for den in ({0: 2, 1: 1}, {0: -1}, {1: 1}, {}, {-1: 1, 0: 1}):
        with pytest.raises(ValueError):
            _dict_div(num, den, 4)
