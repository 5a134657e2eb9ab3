"""Tests for quadratic form reduction, completions, and enumeration windows."""

import contextlib
import io
import json
import math
import random
import re
import sys
from fractions import Fraction
from itertools import chain, product
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

import schoolbook
from fjcert.cli import main
from fjcert.core import parse_rat
from fjcert.reduction import (
    CapacityError,
    SymMatQ,
    UnimodularMat,
    act,
    corner_swap,
    enumerate_S,
    hermite_check,
    is_positive_definite,
    minkowski_reduce,
    torsion_decomposition,
)
from fjcert.reduction import _CONDITIONS, _first_violation, _round_half_to_zero


def mat2(a, b, c, d):
    return SymMatQ([[Fraction(a), Fraction(b)], [Fraction(c), Fraction(d)]])


# ---------------------------------------------------------------------------
# matrix containers


def test_symmat_text_round_trip():
    t = SymMatQ([[Fraction(5), Fraction(4)], [Fraction(4), Fraction(5)]])
    assert SymMatQ.from_text(t.to_text()) == t
    u = SymMatQ.from_text("1,1/2;1/2,1")
    assert u[0, 1] == Fraction(1, 2)


@pytest.mark.parametrize("text", ["+3", " 007 ", "-0", "1_0", "\u0661\u0662", "1e2", "0.5", "3/4"])
def test_symmat_from_text_matches_parse_rat(text):
    # plain ASCII integers are read as ints; every other entry goes through
    # parse_rat, which reads "1_0" as Fraction does: from Python 3.11 on
    if "_" in text and sys.version_info < (3, 11):
        with pytest.raises(ValueError):
            parse_rat(text)
        with pytest.raises(ValueError):
            SymMatQ.from_text(text)
        return
    t = SymMatQ.from_text(text)
    assert t.rows == ((parse_rat(text),),)
    assert type(t[0, 0]) is Fraction


@pytest.mark.parametrize("text", ["", "1/0", "1__0", "_1", "++1", "- 1"])
def test_symmat_from_text_raises_as_parse_rat(text):
    with pytest.raises(ValueError) as want:
        parse_rat(text)
    with pytest.raises(ValueError) as got:
        SymMatQ.from_text(text)
    assert str(got.value) == str(want.value)


@given(
    st.integers(-(10**30), 10**30),
    st.sampled_from(["", "+"]),
    st.sampled_from(["", "0", "00"]),
    st.text(" \t", max_size=3),
    st.text(" \t", max_size=3),
)
def test_symmat_from_text_signed_integers(n, plus, zeros, before, after):
    sign = "-" if n < 0 else plus
    text = "%s%s%s%d%s" % (before, sign, zeros, abs(n), after)
    t = SymMatQ.from_text("%s,1;1,%s" % (text, text))
    assert t.rows == ((parse_rat(text), 1), (1, parse_rat(text)))
    assert all(type(x) is Fraction for row in t.rows for x in row)


def test_symmat_rejects_asymmetric():
    with pytest.raises(ValueError):
        SymMatQ([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(1)]])


def test_unimodular_rejects_det_two():
    with pytest.raises(ValueError):
        UnimodularMat([[2, 0], [0, 1]])


def test_corner_swap_shapes():
    assert corner_swap(2) == UnimodularMat([[0, 1], [1, 0]])
    assert corner_swap(3) == UnimodularMat([[0, 0, 1], [0, 1, 0], [1, 0, 0]])


# ---------------------------------------------------------------------------
# positivity and the action


def test_positive_definite_examples():
    assert is_positive_definite(SymMatQ([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]))
    assert not is_positive_definite(mat2(1, 2, 2, 1))
    assert is_positive_definite(mat2(2, 1, 1, 2))


def test_act_identity_and_swap():
    t = mat2(3, Fraction(1, 2), Fraction(1, 2), 7)
    assert act(t, UnimodularMat.identity(2)) == t
    swapped = act(t, UnimodularMat([[0, 1], [1, 0]]))
    assert swapped == mat2(7, Fraction(1, 2), Fraction(1, 2), 3)


def test_act_lower_shear():
    # [[n,r/2],[r/2,m]] under [[1,0],[1,1]] picks up n+r+m in the corner
    n, r, m = 2, 3, 5
    t = mat2(n, Fraction(r, 2), Fraction(r, 2), m)
    out = act(t, UnimodularMat([[1, 0], [1, 1]]))
    assert out == mat2(n + r + m, Fraction(r + 2 * m, 2), Fraction(r + 2 * m, 2), m)


def test_act_size_mismatch():
    with pytest.raises(ValueError):
        act(mat2(1, 0, 0, 1), UnimodularMat.identity(3))


@st.composite
def act_inputs(draw):
    """(t, u, v): a rational symmetric t of size one to three, an integer u
    of determinant +-1 or +-2 (lower unitriangular, diagonal, upper
    unitriangular) and any integer v of the same size."""
    s = draw(st.integers(1, 3))
    small = st.lists(st.integers(-3, 3), min_size=s * s, max_size=s * s)
    tv = draw(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=12), min_size=s * s, max_size=s * s))
    t = SymMatQ([[tv[s * min(i, j) + max(i, j)] for j in range(s)] for i in range(s)])
    low, up, v = draw(small), draw(small), draw(st.lists(st.integers(-9, 9), min_size=s * s, max_size=s * s))
    diag = draw(st.lists(st.sampled_from((1, -1)), min_size=s, max_size=s))
    diag[draw(st.integers(0, s - 1))] *= draw(st.sampled_from((1, 2)))
    lower = [[low[s * i + j] if j < i else int(i == j) for j in range(s)] for i in range(s)]
    upper = [[up[s * i + j] * diag[i] if j > i else diag[i] * int(i == j) for j in range(s)] for i in range(s)]
    u = [[sum(lower[i][k] * upper[k][j] for k in range(s)) for j in range(s)] for i in range(s)]
    return t, u, [v[s * i : s * i + s] for i in range(s)]


@given(act_inputs())
def test_act_is_right_action(tuv):
    t, u, v = tuv
    s = t.size
    tu = act(t, u)
    # t[u] = u^T t u over Fraction, stored over the least denominator
    assert tu.rows == tuple(
        tuple(sum(u[a][i] * t.rows[a][b] * u[b][j] for a in range(s) for b in range(s)) for j in range(s)) for i in range(s)
    )
    assert math.gcd(tu.den, *chain.from_iterable(tu.gram)) == 1
    uv = [[sum(u[i][k] * v[k][j] for k in range(s)) for j in range(s)] for i in range(s)]
    assert act(tu, v) == act(t, uv)


# ---------------------------------------------------------------------------
# Minkowski reduction


def random_pd2(rng):
    while True:
        a = Fraction(rng.randint(1, 40), rng.randint(1, 4))
        d = Fraction(rng.randint(1, 40), rng.randint(1, 4))
        b = Fraction(rng.randint(-20, 20), rng.randint(1, 4))
        if a * d - b * b > 0:
            return mat2(a, b, b, d)


def primitive_pairs(limit):
    import math

    out = []
    for x in range(-limit, limit + 1):
        for y in range(-limit, limit + 1):
            if math.gcd(x, y) == 1 and (x, y) >= (0, -limit):
                out.append((x, y))
    return out


def test_minkowski_identity_is_fixed():
    t = mat2(1, 0, 0, 1)
    reduced, u = minkowski_reduce(t)
    assert reduced == t
    assert act(t, u) == reduced


def test_minkowski_swaps_descending_diagonal():
    reduced, u = minkowski_reduce(mat2(2, 0, 0, 1))
    assert reduced == mat2(1, 0, 0, 2)
    assert act(mat2(2, 0, 0, 1), u) == reduced


def test_minkowski_pinned_minimum():
    # 5x^2 + 8xy + 5y^2 attains 2 at (1,-1)
    reduced, u = minkowski_reduce(mat2(5, 4, 4, 5))
    assert reduced[0, 0] == 2
    assert act(mat2(5, 4, 4, 5), u) == reduced
    assert reduced.det() == mat2(5, 4, 4, 5).det()


def test_minkowski_rejects_indefinite():
    with pytest.raises(ValueError):
        minkowski_reduce(mat2(1, 2, 2, 1))


def test_minkowski_idempotent_and_hermite():
    rng = random.Random(5)
    for _ in range(40):
        t = random_pd2(rng)
        reduced, u = minkowski_reduce(t)
        assert act(t, u) == reduced
        assert hermite_check(reduced)
        again, _ = minkowski_reduce(reduced)
        assert again == reduced


def test_minkowski_leading_entry_is_exhaustive_minimum():
    # the corner of any image t[u] is the form evaluated at u's first
    # column, so scanning primitive vectors covers every unimodular image
    vectors = primitive_pairs(5)
    rng = random.Random(11)
    for _ in range(200):
        t = random_pd2(rng)
        reduced, _ = minkowski_reduce(t)
        best = min(
            t[0, 0] * x * x + 2 * t[0, 1] * x * y + t[1, 1] * y * y
            for x, y in vectors
        )
        assert reduced[0, 0] == best


def random_pd3(rng):
    while True:
        a = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        det = (
            a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
        )
        if det == 0:
            continue
        rows = [
            [
                Fraction(sum(a[k][i] * a[k][j] for k in range(3)))
                for j in range(3)
            ]
            for i in range(3)
        ]
        return SymMatQ(rows)


def test_minkowski_three_by_three_conditions():
    rng = random.Random(23)
    for _ in range(25):
        t = random_pd3(rng)
        reduced, u = minkowski_reduce(t)
        assert act(t, u) == reduced
        assert reduced[0, 0] <= reduced[1, 1] <= reduced[2, 2]
        for i in range(3):
            for j in range(i + 1, 3):
                assert 2 * abs(reduced[i, j]) <= reduced[i, i]
        assert hermite_check(reduced)


def test_minkowski_binary_matches_gauss_oracle():
    # criterion-2-style rational binary forms: form and transform both equal
    # to the Gauss loop the general Minkowski loop replaced
    rng = random.Random(414213)
    for _ in range(300):
        while True:
            a, b, c, d = (rng.randrange(-6, 7) for _ in range(4))
            if a * d - b * c != 0:
                break
        den = rng.randrange(1, 7)
        off = Fraction(a * b + c * d, den)
        t = mat2(Fraction(a * a + c * c, den), off, off, Fraction(b * b + d * d, den))
        assert minkowski_reduce(t) == schoolbook.reduce2(t)


def shear_word_form(rng, length=6):
    """D[u] for a random diagonal D and a word u of elementary shears."""
    d = [rng.randint(1, 9) for _ in range(3)]
    u = [[int(i == j) for j in range(3)] for i in range(3)]
    for _ in range(length):
        i, j = rng.sample(range(3), 2)
        c = rng.choice((-2, -1, 1, 2))
        for row in u:
            row[j] += c * row[i]
    return SymMatQ(
        [[Fraction(sum(u[k][a] * d[k] * u[k][b] for k in range(3))) for b in range(3)] for a in range(3)]
    )


# forms the brute-force size-3 reduction got wrong: the first and last came
# back unreduced, the second (diag(1, 2, 3) under three shears) overflowed
# its search box
EDGE_FORMS = [
    "4,2,2;2,6,-2;2,-2,10",
    "1844517422,1718986,63602569;1718986,1602,59274;63602569,59274,2193141",
    "1,0,0;0,1,0;0,0,1",
    "9/2,3,1;3,7,2;1,2,11/3",
]


def ternary_forms(source):
    rng = random.Random(31)
    if source == "random":
        return [random_pd3(rng) for _ in range(40)]
    if source == "shear-words":
        return [shear_word_form(rng) for _ in range(80)]
    return [SymMatQ.from_text(text) for text in EDGE_FORMS]


@pytest.mark.parametrize("source", ["random", "shear-words", "edge"])
def test_minkowski_ternary_full_condition_list(source):
    for t in ternary_forms(source):
        reduced, u = minkowski_reduce(t)
        assert act(t, u) == reduced
        for x in product((-1, 0, 1), repeat=3):
            value = sum(reduced[i, j] * x[i] * x[j] for i in range(3) for j in range(3))
            for k in range(3):
                if any(x[k:]):
                    assert value >= reduced[k, k], (t, reduced, x, k)
        assert reduced[0, 1] >= 0 and reduced[0, 2] >= 0
        assert minkowski_reduce(reduced)[0] == reduced


def test_minkowski_edge_form_values():
    reduced, _ = minkowski_reduce(SymMatQ.from_text(EDGE_FORMS[1]))
    assert reduced == SymMatQ.from_text("1,0,0;0,2,0;0,0,3")
    reduced, _ = minkowski_reduce(SymMatQ.from_text(EDGE_FORMS[3]))
    assert [reduced[i, i] for i in range(3)] == [Fraction(11, 3), Fraction(9, 2), Fraction(11, 2)]


def test_minkowski_sizes_one_and_four():
    t = SymMatQ([[Fraction(7, 2)]])
    assert minkowski_reduce(t) == (t, UnimodularMat.identity(1))
    # no SymMatQ of size four reaches minkowski_reduce
    with pytest.raises(ValueError, match="matrix size above three is not supported"):
        minkowski_reduce(SymMatQ([[Fraction(int(i == j)) for j in range(4)] for i in range(4)]))


# ---------------------------------------------------------------------------
# the integer loop against the Fraction oracle


def test_condition_list_has_one_of_each_sign_pair():
    for s in (1, 2, 3):
        assert len(_CONDITIONS[s]) == (3**s - 1) // 2
        assert {x for x, _, _ in _CONDITIONS[s]} | {tuple(-v for v in x) for x, _, _ in _CONDITIONS[s]} == {
            x for x in product((-1, 0, 1), repeat=s) if any(x)
        }


def test_first_violation_matches_full_condition_list():
    # the half list returns the same (x, j) as the oracle's scan of all 3^s - 1
    # vectors: on unreduced matrices, on reduced ones and on ties 2|g_ij| = g_ii
    rng = random.Random(5)
    grams = []
    for _ in range(1500):
        s = rng.randint(1, 3)
        g = [[0] * s for _ in range(s)]
        for i in range(s):
            g[i][i] = rng.randint(1, 30)
            for j in range(i):
                g[i][j] = g[j][i] = rng.randint(-20, 20)
        if s > 1 and rng.random() < 0.3:
            i, j = sorted(rng.sample(range(s), 2))
            g[i][i] += g[i][i] % 2
            g[i][j] = g[j][i] = rng.choice((1, -1)) * g[i][i] // 2
        grams.append(g)
        if is_positive_definite(SymMatQ(g)):
            grams.append(minkowski_reduce(SymMatQ(g))[0].gram)
    for text in EDGE_FORMS + ["2,1;1,2", "2,-1;-1,2", "6,3,3;3,6,3;3,3,6", "6,-3,3;-3,6,-3;3,-3,6"]:
        grams.append(SymMatQ.from_text(text).gram)
    assert sum(_first_violation(g) is None for g in grams) > 500
    for g in grams:
        assert _first_violation(g) == schoolbook._first_violation(g), g


def outcome(fn, *args):
    """fn(*args), or the type and text of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as e:
        return ("ValueError", str(e))


def assert_matches_oracle(t):
    got = minkowski_reduce(t)
    assert got == schoolbook.minkowski_reduce(t), t
    reduced = got[0]
    assert hermite_check(reduced) == schoolbook.hermite_check(reduced)
    # unreduced input: both checks raise, with the same first violation
    assert outcome(hermite_check, t) == outcome(schoolbook.hermite_check, t)


fractions = st.builds(Fraction, st.integers(1, 40), st.integers(1, 6))


@st.composite
def rational_forms(draw):
    """A^T diag(d) A over rationals d > 0 and a nonsingular integer A of size
    one to three; with a tie, one off-diagonal entry is then replaced by
    +-t_ii / 2 (2|t_ij| = t_ii) when the result stays positive definite."""
    s = draw(st.integers(1, 3))
    d = draw(st.lists(fractions, min_size=s, max_size=s))
    a = draw(st.lists(st.lists(st.integers(-4, 4), min_size=s, max_size=s), min_size=s, max_size=s))
    rows = [[sum(a[k][i] * d[k] * a[k][j] for k in range(s)) for j in range(s)] for i in range(s)]
    if not is_positive_definite(SymMatQ(rows)):  # A is singular
        rows = [[d[i] if i == j else 0 for j in range(s)] for i in range(s)]
    if s > 1 and draw(st.booleans()):
        i, j = sorted(draw(st.lists(st.integers(0, s - 1), min_size=2, max_size=2, unique=True)))
        tied = [row[:] for row in rows]
        tied[i][j] = tied[j][i] = draw(st.sampled_from((1, -1))) * tied[i][i] / 2
        if is_positive_definite(SymMatQ(tied)):
            rows = tied
    return SymMatQ(rows)


@settings(max_examples=300)
@given(rational_forms())
def test_minkowski_matches_fraction_oracle(t):
    assert_matches_oracle(t)


def assert_reduce_command_matches_oracle(text):
    """reduce --json, which goes from text to text on the integer Gram matrix,
    prints the texts of the Fraction oracle's result and its Hermite verdict."""
    reduced, u = schoolbook.minkowski_reduce(SymMatQ.from_text(text))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["reduce", "--json", "--matrix", text]) == 0
    assert json.loads(out.getvalue()) == {
        "reduced": reduced.to_text(),
        "transform": u.to_text(),
        "hermite_ok": schoolbook.hermite_check(reduced),
    }


@settings(max_examples=150)
@given(rational_forms())
def test_reduce_command_matches_fraction_oracle(t):
    assert_reduce_command_matches_oracle(t.to_text())


@pytest.mark.parametrize("text", EDGE_FORMS + ["17/2,-8;-8,8", "3/2,3/4;3/4,5/3", "7/3", "5,4;4,5"])
def test_reduce_command_matches_fraction_oracle_on_fixed_forms(text):
    assert_reduce_command_matches_oracle(text)


def test_symmat_from_text_builds_no_fraction_for_integer_entries(monkeypatch):
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", staticmethod(lambda cls, *a, **k: built.append(a) or new(cls, *a, **k)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["reduce", "--matrix", "1844517422,1718986,63602569;1718986,1602,59274;63602569,59274,2193141"]) == 0
    assert out.getvalue() == "reduced: 1,0,0;0,2,0;0,0,3\ntransform: 1,-40,0;0,1,-37;-29,1160,1\nhermite_ok: True\n"
    assert built == []
    t = SymMatQ.from_text("6,3/2;3/2,5/3")
    assert (t.gram, t.den) == (((36, 9), (9, 10)), 6)
    assert built  # the patch sees Fractions where the text has them
    assert t.to_text() == "6,3/2;3/2,5/3"


@pytest.mark.parametrize(
    "text, message",
    [
        ("1,2;2", "matrix must be square"),
        ("1,2;2,1;3,4", "matrix must be square"),
        (";".join([",".join(["0"] * 4)] * 4), "matrix size above three is not supported"),
        ("1,2;3,4", "matrix must be symmetric"),
        ("1,1/2;0.5,x", "Invalid literal for Fraction: 'x'"),
        ("1,1/0;0,1", "zero denominator in '1/0'"),
    ],
    ids=["short-row", "extra-row", "size-4", "asymmetric", "bad-entry", "zero-denominator"],
)
def test_symmat_from_text_raises_on_shape_and_entries(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SymMatQ.from_text(text)


@pytest.mark.parametrize(
    "text",
    EDGE_FORMS + [
        "2,1;1,2", "2,-1;-1,2", "4,2;2,3", "6,3,3;3,6,3;3,3,6", "6,-3,3;-3,6,-3;3,-3,6",
        "4,2,-2;2,5,2;-2,2,6", "1,1/2,1/2;1/2,1,1/2;1/2,1/2,1", "3/2,3/4;3/4,5/3",
    ],
)
def test_minkowski_edge_and_tie_forms_match_fraction_oracle(text):
    assert_matches_oracle(SymMatQ.from_text(text))


def test_rounding_helpers_match_fraction_oracle():
    for p in range(-60, 61):
        for q in range(1, 25):
            x = Fraction(p, q)
            assert _round_half_to_zero(p, q) == schoolbook._round_half_to_zero(x), (p, q)


# ---------------------------------------------------------------------------
# Hermite bound check


def test_hermite_examples():
    assert hermite_check(mat2(1, 0, 0, 1))
    # boundary: 1 <= (4/3)(3/4) with equality
    assert hermite_check(mat2(1, Fraction(1, 2), Fraction(1, 2), 1))
    with pytest.raises(ValueError):
        hermite_check(mat2(2, 0, 0, 1))
    # sorted and size-reduced, but x = (-1, 1, 1) gives 8 < 10
    with pytest.raises(ValueError):
        hermite_check(SymMatQ.from_text("4,2,2;2,6,-2;2,-2,10"))
    # positive definiteness is checked first, then the conditions
    with pytest.raises(ValueError, match="positive definite"):
        hermite_check(mat2(1, 2, 2, 1))
    # no SymMatQ has size four
    with pytest.raises(ValueError, match="matrix size above three is not supported"):
        SymMatQ.from_text("1,2,0,0;2,1,0,0;0,0,1,0;0,0,0,1")


def test_hermite_one_by_one():
    assert hermite_check(SymMatQ([[Fraction(7)]]))


# ---------------------------------------------------------------------------
# torsion decomposition


def decomposition_sides(lam, M, u, rho, xi):
    """Both sides of the defining identity, as exact rational matrices."""
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


def det_int(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]


def test_torsion_pinned_zero():
    u, rho, xi = torsion_decomposition((0,), 1)
    assert u == UnimodularMat([[0, 1], [1, 0]])
    assert rho == ((1,),)
    assert xi == (0,)


def test_torsion_half_and_third():
    for lam, M in [((Fraction(1, 2),), 2), ((Fraction(1, 3),), 3)]:
        u, rho, xi = torsion_decomposition(lam, M)
        assert u.det() in (1, -1)
        assert abs(det_int(rho)) == M
        left, right = decomposition_sides(lam, M, u, rho, xi)
        assert left == right


def test_torsion_identity_all_small_denominators():
    import math

    for M in range(1, 13):
        for a in range(M):
            if math.gcd(a, M) != 1 and M > 1:
                continue
            lam = (Fraction(a, M),)
            u, rho, xi = torsion_decomposition(lam, M)
            left, right = decomposition_sides(lam, M, u, rho, xi)
            assert left == right
            assert abs(det_int(rho)) == M


def test_torsion_identity_genus_three():
    import math

    for M in range(1, 13):
        for a in range(M):
            for c in range(M):
                if math.gcd(math.gcd(a, c), M) != 1 and M > 1:
                    continue
                lam = (Fraction(a, M), Fraction(c, M))
                u, rho, xi = torsion_decomposition(lam, M)
                left, right = decomposition_sides(lam, M, u, rho, xi)
                assert left == right
                assert abs(det_int(rho)) == M


def test_torsion_reduces_target():
    # with a target form supplied, u is adjusted so n[rho] is reduced
    n = mat2(5, 4, 4, 5)
    lam = (Fraction(1, 3), Fraction(2, 3))
    u, rho, xi = torsion_decomposition(lam, 3, n)
    left, right = decomposition_sides(lam, 3, u, rho, xi)
    assert left == right
    assert abs(det_int(rho)) == 3
    image = act(n, [list(r) for r in rho])
    assert image[0, 0] <= image[1, 1]
    assert 2 * abs(image[0, 1]) <= image[0, 0]
    assert hermite_check(image)


def test_torsion_rejects_bad_denominator():
    with pytest.raises(ValueError):
        torsion_decomposition((Fraction(1, 2),), 4)
    with pytest.raises(ValueError):
        torsion_decomposition((Fraction(1, 3),), 2)


# ---------------------------------------------------------------------------
# enumeration windows


def test_enumerate_s_small_windows():
    half = SymMatQ([[Fraction(1, 2)]])
    assert enumerate_S(1, 1, 2) == [half]
    assert enumerate_S(1, 2, 2) == [
        SymMatQ([[Fraction(k, 2)]]) for k in (1, 2, 3)
    ]


def test_enumerate_s_level_two():
    out = enumerate_S(2, Fraction(1, 32), 2)
    assert len(out) == 63
    assert out[0] == SymMatQ([[Fraction(1, 8)]])
    assert out[-1] == SymMatQ([[Fraction(63, 8)]])
    for t in out:
        assert 0 < t[0, 0] < Fraction(1, 32) * 2 ** 8
        assert (t[0, 0] * 8).denominator == 1


def test_enumerate_s_capacity_guard():
    with pytest.raises(CapacityError):
        enumerate_S(1, 100, 2, cap=10)


def scaled_entries(t):
    """Diagonal-then-off-diagonal entry tuple of t, the order enumerate_S returns."""
    s = t.size
    return tuple(t[i, i] for i in range(s)) + tuple(t[i, j] for i in range(s) for j in range(i + 1, s))


def test_enumerate_s_genus_three_closed_under_predicate():
    out = enumerate_S(1, Fraction(3, 2), 3)
    seen = set()
    for t in out:
        key = scaled_entries(t)
        assert key not in seen
        seen.add(key)
        assert is_positive_definite(t)
        for i in range(2):
            assert t[i, i] < Fraction(3, 2)
            for j in range(2):
                assert (2 * t[i, j]).denominator == 1
    # completeness spot check: the half-integer identity is in the window
    assert SymMatQ([[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 2)]]) in out


def test_enumerate_s_ordering_is_deterministic():
    a = enumerate_S(1, Fraction(3, 2), 3)
    b = enumerate_S(1, Fraction(3, 2), 3)
    assert a == b
    keys = [scaled_entries(t) for t in a]
    assert keys == sorted(keys)


def test_enumerate_s_genus_four_matches_brute_force():
    # den = 2 and diagonal numerators 1..4: filter every integer candidate of
    # the box exactly; |k_ij| <= 3 since k_ij^2 < k_ii k_jj <= 16
    want = []
    for k11, k22, k33 in product(range(1, 5), repeat=3):
        for k12, k13, k23 in product(range(-3, 4), repeat=3):
            t = SymMatQ([[k11, k12, k13], [k12, k22, k23], [k13, k23, k33]])
            if is_positive_definite(t):
                want.append(SymMatQ([[x / 2 for x in row] for row in t.rows]))
    want.sort(key=scaled_entries)
    assert len(want) == 4320
    assert enumerate_S(1, Fraction(5, 2), 4) == want


def test_enumerate_s_cap_counts_candidates_before_enumerating():
    # 1999^3 diagonals alone pass the cap, so nothing is enumerated
    with pytest.raises(CapacityError):
        enumerate_S(1, 10**3, 4, cap=10)
    # at size three the cap counts candidates, not the positive definite outputs
    candidates = sum(
        (2 * isqrt(a * b - 1) + 1) * (2 * isqrt(a * c - 1) + 1) * (2 * isqrt(b * c - 1) + 1)
        for a, b, c in product(range(1, 5), repeat=3)
    )
    assert candidates > 4320
    assert len(enumerate_S(1, Fraction(5, 2), 4, cap=candidates)) == 4320
    with pytest.raises(CapacityError):
        enumerate_S(1, Fraction(5, 2), 4, cap=candidates - 1)


@pytest.mark.parametrize(
    "args, message",
    [((0, 1, 2), "N must be positive"), ((1, -1, 2), "b must be nonnegative"), ((1, 1, 1), "unsupported genus"), ((1, 1, 5), "unsupported genus")],
)
def test_enumerate_s_argument_checks(args, message):
    with pytest.raises(ValueError, match=message):
        enumerate_S(*args)
