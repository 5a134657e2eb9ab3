"""Differential tests: the Kronecker-substitution kernel, the Horner loop,
point evaluation and window norms against the schoolbook loops they
replaced, and point evaluation against a per-term oracle
(tests/schoolbook.py)."""

import hashlib
import math
import re
import struct
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import schoolbook
from fjcert import FormalFJ, PolynomialOverM, jacobi_space
from fjcert.core import PrecisionError, _dict_mul
from fjcert import core, jacobi
from fjcert.fjseries import poly_eval
from fjcert.jacobi import JacobiFormQExp, TorsionPoint, evaluate, multiply, specialize_torsion
from fjcert.reduction import SymMatQ

small = st.integers(-50, 50)
huge = st.integers(2**2000, 2**2100).flatmap(lambda v: st.sampled_from([v, -v]))
fracs = st.fractions(min_value=-40, max_value=40, max_denominator=30)


def series(values, lo=0, width=40):
    """Sparse {exponent: value} dicts, zero values allowed, keys from lo."""
    return st.dictionaries(st.integers(lo, lo + width), values, max_size=30)


@st.composite
def series_pair(draw, values):
    offset = draw(st.sampled_from([0, 0, 7, -12, 10**6, -(10**6)]))
    a = draw(series(values, offset))
    b = draw(series(values, draw(st.integers(-20, 20))))
    return a, b


def emax_cases(a, b):
    """Every product exponent boundary that matters, plus 0 and 1."""
    cases = {0, 1}
    if a and b:
        lo = min(a) + min(b)
        hi = max(a) + max(b)
        cases |= {lo - 1, lo, lo + 1, (lo + hi) // 2, hi, hi + 1, hi + 5}
    return sorted(cases)


@given(series_pair(small))
def test_dict_mul_signed_sparse(pair):
    a, b = pair
    for emax in emax_cases(a, b):
        assert _dict_mul(a, b, emax) == schoolbook.dict_mul(a, b, emax)


@given(series_pair(st.one_of(huge, small, st.just(0))))
def test_dict_mul_huge_coefficients(pair):
    a, b = pair
    for emax in emax_cases(a, b):
        assert _dict_mul(a, b, emax) == schoolbook.dict_mul(a, b, emax)


def test_dict_mul_edge_cases():
    a = {5: 3, 6: -2}
    b = {9: 4}
    for emax in (0, 1, 13, 14):
        assert _dict_mul(a, b, emax) == {}
    assert _dict_mul(a, b, 15) == {14: 12}
    assert _dict_mul({0: 1, 1: 1}, {0: 1, 1: -1}, 5) == {0: 1, 2: -1}
    assert _dict_mul({}, b, 10) == {} and _dict_mul({3: 0}, b, 20) == {}


# Row shapes for the kernel's two row-product paths.  A row is sparse when it
# has at most one nonzero slot in eight of its span, rounded up: t terms
# over a span of at least 8 (t - 1) + 1 slots, a single term included.
# Sparse rows are multiplied by shifted adds, dense ones by one bignum product.

nonzero = st.one_of(st.integers(1, 50), st.integers(-50, -1), huge)


@st.composite
def sparse_row(draw, values=nonzero):
    """t terms with gaps of at least 8, from a random lowest exponent."""
    gaps = draw(st.lists(st.integers(8, 20), max_size=6))
    e = draw(st.integers(-30, 30))
    row = {e: draw(values)}
    for g in gaps:
        e += g
        row[e] = draw(values)
    return row


@st.composite
def dense_row(draw, values=nonzero):
    """At least two terms on consecutive exponents, so over one in eight."""
    lo = draw(st.integers(-30, 30))
    return {lo + k: v for k, v in enumerate(draw(st.lists(values, min_size=2, max_size=30)))}


def is_sparse(row):
    return core._kron_pack(row, 1 + max(abs(v) for v in row.values()).bit_length() // 8)[3] is not None


def test_row_shapes_at_the_density_limit():
    # 17 slots hold 3 sparse terms; a fourth makes the row dense
    at_limit = {0: 1, 8: -1, 16: 2}
    assert is_sparse(at_limit) and is_sparse({0: 1}) and is_sparse({5: -(2**3000)})
    assert not is_sparse({**at_limit, 4: 3})
    assert is_sparse({0: 1, 8: 1}) and not is_sparse({0: 1, 7: 1}) and not is_sparse({0: 1, 1: 1})


def oracle_rows(a, b, nmax):
    """c[m][n] = sum_i sum_{n1 + n2 = n} a[i][n1] * b[m - i][n2] by schoolbook.dict_mul."""
    out = []
    for m in range(min(len(a), len(b))):
        c = {}
        for i in range(m + 1):
            for n1, r1 in a[i].items():
                for n2, r2 in b[m - i].items():
                    if n1 + n2 < nmax:
                        acc = c.setdefault(n1 + n2, {})
                        for e, v in schoolbook.dict_mul(r1, r2, max(r1) + max(r2) + 1).items():
                            acc[e] = acc.get(e, 0) + v
        out.append({n: {e: v for e, v in row.items() if v} for n, row in c.items() if any(row.values())})
    return out


@contextmanager
def counted_shifted_products():
    """The term count of the row behind each shifted-add product, in order."""
    calls = []
    shifted = core._shifted_product

    def spy(terms, x, shift):
        calls.append(sum(map(len, terms.values())))
        return shifted(terms, x, shift)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_shifted_product", spy)
        yield calls


@pytest.mark.parametrize("shapes", ["sparse-dense", "dense-sparse", "sparse-sparse", "dense-dense"])
@settings(max_examples=60)
@given(data=st.data())
def test_dict_mul_on_each_row_shape(shapes, data):
    rows = {"sparse": sparse_row(), "dense": dense_row()}
    first, second = shapes.split("-")
    a, b = data.draw(rows[first]), data.draw(rows[second])
    with counted_shifted_products() as calls:
        for emax in emax_cases(a, b):
            assert _dict_mul(a, b, emax) == schoolbook.dict_mul(a, b, emax)
        calls.clear()
        _dict_mul(a, b, max(a) + max(b) + 1)
    # the shifted adds run over the sparse row with fewer terms, and only when a row is sparse
    assert calls == ([] if shapes == "dense-dense" else [min(len(r) for r in (a, b) if is_sparse(r))])


@pytest.mark.parametrize("row", [{0: 1}, {0: -1}, {7: -3}, {-4: 2**2100}, {11: -(2**2050) + 1}])
def test_dict_mul_by_a_single_term(row):
    dense = {e: (-1) ** (e % 2) * (e * e + 1) * 10**30 for e in range(-5, 60)}
    with counted_shifted_products() as calls:
        for a, b in ((row, dense), (dense, row), (row, row)):
            for emax in emax_cases(a, b):
                assert _dict_mul(a, b, emax) == schoolbook.dict_mul(a, b, emax)
    assert calls and set(calls) == {1}


@pytest.mark.parametrize("extra", [False, True])
def test_dict_mul_at_the_density_limit(extra):
    # 5 terms over 33 slots are sparse; a sixth term makes the row dense
    row = {0: -7, 8: 2**2000, 16: 1, 24: -(2**1999), 32: 5}
    if extra:
        row[20] = -3
    assert is_sparse(row) is not extra
    other = {e: (-1) ** e * 3**e for e in range(40)}
    with counted_shifted_products() as calls:
        for emax in emax_cases(row, other):
            assert _dict_mul(row, other, emax) == schoolbook.dict_mul(row, other, emax)
            assert _dict_mul(other, row, emax) == schoolbook.dict_mul(other, row, emax)
    assert bool(calls) is not extra


@st.composite
def shaped_series(draw, length):
    """A list of two-variable series {n: row}, each row sparse, dense or a single term."""
    row = st.one_of(sparse_row(), dense_row(), st.builds(lambda e, v: {e: v}, st.integers(-9, 9), nonzero))
    return [draw(st.dictionaries(st.integers(0, 4), row, max_size=4)) for _ in range(length)]


@settings(max_examples=80)
@given(shaped_series(3), shaped_series(3), st.integers(0, 9))
def test_kron_rows_on_mixed_row_shapes(a, b, nmax):
    assert core._kron_rows(a, b, nmax) == oracle_rows(a, b, nmax)
    assert core._kron_rows(a, a, nmax) == oracle_rows(a, a, nmax)


def test_kron_rows_runs_both_paths_in_two_variables():
    sparse, dense, single = {0: 3, 9: -(2**2000), 30: 1}, {e: e - 4 for e in range(-3, 12)}, {2: -1}
    a = [{0: sparse, 2: dense}, {1: single, 3: sparse}]
    b = [{0: dense, 1: sparse}, {0: single, 2: dense}]
    with counted_shifted_products() as calls:
        assert core._kron_rows(a, b, 6) == oracle_rows(a, b, 6)
        assert core._kron_rows(b, a, 6) == oracle_rows(b, a, 6)
        assert core._kron_rows(a, a, 6) == oracle_rows(a, a, 6)
        assert set(calls) == {1, 3}
        calls.clear()
        assert core._kron_rows([{0: dense}], [{0: dense}], 1) == oracle_rows([{0: dense}], [{0: dense}], 1)
        assert calls == []


@given(st.integers(1, 4), st.data())
def test_kron_unpack_reads_every_digit(w, data):
    # digits in the open range (-X/2, X/2), X = 2^(8w), with zero runs at either end
    half = 1 << (8 * w - 1)
    digit = st.integers(-half + 1, half - 1)
    digits = data.draw(st.lists(st.one_of(digit, st.just(0)), max_size=40))
    lead, trail = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    digits = [0] * lead + digits + [0] * trail
    lo = data.draw(st.integers(-50, 50))
    x = sum(c << (8 * w * k) for k, c in enumerate(digits))
    want = {lo + k: c for k, c in enumerate(digits) if c}
    assert core._kron_unpack(x, lo, len(digits), w) == want


def test_kron_unpack_zero_and_extreme_digits():
    assert core._kron_unpack(0, 3, 10, 2) == {}
    assert core._kron_unpack(0, -7, 0, 1) == {}
    for w in (1, 2, 9):
        top = (1 << (8 * w - 1)) - 1
        x = -top + (top << (8 * w)) + (-1 << (8 * w * 3))
        assert core._kron_unpack(x, -1, 6, w) == {-1: -top, 0: top, 2: -1}


@st.composite
def jacobi_form(draw, m, values=st.one_of(fracs, huge, small), max_prec=6, k=4):
    prec = draw(st.integers(0, max_prec))
    keys = st.tuples(st.integers(0, max(0, prec - 1)), st.just(0) if m == 0 else st.integers(-7, 7))
    coeffs = draw(st.dictionaries(keys, values, max_size=25)) if prec else {}
    return JacobiFormQExp(k, m, prec, coeffs)


@given(jacobi_form(1), jacobi_form(2))
def test_jacobi_multiply(a, b):
    assert multiply(a, b) == schoolbook.jacobi_multiply(a, b)


# integers over the denominators 1, 2, 3 and 6, so slices of one product
# carry different common denominators
mixed_den = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 6]))


@given(jacobi_form(1, mixed_den), jacobi_form(2, mixed_den))
def test_jacobi_multiply_mixed_denominators(a, b):
    assert multiply(a, b) == schoolbook.jacobi_multiply(a, b)


@st.composite
def formal_series(draw, k=4):
    # one slot width and the row shifts are shared by every slice pair of a
    # product, so mix huge and small signed values with mixed denominators,
    # and let the slice precisions differ
    M_max = draw(st.integers(0, 4))
    values = st.one_of(mixed_den, huge, small)
    phis = [draw(jacobi_form(m, values, 5, k).filter(lambda phi: phi.prec > 0)) for m in range(M_max + 1)]
    return FormalFJ(k, M_max, phis)


# nine products of 6-bit values land on one coefficient: a slot sized for
# the terms of one slice pair overflows
aligned = FormalFJ(4, 8, [JacobiFormQExp(4, m, 1, {(0, 0): 63}) for m in range(9)])


@given(formal_series(), formal_series())
@example(aligned, aligned)
def test_series_multiply_matches_slice_sum(f, g):
    assert f.multiply(g) == schoolbook.series_multiply(f, g)


@given(formal_series())
@example(aligned)
def test_square_matches_slice_sum(f):
    # a square multiplies each unordered slice pair once and doubles it; the
    # kernel must see a square in a copy equal by value, as poly_eval passes
    # it, and M_max 0-4 gives output slices with and without a diagonal pair
    want = schoolbook.series_multiply(f, f)
    assert f.multiply(f) == want
    assert f.multiply(FormalFJ.from_record(f.to_record())) == want


@st.composite
def relation(draw, k):
    """a_d X^d + ... + a_0 with step k, d = 1..3: a_d is one, with its own
    M_max and precision (a monic relation), or a random weight-0 series."""
    d = draw(st.integers(1, 3))
    lead = draw(st.one_of(st.builds(FormalFJ.one, st.integers(0, 4), st.integers(0, 5)), formal_series(0)))
    return PolynomialOverM([draw(formal_series((d - i) * k)) for i in range(d)] + [lead], 0, k)


@given(formal_series(), relation(4))
def test_poly_eval_matches_schoolbook_horner(f, q):
    assert poly_eval(q, f) == schoolbook.poly_eval(q, f)


def test_poly_eval_matches_schoolbook_horner_on_lift(lift8):
    f = lift8[0]
    one = FormalFJ.one(f.M_max, f.prec)
    zero = FormalFJ.zero(2 * f.k, f.M_max, f.prec)
    f2 = f.multiply(f)
    f3 = f2.multiply(f)
    cases = [
        [-f, one],
        [zero - f2, FormalFJ.zero(f.k, f.M_max, f.prec), one],  # X^2 - f*f: the residue is zero
        [3 * f2, -2 * f, one],
        [-f3, 2 * f2, 5 * f, one],
    ]
    for coeffs in cases:
        q = PolynomialOverM(coeffs, 0, f.k)
        assert poly_eval(q, f) == schoolbook.poly_eval(q, f)
    assert poly_eval(PolynomialOverM(cases[1], 0, f.k), f).is_zero()


@given(formal_series(), st.lists(st.integers(1, 6), min_size=2, max_size=5), st.data())
def test_poly_eval_skips_a_monic_lead_of_unequal_slice_precisions(f, precs, data):
    # the lead is one, but its slices stop at different precisions: it is
    # monic without being equal to FormalFJ.one, and skipping 1 * f must give
    # what the Horner product gives
    lead = FormalFJ(0, len(precs) - 1, [JacobiFormQExp(0, m, p, {(0, 0): 1} if m == 0 else {}) for m, p in enumerate(precs)])
    d = data.draw(st.integers(1, 2))
    q = PolynomialOverM([data.draw(formal_series((d - i) * f.k)) for i in range(d)] + [lead], 0, f.k)
    assert q.is_monic() and (len(set(precs)) == 1 or lead != FormalFJ.one(lead.M_max, lead.prec))
    assert poly_eval(q, f) == schoolbook.poly_eval(q, f)


@st.composite
def signed_form(draw):
    """A form of index 1-3 whose r are of any sign, all <= 0 or all >= 0;
    zero forms included.  Values stay finite as floats."""
    phi = draw(jacobi_form(draw(st.integers(1, 3)), st.one_of(mixed_den, fracs, small), 8))
    sign = draw(st.sampled_from([None, -1, 1]))
    if sign is None:
        return phi
    return JacobiFormQExp(phi.k, phi.m, phi.prec, {(n, sign * abs(r)): c for (n, r), c in phi.coeffs.items()})


point = st.tuples(
    st.builds(complex, st.floats(-1, 1), st.floats(0.05, 2)),
    st.builds(complex, st.floats(-1, 1), st.floats(-1, 1)),
)


def oracle(phi, tau1, z):
    """(value, bound): the per-term oracle's value, and c 2^-53 sum |terms|
    with c = 4 (W + A + 4), for one-point and multi-point calls alike.  W
    is the longest row span, the longest chain of powers of e(-2 pi |Im z|)
    (today's evaluate) or of e(z) or e(-z) (the original tables), and it
    bounds the number of +-r pairs a row adds to the phase sum; A = 2 pi
    max (n |tau1| + |r| |z|) over the stored terms is the size of the
    largest exponent, whose rounding the oracle shares, and it also covers
    the phase e(r Re z) and the sum over the stored rows; 4 covers the
    rounding of a coefficient, an exponential and the products by them, on
    either side."""
    terms = schoolbook.evaluate_terms(phi, tau1, z)
    want = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
    width = max((max(row) - min(row) + 1 for row in phi.num.values()), default=0)
    size = 2 * math.pi * max((n * abs(tau1) + abs(r) * abs(z) for n, row in phi.num.items() for r in row), default=0)
    return want, 4 * (width + size + 4) * 2**-53 * math.fsum(map(abs, terms))


def assert_meets_oracle_bound(phi, tau1, z):
    """evaluate and the old table evaluation, schoolbook.evaluate, both lie
    within the oracle's bound."""
    want, bound = oracle(phi, tau1, z)
    for value in (evaluate(phi, tau1, z), schoolbook.evaluate(phi, tau1, z)):
        assert abs(value - want) <= bound, (phi.m, tau1, z, abs(value - want), bound)


@given(signed_form(), st.lists(point, min_size=1, max_size=3))
@example(JacobiFormQExp.zero(4, 1, 5), [(1j, 0.3j)])
def test_evaluate_matches_schoolbook(phi, points):
    # the second and third points read the cached rows
    for tau1, z in points:
        assert_meets_oracle_bound(phi, tau1, z)


def same_bits(a: complex, b: complex) -> bool:
    return struct.pack("<dd", a.real, a.imag) == struct.pack("<dd", b.real, b.imag)


def line_mates(points, draw):
    """points, then for some of them a point on the same line (same tau1 and
    Im z, another Re z) and the mirror point -z."""
    mates = [(t, complex(draw(st.floats(-1, 1)), z.imag)) for t, z in points if draw(st.booleans())]
    return points + mates + [(t, -z) for t, z in points if draw(st.booleans())]


@given(st.lists(signed_form(), min_size=1, max_size=3), st.lists(point, min_size=1, max_size=3), st.data())
@example([JacobiFormQExp.zero(4, 1, 5), JacobiFormQExp(4, 1, 2, {(1, 0): 1, (1, 6): 2})], [(1j, 0.3j)], None)
def test_evaluate_points_matches_one_point_calls_and_the_oracle(phis, points, data):
    # one call for every form and point: the shared lines and phase tables
    # change no bit of a value, and each value meets the oracle's bound
    if data is not None:
        points = line_mates(points, data.draw)
    values = jacobi.evaluate_points(phis, points)
    assert len(values) == len(points)
    for (tau1, z), row in zip(points, values):
        assert len(row) == len(phis)
        for phi, value in zip(phis, row):
            assert same_bits(value, evaluate(phi, tau1, z))
            want, bound = oracle(phi, tau1, z)
            assert abs(value - want) <= bound, (phi.m, tau1, z, abs(value - want), bound)


@st.composite
def symmetric_form(draw):
    """A form of index 1-3 with c(n, r) = c(n, -r), from a signed one."""
    phi = draw(jacobi_form(draw(st.integers(1, 3)), st.one_of(mixed_den, fracs, small), 8))
    return JacobiFormQExp(phi.k, phi.m, phi.prec, {(n, s * r): c for (n, r), c in phi.coeffs.items() for s in (1, -1)})


@given(symmetric_form(), st.lists(point, min_size=1, max_size=3))
@example(JacobiFormQExp(4, 1, 3, {(1, -2): 1, (1, 2): 1, (2, 0): 3, (2, -6): 5, (2, 6): 5}), [(1j, 0.2 + 0.1j), (1j, -0.3j), (0.5 + 1j, 0.4)])
def test_evaluate_is_mirror_symmetric_bit_for_bit(phi, points):
    # c(n, r) = c(n, -r): phi(tau1, -z) = phi(tau1, z), and the two values share every bit,
    # whether the mirror point comes in the same call or alone
    mirrored = [(t, -z) for t, z in points]
    both = jacobi.evaluate_points([phi], points + mirrored)
    for (tau1, z), (a,), (b,) in zip(points, both, both[len(points):]):
        assert same_bits(a, b)
        assert same_bits(a, evaluate(phi, tau1, -z)), (tau1, z)


# certify's default tau1 at the torsion point (2, 1, 0), then the 25 (tau1, z) of the criterion-6 box
_LO = -0.2 / math.sqrt(2)
LIFT_POINTS = [(1j, 0.5j)] + [(1j, complex(_LO - _LO * i / 2, _LO - _LO * j / 2)) for i in range(5) for j in range(5)]


@pytest.mark.parametrize("series", ["lift40", "lift10_40 squared"])
def test_evaluate_matches_schoolbook_on_lift_slices(series, lift40, lift10_40):
    # lift40 is taken at certify's point and the box's diagonal only, to keep the oracles cheap
    f = lift40[0] if series == "lift40" else lift10_40[0].multiply(lift10_40[0])
    points = LIFT_POINTS[:1] + LIFT_POINTS[1::6] if series == "lift40" else LIFT_POINTS
    for phi in f.phis:
        for tau1, z in points:
            assert_meets_oracle_bound(phi, tau1, z)


@pytest.mark.parametrize("series", ["lift10_40", "lift10_40 squared"])
def test_slice_values_on_the_box_are_mirror_symmetric_and_match_evaluate(series, lift10_40):
    # one call for the 25 box points and their mirrors -z gives each slice
    # the value evaluate gives alone, and the same bits at z and -z
    f = lift10_40[0] if series == "lift10_40" else lift10_40[0].multiply(lift10_40[0])
    points = LIFT_POINTS[1:]
    values = jacobi.evaluate_points(f.phis, points + [(t, -z) for t, z in points])
    for (tau1, z), row, mirror in zip(points, values, values[len(points):]):
        for m, phi in enumerate(f.phis):
            assert same_bits(row[m], mirror[m]) and same_bits(row[m], evaluate(phi, tau1, z)), (m, z)


# sha256 of the little-endian (real, imag) doubles of every slice value at the 25 box points
# and then their mirrors -z, in the order of one evaluate_points call
BOX_VALUES_SHA256 = {
    "lift10_40": "03f08c4369a37dfe3e05675552e56cc4cd16004e3cac54178bae84ea21d175cd",
    "lift10_40 squared": "45230a07e30548f436b998c2f67a9d89741aaaa5dd2e49e1013d4402a02dc432",
}


@pytest.mark.parametrize("series", sorted(BOX_VALUES_SHA256))
def test_slice_values_on_the_box_keep_their_bits(series, lift10_40):
    # the values bound-report sums on the criterion-6 box, pinned bit for bit
    f = lift10_40[0] if series == "lift10_40" else lift10_40[0].multiply(lift10_40[0])
    points = LIFT_POINTS[1:]
    values = jacobi.evaluate_points(f.phis, points + [(t, -z) for t, z in points])
    data = b"".join(struct.pack("<dd", v.real, v.imag) for row in values for v in row)
    assert len(values) == 50 and hashlib.sha256(data).hexdigest() == BOX_VALUES_SHA256[series]


def test_evaluate_where_the_old_tables_overflow():
    # e(-z)^120 = e^716 overflows a double, but no term exceeds e^340: the
    # row is summed from r = -120, its largest factor
    phi = JacobiFormQExp(4, 60, 61, {(60, r): 1 + r % 7 for r in range(-120, 121)})
    with pytest.raises(ValueError, match="a term overflows"):
        schoolbook.evaluate(phi, 1j, 0.95j)
    want, bound = oracle(phi, 1j, 0.95j)
    assert math.isfinite(abs(want)) and abs(want) > 1e140
    assert abs(evaluate(phi, 1j, 0.95j) - want) <= bound


def float_rows_alone(phi):
    """phi.float_terms over a table of its own, as a call that holds phi alone builds them."""
    return phi.float_terms(jacobi._Table(jacobi._floats_over))


def test_float_terms_cost_few_bytes_per_term(lift40):
    # per r of a row's span: one slot in the row's dense list, and one float unless c(n, r) = 0
    f, _ = lift40
    tracemalloc.start()
    try:
        kept = [float_rows_alone(phi) for phi in f.phis]
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len({id(cs) for _, rows in kept for _, _, cs in rows}) == 1560
    assert size <= 60 * sum(len(phi.coeffs) for phi in f.phis)


def test_evaluate_points_builds_one_float_row_per_distinct_row(lift40, monkeypatch):
    # slices that share a row object and a den share one array for it, with
    # the values and the bits of arrays built slice by slice
    f, _ = lift40
    points = LIFT_POINTS[:1] + LIFT_POINTS[1::6]
    want = [[evaluate(phi, tau1, z) for phi in f.phis] for tau1, z in points]
    lines, line = [], jacobi._line
    monkeypatch.setattr(jacobi, "_line", lambda rows, *rest: lines.append(rows) or line(rows, *rest))
    got = jacobi.evaluate_points(f.phis, points)
    assert all(same_bits(a, b) for got_row, want_row in zip(got, want) for a, b in zip(got_row, want_row))
    alone = [rows for _, rows in map(float_rows_alone, f.phis) if rows]
    shared = lines[: len(alone)]
    assert shared == alone and {id(rows) for rows in lines} == {id(rows) for rows in shared}
    arrays = {id(cs) for rows in shared for _, _, cs in rows}
    pairs = {(id(row), phi.den) for phi in f.phis for row in phi.num.values()}
    assert len(arrays) == len(pairs) == 1006
    assert len({id(cs) for rows in alone for _, _, cs in rows}) == 1560


def test_table_looks_rows_up_by_identity_and_holds_them():
    # each row below is dropped by its caller after one lookup; the table holds
    # it, so a later row cannot take its id and be given its value
    table = jacobi._Table(lambda row: tuple(row.items()))
    for v in range(100):
        assert table.of({0: v}) == ((0, v),)
    row = {1: 2}
    assert table.of(row) is table.of(row) and len(table) == 101


def test_a_row_shared_across_denominators_is_read_over_each():
    # one row object over den 1, 2 and 3: each den gets its own products and float rows
    row = {-1: 3, 0: -5, 1: 3}
    phis = [JacobiFormQExp._stored(4, 1, 3, den, {2: row}) for den in (1, 2, 3)]
    den, rows = jacobi._common_rows(phis)
    assert den == 6 and [s[2] for s in rows] == [{r: v * 6 // d for r, v in row.items()} for d in (1, 2, 3)]
    values = jacobi.evaluate_points(phis, LIFT_POINTS[:2])
    alone = [[evaluate(phi, tau1, z) for phi in phis] for tau1, z in LIFT_POINTS[:2]]
    assert all(same_bits(a, b) for got, want in zip(values, alone) for a, b in zip(got, want))
    assert values[0][0] != values[0][1] != values[0][2]


@pytest.mark.parametrize("prec", [1, 2, 7, 60, 301])
def test_jacobi_space_matches_schoolbook_construction(prec):
    # weights to 60 reach blocks of 6 monomials; at high precision they cost too much
    for k in range(4, 61 if prec <= 7 else 33, 2):
        for cusp in (False, True):
            assert jacobi_space(k, cusp, prec) == schoolbook.jacobi_space(k, cusp, prec), (k, cusp)


@pytest.mark.parametrize("prec", [1, 2, 3, 7, 60, 217, 1561])
def test_cusp_components_match_division_by_p6(prec):
    # the cusp basis is q P18 times numerator sums; the oracle divides the sums by P6.
    # 217 and 1561 are the box-cert and lift-deep generator precisions, with cusp
    # dimension 1, 1, 2 and 3 at weights 10, 12, 16 and 22
    weights = range(4, 61, 2) if prec <= 7 else range(4, 33, 2) if prec == 60 else (10, 12, 16, 22)
    for k in weights:
        assert list(jacobi._space_components(k, True, prec)) == schoolbook.space_components(k, True, prec), k


@pytest.mark.parametrize("cusp", [False, True])
def test_jacobi_space_builds_no_fraction(monkeypatch, cusp):
    # the index-one construction is integer throughout: each form's lead becomes its denominator
    want = [schoolbook.jacobi_space(k, cusp, 9) for k in range(4, 41, 2)]
    monkeypatch.setattr(jacobi, "Fraction", None)
    assert [jacobi_space(k, cusp, 9) for k in range(4, 41, 2)] == want


@st.composite
def torsion_cases(draw):
    """A slice and a torsion point: lambda = a / N of either sign or 0, rows
    empty, sparse or dense over |r| <= 2 sqrt(n m), or reaching past it when
    the slice is not holomorphic, so that rows lie wholly beyond the
    certified precision, straddle it, or hold negative exponents."""
    N = draw(st.integers(1, 4))
    a, c = draw(st.integers(-2 * N, 2 * N)), draw(st.integers(0, N))
    m, prec = draw(st.integers(0, 5)), draw(st.integers(0, 9))
    extra = 0 if m == 0 or draw(st.booleans()) else draw(st.integers(1, 3))
    values = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    coeffs = {}
    for n in range(prec):
        reach = math.isqrt(4 * n * m) + extra if m else 0
        kind = draw(st.sampled_from(["empty", "sparse", "dense"]))
        rs = range(-reach, reach + 1)
        if kind == "sparse":
            rs = draw(st.lists(st.sampled_from(rs), max_size=4))
        if kind != "empty":
            coeffs.update(((n, r), v) for r, v in zip(rs, draw(st.lists(values, min_size=len(rs), max_size=len(rs)))))
    return JacobiFormQExp(10, m, prec, coeffs), TorsionPoint(N, a, c)


@settings(max_examples=300)
@given(torsion_cases())
# smallest exponents -1 and 0 (times L = 1): (n, r, m) = (0, -2, 1) and (0, -1, 1) at lambda = 1
@example((JacobiFormQExp(10, 1, 2, {(0, -2): 1, (1, 0): 1}), TorsionPoint(1, 1, 0)))
@example((JacobiFormQExp(10, 1, 2, {(0, -1): 1, (1, 0): 1}), TorsionPoint(1, 1, 0)))
def test_specialize_torsion_matches_the_term_by_term_loop(case):
    # the same expansion, coefficients in the same order, or the same refusal
    phi, p = case
    try:
        want = schoolbook.specialize_torsion(phi, p)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            specialize_torsion(phi, p)
        return
    got = specialize_torsion(phi, p)
    assert got == want
    assert (got.level, got.prec, got.den, got.coeffs) == (want.level, want.prec, want.den, want.coeffs)
    assert list(got.coeffs) == list(want.coeffs)


@pytest.mark.parametrize("point", [(1, 0, 0), (2, 1, 0), (2, -1, 1), (3, 2, 1), (4, -3, 2)])
def test_specialize_torsion_matches_the_term_by_term_loop_on_a_lift(lift40, point):
    f, _ = lift40
    p = TorsionPoint(*point)
    for phi in f.phis[1:]:
        got, want = specialize_torsion(phi, p), schoolbook.specialize_torsion(phi, p)
        assert got == want and list(got.coeffs) == list(want.coeffs)


@given(
    st.sampled_from([(1, 0, 0), (2, 1, 0), (2, 1, 1), (3, 1, 2), (4, 3, 1)]),
    st.lists(st.fractions(min_value=0, max_value=24, max_denominator=40), max_size=20),
)
def test_window_abs_matches_the_fraction_path(phi10, point, window):
    # the same floats, and the same refusal at or beyond the specialized precision
    eta = specialize_torsion(phi10, TorsionPoint(*point))
    window = window + [SymMatQ([[x]]) for x in window[:3]] + [eta.prec]
    for S in (window[:-1], window):
        try:
            want = schoolbook.window_abs(eta, S)
        except PrecisionError as exc:
            with pytest.raises(PrecisionError, match=re.escape(str(exc))):
                jacobi.window_abs(eta, S)
        else:
            assert jacobi.window_abs(eta, S) == want
