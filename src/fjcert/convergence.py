"""Numerical certification of the analytic behavior of formal
Fourier-Jacobi series at and near rational torsion points.

Everything here is sampled, not proved: growth exponents come from
least-squares fits of FE-norms, suprema over compact boxes are taken over
deterministic tensor grids, and convergence is audited through Cauchy gaps
and term decay of truncated sums.  Each check returns a
:class:`ConvergenceReport` carrying its verdict, the witnessing numbers,
and the tolerances used, so failures are reproducible from the report
alone.

The pointwise terms |eta_m(tau1)| theta^m are summed from the exact
weights of the torsion specializations that growth_fit also reads, in
decimal at POINTWISE_DIGITS digits, each with a rounding radius: a term
whose radius is not small against it is summed again at more digits, and
one that stays unresolved is counted at value + radius and named in the
report.  No slice is evaluated in floats for this check; evaluate_points
serves only the compact-box sums.
"""

from __future__ import annotations

import cmath
import math
import sys
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, DivisionByZero, InvalidOperation, Overflow, Underflow, getcontext, localcontext
from fractions import Fraction
from itertools import accumulate, islice, repeat
from operator import add, mul

from .core import PrecisionError, _read_int, _Record, rat_str
# evaluate_partial, evaluate and fe_norm are not called here: bench/spans.py traces calls under these names
from .fjseries import FormalFJ, PolynomialOverM, evaluate_partial, poly_eval, q2_sum, rho, siegel_point  # noqa: F401
from .jacobi import TorsionPoint, check_point, evaluate, evaluate_points, fe_norm, window_abs  # noqa: F401
from .reduction import CapacityError

__all__ = [
    "BoundConfig",
    "CompactBoxSpec",
    "ConvergenceReport",
    "write_csv",
    "c_constant",
    "c_constant_exact",
    "rho",
    "growth_fit",
    "pointwise_convergence_check",
    "k_eps_grid",
    "d_eps",
    "partial_sum_bound_check",
]


# most points that k_eps_grid samples
GRID_CAP = 10**6
# relative tolerance of the Cauchy gap in pointwise_convergence_check
POINTWISE_RTOL = 1e-8
# pointwise_convergence_check sums its terms in decimal at POINTWISE_DIGITS
# significant digits; a term whose rounding radius exceeds TERM_RTOL of it is
# summed again at twice the digits, at most POINTWISE_DOUBLINGS times.  pi,
# exp, cos and sin are taken at GUARD_DIGITS more digits
POINTWISE_DIGITS = 40
POINTWISE_DOUBLINGS = 3
TERM_RTOL = Decimal(2.0**-53)
GUARD_DIGITS = 5
# partial_sum_bound_check counts a box point as torsion when a torsion point
# of order at most TORSION_N_CAP lies within TORSION_TOL of it
TORSION_N_CAP = 16
TORSION_TOL = 1e-9


class BoundConfig(_Record):
    """Knobs for the sampled bounds: the coefficient-determination constant
    b, the slack allowed on fitted exponents, and the enumeration cap, which
    counts the candidates enumerate_S examines (not the matrices it keeps)."""

    __slots__ = ("b", "slack", "caps")

    def __init__(self, b: Fraction = Fraction(1), slack: float = 0.5, caps: int = 10**6):
        try:
            b = Fraction(b)
        except (OverflowError, ZeroDivisionError):  # b = inf, b = "1/0"
            raise ValueError("b must be a finite rational, got %r" % (b,)) from None
        if b <= 0:
            raise ValueError("b must be positive")
        if not 0 <= slack < math.inf:
            raise ValueError("slack must be finite and nonnegative")
        if (caps := _read_int(caps)) < 1:
            raise ValueError("caps must be at least 1")
        _Record.__init__(self, b, slack, caps)


class CompactBoxSpec(_Record):
    """Finite sample U of (tau1, z) pairs plus the box parameter eps."""

    __slots__ = ("U", "eps")

    def __init__(self, U: tuple, eps: float):
        if not 0 < eps < 1:
            raise ValueError("eps must lie in (0, 1)")
        pts = tuple((complex(t), complex(z)) for t, z in U)
        if not pts:
            raise ValueError("U must hold at least one point")
        for t, z in pts:
            check_point(t, z)
        _Record.__init__(self, pts, eps)


def _cplx_str(x: complex) -> str:
    return repr(complex(x))[1:-1] if repr(complex(x)).startswith("(") else repr(complex(x))


class ConvergenceReport(_Record):
    """Outcome of one certification check.

    verdict is one of pass, degenerate-pass, fail, hypothesis-failure.
    witnesses carry the numbers behind the verdict; series holds named
    (header, rows) tables for CSV export.  sampled names the witnesses that
    are samples rather than proved values, each with what was sampled; the
    text report and the record carry it when it is not empty.  Each of the
    four dicts left out is a fresh {}.
    """

    __slots__ = ("criterion", "paper_ref", "verdict", "witnesses", "tolerances", "series", "sampled")
    __hash__, __setattr__, __delattr__ = None, object.__setattr__, object.__delattr__  # mutable, so unhashable

    def __init__(self, criterion: str, paper_ref: str, verdict: str, witnesses=None, tolerances=None, series=None, sampled=None):
        _Record.__init__(self, criterion, paper_ref, verdict, *({} if d is None else d for d in (witnesses, tolerances, series, sampled)))

    @property
    def passed(self) -> bool:
        return self.verdict in ("pass", "degenerate-pass")

    def to_record(self):
        rec = {
            "criterion": self.criterion,
            "paper_ref": self.paper_ref,
            "verdict": self.verdict,
            "witnesses": {k: _plain(v) for k, v in self.witnesses.items()},
            "tolerances": {k: _plain(v) for k, v in self.tolerances.items()},
            "series": {k: {"header": h, "rows": [[_plain(x) for x in row] for row in rows]} for k, (h, rows) in self.series.items()},
        }
        if self.sampled:
            rec["sampled"] = dict(self.sampled)
        return rec

    def to_text(self) -> str:
        lines = [
            "criterion: %s" % self.criterion,
            "paper_ref: %s" % self.paper_ref,
            "verdict: %s" % self.verdict,
            "witnesses:",
        ]
        for key in sorted(self.witnesses):
            lines.append("  %s = %s" % (key, _plain(self.witnesses[key])))
        lines.append("tolerances:")
        for key in sorted(self.tolerances):
            lines.append("  %s = %s" % (key, _plain(self.tolerances[key])))
        if self.sampled:
            lines.append("sampled:")
            lines.extend("  %s: %s" % (key, self.sampled[key]) for key in sorted(self.sampled))
        for name, (header, rows) in self.series.items():
            lines.append("%s: %d rows (%s)" % (name, len(rows), ", ".join(header)))
        return "\n".join(lines) + "\n"


def _plain(v):
    if isinstance(v, Fraction):
        return rat_str(v)
    if isinstance(v, complex):
        return _cplx_str(v)
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    return v


def write_csv(path, header, rows):
    import csv  # imported here, as growth_fit imports statistics: no other function needs it

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_plain(x) for x in row])


# ---------------------------------------------------------------------------
# geometry of the Siegel variables


def c_constant_exact(im_tau1: Fraction, p: TorsionPoint) -> Fraction:
    """Exact disc constant C = lambda^2 Im(tau1) at a torsion point."""
    if p.genus_minus_one != 1:
        raise ValueError("unsupported genus")
    lam = p.lam_frac()
    return lam * lam * Fraction(im_tau1)


def c_constant(tau1: complex, p: TorsionPoint) -> float:
    """Disc constant C = (Im z)^T (Im tau1)^(-1) (Im z) = lambda^2 Im(tau1)
    at the torsion point z = tau1 lambda + mu; |q2| < exp(-2 pi C) is the
    certified disc."""
    return float(c_constant_exact(Fraction(complex(tau1).imag), p))


def _torsion_search(tau1: complex, z: complex, tol: float, n_cap: int):
    """Torsion point of smallest N <= n_cap with |tau1 lambda + mu - z| < tol,
    or None.  For each N the numerators round N times the real coordinates of
    z in the lattice basis (tau1, 1)."""
    lam_star = z.imag / tau1.imag
    mu_star = z.real - tau1.real * lam_star
    for n in range(1, n_cap + 1):
        a = round(n * lam_star)
        c = round(n * mu_star)
        if abs(tau1 * (a / n) + (c / n) - z) < tol:
            return TorsionPoint(n, (a,), (c,))
    return None


# ---------------------------------------------------------------------------
# growth of specialized slices


def growth_fit(etas, k: int, g: int, S, cfg: BoundConfig) -> ConvergenceReport:
    """Fit the FE-norm growth of eta_m against m^(k + (g-1)/2).

    etas lists the specializations for m = 1..M in order.  Passes when the
    fitted log-log slope stays below k + (g-1)/2 + slack.  All-zero norms
    give a degenerate pass (nothing to fit).
    """
    etas = list(etas)
    m_count = len(etas)
    if m_count < 8:
        raise ValueError("need at least 8 slices to fit growth")
    exponent = k + (g - 1) / 2.0
    threshold = exponent + cfg.slack
    claim = (
        "FE-norms of torsion specializations grow at most like "
        "m^(k + (g-1)/2) = m^%.1f up to a constant" % exponent
    )
    S = list(S)
    norms = []
    ratio_max = 0.0
    for m, eta in enumerate(etas, 1):
        vals = window_abs(eta, S)
        norms.append((m, math.fsum(vals)))
        ratio_max = max(ratio_max, max(vals, default=0.0) / m**exponent)
    pts = [(math.log(m), math.log(norm)) for m, norm in norms if norm > 0]
    witnesses = {"b": cfg.b, "ratio_max": ratio_max, "nonzero_points": len(pts), "window_size": len(S)}
    verdict = "degenerate-pass"
    sampled = {}
    if len(pts) >= 2:
        from statistics import linear_regression

        fit = linear_regression([x for x, _ in pts], [y for _, y in pts])
        witnesses.update(slope=fit.slope, intercept=fit.intercept)
        verdict = "pass" if fit.slope <= threshold else "fail"
        sampled["slope"] = (
            "least-squares fit of log FE-norm on log m over the %d slices m <= %d with a nonzero norm on the window, "
            "not a bound on the growth" % (len(pts), m_count)
        )
    tolerances = {"slack": cfg.slack, "threshold": threshold}
    series = {"fe_norms": (["m", "fe_norm"], [[m, norm] for m, norm in norms])}
    return ConvergenceReport("growth-bound", claim, verdict, witnesses, tolerances, series, sampled)


# ---------------------------------------------------------------------------
# pointwise convergence on the torsion disc


def _context(digits: int) -> Context:
    """A decimal context of `digits` digits over the widest exponent range,
    trapping underflow and overflow."""
    return Context(prec=digits, Emin=MIN_EMIN, Emax=MAX_EMAX, traps=[InvalidOperation, DivisionByZero, Overflow, Underflow])


def _pi() -> Decimal:
    """pi to the precision of the current decimal context (the series of
    the recipes in the decimal module's documentation)."""
    getcontext().prec += 2
    lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    getcontext().prec -= 2
    return +s


def _cos_sin(x: Decimal) -> tuple:
    """(cos x, sin x) to the precision of the current decimal context, by
    the Taylor series of the same recipes; |x| <= pi keeps them short."""
    getcontext().prec += 2
    i, lasts, c, s, num, fact, sign = 1, None, Decimal(1), x, x, 1, 1
    while (c, s) != lasts:
        lasts = c, s
        sign = -sign
        i += 1
        num *= x
        fact *= i
        c += sign * num / fact
        i += 1
        num *= x
        fact *= i
        s += sign * num / fact
    getcontext().prec -= 2
    return +c, +s


_QUARTERS = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _turn(t: Fraction, pi: Decimal) -> tuple:
    """(cos 2 pi t, sin 2 pi t): exact ints at the quarter turns, Decimals
    of the current context otherwise."""
    if (4 * t).denominator == 1:
        return _QUARTERS[int(4 * t) % 4]
    t -= round(t)
    return _cos_sin(2 * pi * t.numerator / t.denominator)


def _decimal_terms(pairs, tau1: complex, theta: float, digits: int) -> list:
    """[(|eta_m(tau1)| theta^m, radius) for m, eta_m in pairs], Decimals
    summed at `digits` significant digits.

    eta_m(tau1) = (1/den) sum_e sum_j w_(e,j) e(j/L) e(e tau1/L).  The
    roots e(j/L) and the powers of e(tau1/L) are made once per call, from
    pi, exp, cos and sin at GUARD_DIGITS more digits, plus one for each
    digit of the exp argument's integer part, so that argument's rounding
    stays a few 10^-GUARD_DIGITS of an ulp; every float input is exact as a
    Decimal.  The radius bounds the rounding of the sum: it is
    n 10^(1 - digits) A theta^m, where A is the same sum over absolute
    values and n = 4 (e_max + 2) + 2 K + 8 counts the rounded operations
    behind one summand: four for each multiplication that builds its power
    (e_max the largest exponent of eta_m), two per weight for the
    coefficient and the sum (K the number of weights), and eight for the
    root, den, theta^m and the modulus.  The exponent range
    is the largest decimal allows; a value that still underflows or
    overflows it raises ValueError, so no term is a silent zero.
    """
    pairs = list(pairs)
    L = pairs[0][1].level if pairs else 1
    top = max((e for _, eta in pairs for e in eta.coeffs), default=0)
    # the exp argument -2 pi Im(tau1) / L < 10^wide carries its rounding
    # into every power of e(tau1 / L), so it gets wide more digits
    wide = max(0, Decimal(tau1.imag).adjusted() + 2)
    ctx = _context(digits + GUARD_DIGITS + wide)
    try:
        with localcontext(ctx):
            pi = _pi()
            roots = [_turn(Fraction(j, L), pi) for j in range(L)]
            step = _turn(Fraction(tau1.real) / L, pi)
            mod = (-2 * pi * Decimal(tau1.imag) / L).exp()
            ctx.prec = digits
            roots = [(+a, +b) for a, b in roots]
            mod = +mod
            mods = list(accumulate(repeat(mod, top), mul, initial=Decimal(1)))
            xr, xi = mod * step[0], mod * step[1]
            powers = [(mods[0], 0)]
            for _ in range(top):
                a, b = powers[-1]
                powers.append((a * xr - b * xi, a * xi + b * xr))
            ulp = Decimal(10) ** (1 - digits)
            out = []
            for m, eta in pairs:
                tr = ti = big = Decimal(0)
                count = 0
                for e, w in eta.coeffs.items():
                    cr = ci = 0
                    for j, v in w.items():
                        a, b = roots[j]
                        cr += v * a
                        ci += v * b
                    a, b = powers[e]
                    tr += cr * a - ci * b
                    ti += cr * b + ci * a
                    big += sum(map(abs, w.values())) * mods[e]
                    count += len(w)
                scale = Decimal(theta) ** m / eta.den
                n = 4 * (max(eta.coeffs, default=0) + 2) + 2 * count + 8
                out.append(((tr * tr + ti * ti).sqrt() * scale, n * ulp * big * scale))
            return out
    except (Overflow, Underflow):
        raise ValueError("a term leaves the decimal exponent range at tau1 = %r" % tau1) from None


def _resolved_terms(etas, tau1: complex, theta: float):
    """(terms, radii, digits, unresolved): _decimal_terms at POINTWISE_DIGITS,
    each term whose radius exceeds TERM_RTOL of it summed again at twice
    the digits, at most POINTWISE_DOUBLINGS times; unresolved lists the
    indices still above, and digits is the last precision used."""
    terms = [None] * len(etas)
    todo = range(len(etas))
    digits = POINTWISE_DIGITS
    for doubling in range(POINTWISE_DOUBLINGS + 1):
        if doubling:
            digits *= 2
        for i, term in zip(todo, _decimal_terms([(i + 1, etas[i]) for i in todo], tau1, theta, digits)):
            terms[i] = term
        todo = [i for i in todo if terms[i][1] > TERM_RTOL * terms[i][0]]
        if not todo:
            break
    return [t for t, _ in terms], [r for _, r in terms], digits, todo


def pointwise_convergence_check(
    f: FormalFJ,
    etas,
    p: TorsionPoint,
    tau1: complex,
    theta: float,
    M: int,
) -> ConvergenceReport:
    """Audit absolute convergence at |q2| = theta exp(-2 pi C).

    etas lists the specializations eta_m of f at p for m = 1, 2, ... (at
    least up to 2M), as growth_fit takes them.  The term of slice m is
    |phi_m(tau1, z)| |q2|^m = |eta_m(tau1)| theta^m, summed from eta_m's
    exact weights in decimal (see _decimal_terms); f gives only the
    hypotheses, cuspidality and 2M <= M_max.  A term whose rounding radius
    stays above TERM_RTOL of it after the doublings is counted as value +
    radius and named in the witness unresolved_terms.  Checks the Cauchy
    gap |S_2M - S_M| of the absolute partial sums and that the terms are
    nonincreasing from some index at or below M; the sums and that test
    run on the Decimals, and only the witnesses are floats.

    Raises PrecisionError when a slice m <= 2M has certified precision 0
    at p (its term would be an empty sum), and ValueError when tau1 is not
    finite with Im tau1 > 0, when |q2| is below the normal floats or when a
    term leaves decimal's exponent range.
    """
    if not f.is_cuspidal():
        raise ValueError("input series must be cuspidal")
    if not 0 < theta < 1:
        raise ValueError("theta must lie in (0, 1)")
    if 2 * M > f.M_max:
        raise PrecisionError("need slices up to 2M = %d, have M_max = %d" % (2 * M, f.M_max))
    if M < 1:
        raise ValueError("M must be positive")
    etas = list(islice(etas, 2 * M))
    if len(etas) < 2 * M or any(eta.N != p.N for eta in etas):
        raise ValueError("need the specializations at N = %d for m = 1 .. 2M = %d" % (p.N, 2 * M))
    for m, eta in enumerate(etas, 1):
        if not eta.prec:
            raise PrecisionError("slice m = %d has certified precision 0 at the torsion point, so its term would be an empty sum" % m)
    tau1 = complex(tau1)
    check_point(tau1)
    c_val = c_constant(tau1, p)
    radius = math.exp(-2 * math.pi * c_val)
    q2_abs = theta * radius
    if q2_abs < sys.float_info.min:
        raise ValueError("|q2| = theta exp(-2 pi C) at C = %.17g underflows a float" % c_val)
    values, radii, digits, unresolved = _resolved_terms(etas, tau1, theta)
    with localcontext(_context(POINTWISE_DIGITS)):
        terms = [Decimal(0)] + values
        for i in unresolved:
            terms[i + 1] += radii[i]
        sums = list(accumulate(terms[1:], add, initial=Decimal(0)))
        s_m, s_2m = sums[M], sums[2 * M]
        gap = s_2m - s_m
        tol = Decimal(POINTWISE_RTOL) * max(1, s_m)
        cauchy_ok = gap < tol
        # first index from which the term sequence never increases
        tail_start = 2 * M
        slack = 1 + Decimal("1e-12")
        for m in range(2 * M - 1, 0, -1):
            if terms[m + 1] <= terms[m] * slack:
                tail_start = m
            else:
                break
    decreasing_ok = tail_start <= M
    verdict = "pass" if (cauchy_ok and decreasing_ok) else "fail"
    witnesses = {
        "C": c_val,
        "disc_radius": radius,
        "q2_abs": q2_abs,
        "S_M": float(s_m),
        "S_2M": float(s_2m),
        "cauchy_gap": float(gap),
        "tail_start": tail_start,
        "M": M,
        "max_digits": digits,
    }
    if not cauchy_ok:
        witnesses["cauchy_witness"] = "gap %s exceeds tolerance %s" % (format(gap, ".6g"), format(tol, ".6g"))
    if not decreasing_ok:
        witnesses["decay_witness"] = "terms still increasing at index %d > M" % tail_start
    if unresolved:
        witnesses["unresolved_terms"] = "m = %s: radius above 2^-53 of the value at %d digits, counted as value + radius" % (
            ", ".join(str(i + 1) for i in unresolved), digits)
    series = {
        "partial_sums": (["M", "partial_sum"], [[m, float(sums[m])] for m in range(1, 2 * M + 1)]),
        "terms": (["m", "term", "radius"], [[m, format(t, ".16e"), format(r, ".2e")] for m, (t, r) in enumerate(zip(values, radii), 1)]),
    }
    return ConvergenceReport(
        "pointwise-convergence",
        "the series converges absolutely at the torsion point on the disc |q2| < exp(-2 pi C)",
        verdict,
        witnesses,
        {"rtol": POINTWISE_RTOL, "theta": theta, "digits": POINTWISE_DIGITS},
        series,
    )


# ---------------------------------------------------------------------------
# compact boxes and the locally-bounded certificate


def k_eps_grid(box: CompactBoxSpec, eps_scale: float = 1.0, points: int = 5):
    """Deterministic tensor sample of the box: every (tau1, z) in U crossed
    with `points` values of the Schur complement in [eps', 1/eps'] and of
    Re(tau2) in [0, 1), eps' = eps_scale * eps.  Raises CapacityError
    when the grid would hold more than GRID_CAP points."""
    eps = box.eps * eps_scale
    if not 0 < eps < 1:
        raise ValueError("scaled eps leaves (0, 1)")
    if len(box.U) * points * points > GRID_CAP:
        raise CapacityError("a grid of %d x %d^2 points exceeds cap %d" % (len(box.U), points, GRID_CAP))
    grid = []
    for t1, z in box.U:
        base = z.imag * z.imag / t1.imag
        for i in range(points):
            r = eps + (1 / eps - eps) * i / (points - 1) if points > 1 else eps
            for j in range(points):
                re2 = j / points
                t2 = complex(re2, base + r)
                grid.append(((t1, z), (z, t2)))
    return grid


def d_eps(q: PolynomialOverM, box: CompactBoxSpec, grid) -> float:
    """Sampled sup of 1 + sum of |a_i(tau)| over the grid, i < degree;
    one evaluate_points call per nonzero a_i evaluates its slices at every
    distinct (tau1, z) of the grid."""
    if not q.is_monic():
        raise ValueError("polynomial must be monic")
    taus = [siegel_point(tau) for tau in grid]
    if not taus:
        raise ValueError("empty sample grid")
    where = list(dict.fromkeys((t1, z) for t1, z, _ in taus))
    values = [dict(zip(where, evaluate_points(a.phis, where))) for a in q.coeffs[:-1] if not a.is_zero()]
    best = 0.0
    for t1, z, t2 in taus:
        total = 1.0
        for vals in values:
            total += abs(q2_sum(vals[t1, z], t2))
        best = max(best, total)
    return best


def partial_sum_bound_check(
    f: FormalFJ,
    q: PolynomialOverM,
    box: CompactBoxSpec,
    M_list,
    kappa: float = 1.1,
    points: int = 5,
) -> ConvergenceReport:
    """Certify the geometric majorant on the shrunken box.

    For tau sampled in K_{2 eps}(U), every partial sum with M in M_list
    must stay below kappa * D_eps(U) * e^(-2 pi eps) / (1 - e^(-2 pi eps)).
    The sample is k_eps_grid(box, 2.0, points), so eps must lie in
    (0, 1/2), and kappa must be finite and positive.  Monicity of q,
    cuspidality of f, a polynomial step equal to the weight of f, and
    q(f) = 0 are hypotheses; their failure is reported as such, not as a
    bound violation.
    """
    if not 0 < kappa < math.inf:
        raise ValueError("kappa must be finite and positive")
    claim = "partial sums on the shrunken box stay below the geometric majorant"
    tolerances = {"kappa": kappa, "eps": box.eps}
    failed = None
    if not q.is_monic():
        failed = "polynomial is not monic"
    elif not f.is_cuspidal():
        failed = "series is not cuspidal"
    elif q.k != f.k:
        failed = "series weight %d does not match polynomial step %d" % (f.k, q.k)
    elif not poly_eval(q, f).is_zero():
        failed = "q(f) is nonzero to stored precision"
    if failed is not None:
        return ConvergenceReport(
            "partial-sum-bound", claim, "hypothesis-failure", {"failed_precondition": failed}, tolerances
        )
    rows = {}  # M -> largest |partial sum| over the grid; a bad entry fails before the rest is read
    for m in map(int, M_list):
        if not 1 <= m <= f.M_max:
            raise ValueError("M_list entries must lie in [1, M_max]")
        rows[m] = 0.0
    if not rows:
        raise ValueError("M_list is empty")
    grid, d_grid = k_eps_grid(box, 2.0, points), k_eps_grid(box, 1.0, points)
    d_val = d_eps(q, box, d_grid)
    decay = math.exp(-2 * math.pi * box.eps)
    bound = kappa * d_val * decay / (1.0 - decay)
    mtop = max(rows)
    ms = sorted(rows)
    tops = [0.0] * len(ms)  # rows[m] for m in ms
    max_abs = 0.0
    max_abs_torsion = 0.0
    max_abs_other = 0.0
    argmax = None
    taus = [siegel_point(tau) for tau in grid]
    where = list(dict.fromkeys((t1, z) for t1, z, _ in taus))
    torsion = [_torsion_search(t1, z, TORSION_TOL, TORSION_N_CAP) is not None for t1, z in where]
    per_point = dict(zip(where, zip(evaluate_points(f.phis[: mtop + 1], where), torsion)))
    for t1, z, t2 in taus:
        slice_vals, near = per_point[t1, z]
        # |partial sum| for M = 0 .. mtop: the powers of q2 and the sums run in the order of a plain loop
        powers = accumulate(repeat(cmath.exp(2j * math.pi * t2), mtop), mul, initial=1.0 + 0j)
        sums = list(map(abs, accumulate(map(mul, slice_vals[1:], islice(powers, 1, None)), add, initial=0j)))
        picked = list(map(sums.__getitem__, ms))
        tops = list(map(max, tops, picked))
        a = max(picked)
        if a > max_abs:  # the first grid point and the least M of the largest sum keep the argmax
            max_abs = a
            argmax = (ms[picked.index(a)], t1, z, t2)
        if near:
            max_abs_torsion = max(max_abs_torsion, a)
        else:
            max_abs_other = max(max_abs_other, a)
    rows = dict(zip(ms, tops))
    verdict = "pass" if max_abs <= bound else "fail"
    witnesses = {
        "D_eps": d_val,
        "bound": bound,
        "max_partial_sum": max_abs,
        "margin": bound - max_abs,
        "max_on_torsion_subgrid": max_abs_torsion,
        "max_off_torsion": max_abs_other,
        "torsion_subgrid_pass": max_abs_torsion <= bound,
        "grid_size": len(grid),
    }
    if argmax is not None:
        witnesses["argmax"] = "M=%d tau1=%s z=%s tau2=%s" % (argmax[0], _cplx_str(argmax[1]), _cplx_str(argmax[2]), _cplx_str(argmax[3]))
    series = {"partial_sums": (["M", "max_abs_partial_sum"], [[m, rows[m]] for m in sorted(rows)])}
    sampled = {
        "D_eps": "max over the %d points of k_eps_grid(box, 1.0, %d), not the sup over K_eps(U)" % (len(d_grid), points),
        "max_partial_sum": "max over the %d points of k_eps_grid(box, 2.0, %d), not the sup over K_2eps(U)" % (len(grid), points),
    }
    return ConvergenceReport("partial-sum-bound", claim, verdict, witnesses, tolerances, series, sampled)
