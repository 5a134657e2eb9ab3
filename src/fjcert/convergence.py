"""Numerical certification of the analytic behavior of formal
Fourier-Jacobi series at and near rational torsion points.

Everything here is sampled, not proved: growth exponents come from
least-squares fits of FE-norms, suprema over compact boxes are taken over
deterministic tensor grids, and convergence is audited through Cauchy gaps
and term decay of truncated sums.  Each check returns a
:class:`ConvergenceReport` carrying its verdict, the witnessing numbers,
and the tolerances used, so failures are reproducible from the report
alone.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, islice, repeat
from operator import add, mul
from statistics import linear_regression

from .core import PrecisionError, rat_str
# evaluate_partial, evaluate and fe_norm are not called here: bench/spans.py traces calls under these names
from .fjseries import FormalFJ, PolynomialOverM, evaluate_partial, poly_eval, q2_sum, rho, siegel_point, slice_values  # noqa: F401
from .jacobi import TorsionPoint, check_point, evaluate, fe_norm, window_abs  # noqa: F401
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


@dataclass(frozen=True)
class BoundConfig:
    """Knobs for the sampled bounds: the coefficient-determination constant
    b, the slack allowed on fitted exponents, and the enumeration cap, which
    counts the candidates enumerate_S examines (not the matrices it keeps)."""

    b: Fraction = Fraction(1)
    slack: float = 0.5
    caps: int = 10**6

    def __post_init__(self):
        object.__setattr__(self, "b", Fraction(self.b))
        if self.b <= 0:
            raise ValueError("b must be positive")
        if not 0 <= self.slack < math.inf:
            raise ValueError("slack must be finite and nonnegative")
        if self.caps < 1:
            raise ValueError("caps must be at least 1")


@dataclass(frozen=True)
class CompactBoxSpec:
    """Finite sample U of (tau1, z) pairs plus the box parameter eps."""

    U: tuple
    eps: float

    def __post_init__(self):
        if not 0 < self.eps < 1:
            raise ValueError("eps must lie in (0, 1)")
        pts = tuple((complex(t), complex(z)) for t, z in self.U)
        if not pts:
            raise ValueError("U must hold at least one point")
        for t, z in pts:
            check_point(t, z)
        object.__setattr__(self, "U", pts)

    def to_record(self):
        return {"eps": self.eps, "U": [[_cplx_str(t), _cplx_str(z)] for t, z in self.U]}

    @classmethod
    def from_record(cls, rec) -> "CompactBoxSpec":
        return cls(tuple(rec["U"]), float(rec["eps"]))


def _cplx_str(x: complex) -> str:
    return repr(complex(x))[1:-1] if repr(complex(x)).startswith("(") else repr(complex(x))


@dataclass
class ConvergenceReport:
    """Outcome of one certification check.

    verdict is one of pass, degenerate-pass, fail, hypothesis-failure.
    witnesses carry the numbers behind the verdict; series holds named
    (header, rows) tables for CSV export.  sampled names the witnesses that
    are samples rather than proved values, each with what was sampled; the
    text report and the record carry it when it is not empty.
    """

    criterion: str
    paper_ref: str
    verdict: str
    witnesses: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)
    sampled: dict = field(default_factory=dict)

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


def pointwise_convergence_check(
    f: FormalFJ,
    p: TorsionPoint,
    tau1: complex,
    theta: float,
    M: int,
) -> ConvergenceReport:
    """Audit absolute convergence at |q2| = theta exp(-2 pi C).

    Checks the Cauchy gap |S_2M - S_M| of the absolute partial sums and
    that term magnitudes are nonincreasing from some index at or below M.
    """
    if not f.is_cuspidal():
        raise ValueError("input series must be cuspidal")
    if not 0 < theta < 1:
        raise ValueError("theta must lie in (0, 1)")
    if 2 * M > f.M_max:
        raise PrecisionError("need slices up to 2M = %d, have M_max = %d" % (2 * M, f.M_max))
    if M < 1:
        raise ValueError("M must be positive")
    tau1 = complex(tau1)
    c_val = c_constant(tau1, p)
    radius = math.exp(-2 * math.pi * c_val)
    q2_abs = theta * radius
    z = p.z_at(tau1)
    terms = [abs(v) * q2_abs**m for m, v in enumerate(slice_values(f, [(tau1, z)], 2 * M)[0])]
    sums = list(accumulate(terms[1:], add, initial=0.0))
    s_m, s_2m = sums[M], sums[2 * M]
    gap = s_2m - s_m
    tol = POINTWISE_RTOL * max(1.0, s_m)
    cauchy_ok = gap < tol
    # first index from which the term sequence never increases
    tail_start = 2 * M
    for m in range(2 * M - 1, 0, -1):
        if terms[m + 1] <= terms[m] * (1 + 1e-12):
            tail_start = m
        else:
            break
    decreasing_ok = tail_start <= M
    verdict = "pass" if (cauchy_ok and decreasing_ok) else "fail"
    witnesses = {
        "C": c_val,
        "disc_radius": radius,
        "q2_abs": q2_abs,
        "S_M": s_m,
        "S_2M": s_2m,
        "cauchy_gap": gap,
        "tail_start": tail_start,
        "M": M,
    }
    if not cauchy_ok:
        witnesses["cauchy_witness"] = "gap %.6g exceeds tolerance %.6g" % (gap, tol)
    if not decreasing_ok:
        witnesses["decay_witness"] = "terms still increasing at index %d > M" % tail_start
    series = {"partial_sums": (["M", "partial_sum"], [[m, sums[m]] for m in range(1, 2 * M + 1)])}
    return ConvergenceReport(
        "pointwise-convergence",
        "the series converges absolutely at the torsion point on the disc |q2| < exp(-2 pi C)",
        verdict,
        witnesses,
        {"rtol": POINTWISE_RTOL, "theta": theta},
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
    one slice_values call per nonzero a_i evaluates it at every distinct
    (tau1, z) of the grid."""
    if not q.is_monic():
        raise ValueError("polynomial must be monic")
    taus = [siegel_point(tau) for tau in grid]
    if not taus:
        raise ValueError("empty sample grid")
    where = list(dict.fromkeys((t1, z) for t1, z, _ in taus))
    values = [dict(zip(where, slice_values(a, where, a.M_max))) for a in q.coeffs[:-1] if not a.is_zero()]
    best = 0.0
    for t1, z, t2 in taus:
        total = 1.0
        for vals in values:
            total += abs(q2_sum(vals[t1, z], t2))
        best = max(best, total)
    return best


def _is_near_torsion(tau1: complex, z: complex, n_cap: int = 16, tol: float = 1e-9) -> bool:
    return _torsion_search(tau1, z, tol, n_cap) is not None


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
    per_point = {p: (vals, _is_near_torsion(*p)) for p, vals in zip(where, slice_values(f, where, mtop))}
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
