"""Batch command line front-end.

Subcommands: gen-lift, check-symmetry, certify, bound-report, reduce.
Flags override config-file entries, which override defaults.  Reports are
always written, even for failing runs, so CI can archive them.

Exit codes are a stable contract:
  0 success / all checks passed
  1 a check failed (violations, bound exceeded, certification failure)
  2 empty cusp space for gen-lift
  3 input file could not be parsed
  4 certify input is not cuspidal
  5 bound-report hypothesis failure (non-monic, nonzero residue)
  6 reduce input is not positive definite
 64 usage error (bad flags or config)
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import lru_cache, partial

from .convergence import (
    BoundConfig,
    CompactBoxSpec,
    growth_fit,
    partial_sum_bound_check,
    pointwise_convergence_check,
    write_csv,
)
from .core import PrecisionError, parse_rat
# gritsenko_lift, jacobi_space and is_positive_definite are not called here:
# bench/spans.py traces calls under these names
from .fjseries import FormalFJ, PolynomialOverM, _lift, check_symmetry, gritsenko_lift  # noqa: F401
from .jacobi import (  # noqa: F401
    JacobiFormQExp,
    TorsionPoint,
    _space_components,
    _Texts,
    certified_precision,
    check_point,
    jacobi_space,
    specialize_torsion,
)
from .reduction import CapacityError, SymMatQ, enumerate_S, is_positive_definite, minkowski_reduce  # noqa: F401

# the bound of hermite_check on the Gram matrix, without its positive
# definiteness test and condition scan, which minkowski_reduce has just
# passed: reduce tests each form once.  bench/spans.py times the Hermite
# step of reduce under this name
from .reduction import _hermite_gram as hermite_check

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, "%s: error: %s\n" % (self.prog, message))


def _parse_complex(s: str) -> complex:
    t = s.strip().lower().replace(" ", "").replace("i", "j")
    if t in ("j", "+j"):
        t = "1j"
    elif t == "-j":
        t = "-1j"
    elif t.endswith("+j"):
        t = t[:-1] + "1j"
    elif t.endswith("-j"):
        t = t[:-2] + "-1j"
    try:
        return complex(t)
    except ValueError:
        raise argparse.ArgumentTypeError("cannot parse complex number %r" % s)


def _parse_torsion(s: str) -> TorsionPoint:
    try:
        parts = [int(x) for x in s.split(",")]
        if len(parts) != 3:
            raise ValueError
        return TorsionPoint(parts[0], (parts[1],), (parts[2],))
    except ValueError:
        raise argparse.ArgumentTypeError("torsion must be N,lam_num,mu_num")


def _read_config(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError("config line without '=': %r" % line)
            key, _, val = line.partition("=")
            out[key.strip().replace("-", "_")] = val.strip()
    return out


_CONVERTERS = {
    "weight": int,
    "prec": int,
    "mmax": int,
    "bound": int,
    "M": int,
    "points": int,
    "cap": int,
    "theta": float,
    "eps": float,
    "kappa": float,
    "slack": float,
    "b": parse_rat,
    "tau1": _parse_complex,
    "torsion": _parse_torsion,
}


class _Run:
    """Resolved parameters: flag > config > default."""

    def __init__(self, args):
        self.args = args
        self.config = {}
        if getattr(args, "config", None):
            try:
                self.config = _read_config(args.config)
            except (OSError, ValueError) as e:
                _fail_usage("cannot read config: %s" % e)
        self.json_out = bool(getattr(args, "json", False))

    def get(self, name, default=None):
        v = getattr(self.args, name, None)
        if v is not None:
            return v
        if name in self.config:
            conv = _CONVERTERS.get(name)
            try:
                return conv(self.config[name]) if conv else self.config[name]
            except (ValueError, argparse.ArgumentTypeError) as e:
                _fail_usage("bad config value for %s: %s" % (name, e))
        return default

    def need(self, name):
        v = self.get(name)
        if v is None:
            _fail_usage("missing required parameter --%s" % name.replace("_", "-"))
        return v

    def emit(self, record: dict, human_lines):
        if self.json_out:
            print(json.dumps(record, indent=2, default=str))
        else:
            for line in human_lines:
                print(line)


def _fail_usage(message: str):
    print("error: %s" % message, file=sys.stderr)
    raise SystemExit(64)


def _cannot_parse(path: str, e: Exception):
    print("error: cannot parse %s: %s" % (path, e), file=sys.stderr)
    raise SystemExit(3)


def _load_json(path: str, object_hook=None):
    """The JSON value in path, each object passed through object_hook as the
    decoder closes it; exit 3 if the file cannot be read or decoded, is
    nested too deeply, or the hook refuses an object."""
    try:
        with open(path) as fh:
            return json.load(fh, object_hook=object_hook)
    except (OSError, KeyError, TypeError, ValueError, RecursionError) as e:
        _cannot_parse(path, e)


_SLICE_KEYS = {"k", "m", "prec", "coeffs"}


def _slice_hook(rec: dict, texts):
    """A slice record as its JacobiFormQExp, so that its coefficient lists
    are freed as soon as it is read, its value texts read through texts;
    every other JSON object unchanged."""
    if rec.keys() != _SLICE_KEYS:
        return rec
    return JacobiFormQExp._from_record(rec, texts)


def _load_record(path: str, cls):
    """cls.from_record of the JSON record in path, with every slice record
    built while the file is decoded, all through one table of value texts,
    so that each distinct text is parsed once and stands for one object;
    exit 3 if either fails."""
    rec = _load_json(path, partial(_slice_hook, texts=_Texts()))
    try:
        return cls.from_record(rec)
    except (KeyError, TypeError, ValueError) as e:
        _cannot_parse(path, e)


def _write_text(path: str, text: str):
    with open(path, "w") as fh:
        fh.write(text)


def _hypothesis_failure(report_path: str, reason, code: int) -> int:
    """Write certify's hypothesis-failure report and error line; return code."""
    _write_text(report_path, "verdict: hypothesis-failure\nfailed_precondition: %s\n" % reason)
    print("error: %s" % reason, file=sys.stderr)
    return code


def _check_precision_floor(f: FormalFJ, p: TorsionPoint, window) -> None:
    """Raise PrecisionError when the largest exponent of the window is at or
    beyond the certified precision of some slice, naming the smallest lift
    precision that would cover every slice up to M_max."""
    if not window:
        return
    x = max(t[0, 0] for t in window)
    lam = p.lam_frac()
    for m in range(1, f.M_max + 1):
        p2 = certified_precision(f.phis[m].prec, m, lam)
        if x >= p2:
            # certified_precision(P, k, lam) >= P / 2 - lam^2 k - |lam|, so every P from hi on covers
            hi = math.floor(2 * (x + lam * lam * f.M_max + abs(lam))) + 1
            need = next(P for P in range(1, hi + 1) if all(certified_precision(P, k, lam) > x for k in range(1, f.M_max + 1)))
            raise PrecisionError(
                "window exponent %s is beyond the certified precision %s of slice m = %d; prec %d would cover M_max %d"
                % (x, p2, m, need, f.M_max)
            )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_lift(run: _Run) -> int:
    k = run.need("weight")
    prec = run.get("prec", 8)
    mmax = run.get("mmax", 8)
    out = run.need("out")
    if prec < 1 or mmax < 1:
        _fail_usage("prec and mmax must be positive")
    gen_prec = (prec - 1) * mmax + 1
    try:
        # the first basis element of jacobi_space, as gritsenko_lift reads it; the rest are not built
        first = next(_space_components(k, True, gen_prec), None)
    except ValueError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    if first is None:
        print("error: cusp space of weight %d is empty" % k, file=sys.stderr)
        return 2
    # _lift rejects C[0] or C[-1] nonzero and stores only 4nm - r^2 >= 1, so its output is cuspidal
    lift = _lift(k, *first, mmax, prec)
    with open(out, "w") as fh:
        lift.write_json(fh)
    run.emit(
        {"out": out, "weight": k, "prec": prec, "M_max": mmax, "cuspidal": True},
        ["wrote weight-%d lift (prec %d, M_max %d) to %s" % (k, prec, mmax, out)],
    )
    return 0


def _cmd_check_symmetry(run: _Run) -> int:
    f = _load_record(run.need("infile"), FormalFJ)
    bound = run.get("bound", min(f.M_max, f.prec - 1))
    report_path = run.need("report")
    try:
        rep = check_symmetry(f, bound)
    except ValueError as e:
        _fail_usage(str(e))
    _write_text(report_path, rep.to_text())
    run.emit(
        rep.to_record(),
        [
            "symmetry audit: %d checked, %d skipped, %d violations"
            % (rep.checked, rep.skipped, len(rep.violations))
        ],
    )
    return 0 if rep.ok else 1


def _cmd_certify(run: _Run) -> int:
    f = _load_record(run.need("infile"), FormalFJ)
    report_path = run.need("report")
    p = run.get("torsion", TorsionPoint(1, (0,), (0,)))
    tau1 = run.get("tau1", 1j)
    try:
        check_point(tau1)
    except ValueError as e:
        _fail_usage(str(e))
    theta = run.get("theta", 0.1)
    if not 0 < theta < 1:
        _fail_usage("theta must lie in (0, 1)")
    m_terms = run.get("M", f.M_max // 2)
    if m_terms < 1 or 2 * m_terms > f.M_max:
        _fail_usage("M must satisfy 1 <= M and 2M <= M_max")
    try:
        cfg = BoundConfig(b=run.get("b", Fraction(1)), slack=run.get("slack", 0.5), caps=run.get("cap", 10**6))
    except ValueError as e:
        _fail_usage(str(e))
    if not f.is_cuspidal():
        return _hypothesis_failure(report_path, "series is not cuspidal", 4)
    try:
        s_window = enumerate_S(p.N, cfg.b, 2, cap=cfg.caps)
        _check_precision_floor(f, p, s_window)
        etas = [specialize_torsion(f.phis[m], p) for m in range(1, f.M_max + 1)]
        growth = growth_fit(etas, f.k, 2, s_window, cfg)
        pointwise = pointwise_convergence_check(f, p, tau1, theta, m_terms)
    except CapacityError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except (ValueError, PrecisionError) as e:
        return _hypothesis_failure(report_path, e, 1)
    text = growth.to_text() + "\n" + pointwise.to_text()
    _write_text(report_path, text)
    write_csv(report_path + ".fe_norms.csv", *growth.series["fe_norms"])
    write_csv(report_path + ".partial_sums.csv", *pointwise.series["partial_sums"])
    ok = growth.passed and pointwise.passed
    run.emit(
        {"growth": growth.to_record(), "pointwise": pointwise.to_record()},
        [
            "growth: %s (slope %s, threshold %s)"
            % (growth.verdict, growth.witnesses.get("slope", "n/a"), growth.tolerances.get("threshold")),
            "pointwise: %s (gap %s at |q2| = %s)"
            % (pointwise.verdict, pointwise.witnesses.get("cauchy_gap"), pointwise.witnesses.get("q2_abs")),
        ],
    )
    return 0 if ok else 1


def _cmd_bound_report(run: _Run) -> int:
    f = _load_record(run.need("infile"), FormalFJ)
    q = _load_record(run.need("poly"), PolynomialOverM)
    box_rec = _load_json(run.need("box"))
    if not isinstance(box_rec, dict):
        print("error: cannot parse box: expected a JSON object", file=sys.stderr)
        return 3
    eps = run.get("eps", box_rec.get("eps"))
    if eps is None:
        _fail_usage("no eps given (flag or box file)")
    report_path = run.need("report")
    try:
        eps = float(eps)
        if not 0 < eps < 0.5:
            _fail_usage("eps must lie in (0, 1/2)")
        box = CompactBoxSpec(tuple(box_rec["U"]), eps)
    except (KeyError, TypeError, ValueError) as e:
        print("error: cannot parse box: %s" % e, file=sys.stderr)
        return 3
    mtop = run.get("mmax", f.M_max)
    if not 1 <= mtop <= f.M_max:
        _fail_usage("mmax must lie in [1, %d]" % f.M_max)
    points = run.get("points", 5)
    if points < 1:
        _fail_usage("points must be positive")
    kappa = run.get("kappa", 1.1)
    if not 0 < kappa < math.inf:
        _fail_usage("kappa must be finite and positive")
    try:
        rep = partial_sum_bound_check(f, q, box, range(1, mtop + 1), kappa=kappa, points=points)
    except CapacityError as e:
        _fail_usage(str(e))
    except ValueError as e:  # a box point whose slice values overflow floats
        print("error: %s" % e, file=sys.stderr)
        return 1
    _write_text(report_path, rep.to_text())
    if "partial_sums" in rep.series:
        write_csv(report_path + ".partial_sums.csv", *rep.series["partial_sums"])
    run.emit(
        rep.to_record(),
        [
            "bound report: %s (D_eps %s, bound %s, max %s)"
            % (
                rep.verdict,
                rep.witnesses.get("D_eps"),
                rep.witnesses.get("bound"),
                rep.witnesses.get("max_partial_sum"),
            )
        ],
    )
    if rep.verdict == "hypothesis-failure":
        print("error: %s" % rep.witnesses["failed_precondition"], file=sys.stderr)
        return 5
    return 0 if rep.passed else 1


def _cmd_reduce(run: _Run) -> int:
    text = run.need("matrix")
    try:
        n = SymMatQ.from_text(text)
    except (ValueError, IndexError) as e:
        _fail_usage("cannot parse matrix %r: %s" % (text, e))
    try:  # this raises ValueError only for a matrix that is not positive definite
        reduced, u = minkowski_reduce(n)
    except ValueError:
        print("error: matrix is not positive definite", file=sys.stderr)
        return 6
    ok = hermite_check(reduced.gram)
    reduced_text, u_text = reduced.to_text(), u.to_text()
    run.emit(
        {"reduced": reduced_text, "transform": u_text, "hermite_ok": ok},
        ["reduced: %s" % reduced_text, "transform: %s" % u_text, "hermite_ok: %s" % ok],
    )
    return 0


# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)  # built on the first main() call; parse_args keeps no state between calls
def _build_parser():
    """The top-level parser and its command parsers by name."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable stdout")
    common.add_argument("--config", help="key=value config file (flags win)")

    parser = _Parser(prog="fjcert", description="formal Fourier-Jacobi series toolkit")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("gen-lift", parents=[common], help="generate a lift from the first cusp basis element")
    p.add_argument("--weight", type=int)
    p.add_argument("--prec", type=int)
    p.add_argument("--mmax", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen_lift)

    p = sub.add_parser("check-symmetry", parents=[common], help="audit the coefficient symmetry of a series file")
    p.add_argument("--in", dest="infile")
    p.add_argument("--bound", type=int)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_check_symmetry)

    p = sub.add_parser("certify", parents=[common], help="growth fit and pointwise convergence at a torsion point")
    p.add_argument("--in", dest="infile")
    p.add_argument("--torsion", type=_parse_torsion, help="N,lam_num,mu_num")
    p.add_argument("--tau1", type=_parse_complex, help="complex a+bi")
    p.add_argument("--theta", type=float)
    p.add_argument("--M", type=int)
    p.add_argument("--b", type=parse_rat)
    p.add_argument("--slack", type=float)
    p.add_argument("--cap", type=int)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("bound-report", parents=[common], help="locally-bounded certificate on a compact box")
    p.add_argument("--in", dest="infile")
    p.add_argument("--poly")
    p.add_argument("--eps", type=float)
    p.add_argument("--box")
    p.add_argument("--kappa", type=float)
    p.add_argument("--mmax", type=int)
    p.add_argument("--points", type=int)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_bound_report)

    p = sub.add_parser("reduce", parents=[common], help="Minkowski-reduce a small positive definite matrix")
    p.add_argument("--matrix", help='entries "a,b;b,c"')
    p.set_defaults(func=_cmd_reduce)

    return parser, sub.choices


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:  # no arguments, -h or an unknown name
        args = parser.parse_args(argv)
    else:  # what the top-level parser would do, in one pass over argv
        args, rest = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if rest:
            parser.error("unrecognized arguments: %s" % " ".join(rest))
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 64
    try:
        run = _Run(args)
        return args.func(run)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 64


if __name__ == "__main__":
    sys.exit(main())
