"""Batch command line front-end.

Subcommands: gen-lift, check-symmetry, certify, bound-report, reduce.
Each command's flags are declared once, in _COMMANDS; a config-file key is
a flag's name.  Flags override config-file entries, which override
defaults.  Reports are always written, even for failing runs, so CI can
archive them.

Exit codes are a stable contract:
  0 success / all checks passed
  1 a check failed (violations, bound exceeded, certification failure)
  2 empty cusp space for gen-lift
  3 input file could not be parsed
  4 certify input is not cuspidal
  5 bound-report hypothesis failure (non-monic, nonzero residue)
  6 reduce input is not positive definite
 64 usage error (bad flags or config), or an output file that cannot be
    written

gen-lift writes, beside the series file <out>, the lift record <out>.lift:
the index-one table (den, C) that the series was lifted from, with k,
M_max, prec, the fjcert version, the sha256 of <out> and a sha256 over all
of these.  A command that reads a series builds it from the record's table
when the record is of this version, its own sha256 matches its fields and
it names the file's sha256, and reads the JSON otherwise.  The two give
the same series for a record as gen-lift wrote it, so a missing, stale or
damaged record, or one edited by accident, changes no result.  The digests
have no key: a record edited on purpose, with record_sha256 recomputed, is
read, and builds its own series, not the file's.

Each command runs with the cyclic garbage collector paused, and main gives
it back enabled or disabled as it found it.  The millions of dicts, lists
and ints that reading and writing a series makes hold no reference cycles,
so reference counting frees them all, and the collector's passes over them
would find nothing; the few cycles a command leaves (those of json.dumps
with indent, under --json) are reclaimed once the collector runs again.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache, partial

from . import __version__
from .convergence import (
    BoundConfig,
    CompactBoxSpec,
    growth_fit,
    partial_sum_bound_check,
    pointwise_convergence_check,
    write_csv,
)
from .core import PrecisionError, _read_int, parse_rat
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
    try:
        return complex(s.lower().replace(" ", "").replace("i", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError("cannot parse complex number %r" % s)


def _parse_torsion(s: str) -> TorsionPoint:
    try:
        n, lam, mu = map(int, s.split(","))
        return TorsionPoint(n, (lam,), (mu,))
    except ValueError:
        raise argparse.ArgumentTypeError("torsion must be N,lam_num,mu_num")


def _read_config(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in map(str.strip, fh):
            if line and not line.startswith("#"):
                key, eq, val = line.partition("=")
                if not eq:
                    raise ValueError("config line without '=': %r" % line)
                out[key.strip()] = val.strip()
    return out


class _Run:
    """A command's parameters, each resolved once, flag > config > default,
    into params; a config value is read as its flag is.  A config key of
    another command is ignored, one that names no flag of any command (a
    misspelt key) is refused."""

    def __init__(self, args, flags):
        config = {}
        if args.config:
            try:
                config = _read_config(args.config)
            except (OSError, ValueError) as e:
                _fail_usage("cannot read config: %s" % e)
            if unknown := sorted(config.keys() - _CONFIG_KEYS):
                _fail_usage("config key %s names no flag of any command" % ", ".join(map(repr, unknown)))
        self.params = {}
        for name, conv, default, _ in flags:
            v = getattr(args, name)
            if v is None and name in config:
                try:
                    v = conv(config[name])
                except (ValueError, argparse.ArgumentTypeError) as e:
                    _fail_usage("bad config value for %s: %s" % (name, e))
            self.params[name] = default if v is None else v
        self.json_out = args.json

    def need(self, name):
        v = self.params[name]
        if v is None:
            _fail_usage("missing required parameter --%s" % name)
        return v

    def default(self, name, value):
        """params[name], set to value, the default read from the input, if
        neither a flag nor the config gave it."""
        if self.params[name] is None:
            self.params[name] = value
        return self.params[name]

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
    exit 3 if either fails.  A series whose lift record names its sha256 is
    built from the record's table instead (see :func:`_read_lift`)."""
    if cls is FormalFJ and (f := _read_lift(path)) is not None:
        return f
    rec = _load_json(path, partial(_slice_hook, texts=_Texts()))
    try:
        return cls.from_record(rec)
    except (KeyError, TypeError, ValueError) as e:
        _cannot_parse(path, e)


# the fields of a lift record, in the order record_sha256 hashes them
_LIFT_FIELDS = ("fjcert", "series_sha256", "k", "M_max", "prec", "den", "C")


def _file_sha256(path: str) -> str:
    """The sha256 of the bytes of path, read 1 MiB at a time."""
    # imported here: hashlib loads OpenSSL (~5 ms and ~3.5 MB at start),
    # which only the commands that write or read a lift record need
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(partial(fh.read, 1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _record_sha256(rec: dict) -> str:
    """The sha256 of json.dumps of the lift record's _LIFT_FIELDS values, as
    a list: it ties k, M_max, prec, den and C to series_sha256, so a record
    damaged or edited by accident after gen-lift wrote it is not read.  It
    has no key, so it does not stop an edit that recomputes it."""
    import hashlib

    return hashlib.sha256(json.dumps([rec[key] for key in _LIFT_FIELDS]).encode()).hexdigest()


def _write_lift(path: str, k: int, M_max: int, prec: int, den: int, C: list):
    """Write the lift record of the series file path, which _lift(k, den,
    C, M_max, prec) wrote, to path + ".lift"; only beside a regular file,
    so that a device or pipe is never read back."""
    if not os.path.isfile(path):
        return
    with _writing(path + ".lift"):
        rec = {"fjcert": __version__, "series_sha256": _file_sha256(path), "k": k, "M_max": M_max, "prec": prec, "den": den, "C": C}
        rec["record_sha256"] = _record_sha256(rec)
        with open(path + ".lift", "w") as fh:
            fh.write(json.dumps(rec))


def _read_lift(path: str):
    """_lift of the lift record path + ".lift", or None unless the record
    has exactly the keys _write_lift gives it, this version, integer k,
    M_max and prec, a positive int den and a list of ints C, the
    record_sha256 of those fields and the sha256 of path, and _lift accepts
    it.  A missing, stale or damaged record, or one edited by accident, only
    sends the reader back to the series file; a record edited on purpose,
    with record_sha256 recomputed, is read (see the module docstring)."""
    try:
        with open(path + ".lift") as fh:
            rec = json.loads(fh.read())
    except (OSError, ValueError, RecursionError):
        return None
    if type(rec) is not dict or rec.keys() != {*_LIFT_FIELDS, "record_sha256"} or rec["fjcert"] != __version__:
        return None
    den, table = rec["den"], rec["C"]
    if type(den) is not int or den < 1 or type(table) is not list or not set(map(type, table)) <= {int}:
        return None
    try:
        k, mmax, prec = _read_int(rec["k"]), _read_int(rec["M_max"]), _read_int(rec["prec"])
        if rec["record_sha256"] != _record_sha256(rec) or rec["series_sha256"] != _file_sha256(path):
            return None
        return _lift(k, den, table, mmax, prec)
    except (OSError, TypeError, ValueError, PrecisionError):
        return None


@contextmanager
def _writing(path: str):
    """Exit 64 with one line if the block, which writes path, raises OSError."""
    try:
        yield
    except OSError as e:
        print("error: cannot write %s: %s" % (path, e.strerror or e), file=sys.stderr)
        raise SystemExit(64)


def _write_text(path: str, text: str):
    with _writing(path), open(path, "w") as fh:
        fh.write(text)


def _write_csv(path: str, header, rows):
    with _writing(path):
        write_csv(path, header, rows)


def _hypothesis_failure(report_path: str, reason, code: int) -> int:
    """Write certify's hypothesis-failure report and error line; return code."""
    _write_text(report_path, "verdict: hypothesis-failure\nfailed_precondition: %s\n" % reason)
    print("error: %s" % reason, file=sys.stderr)
    return code


def _check_precision_floor(f: FormalFJ, p: TorsionPoint, window) -> None:
    """Raise PrecisionError when the largest exponent of the window is at or
    beyond the certified precision of some slice, naming the smallest lift
    precision that would cover every slice up to M_max.  The window is
    enumerate_S's genus-2 window, 1x1 matrices in increasing order, so its
    last entry holds the largest exponent."""
    if not window:
        return
    x = window[-1][0, 0]
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
    prec, mmax = run.params["prec"], run.params["mmax"]
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
    except MemoryError:  # a kernel row of gen_prec slots that cannot be allocated
        _fail_usage("generator precision %s = (prec - 1) * mmax + 1 needs more memory than is available" % format(gen_prec, ","))
    if first is None:
        print("error: cusp space of weight %d is empty" % k, file=sys.stderr)
        return 2
    # _lift rejects C[0] or C[-1] nonzero and stores only 4nm - r^2 >= 1, so its output is cuspidal
    lift = _lift(k, *first, mmax, prec)
    with _writing(out), open(out, "w") as fh:
        lift.write_json(fh)
    _write_lift(out, k, mmax, prec, *first)
    run.emit(
        {"out": out, "weight": k, "prec": prec, "M_max": mmax, "cuspidal": True},
        ["wrote weight-%d lift (prec %d, M_max %d) to %s" % (k, prec, mmax, out)],
    )
    return 0


def _cmd_check_symmetry(run: _Run) -> int:
    report_path = run.need("report")
    if run.params["bound"] is not None and run.params["bound"] < 0:
        _fail_usage("bound must be nonnegative")
    f = _load_record(run.need("in"), FormalFJ)
    if run.params["bound"] is None and f.prec < 1:
        _fail_usage("the series has precision 0, which leaves no window to audit")
    bound = run.default("bound", min(f.M_max, f.prec - 1))
    try:
        rep = check_symmetry(f, bound)
    except ValueError as e:
        _fail_usage(str(e))
    _write_text(report_path, rep.to_text())
    run.emit(
        rep.to_record(),
        ["symmetry audit: %d checked, %d skipped, %d violations" % (rep.checked, rep.skipped, len(rep.violations))],
    )
    return 0 if rep.ok else 1


def _cmd_certify(run: _Run) -> int:
    report_path = run.need("report")
    par = run.params
    p, tau1, theta = par["torsion"], par["tau1"], par["theta"]
    try:
        check_point(tau1)
    except ValueError as e:
        _fail_usage(str(e))
    if not 0 < theta < 1:
        _fail_usage("theta must lie in (0, 1)")
    if par["M"] is not None and par["M"] < 1:
        _fail_usage("M must satisfy 1 <= M and 2M <= M_max")
    try:
        cfg = BoundConfig(b=par["b"], slack=par["slack"], caps=par["cap"])
    except ValueError as e:
        _fail_usage(str(e))
    f = _load_record(run.need("in"), FormalFJ)
    m_terms = run.default("M", f.M_max // 2)
    if m_terms < 1 or 2 * m_terms > f.M_max:
        _fail_usage("M must satisfy 1 <= M and 2M <= M_max")
    if not f.is_cuspidal():
        return _hypothesis_failure(report_path, "series is not cuspidal", 4)
    try:
        s_window = enumerate_S(p.N, cfg.b, 2, cap=cfg.caps)
        _check_precision_floor(f, p, s_window)
        etas = [specialize_torsion(f.phis[m], p) for m in range(1, f.M_max + 1)]
        growth = growth_fit(etas, f.k, 2, s_window, cfg)
        pointwise = pointwise_convergence_check(f, etas, p, tau1, theta, m_terms)
    except CapacityError as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except (ValueError, PrecisionError) as e:
        return _hypothesis_failure(report_path, e, 1)
    text = growth.to_text() + "\n" + pointwise.to_text()
    _write_text(report_path, text)
    _write_csv(report_path + ".fe_norms.csv", *growth.series["fe_norms"])
    _write_csv(report_path + ".partial_sums.csv", *pointwise.series["partial_sums"])
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
    report_path = run.need("report")
    par = run.params
    points, kappa = par["points"], par["kappa"]
    if points < 1:
        _fail_usage("points must be positive")
    if not 0 < kappa < math.inf:
        _fail_usage("kappa must be finite and positive")
    # an eps from the box file is checked once the file is read
    if par["eps"] is not None and not 0 < par["eps"] < 0.5:
        _fail_usage("eps must lie in (0, 1/2)")
    if par["mmax"] is not None and par["mmax"] < 1:
        _fail_usage("mmax must be positive")
    f = _load_record(run.need("in"), FormalFJ)
    q = _load_record(run.need("poly"), PolynomialOverM)
    box_rec = _load_json(run.need("box"))
    if not isinstance(box_rec, dict):
        print("error: cannot parse box: expected a JSON object", file=sys.stderr)
        return 3
    eps = run.default("eps", box_rec.get("eps"))
    if eps is None:
        _fail_usage("no eps given (flag or box file)")
    try:
        eps = par["eps"] = float(eps)
        if not 0 < eps < 0.5:
            _fail_usage("eps must lie in (0, 1/2)")
        box = CompactBoxSpec(tuple(box_rec["U"]), eps)
    except (KeyError, TypeError, ValueError) as e:
        print("error: cannot parse box: %s" % e, file=sys.stderr)
        return 3
    mtop = run.default("mmax", f.M_max)
    if not 1 <= mtop <= f.M_max:
        _fail_usage("mmax must lie in [1, %d]" % f.M_max)
    try:
        rep = partial_sum_bound_check(f, q, box, range(1, mtop + 1), kappa=kappa, points=points)
    except CapacityError as e:
        _fail_usage(str(e))
    except ValueError as e:  # slice values that overflow floats, or a line longer than WINDOW_CAP
        print("error: %s" % e, file=sys.stderr)
        return 1
    _write_text(report_path, rep.to_text())
    if "partial_sums" in rep.series:
        _write_csv(report_path + ".partial_sums.csv", *rep.series["partial_sums"])
    run.emit(
        rep.to_record(),
        [
            "bound report: %s (D_eps %s, bound %s, max %s)"
            % (rep.verdict, rep.witnesses.get("D_eps"), rep.witnesses.get("bound"), rep.witnesses.get("max_partial_sum"))
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


# Each command's function, help and flags.  A flag is (name, type, default,
# help): --name on the command line, name in the config file, whose value is
# read by type, as the flag's is.  A default of None marks a flag that the
# command needs (run.need), or whose default it reads from the input
# (run.default): bound, M, eps and mmax.
_COMMANDS = {
    "gen-lift": (_cmd_gen_lift, "generate a lift from the first cusp basis element", (
        ("weight", int, None, None), ("prec", int, 8, None), ("mmax", int, 8, None), ("out", str, None, None),
    )),
    "check-symmetry": (_cmd_check_symmetry, "audit the coefficient symmetry of a series file", (
        ("in", str, None, None), ("bound", int, None, None), ("report", str, None, None),
    )),
    "certify": (_cmd_certify, "growth fit and pointwise convergence at a torsion point", (
        ("in", str, None, None),
        ("torsion", _parse_torsion, TorsionPoint(1, (0,), (0,)), "N,lam_num,mu_num"),
        ("tau1", _parse_complex, 1j, "complex a+bi"),
        ("theta", float, 0.1, None), ("M", int, None, None), ("b", parse_rat, Fraction(1), None),
        ("slack", float, 0.5, None), ("cap", int, 10**6, None), ("report", str, None, None),
    )),
    "bound-report": (_cmd_bound_report, "locally-bounded certificate on a compact box", (
        ("in", str, None, None), ("poly", str, None, None), ("eps", float, None, None), ("box", str, None, None),
        ("kappa", float, 1.1, None), ("mmax", int, None, None), ("points", int, 5, None), ("report", str, None, None),
    )),
    "reduce": (_cmd_reduce, "Minkowski-reduce a small positive definite matrix", (
        ("matrix", str, None, 'entries "a,b;b,c"'),
    )),
}


_CONFIG_KEYS = {name for _, _, flags in _COMMANDS.values() for name, *_ in flags}  # of every command


@lru_cache(maxsize=None)  # built on the first main() call; parse_args keeps no state between calls
def _build_parser():
    """The top-level parser and its command parsers by name, from _COMMANDS."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable stdout")
    common.add_argument("--config", help="key=value config file (flags win)")

    parser = _Parser(prog="fjcert", description="formal Fourier-Jacobi series toolkit")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for command, (_, help, flags) in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=help)
        for name, conv, _, flag_help in flags:
            p.add_argument("--" + name, type=conv, help=flag_help)
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
    enabled = gc.isenabled()
    gc.disable()
    try:
        func, _, flags = _COMMANDS[args.command]
        return func(_Run(args, flags))
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 64
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
