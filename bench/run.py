"""Benchmark of the fjcert pipeline, driven the way a user drives the fjcert command.

    python3 bench/run.py --workload lift-deep --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload and metric
    python3 bench/run.py --baseline                  # the ROADMAP baseline table
    python3 bench/run.py --self-test                 # corrupted outputs must count as failed

Run it from the root of a checkout: fjcert is imported from src/.  It is a
closed loop with one caller.  Each run of a workload's sequence gets a fresh
child process (bench/child.py) with one thread, so no lru_cache carries work
from one run into the next.  This process waits while the child runs, and
starts another only after it has ended and only if it should end within
--seconds.  Inside the child the commands run in-process through
fjcert.cli.main(argv), so the interpreter starts once per sequence; that
start is the set-up time.

Neighbours on a shared host slow every process on it by up to 1.7x for
seconds at a time, which spreads raw sequence times by a quarter from run
to run.  So the gated time, wall_ref, is each operation's time divided by
the time of a fixed reference computation that the child samples while the
operation runs (child.HostSpeed), summed over the sequence.  The raw wall_s
is printed next to it.

The last line of output is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end_to_end metrics of
BENCHMARK.json; with --trace 1 the per_layer metrics, taken from a child
that records a span at each module boundary (bench/spans.py) next to an
untraced child for the tracing overhead.  The lines before it give the
per-command times, failure rates with their base, the known-defect probe of
reduce-mix and a record of the host.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

WORKLOADS = ("lift-deep", "box-cert", "reduce-mix")
SETUP_STARTS = 4  # bare process starts after each sequence, so setup_s is a median over the whole run
HARD_LIMIT_S = 170.0  # no run may outlast this, whatever --seconds says

# reduce-mix stream: forms per sequence, and the length of the shear words.
# Words of length 3 with multipliers +-1 keep the seed-to-seed spread of the
# batch cost small; at length 4 it grows, and at 6 single forms take minutes.
# 1500 ternary forms make a sequence about as long as a lift-deep one; the
# per-form cost then varies by about 1% from one seed's stream to another's.
REDUCE2_FORMS = 375
REDUCE3_FORMS = 1500
SHEAR_WORD = 3

# box-cert runs the criterion-6 box at M_max 24, where one sequence takes a
# few seconds, so that a run holds several sequences and their median is
# steady on a noisy host; --baseline runs it once at the ROADMAP's M_max 40.
BOX_MMAX = 24
ROADMAP_MMAX = 40


# the baseline table of ROADMAP.md, in seconds
ROADMAP_BASELINE = {
    "f*f at M_max 40, prec 10 (relation step)": 7.8,
    "poly_eval in partial_sum_bound_check at M_max 40": 6.5,
    "d_eps over the 625-point grid at M_max 40": 4.7,
    "lift40 build (jacobi_space + gritsenko_lift)": 6.0,
    "minkowski_reduce at size 3, per form": 0.19,
}


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# inputs


def matrix_text(rows) -> str:
    return ";".join(",".join(str(x) for x in row) for row in rows)


def binary_form(rng: random.Random):
    """A rational binary form drawn as in acceptance criterion 2."""
    while True:
        a, b, c, d = (rng.randrange(-6, 7) for _ in range(4))
        if a * d - b * c != 0:
            break
    den = rng.randrange(1, 7)
    off = Fraction(a * b + c * d, den)
    return [[Fraction(a * a + c * c, den), off], [off, Fraction(b * b + d * d, den)]]


def ternary_form(rng: random.Random):
    """D[u] for a random diagonal D and a random word u of elementary shears."""
    d = [rng.randint(1, 9) for _ in range(3)]
    u = [[int(i == j) for j in range(3)] for i in range(3)]
    for _ in range(SHEAR_WORD):
        i, j = rng.sample(range(3), 2)
        c = rng.choice((-1, 1))
        for row in u:  # u := u (1 + c e_ij): column j += c column i
            row[j] += c * row[i]
    return [[sum(u[k][a] * d[k] * u[k][b] for k in range(3)) for b in range(3)] for a in range(3)]


def reduce_stream(seed: int):
    rng = random.Random(seed)
    forms = [["reduce2", matrix_text(binary_form(rng))] for _ in range(REDUCE2_FORMS)]
    forms += [["reduce3", matrix_text(ternary_form(rng))] for _ in range(REDUCE3_FORMS)]
    rng.shuffle(forms)
    return forms


def criterion6_box():
    """25 points (1j, z) around z = 0 with eps 0.1, as in acceptance criterion 6."""
    lo = -0.2 / math.sqrt(2)
    xs = [lo + i * (-2 * lo) / 4 for i in range(5)]
    return {"U": [["1j", str(complex(x, y))] for x in xs for y in xs], "eps": 0.1}


@contextlib.contextmanager
def workdir(workload: str, seed: int, box_mmax: int):
    """A fresh directory under .bench_work holding the inputs; removed afterwards."""
    work = os.path.join(ROOT, ".bench_work", "%s-seed%d-%d" % (workload, seed, os.getpid()))
    os.makedirs(work)
    try:
        inputs = {"forms": reduce_stream(seed) if workload == "reduce-mix" else [], "mmax": box_mmax}
        with open(os.path.join(work, "inputs.json"), "w") as fh:
            json.dump(inputs, fh)
        with open(os.path.join(work, "box.json"), "w") as fh:
            json.dump(criterion6_box(), fh)
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# child processes


def spawn(work: str, workload: str, mode: str, deadline: float) -> dict:
    """Start one child, time it to "ready" (set-up), and return its result."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-I", CHILD, ROOT, work, workload, mode],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(max(deadline - perf_counter(), 1.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise BenchError("%s child for %s exited with %s" % (mode, workload, proc.returncode))
    result = json.loads(rest.strip().splitlines()[-1]) if mode != "setup" else {}
    result["setup_s"] = setup_s
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    deadline = perf_counter() + HARD_LIMIT_S
    with workdir(workload, seed, BOX_MMAX) as work:
        runs, traced, starts = [], [], []
        t0 = perf_counter()
        while True:  # another sequence only if it should end within the budget
            began = perf_counter()
            runs.append(spawn(work, workload, "run", deadline))
            if trace:
                traced.append(spawn(work, workload, "trace", deadline))
            starts += [spawn(work, workload, "setup", deadline)["setup_s"] for _ in range(SETUP_STARTS)]
            now, last = perf_counter(), perf_counter() - began
            if now + last - t0 > seconds or now + 2 * last > deadline:
                break
        if trace:
            shutil.copyfile(os.path.join(work, "spans.tsv"),
                            os.path.join(ROOT, ".bench_work", "spans-%s-seed%d.tsv" % (workload, seed)))
    starts += [r["setup_s"] for r in runs + traced]
    return runs, traced, starts, perf_counter() - t0


# ---------------------------------------------------------------------------
# metrics and report


def declared_metrics(kind: str):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def end_to_end(runs, starts) -> dict:
    return {
        "wall_ref": statistics.median(r["wall_ref"] for r in runs),
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median(starts),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
    }


def per_layer(runs, traced) -> dict:
    """Layer metrics as '<span name>.<quantity>', medians over the traced children."""
    names = {(span, q) for r in traced for span, st in r["layers"].items() for q in st}
    values = {
        "%s.%s" % (span, q): statistics.median(r["layers"].get(span, {}).get(q, 0) for r in traced)
        for span, q in names
    }
    values["reduction.minkowski_violations"] = statistics.median(r["violations"] for r in traced)
    values["trace.overhead_frac"] = (
        statistics.median(r["wall_s"] for r in traced) / statistics.median(r["wall_s"] for r in runs) - 1
    )
    return values


def latency_line(name: str, samples, pct: int) -> str:
    """The pct-th percentile of per-call seconds, in ms, with its sample counts."""
    value = statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
    return "  %-18s %10.4f ms   %d calls, %d beyond" % (
        name, 1e3 * value, len(samples), sum(1 for x in samples if x > value))


def baseline_lines(rows) -> list[str]:
    lines = ["  ROADMAP baseline rows, inclusive time in the traced child:"]
    for row, value in rows.items():
        figure = ROADMAP_BASELINE.get(row)
        if figure is None:
            lines.append("    %-52s %9.4f s  (no ROADMAP figure at this size; see --baseline)" % (row, value))
        else:
            ratio = value / figure
            lines.append("    %-52s %9.4f s  ROADMAP %5.2f s  ratio %5.2f  %s" % (
                row, value, figure, ratio,
                "reproduces" if 1 / 1.5 <= ratio <= 1.5 else "does not reproduce (outside a factor 1.5)"))
    return lines


def baseline(seed: int) -> int:
    """One traced child per workload, box-cert at M_max 40: the ROADMAP baseline table."""
    for workload in WORKLOADS:
        with workdir(workload, seed, ROADMAP_MMAX) as work:
            result = spawn(work, workload, "trace", perf_counter() + HARD_LIMIT_S)
        print("%s:" % workload)
        print("\n".join(baseline_lines(result["baseline"])))
        print("\n".join("  FAILED " + reason for reason in result["reasons"]))
    return 0


def host_record(runs) -> str:
    revision = "none (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            revision = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"], capture_output=True,
                                      text=True, timeout=20).stdout.strip() or revision
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "fjcert", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    calib = [r["calibration_s"] for r in runs]
    ref = [r["reference_ms"] for r in runs]
    return ("host: python %s, revision %s, src sha256 %s, nproc %s, calibration loop %.4f s "
            "(median of %d children, min %.4f, max %.4f), reference %.4f ms (median of the children's "
            "medians, min %.4f, max %.4f); records of host speed, not gated"
            % (platform.python_version(), revision, digest.hexdigest()[:12], os.cpu_count(),
               statistics.median(calib), len(calib), min(calib), max(calib),
               statistics.median(ref), min(ref), max(ref)))


def report(workload, seed, runs, traced, starts, measured_s, e2e, layers) -> list[str]:
    attempted = sum(r["attempted"] for r in runs + traced)
    failed = sum(r["failed"] for r in runs + traced)
    lines = [
        "fjcert bench: workload %s, seed %d: %d sequences in %.1f s, closed loop, one caller, "
        "a fresh one-thread process per sequence" % (workload, seed, len(runs) + len(traced), measured_s),
        "  %-18s %10.1f ref  median of %d sequences, in units of the reference computation"
        % ("wall_ref", e2e["wall_ref"], len(runs)),
        "  %-18s %10.4f s    median of %d sequences (raw, not gated)" % ("wall_s", e2e["wall_s"], len(runs)),
        "  %-18s %10.4f s    median of %d process starts" % ("setup_s", e2e["setup_s"], len(starts)),
        "  %-18s %10.1f MB" % ("peak_rss_mb", e2e["peak_rss_mb"]),
        "  %-18s %10.4f      %d failed of %d operations" % ("failed_frac", failed / attempted, failed, attempted),
    ]
    by_op: dict = {}
    for r in runs:
        for op, t, _ in r["times"]:
            by_op.setdefault(op, []).append(t)
    if workload == "reduce-mix":
        lines += [latency_line("reduce2_p50_ms", by_op["reduce2"], 50),
                  latency_line("reduce3_p50_ms", by_op["reduce3"], 50),
                  latency_line("reduce3_p95_ms", by_op["reduce3"], 95)]
        edge = runs[0]
        lines.append("  edge forms: %d failed of %d (known defects, outside the counts above)"
                     % (edge["edge_failed"], edge["edge_attempted"]))
        lines += ["    " + reason for reason in edge["edge_reasons"]]
    else:
        for op, times in by_op.items():
            lines.append("  %-18s %10.4f s    median of %d" % (op + "_s", statistics.median(times), len(times)))
    for r in runs + traced:
        lines += ["  FAILED " + reason for reason in r["reasons"]]
    if layers:
        for name, unit in declared_metrics("per_layer"):
            lines.append("  %-46s %14.6g %s" % (name, layers.get(name, 0), unit))
        lines += baseline_lines(traced[0]["baseline"])
    lines.append(host_record(runs))
    return lines


def result_json(runs, traced, e2e, layers) -> str:
    attempted = sum(r["attempted"] for r in runs + traced)
    failed = sum(r["failed"] for r in runs + traced)
    if layers:  # a layer the workload does not run reads 0
        metrics = {name: {"value": layers.get(name, 0), "unit": unit} for name, unit in declared_metrics("per_layer")}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in declared_metrics("end_to_end")}
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="check that the gate counts corrupted outputs")
    ap.add_argument("--baseline", action="store_true", help="reproduce the ROADMAP baseline table")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.self_test:
        import child

        work = os.path.join(ROOT, ".bench_work", "selftest-%d" % os.getpid())
        os.makedirs(work)
        try:
            return child.selftest(work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    if not os.path.isfile(os.path.join(ROOT, "src", "fjcert", "cli.py")):
        print("error: no fjcert source at %s; run from a checkout of the repository" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    if args.baseline:
        try:
            return baseline(args.seed)
        except BenchError as e:
            print("error: %s" % e, file=sys.stderr)
            return 1
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            runs, traced, starts, measured_s = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except BenchError as e:
            print("error: %s" % e, file=sys.stderr)
            return 1
        e2e = end_to_end(runs, starts)
        layers = per_layer(runs, traced) if traced else None
        print("\n".join(report(workload, args.seed, runs, traced, starts, measured_s, e2e, layers)))
        print(result_json(runs, traced, e2e, layers), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
