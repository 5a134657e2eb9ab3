"""One fresh process of the benchmark: one sequence of one workload.

run.py starts it as

    python3 -I bench/child.py ROOT WORK WORKLOAD MODE

with MODE one of setup, run or trace.  The child imports fjcert from
ROOT/src and prints "ready".  In setup mode it exits there.  Otherwise it
runs the workload's sequence once, on one thread, calling
fjcert.cli.main(argv) in this process as the fjcert command does, checks
every output, and prints one JSON line of measurements.  WORK holds the
inputs run.py wrote and the files the commands write.

In run mode a HostSpeed sampler times a fixed reference computation while
the sequence runs, and each operation is also reported in units of it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import signal
import statistics
import sys
from fractions import Fraction
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from gate import Ledger, digest_problems, exit_problems, minkowski_problems, parse_matrix, record_problems, reduction_problems  # noqa: E402

# Expected outputs, recorded from the seed code.  Exact outputs must stay
# bit-identical; float witnesses are compared within gate.FLOAT_RTOL.
LIFT40_SHA256 = "b236ad9f58866c0cfba950e023ca02b103a1dec53457fb45b638b1d336872811"
SYMMETRY = {"weight": 10, "bound": 39, "checked": 566400, "skipped": 187200, "violations": []}
CERTIFY = {
    "growth": {"verdict": "pass", "witnesses": {
        "b": "1/32", "slope": 4.302396644304979, "intercept": 10.174804533994477,
        "ratio_max": 10742.0, "nonzero_points": 40, "window_size": 63}},
    "pointwise": {"verdict": "pass", "witnesses": {
        "C": 0.25, "disc_radius": 0.20787957635076193, "q2_abs": 0.020787957635076196,
        "S_M": 0.0014857171996167965, "S_2M": 0.0014857171996168004,
        "cauchy_gap": 3.903127820947816e-18, "tail_start": 6, "M": 20}},
}
# box-cert at each M_max it runs: sha256 of the lift and of the relation
# file, and the bound-report record
BOX_CERT = {
    24: ("14441ba8e273e72262e26f956e7a4f8a68f653ba90c00ad9f82dd82b198f18a6",
         "ac9b68af79263cf6cdada91674c8b07ee0ec20d01dc82939af5ec77abb73a18b",
         {"verdict": "pass", "witnesses": {
             "D_eps": 1.7892814110921424, "bound": 2.250781463064924, "max_partial_sum": 0.023253529716322028,
             "margin": 2.227527933348602, "max_on_torsion_subgrid": 4.1410457057630976e-19,
             "max_off_torsion": 0.023253529716322028, "torsion_subgrid_pass": True, "grid_size": 625,
             "argmax": "M=9 tau1=1j z=-0.1414213562373095-0.1414213562373095j tau2=0.6+0.22j"}}),
    40: ("bf2af37ec2b2fde115eaf7651968a82fb96615b524a6601dfc1b9fed01a37e0d",
         "0096859cf32ac24ff97bc214dbd62c256be597190e94f19f248e89ab810787d9",
         {"verdict": "pass", "witnesses": {
             "D_eps": 1.8003945846852312, "bound": 2.264760999746009, "max_partial_sum": 0.023253529716322028,
             "margin": 2.241507470029687, "max_on_torsion_subgrid": 4.1410457057630976e-19,
             "max_off_torsion": 0.023253529716322028, "torsion_subgrid_pass": True, "grid_size": 625,
             "argmax": "M=9 tau1=1j z=-0.1414213562373095-0.1414213562373095j tau2=0.6+0.22j"}}),
}

# Fixed ternary forms run after the timed reduce stream, outside its counts.
# On the seed code the first comes back unchanged although x = (-1, 1, 1)
# gives 8 < 10; the second (diag(1, 2, 3) under three shears, a search box
# of about 2.5e11 points) raises CapacityError out of cli.main; the last,
# from demos/02, reduces to a form where x = (-1, 1, 1) gives 11/2 < 20/3.
EDGE_FORMS = [
    "4,2,2;2,6,-2;2,-2,10",
    "1844517422,1718986,63602569;1718986,1602,59274;63602569,59274,2193141",
    "1,0,0;0,1,0;0,0,1",
    "9/2,3,1;3,7,2;1,2,11/3",
]

CALIBRATION_LOOPS = 1_000_000


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a record of host speed, not a metric."""
    t0 = perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x = (x + i * i) % 1000003
    return perf_counter() - t0


# The host-speed reference: Python-level products of 256-bit integers kept
# in a dict, as the series kernels multiply, and sums of products of small
# fractions, as the reduction and the exact checks compute.  Neighbours on a
# shared host slow this process by up to 1.7x for seconds at a time.  In a
# probe on a 2-vCPU VM, dividing each operation's time by this reference cut
# the spread of sequence times on all three workloads from 0.25-0.32 to
# 0.05-0.08 (quartile distance over median).  It is fixed code of the
# benchmark, so a change to fjcert moves the times but not the reference.
_REF = random.Random(0)
REF_INTS = [_REF.getrandbits(256) for _ in range(24)]
REF_FRACTIONS = [Fraction(_REF.randint(-50, 50), _REF.randint(1, 9)) for _ in range(40)]


def reference():
    out: dict = {}
    for i, x in enumerate(REF_INTS):
        for j, y in enumerate(REF_INTS):
            prev = out.get(i + j)
            out[i + j] = x * y if prev is None else prev + x * y
    total = Fraction(0)
    for x in REF_FRACTIONS:
        for y in REF_FRACTIONS[:2]:
            total += x * y
    return out, total


class HostSpeed:
    """Times reference() every PERIOD_S seconds of wall time while a sequence runs.

    A SIGALRM handler runs it between two bytecodes of the main thread and
    records its duration; Ops takes the handler's time out of the operation
    it interrupted and divides the operation's time by the mean duration of
    the samples taken during it, or by the latest sample before it ended.
    """

    PERIOD_S = 0.05
    WARM = 20

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in tick(), which Ops takes out of the operations' times
        self.busy = False

    def tick(self, signum=None, frame=None):
        if self.busy:  # a signal that arrives during a tick is dropped, so no time is taken out twice
            return
        self.busy = True
        t0 = perf_counter()
        reference()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.spent += perf_counter() - t0
        self.busy = False

    def __enter__(self):
        for _ in range(self.WARM):
            self.tick()
        del self.samples[:-1]
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Ops:
    """Runs, times and checks the operations of one sequence."""

    def __init__(self, main, work: str, tracer=None, host=None):
        self.main = main
        self.work = work
        self.tracer = tracer
        self.host = host
        self.ledger = Ledger()
        self.edge = Ledger()
        # (operation, seconds, the seconds in units of reference() or None without a host sampler)
        self.times: list[tuple[str, float, float | None]] = []
        self.violations = 0

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def read(self, name: str) -> bytes:
        with open(self.path(name), "rb") as fh:
            return fh.read()

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.main(argv)
            except SystemExit as e:  # argparse exits outside main's own handler
                rc = e.code
        return rc, out.getvalue()

    def step(self, op: str, span: str, fn, check, ledger=None):
        """Run fn once as operation `op`, record its check, and return its (seconds, reference units)."""
        if self.tracer:
            self.tracer.tag = op
            root = self.tracer.open(span)
        if self.host:
            first, spent = len(self.host.samples), self.host.spent
        t0 = perf_counter()
        try:
            result, problems = fn(), []
        except Exception as e:  # an uncaught error fails the operation, not the run
            result, problems = None, ["raised %s: %s" % (type(e).__name__, e)]
        elapsed, units = perf_counter() - t0, None
        if self.host:
            elapsed -= self.host.spent - spent
            units = elapsed / statistics.fmean(self.host.samples[first:] or self.host.samples[-1:])
        if self.tracer:
            self.tracer.close(root)
        if not problems:
            try:
                problems = check(result)
            except (KeyError, TypeError, ValueError, OSError) as e:
                problems = ["unreadable output: %s: %s" % (type(e).__name__, e)]
        (ledger or self.ledger).record(op, problems)
        return elapsed, units

    def command(self, op: str, argv: list, check, ledger=None):
        timed = self.step(op, "cli." + argv[0].replace("-", "_"), lambda: self._cli(argv),
                          lambda res: check(*res), ledger)
        if ledger is None:
            self.times.append((op, *timed))

    def relation(self, lift: str, out: str):
        """The monic relation X^2 - f*f through the public API, as demos/07 builds it."""
        from fjcert import FormalFJ, PolynomialOverM

        with open(self.path(lift)) as fh:
            f = FormalFJ.from_record(json.load(fh))
        prod = f.multiply(f)
        q = PolynomialOverM(
            [FormalFJ.zero(2 * f.k, prod.M_max, prod.prec) - prod,
             FormalFJ.zero(f.k, f.M_max, f.prec),
             FormalFJ.one(f.M_max, f.prec)],
            0, f.k)
        with open(self.path(out), "w") as fh:
            fh.write(json.dumps(q.to_record()))

    def check_reduce(self, text: str, rc, out: str) -> list[str]:
        if rc != 0:
            return exit_problems(rc, 0)
        rec = json.loads(out)
        bad = minkowski_problems(parse_matrix(rec["reduced"]))
        self.violations += bool(bad)
        return reduction_problems(text, rec) + bad


# ---------------------------------------------------------------------------
# workloads: each runs one sequence


def lift_deep(ops: Ops, inputs):
    lift = ops.path("lift40.json")
    ops.command("gen_lift", ["gen-lift", "--weight", "10", "--prec", "40", "--mmax", "40", "--out", lift],
                lambda rc, out: exit_problems(rc, 0) + digest_problems(ops.read("lift40.json"), LIFT40_SHA256))
    ops.command("check_symmetry", ["check-symmetry", "--in", lift, "--report", ops.path("symmetry.txt"), "--json"],
                lambda rc, out: exit_problems(rc, 0) + record_problems(json.loads(out), SYMMETRY))
    ops.command("certify", ["certify", "--in", lift, "--torsion", "2,1,0", "--b", "1/32", "--theta", "0.1",
                            "--report", ops.path("certify.txt"), "--json"],
                lambda rc, out: exit_problems(rc, 0) + record_problems(json.loads(out), CERTIFY))


def box_cert(ops: Ops, inputs):
    mmax = inputs["mmax"]
    lift_sha, relation_sha, bound_report = BOX_CERT[mmax]
    lift = ops.path("lift10.json")
    ops.command("gen_lift", ["gen-lift", "--weight", "10", "--prec", "10", "--mmax", str(mmax), "--out", lift],
                lambda rc, out: exit_problems(rc, 0) + digest_problems(ops.read("lift10.json"), lift_sha))
    ops.times.append(("relation", *ops.step(
        "relation", "relation", lambda: ops.relation("lift10.json", "relation.json"),
        lambda _: digest_problems(ops.read("relation.json"), relation_sha))))
    ops.command("bound_report", ["bound-report", "--in", lift, "--poly", ops.path("relation.json"),
                                 "--box", ops.path("box.json"), "--eps", "0.1", "--points", "5",
                                 "--report", ops.path("bound.txt"), "--json"],
                lambda rc, out: exit_problems(rc, 0) + record_problems(json.loads(out), bound_report))


def reduce_mix(ops: Ops, inputs):
    for op, text in inputs["forms"]:
        ops.command(op, ["reduce", "--json", "--matrix", text],
                    lambda rc, out, text=text: ops.check_reduce(text, rc, out))
    for text in EDGE_FORMS:
        ops.command("edge", ["reduce", "--json", "--matrix", text],
                    lambda rc, out, text=text: ops.check_reduce(text, rc, out), ops.edge)


WORKLOADS = {"lift-deep": lift_deep, "box-cert": box_cert, "reduce-mix": reduce_mix}


def baseline_rows(tracer, workload: str, inputs) -> dict:
    """Inclusive seconds of the ROADMAP baseline-table layers this workload runs."""
    if workload == "lift-deep":
        return {"lift40 build (jacobi_space + gritsenko_lift)":
                tracer.total("gen_lift", "jacobi.jacobi_space") + tracer.total("gen_lift", "fjseries.gritsenko_lift")}
    if workload == "box-cert":
        at = "at M_max %d" % inputs["mmax"]
        return {
            "f*f %s, prec 10 (relation step)" % at: tracer.total("relation", "fjseries.FormalFJ.multiply"),
            "poly_eval in partial_sum_bound_check %s" % at: tracer.total("bound_report", "fjseries.poly_eval"),
            "d_eps over the 625-point grid %s" % at: tracer.total("bound_report", "convergence.d_eps"),
        }
    size3 = [s.end - s.start for s in tracer.spans if s.tag == "reduce3" and s.name == "reduction.minkowski_reduce"]
    return {"minkowski_reduce at size 3, per form": sum(size3) / len(size3)}


def selftest(work: str) -> int:
    """Run two workloads against a fake fjcert whose outputs are corrupted.

    A wrong lift digest, a wrong certify verdict and a ternary form returned
    unreduced must each count as one failed operation, and every later
    operation must still run.
    """
    unreduced = "4,2,2;2,6,-2;2,-2,10"

    def fake_main(argv):
        cmd, flags = argv[0], dict(zip(argv[1:], argv[2:]))
        if cmd == "gen-lift":
            with open(flags["--out"], "w") as fh:
                fh.write('{"k": 10}')
        elif cmd == "check-symmetry":
            print(json.dumps(SYMMETRY))
        elif cmd == "certify":
            print(json.dumps(dict(CERTIFY, growth=dict(CERTIFY["growth"], verdict="fail"))))
        elif flags.get("--matrix") == "5,4;4,5":
            print(json.dumps({"reduced": "2,1;1,5", "transform": "1,0;-1,-1", "hermite_ok": True}))
        else:  # every ternary form comes back unchanged
            print(json.dumps({"reduced": flags["--matrix"], "transform": "1,0,0;0,1,0;0,0,1", "hermite_ok": True}))
        return 0

    ops = Ops(fake_main, work)
    lift_deep(ops, {})
    reduce_mix(ops, {"forms": [["reduce3", unreduced], ["reduce2", "5,4;4,5"]]})
    got = (ops.ledger.attempted, ops.ledger.failed, ops.violations)
    want = (5, 3, 1 + 3)  # edge forms: all but the identity come back unreduced
    ok = got == want and [op for op, _, _ in ops.times] == ["gen_lift", "check_symmetry", "certify", "reduce3", "reduce2"]
    print("gate self-test: attempted, failed, Minkowski violations = %s, expected %s: %s"
          % (got, want, "ok" if ok else "FAILED"))
    for reason in ops.ledger.reasons:
        print("  " + reason)
    return 0 if ok else 1


def main(argv) -> int:
    root, work, workload, mode = argv
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import fjcert
    import fjcert.cli

    if not os.path.abspath(fjcert.__file__).startswith(os.path.join(src, "")):
        print("fjcert imported from %s, not from %s" % (fjcert.__file__, src), file=sys.stderr)
        return 2
    print("ready", flush=True)
    if mode == "setup":
        return 0
    tracer = None
    if mode == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install(fjcert)
    with open(os.path.join(work, "inputs.json")) as fh:
        inputs = json.load(fh)
    host = HostSpeed() if mode == "run" else None
    ops = Ops(fjcert.cli.main, work, tracer, host)
    with host or contextlib.nullcontext():
        WORKLOADS[workload](ops, inputs)
    result = {
        "times": ops.times,
        "wall_s": sum(t for _, t, _ in ops.times),
        "wall_ref": sum(u for _, _, u in ops.times) if host else None,
        "reference_ms": 1e3 * statistics.median(host.samples) if host else None,
        "attempted": ops.ledger.attempted,
        "failed": ops.ledger.failed,
        "reasons": ops.ledger.reasons,
        "edge_attempted": ops.edge.attempted,
        "edge_failed": ops.edge.failed,
        "edge_reasons": ops.edge.reasons,
        "violations": ops.violations,
        "calibration_s": calibrate(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["layers"] = tracer.layers()
        result["baseline"] = baseline_rows(tracer, workload, inputs)
        tracer.dump(os.path.join(work, "spans.tsv"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
