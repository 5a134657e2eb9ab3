"""End-to-end exit-code and file-format tests for the command line."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import schoolbook
from fjcert import cli, jacobi, reduction
from fjcert.cli import main
from fjcert.convergence import CompactBoxSpec
from fjcert.core import _eis_dict
from fjcert.fjseries import FormalFJ, PolynomialOverM, gritsenko_lift
from fjcert.jacobi import JacobiFormQExp, _Texts, jacobi_space


@pytest.fixture(scope="module")
def lift_file(tmp_path_factory, lift8):
    f, _ = lift8
    path = tmp_path_factory.mktemp("cli") / "lift8.json"
    path.write_text(json.dumps(f.to_record()))
    return path


@pytest.fixture(scope="module")
def geometric_file(tmp_path_factory):
    # single-term slices give an exactly geometric tail, so certify passes
    phis = [JacobiFormQExp.zero(10, 0, 3)]
    phis += [JacobiFormQExp(10, m, 3, {(1, 0): Fraction(1)}) for m in range(1, 61)]
    f = FormalFJ(10, 60, phis)
    path = tmp_path_factory.mktemp("cli") / "geometric.json"
    path.write_text(json.dumps(f.to_record()))
    return path


def square_relation(f):
    prod = f.multiply(f)
    return PolynomialOverM(
        [
            FormalFJ.zero(2 * f.k, prod.M_max, prod.prec) - prod,
            FormalFJ.zero(f.k, f.M_max, f.prec),
            FormalFJ.one(f.M_max, f.prec),
        ],
        0,
        f.k,
    )


# ---------------------------------------------------------------------------
# top-level parsing


def test_no_command_is_usage_error(capsys):
    assert main([]) == 64
    assert "usage" in capsys.readouterr().err


def test_unknown_command_exits_64():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 64


TOP_USAGE = "usage: fjcert [-h] COMMAND ...\n"
REDUCE_USAGE = "usage: fjcert reduce [-h] [--json] [--config CONFIG] [--matrix MATRIX]\n"
TOP_HELP = TOP_USAGE + """
formal Fourier-Jacobi series toolkit

positional arguments:
  COMMAND
    gen-lift      generate a lift from the first cusp basis element
    check-symmetry
                  audit the coefficient symmetry of a series file
    certify       growth fit and pointwise convergence at a torsion point
    bound-report  locally-bounded certificate on a compact box
    reduce        Minkowski-reduce a small positive definite matrix

options:
  -h, --help      show this help message and exit
"""
REDUCE_HELP = REDUCE_USAGE + """
options:
  -h, --help       show this help message and exit
  --json           machine-readable stdout
  --config CONFIG  key=value config file (flags win)
  --matrix MATRIX  entries "a,b;b,c"
"""

# exit code, stdout and stderr of argument errors and help requests, as
# recorded when the top-level parser read every argv; a stderr ending in
# "..." is pinned up to there, since later argparse versions print the
# choices of an unknown command without quotes
ARGV_ROUTES = [
    ([], 64, "", TOP_USAGE),
    (["frobnicate"], 64, "", TOP_USAGE + "fjcert: error: argument COMMAND: invalid choice: 'frobnicate' ..."),
    (["-h"], 0, TOP_HELP, ""),
    (["reduce", "-h"], 0, REDUCE_HELP, ""),
    (["reduce", "--matrix", "5,4;4,5", "--bogus"], 64, "", TOP_USAGE + "fjcert: error: unrecognized arguments: --bogus\n"),
    (["reduce", "--matrix"], 64, "", REDUCE_USAGE + "fjcert reduce: error: argument --matrix: expected one argument\n"),
    (
        ["gen-lift", "--weight", "x"],
        64,
        "",
        "usage: fjcert gen-lift [-h] [--json] [--config CONFIG] [--weight WEIGHT]\n"
        "                       [--prec PREC] [--mmax MMAX] [--out OUT]\n"
        "fjcert gen-lift: error: argument --weight: invalid int value: 'x'\n",
    ),
    (["--json", "reduce"], 64, "", TOP_USAGE + "fjcert: error: unrecognized arguments: --json\n"),
    (["reduce", "--json", "--matrix", "5,4;4,5", "x", "--", "--y"], 64, "", TOP_USAGE + "fjcert: error: unrecognized arguments: x -- --y\n"),
]


def run_main(argv, entry=main):
    """(exit code, stdout, stderr) of entry(argv), SystemExit included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = entry(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, code, stdout, stderr", ARGV_ROUTES)
def test_argument_errors_and_help_keep_their_output(monkeypatch, argv, code, stdout, stderr):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage and help to the terminal width
    got = run_main(argv)
    if stderr.endswith("..."):
        assert got[:2] == (code, stdout) and got[2].startswith(stderr[:-3])
    else:
        assert got == (code, stdout, stderr)
    assert got == run_main(argv, parse_all)


def parse_all(argv):
    """main's old route for these argv: the top-level parser reads all of it,
    and without a command prints its usage."""
    parser = cli._build_parser()[0]
    assert parser.parse_args(argv).command is None
    parser.print_usage(sys.stderr)
    return 64


def test_module_entry_point_reads_sys_argv():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "fjcert.cli", "reduce", "--matrix", "5,4;4,5"], capture_output=True, text=True, env=env, timeout=60
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "reduced: 2,1;1,5\ntransform: -1,-1;1,0\nhermite_ok: True\n", "")


def test_main_calls_in_one_process_are_independent(tmp_path, capsys):
    # the parser is built once per process; nothing may carry over between calls
    assert main(["reduce", "--json", "--matrix", "5,4;4,5"]) == 0
    assert json.loads(capsys.readouterr().out)["reduced"] == "2,1;1,5"
    with pytest.raises(SystemExit) as e:
        main(["reduce", "--matrix", "5,4;4,5", "--bogus"])
    assert e.value.code == 64
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert main(["check-symmetry", "--in", str(tmp_path / "missing.json"), "--report", str(tmp_path / "r.txt")]) == 3
    assert "cannot parse" in capsys.readouterr().err
    assert main(["reduce", "--matrix", "5,4;4,5"]) == 0
    assert capsys.readouterr().out == "reduced: 2,1;1,5\ntransform: -1,-1;1,0\nhermite_ok: True\n"


def test_bad_flag_value_exits_64():
    with pytest.raises(SystemExit) as e:
        main(["certify", "--theta", "abc"])
    assert e.value.code == 64
    with pytest.raises(SystemExit) as e:
        main(["certify", "--torsion", "2,1"])
    assert e.value.code == 64


# ---------------------------------------------------------------------------
# gen-lift


def test_gen_lift_round_trips(tmp_path, lift8, capsys):
    f, _ = lift8
    out = tmp_path / "lift.json"
    assert main(["gen-lift", "--weight", "10", "--prec", "8", "--mmax", "8", "--out", str(out)]) == 0
    assert "wrote weight-10 lift" in capsys.readouterr().out
    assert out.read_text() == json.dumps(f.to_record())
    assert FormalFJ.from_record(json.loads(out.read_text())) == f


def test_gen_lift_json_stdout(tmp_path, capsys):
    out = tmp_path / "lift.json"
    rc = main(["gen-lift", "--weight", "10", "--prec", "3", "--mmax", "2", "--out", str(out), "--json"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["weight"] == 10 and rec["cuspidal"] is True


def test_gen_lift_reports_cuspidal_without_a_scan(tmp_path, capsys, monkeypatch, lift8):
    # _lift rejects a table with C[0] or C[-1] nonzero and stores only 4nm - r^2 >= 1
    def scan(self):
        raise AssertionError("gen-lift scanned the lift")

    out = tmp_path / "lift.json"
    with monkeypatch.context() as patch:
        patch.setattr(FormalFJ, "is_cuspidal", scan)
        patch.setattr(JacobiFormQExp, "is_cusp", scan)
        assert main(["gen-lift", "--weight", "10", "--prec", "8", "--mmax", "8", "--out", str(out), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["cuspidal"] is True
    f = FormalFJ.from_record(json.loads(out.read_text()))
    assert f == lift8[0] and f.is_cuspidal()


def test_gen_lift_builds_only_the_basis_element_it_lifts(tmp_path, monkeypatch):
    # the weight-24 cusp space has dimension 3; gen-lift lifts the first element
    taken = []

    def counted(k, prec):
        for element in cusp_components(k, prec):
            taken.append(k)
            yield element

    cusp_components = jacobi._cusp_components
    monkeypatch.setattr(jacobi, "_cusp_components", counted)
    out = tmp_path / "lift.json"
    assert main(["gen-lift", "--weight", "24", "--prec", "4", "--mmax", "3", "--out", str(out)]) == 0
    assert taken == [24]
    basis = jacobi_space(24, True, 10)  # generator precision (4 - 1) * 3 + 1
    assert len(basis) == 3
    assert FormalFJ.from_record(json.loads(out.read_text())) == gritsenko_lift(basis[0], 3, 4)


def test_gen_lift_empty_space_exits_2(tmp_path, capsys):
    out = tmp_path / "lift.json"
    assert main(["gen-lift", "--weight", "4", "--out", str(out)]) == 2
    assert main(["gen-lift", "--weight", "7", "--out", str(out)]) == 2
    assert not out.exists()
    assert "error" in capsys.readouterr().err


def test_gen_lift_usage_errors(tmp_path):
    assert main(["gen-lift", "--out", str(tmp_path / "x.json")]) == 64
    assert main(["gen-lift", "--weight", "10", "--prec", "0", "--out", str(tmp_path / "x.json")]) == 64
    assert main(["gen-lift", "--weight", "10"]) == 64


# ---------------------------------------------------------------------------
# check-symmetry


def test_check_symmetry_clean_series(tmp_path, lift_file, capsys):
    report = tmp_path / "sym.txt"
    rc = main(["check-symmetry", "--in", str(lift_file), "--report", str(report), "--json"])
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["violations"] == []
    assert rec["bound"] == 7  # min(M_max, prec - 1) when no flag is given
    assert "violations 0" in report.read_text()


def test_check_symmetry_flags_corruption(tmp_path, lift8, capsys):
    f, _ = lift8
    phis = list(f.phis)
    bumped = dict(phis[2].coeffs)
    bumped[(1, 1)] = bumped.get((1, 1), Fraction(0)) + 1
    phis[2] = JacobiFormQExp(f.k, 2, phis[2].prec, bumped)
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(FormalFJ(f.k, f.M_max, phis).to_record()))
    report = tmp_path / "sym.txt"
    rc = main(["check-symmetry", "--in", str(broken), "--report", str(report), "--json"])
    assert rc == 1
    rec = json.loads(capsys.readouterr().out)
    assert len(rec["violations"]) == 6
    assert report.exists()


def test_check_symmetry_parse_error_exits_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    assert main(["check-symmetry", "--in", str(bad), "--report", str(tmp_path / "r.txt")]) == 3
    bad.write_text(json.dumps({"k": 8}))
    assert main(["check-symmetry", "--in", str(bad), "--report", str(tmp_path / "r.txt")]) == 3


def test_series_with_a_float_or_bool_integer_field_exits_3(tmp_path, lift_file, capsys):
    bad = tmp_path / "bad.json"
    for field, value in (("k", 10.9), ("M_max", 8.0), ("k", True)):
        rec = json.loads(lift_file.read_text())
        rec[field] = value
        bad.write_text(json.dumps(rec))
        assert main(["check-symmetry", "--in", str(bad), "--report", str(tmp_path / "r.txt")]) == 3
        err = capsys.readouterr().err
        assert "expected an integer" in err and "Traceback" not in err


def test_check_symmetry_bad_bound_is_usage_error(tmp_path, lift_file):
    rc = main(["check-symmetry", "--in", str(lift_file), "--bound", "99", "--report", str(tmp_path / "r.txt")])
    assert rc == 64


# ---------------------------------------------------------------------------
# certify


def test_certify_passes_on_geometric_series(tmp_path, geometric_file, capsys):
    report = tmp_path / "cert.txt"
    rc = main(["certify", "--in", str(geometric_file), "--report", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "growth: degenerate-pass" in out
    assert "pointwise: pass" in out
    assert "verdict: pass" in report.read_text()
    with open(str(report) + ".fe_norms.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["m", "fe_norm"] and len(rows) == 61
    with open(str(report) + ".partial_sums.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["M", "partial_sum"] and len(rows) == 61


def test_certify_failure_still_writes_reports(tmp_path, lift_file, capsys):
    report = tmp_path / "cert.txt"
    rc = main(
        [
            "certify", "--in", str(lift_file), "--report", str(report),
            "--torsion", "2,1,0", "--b", "1/128", "--theta", "0.5",
        ]
    )
    assert rc == 1
    text = report.read_text()
    assert "verdict: pass" in text  # the growth fit clears its threshold
    assert "verdict: fail" in text  # the pointwise audit does not
    assert "sampled:\n  slope: least-squares fit" in text
    assert (tmp_path / "cert.txt.fe_norms.csv").exists()
    assert (tmp_path / "cert.txt.partial_sums.csv").exists()
    assert "pointwise: fail" in capsys.readouterr().out


def test_certify_window_beyond_precision_is_reported(tmp_path, lift_file, capsys):
    report = tmp_path / "cert.txt"
    rc = main(["certify", "--in", str(lift_file), "--report", str(report), "--torsion", "2,0,1"])
    assert rc == 1
    assert "hypothesis-failure" in report.read_text()
    assert "window exponent" in capsys.readouterr().err


@pytest.mark.parametrize(
    "torsion, b, mmax, top, need",
    [
        # the growth window at N = 2, b = 1/128 reaches 15/8; at lam = 1/2 a
        # prec-40 lift covers it up to m = 94 only
        ("2,1,0", "1/128", 120, "15/8", 49),
        ("2,1,0", "1/128", 200, "15/8", 74),
        # at lam = 0 the certified precision is the lift's own, and prec 8
        # does not cover the exponent 8
        ("2,0,1", "65/2048", 8, "8", 9),
    ],
)
def test_certify_checks_precision_floor_before_specializing(tmp_path, monkeypatch, capsys, torsion, b, mmax, top, need):
    def refuse(*args):
        raise AssertionError("specialize_torsion called before the precision floor was checked")

    monkeypatch.setattr(cli, "specialize_torsion", refuse)
    argv = ["--torsion", torsion, "--b", b, "--tau1", "2j"]
    for prec, fails in [(need - 1, True), (need, False)]:
        series = tmp_path / "zero.json"
        series.write_text(json.dumps(FormalFJ.zero(10, mmax, prec).to_record()))
        report = tmp_path / "cert.txt"
        if not fails:
            monkeypatch.undo()
        rc = main(["certify", "--in", str(series), "--report", str(report)] + argv)
        err = capsys.readouterr().err
        if fails:
            assert rc == 1
            assert report.read_text().startswith("verdict: hypothesis-failure")
            assert "window exponent %s is beyond" % top in err
            assert "prec %d would cover M_max %d" % (need, mmax) in err
        else:
            assert "window exponent" not in err and "window exponent" not in report.read_text()


def test_certify_non_cuspidal_exits_4(tmp_path, capsys):
    e4 = schoolbook.pad_index0(4, _eis_dict(4, 9), 8, 9)
    series = tmp_path / "e4.json"
    series.write_text(json.dumps(e4.to_record()))
    report = tmp_path / "cert.txt"
    rc = main(["certify", "--in", str(series), "--report", str(report)])
    assert rc == 4
    assert "hypothesis-failure" in report.read_text()
    assert "not cuspidal" in capsys.readouterr().err


def test_certify_scans_each_slice_once(tmp_path, geometric_file, monkeypatch):
    scans = []
    is_cusp = JacobiFormQExp.is_cusp
    monkeypatch.setattr(JacobiFormQExp, "is_cusp", lambda phi: scans.append(phi.m) or is_cusp(phi))
    assert main(["certify", "--in", str(geometric_file), "--report", str(tmp_path / "cert.txt")]) == 0
    assert sorted(scans) == list(range(1, 61))


def test_certify_overflowing_tau1_exits_1(tmp_path, lift_file, capsys):
    # at tau1 = 300j the torsion point z = tau1 / 2 makes e(z) underflow to 0
    report = tmp_path / "cert.txt"
    argv = ["certify", "--in", str(lift_file), "--report", str(report), "--torsion", "2,1,0", "--b", "1/128"]
    assert main(argv + ["--tau1", "300j"]) == 1
    assert capsys.readouterr().err.count("error:") == 1
    assert "hypothesis-failure" in report.read_text() and "overflows" in report.read_text()


def test_certify_usage_errors(tmp_path, lift_file):
    report = str(tmp_path / "cert.txt")
    assert main(["certify", "--in", str(lift_file), "--report", report, "--theta", "1.5"]) == 64
    assert main(["certify", "--in", str(lift_file), "--report", report, "--tau1", "1+0i"]) == 64
    assert main(["certify", "--in", str(lift_file), "--report", report, "--M", "5"]) == 64
    assert main(["certify", "--in", str(lift_file)]) == 64


# ---------------------------------------------------------------------------
# bound-report


@pytest.fixture(scope="module")
def relation_files(tmp_path_factory, lift8):
    f, _ = lift8
    base = tmp_path_factory.mktemp("cli")
    poly = base / "poly.json"
    poly.write_text(json.dumps(square_relation(f).to_record()))
    box = base / "box.json"
    box.write_text(json.dumps(CompactBoxSpec(((1j, 0.25j), (1j, 0.1 + 0.05j)), 0.1).to_record()))
    return poly, box


def test_bound_report_passes(tmp_path, lift_file, relation_files, capsys):
    poly, box = relation_files
    report = tmp_path / "bound.txt"
    rc = main(
        [
            "bound-report", "--in", str(lift_file), "--poly", str(poly),
            "--box", str(box), "--points", "3", "--report", str(report),
        ]
    )
    assert rc == 0
    assert "bound report: pass" in capsys.readouterr().out
    assert "verdict: pass" in report.read_text()
    with open(str(report) + ".partial_sums.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["M", "max_abs_partial_sum"] and len(rows) == 9


def test_bound_report_eps_flag_wins(tmp_path, lift_file, relation_files, capsys):
    poly, box = relation_files
    report = tmp_path / "bound.txt"
    rc = main(
        [
            "bound-report", "--in", str(lift_file), "--poly", str(poly), "--box", str(box),
            "--eps", "0.2", "--points", "2", "--report", str(report), "--json",
        ]
    )
    assert rc == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["tolerances"]["eps"] == 0.2
    assert sorted(rec["sampled"]) == ["D_eps", "max_partial_sum"]
    assert "  D_eps: max over the" in report.read_text()


def test_bound_report_non_monic_exits_5(tmp_path, lift8, lift_file, relation_files, capsys):
    f, _ = lift8
    _, box = relation_files
    doubled = PolynomialOverM(
        [FormalFJ.zero(10, f.M_max, f.prec), FormalFJ.one(f.M_max, f.prec).scalar_mul(2)], 0, 10
    )
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps(doubled.to_record()))
    report = tmp_path / "bound.txt"
    rc = main(
        ["bound-report", "--in", str(lift_file), "--poly", str(poly), "--box", str(box), "--report", str(report)]
    )
    assert rc == 5
    assert "hypothesis-failure" in report.read_text()
    assert "not monic" in capsys.readouterr().err


def test_bound_report_parse_errors_exit_3(tmp_path, lift_file, relation_files):
    poly, box = relation_files
    report = str(tmp_path / "bound.txt")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"k0": 0}))
    assert main(["bound-report", "--in", str(lift_file), "--poly", str(bad), "--box", str(box), "--report", report]) == 3
    bad.write_text(json.dumps({"eps": 0.1}))
    assert main(["bound-report", "--in", str(lift_file), "--poly", str(poly), "--box", str(bad), "--report", report]) == 3
    assert main(["bound-report", "--in", str(bad), "--poly", str(poly), "--box", str(box), "--report", report]) == 3


def test_bound_report_box_must_be_an_object(tmp_path, lift_file, relation_files):
    poly, _ = relation_files
    box = tmp_path / "box.json"
    box.write_text("[]")
    rc = main(["bound-report", "--in", str(lift_file), "--poly", str(poly), "--box", str(box),
               "--report", str(tmp_path / "r.txt")])
    assert rc == 3


@pytest.mark.parametrize(
    "tau1, z, code",
    [("nanj", "0.25j", 3), ("1e400+1j", "0.25j", 3), ("1j", "nanj", 3), ("1j", "1e400j", 3), ("1j", "200j", 1)],
)
def test_bound_report_non_finite_or_overflowing_box_point(tmp_path, lift_file, relation_files, capsys, tau1, z, code):
    # a non-finite box entry cannot be parsed; at the finite z = 200j, e(z)
    # underflows to 0 and the run exits 1 with one error line
    poly, _ = relation_files
    box = tmp_path / "box.json"
    box.write_text(json.dumps({"U": [[tau1, z]], "eps": 0.1}))
    argv = ["bound-report", "--in", str(lift_file), "--poly", str(poly), "--box", str(box), "--report", str(tmp_path / "r.txt")]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and ("finite" if code == 3 else "overflows") in err


def with_zero_denominator(series_rec, text="1/0"):
    """The series record with its first stored coefficient replaced by text."""
    phi = next(phi for phi in series_rec["phis"] if phi["coeffs"])
    phi["coeffs"][0][2] = text
    return series_rec


def test_series_zero_denominator_exits_3(tmp_path, lift_file, capsys):
    bad = tmp_path / "bad.json"
    for text in ("1/0", "x"):
        bad.write_text(json.dumps(with_zero_denominator(json.loads(lift_file.read_text()), text)))
        assert main(["check-symmetry", "--in", str(bad), "--report", str(tmp_path / "r.txt")]) == 3
        assert "Traceback" not in capsys.readouterr().err


def test_poly_zero_denominator_exits_3(tmp_path, lift_file, relation_files):
    poly, box = relation_files
    rec = json.loads(poly.read_text())
    with_zero_denominator(rec["coeffs"][0])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(rec))
    rc = main(["bound-report", "--in", str(lift_file), "--poly", str(bad), "--box", str(box),
               "--report", str(tmp_path / "r.txt")])
    assert rc == 3


def first_slice(rec):
    """The first slice record with a stored coefficient, in a series record
    or in the first coefficient of a polynomial record."""
    series = rec["coeffs"][0] if "k0" in rec else rec
    return next(phi for phi in series["phis"] if phi["coeffs"])


BAD_SLICES = {
    "coeffs-not-a-list": lambda phi: phi.update(coeffs=5),
    "no-prec": lambda phi: phi.pop("prec"),
    "four-element-triple": lambda phi: phi["coeffs"][0].append(2),
    "zero-denominator": lambda phi: phi["coeffs"][0].__setitem__(2, "1/0"),
    "bare-slice": None,
}


def assert_exits_3(command, flag, text, tmp_path, lift_file, relation_files, capsys):
    """command on the test files, the file of flag replaced by one holding text,
    exits 3 with one "cannot parse" line and no traceback."""
    poly, box = relation_files
    files = {"--in": lift_file, "--poly": poly, "--box": box} if command == "bound-report" else {"--in": lift_file}
    files[flag] = tmp_path / "bad.json"
    files[flag].write_text(text)
    argv = [command] + [x for item in files.items() for x in map(str, item)] + ["--report", str(tmp_path / "r.txt")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "cannot parse" in err and "Traceback" not in err


@pytest.mark.parametrize("bad_slice", sorted(BAD_SLICES))
@pytest.mark.parametrize("command, flag", [("check-symmetry", "--in"), ("certify", "--in"), ("bound-report", "--in"), ("bound-report", "--poly")])
def test_bad_slice_records_exit_3(tmp_path, lift_file, relation_files, capsys, command, flag, bad_slice):
    # slice records are built while the file is decoded: their errors
    # surface inside json.load and still exit 3 with one line
    rec = json.loads((relation_files[0] if flag == "--poly" else lift_file).read_text())
    if BAD_SLICES[bad_slice]:
        BAD_SLICES[bad_slice](first_slice(rec))
    else:
        rec = first_slice(rec)
    assert_exits_3(command, flag, json.dumps(rec), tmp_path, lift_file, relation_files, capsys)


@pytest.mark.parametrize("command, flag", [("check-symmetry", "--in"), ("certify", "--in"), ("bound-report", "--poly"), ("bound-report", "--box")])
def test_deeply_nested_json_exits_3(tmp_path, lift_file, relation_files, capsys, command, flag):
    assert_exits_3(command, flag, "[" * 200000 + "]" * 200000, tmp_path, lift_file, relation_files, capsys)


def test_slice_hook_builds_slices_only(lift8, relation_files):
    f, _ = lift8
    poly, _ = relation_files
    assert cli._slice_hook(f.phis[3].to_record(), _Texts()) == f.phis[3]
    series, relation = f.to_record(), json.loads(poly.read_text())
    for rec in (series, relation, {"k0": 0, "k": 10, "coeffs": []}, dict(f.phis[3].to_record(), note="")):
        assert cli._slice_hook(rec, _Texts()) is rec
    assert cli._load_record(str(poly), PolynomialOverM).coeffs == PolynomialOverM.from_record(relation).coeffs
    # library callers still pass slice records as dicts, or slices already built
    assert FormalFJ.from_record(series) == FormalFJ.from_record(dict(series, phis=list(f.phis))) == f


def test_reader_holds_one_slice_of_json_lists(tmp_path, lift40):
    # the decoded text and the series read from it, plus little more
    f, _ = lift40
    path = tmp_path / "lift40.json"
    with open(path, "w") as fh:
        f.write_json(fh)
    tracemalloc.start()
    try:
        back = cli._load_record(str(path), FormalFJ)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back == f
    assert peak < 1.5 * (path.stat().st_size + kept)


def lift40_file(tmp_path, lift40):
    f, _ = lift40
    path = tmp_path / "lift40.json"
    with open(path, "w") as fh:
        f.write_json(fh)
    return f, path


def test_reader_shares_one_object_per_value(tmp_path, lift40):
    # within the slices of one denominator each value text stands for one
    # numerator, and equal numerators are one object
    f, path = lift40_file(tmp_path, lift40)
    back = cli._load_record(str(path), FormalFJ)
    assert back == f
    recs = json.loads(path.read_text())["phis"]
    for den in (1, 2):
        texts = {t for phi, rec in zip(back.phis, recs) if phi.den == den for _, _, t in rec["coeffs"]}
        values = [v for phi in back.phis if phi.den == den for row in phi.num.values() for v in row.values()]
        assert texts and len({id(v) for v in values}) == len(set(values)) <= len(texts)


def test_reader_keeps_few_bytes_per_term(tmp_path, lift40):
    # per stored term a dict slot and, once per distinct value, an int:
    # 53.4 bytes per term on lift40 with shared values, 84.1 with one int per term
    f, path = lift40_file(tmp_path, lift40)
    terms = sum(len(phi.coeffs) for phi in f.phis)
    tracemalloc.start()
    try:
        back = cli._load_record(str(path), FormalFJ)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert back == f
    assert kept <= 64 * terms


def test_bound_report_reads_eps_string_from_box(tmp_path, lift_file, relation_files, capsys):
    poly, box = relation_files
    report = str(tmp_path / "bound.txt")
    rec = json.loads(box.read_text())
    base = ["bound-report", "--in", str(lift_file), "--poly", str(poly), "--points", "2", "--report", report]
    for eps, code in (("0.1", 0), ("abc", 3), ([0.1], 3)):
        path = tmp_path / "box.json"
        path.write_text(json.dumps(dict(rec, eps=eps)))
        assert main(base + ["--box", str(path)]) == code
    assert "Traceback" not in capsys.readouterr().err


def test_bound_report_bad_eps_is_usage_error(tmp_path, lift_file, relation_files, capsys):
    # K_2eps samples Schur complements in [2 eps, 1/(2 eps)], which is empty from eps = 1/2 on
    poly, box = relation_files
    base = ["bound-report", "--in", str(lift_file), "--poly", str(poly), "--box", str(box),
            "--points", "2", "--report", str(tmp_path / "r.txt")]
    for eps in ("1.5", "0.5", "0.7"):
        assert main(base + ["--eps", eps]) == 64
        assert "eps must lie in (0, 1/2)" in capsys.readouterr().err
    assert main(base + ["--eps", "0.49"]) == 0


# ---------------------------------------------------------------------------
# reduce


def test_reduce_pinned_example(capsys):
    assert main(["reduce", "--matrix", "5,4;4,5"]) == 0
    out = capsys.readouterr().out
    assert "reduced: 2,1;1,5" in out
    assert "transform: -1,-1;1,0" in out
    assert "hermite_ok: True" in out


def test_reduce_identity_and_json(capsys):
    assert main(["reduce", "--matrix", "1,0;0,1", "--json"]) == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["reduced"] == "1,0;0,1"
    assert rec["hermite_ok"] is True


def test_reduce_rejects_indefinite(capsys):
    assert main(["reduce", "--matrix", "1,2;2,1"]) == 6
    assert "not positive definite" in capsys.readouterr().err


def test_reduce_tests_positive_definiteness_once_per_form(monkeypatch, capsys):
    tests = []
    positive_definite = reduction._positive_definite
    monkeypatch.setattr(reduction, "_positive_definite", lambda g: tests.append(len(g)) or positive_definite(g))
    assert main(["reduce", "--matrix", "1,2;2,1"]) == 6
    assert capsys.readouterr().err == "error: matrix is not positive definite\n"
    assert tests == [2]
    tests.clear()
    assert main(["reduce", "--json", "--matrix", "9/2,3,1;3,7,2;1,2,11/3"]) == 0
    # once for the input: its reduction keeps it positive definite
    assert tests == [3]


def test_reduce_scans_the_minkowski_conditions_once_per_form(monkeypatch, capsys):
    scans = []
    first_violation = reduction._first_violation
    monkeypatch.setattr(reduction, "_first_violation", lambda g: scans.append(len(g)) or first_violation(g))
    # the identity is reduced: one scan proves it, and the Hermite step does not repeat it
    assert main(["reduce", "--matrix", "1,0;0,1"]) == 0
    assert capsys.readouterr().out == "reduced: 1,0;0,1\ntransform: 1,0;0,1\nhermite_ok: True\n"
    assert scans == [2]


def test_reduce_usage_errors():
    assert main(["reduce", "--matrix", "1,2;2"]) == 64
    assert main(["reduce", "--matrix", "1/0,0;0,1"]) == 64
    assert main(["reduce", "--matrix", "1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1"]) == 64
    assert main(["reduce"]) == 64
    # entries whose numerator or denominator Python could not print
    for entry in ("1e5000", "1e-5000", "1e100000000"):
        assert exit_code(["reduce", "--matrix", "%s,0;0,1" % entry]) == 64


# ---------------------------------------------------------------------------
# configuration precedence


def test_flag_beats_config_beats_default(tmp_path, lift_file, capsys):
    cfg = tmp_path / "fjcert.cfg"
    cfg.write_text("# comment line\nbound = 2\n")
    report = str(tmp_path / "r.txt")
    base = ["check-symmetry", "--in", str(lift_file), "--report", report, "--json"]
    assert main(base + ["--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["bound"] == 2
    assert main(base + ["--config", str(cfg), "--bound", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["bound"] == 3
    assert main(base) == 0
    assert json.loads(capsys.readouterr().out)["bound"] == 7


def test_no_threads_knob(tmp_path, lift_file, monkeypatch, capsys):
    report = str(tmp_path / "r.txt")
    base = ["check-symmetry", "--in", str(lift_file), "--report", report]
    with pytest.raises(SystemExit) as e:
        main(base + ["--threads", "2"])
    assert e.value.code == 64
    assert "unrecognized arguments: --threads" in capsys.readouterr().err
    monkeypatch.setenv("FJCERT_THREADS", "0")
    assert main(base) == 0


def test_config_file_errors(tmp_path, lift_file):
    report = str(tmp_path / "r.txt")
    base = ["check-symmetry", "--in", str(lift_file), "--report", report]
    assert main(base + ["--config", str(tmp_path / "missing.cfg")]) == 64
    cfg = tmp_path / "fjcert.cfg"
    cfg.write_text("no equals sign\n")
    assert main(base + ["--config", str(cfg)]) == 64
    cfg.write_text("bound = shrug\n")
    assert main(base + ["--config", str(cfg)]) == 64


# ---------------------------------------------------------------------------
# the exit-code contract under malformed input

CONTRACT = set(range(7)) | {64}


def exit_code(argv):
    """Exit code of main(argv); stdout and stderr are swallowed, and stderr
    must show no traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    assert "Traceback" not in err.getvalue()
    return code


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A directory holding a prec-4, M_max-8 lift, its X^2 - f*f relation and
    a two-point box, with the three records; step12.json is the plain X over
    ladder step 12, which the weight-10 lift cannot satisfy."""
    base = tmp_path_factory.mktemp("fuzz")
    f = gritsenko_lift(jacobi_space(10, True, 3 * 8 + 1)[0], 8, 4)
    box = CompactBoxSpec(((1j, 0.25j), (1j, 0.1 + 0.05j)), 0.1)
    recs = {"in": f.to_record(), "poly": square_relation(f).to_record(), "box": box.to_record()}
    for name, rec in recs.items():
        (base / (name + ".json")).write_text(json.dumps(rec))
    step12 = PolynomialOverM([FormalFJ.zero(12, f.M_max, f.prec), FormalFJ.one(f.M_max, f.prec)], 0, 12)
    (base / "step12.json").write_text(json.dumps(step12.to_record()))
    return base, recs


def fuzz_argv(base, command):
    files = ["--in", str(base / "in.json")]
    if command == "bound-report":
        files += ["--poly", str(base / "poly.json"), "--box", str(base / "box.json"), "--points", "2"]
    return [command] + files + ["--report", str(base / "report.txt")]


@pytest.mark.parametrize(
    "extra, code",
    [
        (["bound-report", "--mmax", "0"], 64),
        (["bound-report", "--mmax", "9"], 64),  # M_max of the lift is 8
        (["bound-report", "--points", "0"], 64),
        (["bound-report", "--points", "-2"], 64),
        (["bound-report", "--points", "1000000000"], 64),
        (["bound-report", "--poly", "step12.json"], 5),
        (["certify", "--slack", "-1"], 64),
        (["certify", "--b", "0"], 64),
        (["certify", "--tau1", "nanj"], 64),
        (["certify", "--tau1", "1e400j"], 64),
        (["certify", "--tau1", "nan+1j"], 64),
        (["certify", "--slack", "nan"], 64),
        (["certify", "--slack", "inf"], 64),
        (["certify", "--cap", "0"], 64),
        (["certify", "--cap", "-1"], 64),
        (["bound-report", "--kappa", "nan"], 64),
        (["bound-report", "--kappa", "inf"], 64),
        (["bound-report", "--kappa", "0"], 64),
        (["bound-report", "--kappa", "-1"], 64),
        (["certify", "--b", "1e-5000"], 64),
    ],
)
def test_bad_values_exit_per_contract(fuzz_inputs, extra, code):
    base, _ = fuzz_inputs
    flags = [str(base / x) if x.endswith(".json") else x for x in extra[1:]]
    assert exit_code(fuzz_argv(base, extra[0]) + flags) == code


FLAGS = {
    "certify": ["--torsion", "--tau1", "--theta", "--M", "--b", "--slack", "--cap"],
    "bound-report": ["--eps", "--kappa", "--mmax", "--points"],
}
FLAG_VALUES = ["0", "-1", "-3", "1000000000", "1/3", "1/0", "2.5", "nan", "abc", "", "nanj", "1e400j"]


@settings(max_examples=60)
@given(st.sampled_from([(c, flag) for c, flags in FLAGS.items() for flag in flags]), st.sampled_from(FLAG_VALUES))
def test_flag_values_keep_the_contract(fuzz_inputs, command_flag, value):
    base, _ = fuzz_inputs
    command, flag = command_flag
    assert exit_code(fuzz_argv(base, command) + [flag, value]) in CONTRACT


def json_paths(rec, here=()):
    """Every position below the root of a JSON value, as a key path."""
    items = rec.items() if isinstance(rec, dict) else enumerate(rec) if isinstance(rec, list) else ()
    out = []
    for key, v in items:
        out.append(here + (key,))
        out += json_paths(v, here + (key,))
    return out


JSON_VALUES = [0, -1, 10**9, -(10**9), 2.5, "1/3", "1/0", "abc", "", None, [], {}, True, "nanj", "1e400j"]


@settings(max_examples=60)
@given(st.data())
def test_one_field_json_mutations_keep_the_contract(fuzz_inputs, data):
    base, recs = fuzz_inputs
    name = data.draw(st.sampled_from(sorted(recs)))
    path = data.draw(st.sampled_from(json_paths(recs[name])))
    rec = json.loads(json.dumps(recs[name]))
    node = rec
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(st.sampled_from(JSON_VALUES))
    mutated = base / "mutated.json"
    mutated.write_text(json.dumps(rec))
    for command in ("certify", "bound-report") if name == "in" else ("bound-report",):
        assert exit_code(fuzz_argv(base, command) + ["--" + name, str(mutated)]) in CONTRACT
