"""Start-up cost of the command line: each fjcert command runs as its own
process, so what importing fjcert.cli loads is paid on every call."""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# dataclasses loads inspect, ast, dis and tokenize; csv and statistics serve
# one function each (write_csv and growth_fit), which imports its own
DEFERRED = {"dataclasses", "inspect", "ast", "dis", "tokenize", "csv", "statistics"}

# the modules that importing fjcert.cli, then running reduce, adds to those a
# bare interpreter has loaded when its -c program starts
PROBE = """
import contextlib, io, json, sys
bare = set(sys.modules)
sys.path.insert(0, sys.argv[1])
from fjcert.cli import main
imported = set(sys.modules) - bare
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(["reduce", "--json", "--matrix", "2,1;1,2"])
ran = set(sys.modules) - bare
print(json.dumps({"imported": sorted(imported), "ran": sorted(ran), "code": code, "out": json.loads(out.getvalue())}))
"""


def test_cli_import_leaves_one_function_modules_unloaded():
    done = subprocess.run([sys.executable, "-I", "-c", PROBE, SRC], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rec = json.loads(done.stdout)
    assert rec["code"] == 0 and rec["out"] == {"reduced": "2,1;1,2", "transform": "1,0;0,1", "hermite_ok": True}
    assert "fjcert.cli" in rec["imported"]
    assert sorted(DEFERRED.intersection(rec["imported"])) == []
    assert sorted(DEFERRED.intersection(rec["ran"])) == []
