"""Correctness checks for the operations the benchmark times.

Each check returns a list of problems; an empty list means the output is
right.  A Ledger counts every checked operation and every failed one, so a
wrong output is recorded and the run goes on.  This module imports nothing
from fjcert: it parses the program's outputs itself.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from fractions import Fraction

# Float witnesses of certify and bound-report must match the recorded values
# to this relative tolerance; the absolute floor covers witnesses that are
# differences at round-off level, such as a Cauchy gap of 4e-18.
FLOAT_RTOL = 1e-9
FLOAT_ATOL = 1e-12


class Ledger:
    """Attempted and failed operation counts, with the first few reasons."""

    KEEP = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, op: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < self.KEEP:
                self.reasons.append("%s: %s" % (op, "; ".join(problems)))


def exit_problems(rc, want: int) -> list[str]:
    return [] if rc == want else ["exit code %r, expected %d" % (rc, want)]


def digest_problems(data: bytes, want: str) -> list[str]:
    got = hashlib.sha256(data).hexdigest()
    return [] if got == want else ["sha256 %s…, expected %s…" % (got[:12], want[:12])]


def record_problems(got, want, where: str = "") -> list[str]:
    """Compare the keys of `want` in `got`: floats within tolerance, all else exactly."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return ["%s is %r, expected an object" % (where or "output", got)]
        out = []
        for key, value in want.items():
            path = "%s.%s" % (where, key) if where else key
            if key not in got:
                out.append("%s missing" % path)
            else:
                out.extend(record_problems(got[key], value, path))
        return out
    if isinstance(want, float):
        ok = isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL)
    else:
        ok = got == want and type(got) is type(want)
    return [] if ok else ["%s is %r, expected %r" % (where, got, want)]


def parse_matrix(text: str) -> list[list[Fraction]]:
    rows = [[Fraction(x.strip()) for x in part.split(",")] for part in text.strip().split(";")]
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix %r is not square" % text)
    return rows


def integral(*mats) -> list[list[list[int]]]:
    """The matrices scaled by one common positive integer to integer entries."""
    scale = math.lcm(*(x.denominator for m in mats for row in m for x in row))
    return [[[int(x * scale) for x in row] for row in m] for m in mats]


def form_value(t, x):
    s = len(t)
    return sum(t[i][j] * x[i] * x[j] for i in range(s) for j in range(s))


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]]) for j in range(len(m)))


def minkowski_problems(t) -> list[str]:
    """The Minkowski conditions t[x] >= t_kk for every x in {-1, 0, 1}^s with
    some x_j != 0, j >= k.  For s <= 3 these finitely many inequalities, with
    a nondecreasing diagonal, are the whole reduction condition (Cassels,
    Rational Quadratic Forms, ch. 12); the sign normalization is not checked."""
    s = len(t)
    (t,) = integral(t)
    for i in range(s - 1):
        if t[i][i] > t[i + 1][i + 1]:
            return ["not Minkowski reduced: diagonal decreases at %d" % (i + 1)]
    for x in itertools.product((-1, 0, 1), repeat=s):
        value = form_value(t, x)
        for k in range(s):
            if any(x[k:]) and value < t[k][k]:
                return ["not Minkowski reduced: x = %s gives t[x] < t%d%d" % (x, k + 1, k + 1)]
    return []


def reduction_problems(matrix_text: str, out: dict) -> list[str]:
    """`reduce --json` output: reduced == input[transform] exactly, |det| = 1,
    and the Hermite inequality holds, as it must for a reduced form."""
    n, reduced = integral(parse_matrix(matrix_text), parse_matrix(out["reduced"]))
    u = [[int(x) for x in part.split(",")] for part in out["transform"].split(";")]
    s = len(n)
    problems = []
    if len(reduced) != s or len(u) != s:
        return ["output size differs from input size %d" % s]
    image = [
        [sum(u[a][i] * n[a][b] * u[b][j] for a in range(s) for b in range(s)) for j in range(s)]
        for i in range(s)
    ]
    if image != reduced:
        problems.append("reduced differs from input[transform]")
    if abs(_det(u)) != 1:
        problems.append("transform is not unimodular")
    if out.get("hermite_ok") is not True:
        problems.append("hermite_ok is %r" % out.get("hermite_ok"))
    return problems
