"""The Hecke relations of tests/hecke.py on the index-one cusp table C at
generator precision 1,561, the table gen-lift builds for a prec-40,
M_max-40 lift, for the weights k = 10, 12 and 14 whose cusp space is one
eigenform.

Coverage limit: C stores the discriminants 0 .. 6,240, and the relations
reach the 14 primes p <= 43 (3 p^2 <= 6,240), 1,388 relations per weight.
They touch 1,697 of the 3,120 entries C[N] with N >= 3 and N = 0, 3
(mod 4).  An entry with N > 1,560 (so that 4N is past the table) and no
square p^2 | N with N / p^2 >= 3 and N / p^2 = 0, 3 (mod 4) takes part in
none: a wrong value there passes, and the sha256 pins of the lifts stay its
only judge.  The last test pins that limit.
"""

from functools import lru_cache

import pytest

import hecke
from fjcert import jacobi

GEN_PREC = 1561
PMAX = 43


@lru_cache(maxsize=None)
def table(k: int) -> tuple:
    """C of the first cusp basis element of weight k at GEN_PREC."""
    return tuple(next(jacobi._space_components(k, True, GEN_PREC))[1])


def test_eigenvalues_are_those_of_delta_e6():
    # the weight-18 eigenform Delta E6 = q - 528 q^2 - 4284 q^3 + ...
    assert hecke.eigenvalues(10, 3) == {1: 1, 2: -528, 3: -4284}


@pytest.mark.parametrize("k", hecke.EIGEN_WEIGHTS)
def test_hecke_relations_hold_on_the_cusp_table(k):
    C = table(k)
    assert len(C) == 4 * GEN_PREC - 2
    results = list(hecke.relations(k, C, PMAX))
    assert sorted({p for p, _, _ in results}) == hecke.primes_upto(PMAX)
    assert len(results) == 1388
    assert [(p, N) for p, N, holds in results if not holds] == []


def test_hecke_relations_see_a_changed_covered_entry_and_not_an_uncovered_one():
    C = table(10)
    top = len(C) - 2
    cover = hecke.covered(top, PMAX)
    entries = [N for N in range(3, top + 1) if N % 4 in (0, 3)]
    assert (len(cover), len(entries)) == (1697, 3120)
    uncovered = [N for N in entries if N not in cover]
    assert min(uncovered) > top // 4
    # one entry that is an N, one that is only an image p^2 N, and two that take part in nothing
    for N in (1559, min(N for N in cover if N > top // 4), min(uncovered), max(uncovered)):
        changed = list(C)
        changed[N] += 1
        assert any(not holds for *_, holds in hecke.relations(10, changed, PMAX)) is (N in cover), N
