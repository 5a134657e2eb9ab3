"""Hecke relations on the table C of an index-one cusp eigenform.

For a prime p, the Hecke operator T_p on J_{k,1} maps the coefficients
c(N), N = 4n - r^2, to c(p^2 N) + (-N/p) p^(k-2) c(N) + p^(2k-3) c(N/p^2),
with (-N/p) the Kronecker symbol and c(N/p^2) = 0 unless p^2 | N and
N/p^2 = 0, 3 (mod 4) (Eichler-Zagier, The Theory of Jacobi Forms, 1985,
Thm. 4.5).  J^cusp_{k,1} and S_{2k-2} are isomorphic as Hecke modules
(ibid. Section 5); for k = 10, 12 and 14 both have dimension one, so the
basis element is an eigenform, and its eigenvalue is a(p), the p-th
coefficient of Delta E_{2k-14}.  In the table layout of the package,
c(n, r) = C[4n - r^2] / den and C[-1] holds discriminant -1, so C stores
the discriminants 0 .. len(C) - 2.

Run as a script, it checks the relations on the C of a lift record that
gen-lift wrote beside its series:

    PYTHONPATH=src python3 tests/hecke.py LIFT_RECORD PMAX

and exits 1 on any broken relation.
"""

import json
import sys

from fjcert.core import _dict_add, _dict_mul, _dict_scale, _eis_dict

EIGEN_WEIGHTS = (10, 12, 14)  # the k with dim J^cusp_{k,1} = dim S_{2k-2} = 1


def primes_upto(pmax: int) -> list:
    return [p for p in range(2, pmax + 1) if all(p % d for d in range(2, p))]


def eigenvalues(k: int, pmax: int) -> dict:
    """{n: a(n)} for n <= pmax, the coefficients of Delta E_{2k-14}, with
    Delta = (E4^3 - E6^2) / 1728."""
    emax = pmax + 1
    e4, e6 = _eis_dict(4, emax), _eis_dict(6, emax)
    cube = _dict_mul(_dict_mul(e4, e4, emax), e4, emax)
    delta = {e: v // 1728 for e, v in _dict_add(cube, _dict_scale(_dict_mul(e6, e6, emax), -1)).items()}
    return _dict_mul(delta, _eis_dict(2 * k - 14, emax), emax)


def kronecker(d: int, p: int) -> int:
    """The Kronecker symbol (d/p) for a prime p and d = 0, 1 (mod 4)."""
    if p == 2:
        return 0 if d % 2 == 0 else (1 if d % 8 in (1, 7) else -1)
    s = pow(d % p, (p - 1) // 2, p)
    return -1 if s == p - 1 else s


def pairs(top: int, pmax: int):
    """(p, N) for every prime p <= pmax and every N >= 3 with N = 0, 3
    (mod 4) and p^2 N <= top."""
    for p in primes_upto(pmax):
        for N in range(3, top // (p * p) + 1):
            if N % 4 in (0, 3):
                yield p, N


def relations(k: int, C: list, pmax: int):
    """(p, N, holds) for each (p, N) of :func:`pairs` whose image p^2 N C
    stores: holds tells whether
    a(p) c(N) = c(p^2 N) + (-N/p) p^(k-2) c(N) + p^(2k-3) c(N/p^2)."""
    a = eigenvalues(k, pmax)
    for p, N in pairs(len(C) - 2, pmax):
        pp = p * p
        low = C[N // pp] if N % pp == 0 and N // pp % 4 in (0, 3) else 0
        image = C[pp * N] + kronecker(-N, p) * p ** (k - 2) * C[N] + p ** (2 * k - 3) * low
        yield p, N, image == a[p] * C[N]


def covered(top: int, pmax: int) -> set:
    """The N >= 3 that take part in a relation of :func:`relations` on a
    table of the discriminants 0 .. top: as its N, its image p^2 N or its
    N / p^2."""
    out = set()
    for p, N in pairs(top, pmax):
        out.update((N, p * p * N))
        if N % (p * p) == 0 and N // (p * p) % 4 in (0, 3) and N // (p * p) >= 3:
            out.add(N // (p * p))
    return out


def main(path: str, pmax: int) -> int:
    with open(path) as fh:
        rec = json.load(fh)
    k, C = rec["k"], rec["C"]
    if k not in EIGEN_WEIGHTS:
        print("weight %d: the first basis element need not be an eigenform" % k)
        return 1
    results = list(relations(k, C, pmax))
    broken = [(p, N) for p, N, holds in results if not holds]
    print("weight %d, table length %d, primes up to %d: %d relations, %d broken" % (k, len(C), pmax, len(results), len(broken)))
    for p, N in broken[:5]:
        print("  broken at p = %d, N = %d" % (p, N))
    return 1 if broken or not results else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
