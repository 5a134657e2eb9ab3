"""Certify bounded partial sums of an algebraic series on a compact box."""

import time

from fjcert import (
    CompactBoxSpec,
    FormalFJ,
    PolynomialOverM,
    gritsenko_lift,
    jacobi_space,
    partial_sum_bound_check,
)

t0 = time.perf_counter()
phi = jacobi_space(10, True, 5 * 12 + 1)[0]
f = gritsenko_lift(phi, 12, 6)
prod = f.multiply(f)

# monic witness relation X^2 - f*f = 0 for X = f
q = PolynomialOverM(
    [FormalFJ.zero(20, prod.M_max, prod.prec) - prod,
     FormalFJ.zero(10, f.M_max, f.prec),
     FormalFJ.one(f.M_max, f.prec)],
    0, 10)

box = CompactBoxSpec(((1j, 0.1 + 0.05j), (1.2j, 0.25j)), 0.15)
rep = partial_sum_bound_check(f, q, box, 12, kappa=1.1, points=3)
print("verdict:", rep.verdict, "(%.1fs)" % (time.perf_counter() - t0))
for key in ("D_eps", "bound", "max_partial_sum", "margin", "grid_size"):
    print("  %-16s %s" % (key, rep.witnesses[key]))
print(rep.to_text())
