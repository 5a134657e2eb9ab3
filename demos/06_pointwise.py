"""Check convergence of a series on its pointwise disc.

The synthetic series here has a single unit coefficient per slice, so its
partial sums are exactly geometric and the check passes; real lifts have
oscillating slice values and typically trip the strict tail clause.  The
terms are summed from the torsion specializations, in decimal, so they
are taken at a point where every slice up to 2M keeps its q^1 term below
its certified precision: with lambda = 0 that precision is the slice's own.
"""

from fractions import Fraction

from fjcert import FormalFJ, JacobiFormQExp, TorsionPoint, c_constant_exact, pointwise_convergence_check, specialize_torsion

prec = 3
phis = [JacobiFormQExp.zero(10, 0, prec)]
phis += [JacobiFormQExp(10, m, prec, {(1, 0): Fraction(1)}) for m in range(1, 61)]
f = FormalFJ(10, 60, phis)

p = TorsionPoint(2, 0, 1)
print("disc constant at tau1=i:", c_constant_exact(1.0, p))

etas = [specialize_torsion(phi, p) for phi in f.phis[1:]]
rep = pointwise_convergence_check(f, etas, p, 1j, 0.5, 25)
print("verdict:", rep.verdict)
for key in ("C", "q2_abs", "S_M", "S_2M", "cauchy_gap", "tail_start", "max_digits"):
    print("  %-10s %s" % (key, rep.witnesses[key]))
print("partial sum rows:", len(rep.series["partial_sums"][1]))
m, term, radius = rep.series["terms"][1][0]
print("term m = %d: %s, rounding radius %s" % (m, term, radius))
