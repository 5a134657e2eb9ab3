"""Build Jacobi form q-expansions and poke at their coefficients."""

from fjcert import evaluate, jacobi_space, weak_generators

# the two weak generators of index one, weights -2 and 0
phi_m2, phi_0 = weak_generators(8)
print("weak generators, first rows:")
for phi in (phi_m2, phi_0):
    row = " ".join(str(phi.coeff(0, r)) for r in (-1, 0, 1))
    print("  weight %3d, n=0, r = -1, 0, 1: %s" % (phi.k, row))

# holomorphic and cuspidal spaces at weight 10
full = jacobi_space(10, False, 8)
cusp = jacobi_space(10, True, 8)
print("weight 10, index 1: dim %d holomorphic, %d cuspidal" % (len(full), len(cusp)))

phi = cusp[0]
print("cusp generator coefficients (n, r, c):")
for (n, r), v in sorted(phi.coeffs.items())[:6]:
    print("  %d %2d %s" % (n, r, v))

# numerical evaluation at a point in the upper half plane
val = evaluate(phi, 1j, 0.3 + 0.2j)
print("phi(i, 0.3+0.2i) = %.6g + %.6gi" % (val.real, val.imag))
