"""Minkowski reduction of small rational positive definite forms."""

from fractions import Fraction

from fjcert import SymMatQ, act, hermite_check, minkowski_reduce

t = SymMatQ([[Fraction(5), Fraction(4)], [Fraction(4), Fraction(5)]])
reduced, u = minkowski_reduce(t)
print("input    :", t.rows)
print("reduced  :", reduced.rows)
print("transform:", u.rows, "det", u.det())
print("hermite conditions hold:", hermite_check(reduced))
assert act(t, u) == reduced

# a ternary form: the result satisfies every Minkowski condition
# t[x] >= t_kk over x in {-1, 0, 1}^3, which hermite_check tests
t3 = SymMatQ([
    [Fraction(9, 2), Fraction(3), Fraction(1)],
    [Fraction(3), Fraction(7), Fraction(2)],
    [Fraction(1), Fraction(2), Fraction(11, 3)],
])
reduced3, u3 = minkowski_reduce(t3)
print("3x3 diagonal after reduction: [%s]" % ", ".join(str(reduced3[i, i]) for i in range(3)))
assert act(t3, u3) == reduced3
assert hermite_check(reduced3)
