"""Exact arithmetic for symmetric formal Fourier-Jacobi series of cogenus
one, reduction theory for small quadratic forms, and sampled numerical
certification of convergence behavior at rational torsion points."""

from .core import (
    PrecisionError,
    bernoulli,
    parse_rat,
    rat_str,
    sigma,
)
from .reduction import (
    CapacityError,
    SymMatQ,
    UnimodularMat,
    act,
    corner_swap,
    enumerate_S,
    hermite_check,
    is_positive_definite,
    minkowski_reduce,
    torsion_decomposition,
)
from .jacobi import (
    JacobiFormQExp,
    SpecializedExpansion,
    TorsionPoint,
    evaluate,
    fe_norm,
    jacobi_space,
    multiply,
    specialize_torsion,
    weak_generators,
)
from .fjseries import (
    FormalFJ,
    PolynomialOverM,
    SymmetryReport,
    check_symmetry,
    evaluate_partial,
    gritsenko_lift,
    monicize,
    poly_eval,
)
from .convergence import (
    BoundConfig,
    CompactBoxSpec,
    ConvergenceReport,
    c_constant,
    c_constant_exact,
    d_eps,
    growth_fit,
    k_eps_grid,
    partial_sum_bound_check,
    pointwise_convergence_check,
    rho,
    write_csv,
)

__version__ = "0.1.0"
