"""Exact constructions of quasi-modular ODE solutions and equivariant
Schwarzian solutions, with coefficient-wise and numeric verification."""

from .modforms import (
    Group,
    delta,
    delta_half,
    eisenstein,
    eta_power,
    hauptmodul,
    j1728,
    jacobi_residual,
    ramanujan_residuals,
    seed_t0,
    sigma,
    theta_fourth,
)
from .numeric import (
    Moebius,
    check_equivariance,
    check_schwarz_numeric,
    eval_series,
)
from .series import (
    IncompatibleLattice,
    LaurentSeries,
    NonzeroConstantTerm,
    UnknownCoefficient,
    ZeroLeadingCoefficient,
)
from .solver import (
    SolveResult,
    build_g,
    classify_theta_cross_ratio,
    frobenius_oracle,
    solve_ode,
)

__version__ = "0.1.0"

__all__ = [
    "Group",
    "delta",
    "delta_half",
    "eisenstein",
    "eta_power",
    "hauptmodul",
    "j1728",
    "jacobi_residual",
    "ramanujan_residuals",
    "seed_t0",
    "sigma",
    "theta_fourth",
    "Moebius",
    "check_equivariance",
    "check_schwarz_numeric",
    "eval_series",
    "IncompatibleLattice",
    "LaurentSeries",
    "NonzeroConstantTerm",
    "UnknownCoefficient",
    "ZeroLeadingCoefficient",
    "SolveResult",
    "build_g",
    "classify_theta_cross_ratio",
    "frobenius_oracle",
    "solve_ode",
]
