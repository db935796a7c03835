"""Accelerated dual solver for L1-sparse elliptic optimal control.

The package discretizes the control problem

    min 1/2 ||y - y_d||^2 + alpha/2 ||u||^2 + beta ||u||_L1
    s.t. -Δy = u + y_r,  y = 0 on the boundary,
         a <= u <= b pointwise, with a <= 0 <= b,

by P1 finite elements on dyadic triangulations of the unit square and
solves the dual problem in the multipliers (lam, p, mu) with an
accelerated majorized block-coordinate method whose value gap decays at
the rate 4 tau_h / (k+1)^2.  An operator-splitting oracle on the primal
side certifies optima independently, and the analysis module measures
the bound constant and its behavior under mesh refinement.
"""

from .assembly import (
    FemOperators,
    assemble,
    interpolate_function,
    l1_norm_exact,
    l1h_norm,
)
from .dual_solver import (
    DivergenceError,
    DualIterate,
    ProblemInstance,
    RunRecord,
    SolverConfig,
    dual_objective,
    kkt_residual,
    recover_primal,
    solve,
)
from .mesh import InputError, Mesh, MeshSizeError, build_unit_square_mesh, \
    prolongate_nodal
from .oracle import (
    CertifiedOptimum,
    admm_reference,
    certified_optimum,
)
from .presets import make_instance, preset_names
from .sparse_linalg import AugmentedSolver, DefinitenessError, \
    factorize_spd, power_iteration_extremes

__version__ = "0.1.0"

__all__ = [
    "AugmentedSolver",
    "CertifiedOptimum",
    "DefinitenessError",
    "DivergenceError",
    "DualIterate",
    "FemOperators",
    "InputError",
    "Mesh",
    "MeshSizeError",
    "ProblemInstance",
    "RunRecord",
    "SolverConfig",
    "assemble",
    "build_unit_square_mesh",
    "admm_reference",
    "certified_optimum",
    "dual_objective",
    "factorize_spd",
    "interpolate_function",
    "kkt_residual",
    "l1_norm_exact",
    "l1h_norm",
    "make_instance",
    "power_iteration_extremes",
    "preset_names",
    "prolongate_nodal",
    "recover_primal",
    "solve",
    "__version__",
]
