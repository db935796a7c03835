"""Independent reference solver for the discretized primal problem.

:func:`admm_reference` validates the dual scheme without sharing any of its
algorithmic structure (no majorized sweep, no momentum, no dual blocks).
It minimizes the same functional the dual targets,

    min_{a<=u<=b}  1/2 ||S u + s0 - y_d||_M^2 + alpha/2 ||u||_M^2
                   + beta sum_i |(M_full u)_i|,

by consensus operator splitting: copies s = M_full u and w = u decouple the
L1 term from the box, so every subproblem is exact -- one sparse symmetric
indefinite solve, a componentwise soft threshold, a clip.  The
consistent-mass L1 term keeps this primal an exact conjugate of the dual
function, which is what makes machine-accuracy cross-checks of the optimal
values possible.  It has one start, a dual iterate's splitting point (the
origin's by default), and reports ``dual_solver.primal_value``.

:func:`certified_optimum` runs a long dual solve, then this oracle started
at the splitting point of the dual run's final iterate, and accepts only
when the two optimal values agree to 1e-7 relative.  The start saves the
oracle most of its iterations but not its judgement: it still stops only
on its own fixed-point residual, which bounds the distance from the primal
optimum whatever the start, and its value must still match the dual one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import dual_solver
from .dual_solver import DualIterate, ProblemInstance, SolverConfig
from .sparse_linalg import factorize_indefinite

# over-relaxation of the splitting updates
RELAXATION = 1.7
# iteration cap of one splitting solve
MAX_ITERS = 200_000
# residual at which a splitting solve stops; golden.json records it
TOL = 1e-10


class OracleError(RuntimeError):
    """Reference solve failed to converge within its iteration cap."""


class OracleInconsistencyError(RuntimeError):
    """Reference optimum and long dual run disagree beyond tolerance."""


@dataclass
class PrimalSolution:
    """Output of a reference primal solve."""

    u: np.ndarray
    J: float
    iterations: int


@dataclass
class CertifiedOptimum:
    """Optimal values agreed on by the primal oracle and a long dual run."""

    j_star: float
    phi_star: float
    u_star: np.ndarray
    z_star: DualIterate
    cross_phi: float
    oracle: PrimalSolution


def _splitting_factorization(prob: ProblemInstance, rho1: float,
                             rho2: float):
    """Factorize the coupled stationarity system of the u-subproblem.

    Solving (S'MS + alpha M_f + rho1 M_f^2 + rho2 I) u = r without ever
    forming the dense S'MS: with auxiliary y = S u and q = K^{-1} M y the
    same u solves the sparse symmetric block system

        [ C       0    B' ] [u]   [r]
        [ 0       M   -K  ] [y] = [0],   C = alpha M_f + rho1 M_f^2
        [ B      -K    0  ] [q]   [0]        + rho2 I,  B = E' M_f.
    """
    ops = prob.ops
    Mf = ops.M_full.tocsr()
    n = Mf.shape[0]
    C = prob.alpha * Mf + rho1 * (Mf @ Mf) + rho2 * sp.identity(n)
    B = Mf[ops.interior]
    A = sp.bmat([[C, None, B.T],
                 [None, ops.M, -ops.K],
                 [B, -ops.K, None]], format="csc")
    return factorize_indefinite(A)


def admm_reference(prob: ProblemInstance,
                   z0: DualIterate | None = None) -> PrimalSolution:
    """Solve the consistent-mass primal by consensus operator splitting.

    Copies s = M_full u and w = u carry the L1 term and the box indicator;
    the u-subproblem is a sparse factorized solve, s and w have closed-form
    proximal updates, over-relaxed by ``RELAXATION``.  The two penalty
    weights are fixed multiples of alpha and the mean mass diagonal, so the
    3-block system is factorized once per call.  Runs until the worst
    relative primal or dual residual falls below ``TOL``; raises
    :class:`OracleError` when ``MAX_ITERS`` iterations pass first.  The
    returned control is the box copy ``w``, feasible to the letter, and
    ``J`` is ``dual_solver.primal_value`` there.

    Starts at the splitting point the dual triple ``z0`` = (lam, p, mu),
    the origin by default, maps to: u = clip((E p - lam - mu)/alpha, a, b),
    s = M_full u, w = u, z1 = lam/rho1 and z2 = M_full mu/rho2.  At a
    fixed point rho1 z1 = lam and rho2 z2 = M_full mu, so a dual optimum
    maps to a point where the splitting stops.  The stopping test bounds
    the distance from optimality whatever the start, so ``z0`` changes
    how many iterations are needed, not what is accepted.
    """
    ops = prob.ops
    Mf = ops.M_full
    alpha, beta = prob.alpha, prob.beta
    a, b = prob.box
    n = prob.n_full
    n_int = prob.n

    K_fact = ops.stiffness_factor
    s0 = K_fact.solve(prob.m_yr)
    # q = S' M (y_d - s0), the constant gradient shift of the smooth part
    p0 = K_fact.solve(ops.M @ (prob.y_d - s0))
    q = (Mf @ ops.pad(p0))

    mbar = float(Mf.diagonal().mean())
    # factor 4: at small alpha, 1 stalls, 2 is 3-8x slower and 16 up to 2x
    rho1 = 4 * alpha / mbar
    rho2 = 4 * alpha * mbar
    fact = _splitting_factorization(prob, rho1, rho2)
    thresh = beta / rho1

    if z0 is None:
        z0 = DualIterate.for_instance(prob)
    lam, p, mu = z0.blocks()
    u = np.clip((ops.pad(p) - lam - mu) / alpha, a, b)
    z1 = lam / rho1
    z2 = (Mf @ mu) / rho2
    s = Mf @ u
    w = u.copy()
    rhs = np.zeros(n + 2 * n_int)
    g_scale = 1.0 + float(np.abs(q).max(initial=0.0))

    residual = float("inf")
    iterations = 0
    for it in range(1, MAX_ITERS + 1):
        rhs[:n] = q + rho1 * (Mf @ (s - z1)) + rho2 * (w - z2)
        u = fact.solve(rhs)[:n]
        mu_u = Mf @ u

        h1 = RELAXATION * mu_u + (1.0 - RELAXATION) * s
        h2 = RELAXATION * u + (1.0 - RELAXATION) * w
        s_old = s
        w_old = w
        g1 = h1 + z1
        s = np.sign(g1) * np.maximum(np.abs(g1) - thresh, 0.0)
        w = np.clip(h2 + z2, a, b)
        z1 = z1 + h1 - s
        z2 = z2 + h2 - w

        pri1 = float(np.abs(mu_u - s).max(initial=0.0)) \
            / (1.0 + float(np.abs(mu_u).max(initial=0.0)))
        pri2 = float(np.abs(u - w).max(initial=0.0)) \
            / (1.0 + float(np.abs(u).max(initial=0.0)))
        dua1 = rho1 * float(np.abs(Mf @ (s - s_old)).max(initial=0.0)) \
            / g_scale
        dua2 = rho2 * float(np.abs(w - w_old).max(initial=0.0)) / g_scale
        residual = max(pri1, pri2, dua1, dua2)
        iterations = it
        if residual <= TOL:
            break

    if residual > TOL:
        raise OracleError(
            f"splitting solve stalled at residual {residual:.3e} "
            f"after {iterations} iterations (tol {TOL:.1e})"
        )
    return PrimalSolution(u=w, J=dual_solver.primal_value(prob, w),
                          iterations=iterations)


def certified_optimum(prob: ProblemInstance,
                      z0: DualIterate | None = None) -> CertifiedOptimum:
    """Optimal value certified by two independent routes.

    First a dual run of at most 100k sweeps to KKT residual 1e-9, warm
    started from ``z0`` if given, then the splitting oracle to ``TOL``,
    started at the splitting point of that run's final iterate (see
    :func:`admm_reference`).  Accepts only when ``|Phi(z_final) + J*| <=
    1e-7 (1 + |J*|)``; disagreement raises
    :class:`OracleInconsistencyError`.  The seed only shortens the oracle's
    run: it stops on its own fixed-point residual, whose test is the same
    whatever the start, so a wrong seed is walked back to the primal
    optimum and then fails the value comparison.  The cross run only produces a
    reference point, and its verdict depends only on the residual reached,
    not the path, so it runs with momentum restarts
    (``SolverConfig.restart``): no value bound is checked along it.
    ``cross_phi`` is the dual value at ``z_star`` with its own mass solve,
    so it depends on ``z_star`` alone, not on the run's last multiplier.
    """
    config = SolverConfig(max_iters=100_000, tol=1e-9,
                          log_every=0, check_every=5, restart=True)
    run = dual_solver.solve(prob, config, z0=z0)
    sol = admm_reference(prob, z0=run.final)
    j_star = sol.J
    cross_phi = dual_solver.dual_objective(prob, *run.final.blocks())
    gap = abs(cross_phi + j_star)
    if gap > 1e-7 * (1.0 + abs(j_star)):
        raise OracleInconsistencyError(
            f"dual value {cross_phi:.12e} and reference -J* {-j_star:.12e} "
            f"disagree by {gap:.3e}"
        )
    return CertifiedOptimum(
        j_star=j_star,
        phi_star=-j_star,
        u_star=sol.u,
        z_star=run.final,
        cross_phi=cross_phi,
        oracle=sol,
    )
