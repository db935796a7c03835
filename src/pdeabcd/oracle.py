"""Independent reference solver for the discretized primal problem.

The oracle validates the dual scheme without sharing any of its
algorithmic structure (no majorized sweep, no momentum, no dual blocks).
It minimizes the same functional the dual targets,

    min_{a<=u<=b}  1/2 ||S u + s0 - y_d||_M^2 + alpha/2 ||u||_M^2
                   + beta sum_i |(M_full u)_i|,

and reports ``dual_solver.primal_value`` at a feasible control.  The
consistent-mass L1 term keeps this primal an exact conjugate of the dual
function, which is what makes machine-accuracy cross-checks of the optimal
values possible.

:func:`admm_reference` takes a dual iterate as its seed and runs one
primal-dual active-set step (Hintermueller, Ito and Kunisch, 2002;
Stadler, 2009, for L1 control): the seed guesses which nodes sit at a
bound of the box and which have ``(M_full u)_i = 0``, and on those sets
the KKT conditions are one sparse linear system.  Its answer is accepted
only when the duality gap it gives is at most ``TOL (1 + |J|)``, which
bounds ``J - J*`` by weak duality whatever the guess; otherwise
:class:`OracleError` is raised.

:func:`certified_optimum` seeds this oracle at the end of the one
reference run, :func:`reference_solution`, and accepts only when the two
optimal values agree to 1e-7 relative.  The seed picks the sets but not
the verdict: the gap bounds the distance from the primal optimum whatever
the seed, and the value must still match the dual one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import dual_solver
from .dual_solver import DualIterate, ProblemInstance, SolverConfig
from .sparse_linalg import factorize_indefinite

# relative duality gap at which the active-set certificate is accepted;
# golden.json records it
TOL = 1e-10


class OracleError(RuntimeError):
    """The active-set certificate refused the sets that its seed identifies."""


class OracleInconsistencyError(RuntimeError):
    """Reference optimum and long dual run disagree beyond tolerance."""


@dataclass
class PrimalSolution:
    """Output of a reference primal solve.

    ``iterations`` is always 1, the one active-set step; it stays while
    the benchmark's tracer reads it.
    """

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


def admm_reference(prob: ProblemInstance,
                   z0: DualIterate) -> PrimalSolution:
    """The primal optimum on the active sets that ``z0`` identifies;
    raises :class:`OracleError` when the solve fails or its duality gap
    exceeds ``TOL (1 + |J|)``.

    From ``z0`` = (lam, p, mu) with u = (E p - lam - mu)/alpha, s =
    M_full u and xi = M_full mu: P, N and Z are the nodes with ``lam +
    s/W`` at least beta, at most -beta and between; U, L and F those with
    ``u + xi/W`` at least b, at most a and between.  With u = b on U, a
    on L and lam = +-beta on P and N, the unknowns ``u_F``, ``lam_Z``,
    ``y`` and ``p`` solve one sparse system (COLAMD LU): stationarity
    ``alpha M_full u - M_full E p + M_full lam = 0`` on F,
    ``(M_full u)_Z = 0``, the state and the adjoint equation.  A Z node
    whose mass star holds no F node has neither an equation nor a
    coefficient there; it keeps its lam from ``z0``, clipped to the box.

    Acceptance needs no trust in the guess.  With u and lam clipped to
    their boxes and mu = E p - lam - alpha u, ``primal_value(u) +
    dual_objective(lam, p, mu)`` bounds ``J(u) - J*`` by weak duality,
    whatever the sets were.

    The name stays while the benchmark's tracer wraps this entry point:
    its ``oracle.admm_*`` and ``oracle.refactor_*`` metrics read the spans
    of this function and of the factorization under it.
    """
    ops = prob.ops
    Mf = ops.M_full
    W = ops.W_full
    alpha, beta = prob.alpha, prob.beta
    a, b = prob.box
    n_full, n = prob.n_full, prob.n

    lam0, p0, mu0 = z0.blocks()
    u0 = (ops.pad(p0) - lam0 - mu0) / alpha
    lam_test = lam0 + (Mf @ u0) / W
    u_test = u0 + (Mf @ mu0) / W
    at_b = u_test >= b
    at_a = ~at_b & (u_test <= a)
    free = ~(at_b | at_a)
    pos = lam_test >= beta
    neg = ~pos & (lam_test <= -beta)
    # Z nodes whose star holds an F node; mass entries are positive, so
    # those are where M_full @ free is positive
    zero = ~(pos | neg) & (Mf @ free.astype(float) > 0.0)

    # unknowns and equations (u, lam, y, p), each block row the equation
    # whose unknown its block column is: stationarity for u, the Z row
    # for lam, the state equation for y, the adjoint equation for p
    Mi = Mf[ops.interior]
    G = sp.bmat([[alpha * Mf, Mf, None, -Mi.T],
                 [Mf, None, None, None],
                 [-Mi, None, ops.K, None],
                 [None, None, ops.M, ops.K]], format="csr")
    x = np.zeros(2 * n_full + 2 * n)
    u, lam = x[:n_full], x[n_full:2 * n_full]
    u[at_b] = b
    u[at_a] = a
    np.clip(lam0, -beta, beta, out=lam)
    lam[pos] = beta
    lam[neg] = -beta
    lam[zero] = 0.0
    keep = np.concatenate((np.flatnonzero(free), n_full + np.flatnonzero(zero),
                           np.arange(2 * n_full, 2 * n_full + 2 * n)))
    rhs = np.concatenate((np.zeros(2 * n_full), prob.m_yr, prob.m_yd))
    rhs -= G @ x
    G = G[keep][:, keep]
    refused = "the active sets of the seed were refused"
    try:
        x[keep] = factorize_indefinite(G).solve(rhs[keep])
    except RuntimeError as err:
        raise OracleError(f"{refused}: KKT system: {err}") from None
    if not np.isfinite(x).all():
        raise OracleError(f"{refused}: KKT solve not finite")

    u = np.clip(x[:n_full], a, b)
    lam = np.clip(x[n_full:2 * n_full], -beta, beta)
    p = x[2 * n_full + n:]
    mu = ops.pad(p) - lam - alpha * u
    J = dual_solver.primal_value(prob, u)
    with np.errstate(over="ignore", invalid="ignore"):
        # a wrong guess may leave a huge p; its gap is inf or nan
        gap = J + dual_solver.dual_objective(prob, lam, p, mu)
    if not gap <= TOL * (1.0 + abs(J)):
        raise OracleError(f"{refused}: duality gap {gap:.3e} above "
                          f"{TOL:.0e} (1 + |J|), J = {J:.12e}")
    return PrimalSolution(u=u, J=J, iterations=1)


def reference_solution(prob: ProblemInstance, z0: DualIterate | None = None
                       ) -> tuple[DualIterate, float]:
    """The one reference run: ``(z_star, phi)`` of a dual solve to KKT
    residual 1e-8 in at most 100k sweeps, warm started from ``z0`` if given.

    It only produces a reference optimum, so it restarts its momentum
    (``SolverConfig.restart``); the runs whose sweeps are counted stay on
    the unrestarted scheme that the value bound covers.
    """
    config = SolverConfig(max_iters=100_000, tol=1e-8, log_every=0,
                          check_every=5, restart=True)
    run = dual_solver.solve(prob, config, z0=z0)
    return run.final, float(run.phi[-1])


def certified_optimum(prob: ProblemInstance,
                      z0: DualIterate | None = None) -> CertifiedOptimum:
    """Optimal value certified by two independent routes.

    First the reference run (:func:`reference_solution`), warm started
    from ``z0`` if given, then the oracle (:func:`admm_reference`) seeded
    at its final iterate: the active-set certificate on the sets it
    identifies, which raises :class:`OracleError` when its gap refuses
    them.  Accepts only when ``|Phi(z_star) + J*| <= 1e-7 (1 + |J*|)``;
    disagreement raises :class:`OracleInconsistencyError`.  The seed picks
    the sets, not the verdict: the certificate's gap test is the same
    whatever the seed, so a wrong seed either gives the primal optimum,
    which then fails the value comparison, or is refused.
    ``cross_phi`` is the dual value at ``z_star`` with its own mass solve,
    so it depends on ``z_star`` alone, not on the run's last multiplier.
    """
    z_star, _ = reference_solution(prob, z0=z0)
    sol = admm_reference(prob, z0=z_star)
    j_star = sol.J
    cross_phi = dual_solver.dual_objective(prob, *z_star.blocks())
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
        z_star=z_star,
        cross_phi=cross_phi,
        oracle=sol,
    )
