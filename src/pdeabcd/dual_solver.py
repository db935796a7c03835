"""Accelerated block coordinate descent on the dual of the sparse control
problem.

The primal problem is

    min  1/2 ||y - y_d||_M^2 + alpha/2 ||u||_M^2 + beta sum_i |(M u)_i|
    s.t. K y = M (u + y_r),   a <= u <= b componentwise,

the L1 control cost discretized through the consistent mass matrix (it
equals the lumped penalty beta ||W u||_1 whenever no node star of u mixes
signs, and undercuts it otherwise).  State and adjoint carry homogeneous
Dirichlet values and live on interior nodes (K, M interior); the control
and the multipliers carry no boundary condition and live on the full node
set (M_full, W_full).  The solver minimizes the dual function

    Phi(lam, p, mu) = 1/2 ||K p - M y_d||_{M^{-1}}^2
                      + 1/(2 alpha) ||lam + mu - E p||_{M_full}^2
                      + <M_full y_r, E p> + delta_box(lam)
                      + support_box(M_full mu) - 1/2 ||y_d||_M^2

(E pads with zero boundary values) by a majorized block scheme: one
symmetrized sweep over the (lam, p) block (p-solve at the extrapolated lam,
closed-form lam update, p-solve again), a closed-form mu update in a lumped
metric, and extrapolation with the classic accelerated t-sequence.  The
second p-solve also yields w = M^{-1} K p, which gives the first term of
Phi with no solve of its own, so a run solves only with the p-solve's
operator, M_full (the mu update) and K (the primal state), never the
interior M.  An instance takes all three solves from one solver object,
ProblemInstance.solver: SuperLU factors below GRID_MIN_N interior
unknowns, and from it on (level 7 and up) fast sine transforms and
Chebyshev semi-iteration (sparse_linalg.GridSolver), with which a run
factors nothing.  The value gap decays like 4 tau / (k+1)^2 with tau the
weighted squared distance from the start to an optimum
(analysis.compute_tau_h).

Phi is the exact Fenchel dual of the primal above: delta_box(lam) with the
componentwise bound beta is the conjugate constraint of the consistent-mass
L1 term, and support_box(M_full mu) that of the box indicator, both under
the M_full pairing that also weights the coupling term.  primal_value uses
the matching discretization, so phi + primal_value is a genuine duality
gap, certified against an independent primal solver (oracle module).

A sweep reads only the previous iterate, never its diagnostics (two state
solves, the KKT residual, the dual value and the gap), and its (lam, p)
block reads mu only through ``xi_t = M_full mu_t``, which ``solve``
carries beside ``lam_t``.  So a sweep's mass solve (``step_mu``, which
turns the mu update's ``xi`` into mu) and its diagnostics are one job.
``solve`` calls the job directly below ``GRID_MIN_N`` interior unknowns;
from it on the job runs on a worker thread, under the caller's numpy
error state and error callback, while the next sweep's (lam, p) block
runs.  The threshold sits between L6 (3,969 interior unknowns) and L7
(16,129), for both of its uses: below it the worker's hand-offs cost
more than they overlap, and a grid p-solve is slower than a factor's
(README).  This thread's p-solves and the worker's mass solves and state
solves share the instance's solver, which no solve changes; ``solve``
builds it before the worker exists, so the two threads never race to
build it.  The second p-solve of a block starts from the first's
``(p, w)``, which a grid solve iterates from and a factor's ignores; the
block stays a function of ``(lam_t, xi_t)`` alone.  Every dot product
and norm goes through ``sparse_linalg.dot`` and ``norm``, which sum
without BLAS.

Sweep ``k``'s three solves stop at the backward error ``tol k^-3``
(``_sweep_stop``, ``tol`` the run's ``SolverConfig.tol``), never below
the exact stop ``sparse_linalg.GRID_BERR_STOP``; a factor's solve
ignores the stop, so only the grid path changes, and a ``tol = 0`` run
is exact.  The errors this leaves are summable with weight ``k``, so
the value bound keeps its rate in the inexact form
``4 (sqrt(tau) + eps_bar_k)^2 / (k+1)^2`` of inexact APG (Jiang, Sun and
Toh, 2012) and inexact ABCD (Sun, Toh and Yang, 2016); README derives
``eps_bar_k`` in the norms of S_h's blocks.  The values a run reports
stay exact at the iterate it returns: the second p-solve returns a
``(p, w)`` with ``K p = M w`` to roundoff, the state solves are exact,
and the dual value and gap are evaluated at the returned mu, whatever
its mass solve left.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .assembly import LUMPED_MASS_GAMMA, FemOperators
from .mesh import InputError, check_alpha
from .sparse_linalg import AugmentedSolver, GridSolver, dot, norm


class DivergenceError(RuntimeError):
    """Iterates left the finite range; carries the offending state."""

    def __init__(self, message: str, k: int, iterate: "DualIterate"):
        super().__init__(message)
        self.k = k
        self.iterate = iterate


@dataclass
class ProblemInstance:
    """One discretized control problem: operators, data, and parameters.

    ``y_d`` is an interior nodal vector (tracking target for the Dirichlet
    state); ``y_r`` is a full nodal vector (source shift, control-like).
    ``gamma``, the mu metric's weight, must be at least 4: S_h majorizes
    only if W <= gamma M, and W/M reaches 4 (``analysis.lam_max_majorizer``).
    """

    ops: FemOperators
    alpha: float
    beta: float
    box: tuple[float, float]
    y_d: np.ndarray
    y_r: np.ndarray
    gamma: float = LUMPED_MASS_GAMMA
    name: str = "custom"

    def __post_init__(self):
        a, b = self.box
        if not -np.inf < a <= 0.0 <= b < np.inf:
            raise InputError(f"box [{a}, {b}] must be finite and contain 0")
        check_alpha(self.alpha)
        if not 0.0 <= self.beta < np.inf:
            raise InputError(f"beta must be in [0, inf), got {self.beta}")
        if not self.gamma >= LUMPED_MASS_GAMMA:
            raise InputError(f"gamma must be at least 4, got {self.gamma}")
        if self.ops.n_interior == 0:
            raise InputError("the mesh has no interior node")
        self.y_d = np.asarray(self.y_d, dtype=float)
        self.y_r = np.asarray(self.y_r, dtype=float)
        if self.y_d.shape != (self.ops.n_interior,):
            raise ValueError("y_d must be an interior nodal vector")
        if self.y_r.shape != (self.ops.mesh.n_nodes,):
            raise ValueError("y_r must be a full nodal vector")

    @property
    def n(self) -> int:
        """Interior dimension (state and adjoint block)."""
        return self.ops.n_interior

    @property
    def n_full(self) -> int:
        """Full node count (control and multiplier blocks)."""
        return self.ops.mesh.n_nodes

    @property
    def on_grid(self) -> bool:
        """Whether the instance has ``GRID_MIN_N`` interior unknowns or more
        (level 7 and up): then its :attr:`solver` is a ``GridSolver`` and
        :func:`solve` overlaps its diagnostics."""
        return self.n >= GRID_MIN_N

    @cached_property
    def solver(self) -> AugmentedSolver | GridSolver:
        """The p-solve, state solve and ``M_full`` solve of the instance:
        by fast sine transforms and Chebyshev semi-iteration when
        :attr:`on_grid`, else by SuperLU factors; built on first read."""
        cls = GridSolver if self.on_grid else AugmentedSolver
        return cls(self.ops, self.alpha)

    def state(self, u: np.ndarray) -> np.ndarray:
        """The state of control ``u``: solves ``K y = M_int (u + y_r)``."""
        rhs = self.ops.mass_interior_rows(u + self.y_r)
        return self.solver.solve_stiffness(rhs)

    @cached_property
    def m_yd(self) -> np.ndarray:
        """``M y_d``, the target in the interior mass pairing."""
        return self.ops.M @ self.y_d

    @cached_property
    def m_yr(self) -> np.ndarray:
        """Interior rows of ``M_full y_r``, the source shift on the state."""
        return self.ops.mass_interior_rows(self.y_r)

    @cached_property
    def p_rhs_data(self) -> np.ndarray:
        """``K y_d - M_int y_r``, the data part of every p-solve's rhs."""
        return self.ops.K @ self.y_d - self.m_yr


@dataclass
class DualIterate:
    """The dual triple (lam, p, mu) after ``k`` sweeps.

    ``lam`` and ``mu`` are full nodal vectors, ``p`` is interior.
    """

    lam: np.ndarray
    p: np.ndarray
    mu: np.ndarray
    k: int = 0

    @classmethod
    def for_instance(cls, prob: "ProblemInstance") -> "DualIterate":
        """The origin of the dual space of ``prob``."""
        return cls(np.zeros(prob.n_full), np.zeros(prob.n),
                   np.zeros(prob.n_full))

    def blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.lam, self.p, self.mu


@dataclass
class SolverConfig:
    """Iteration controls.

    ``tol`` bounds the relative KKT residual at termination.  ``phi_target``,
    when set, additionally stops the run once the dual objective falls to
    that value (used by the iterations-to-accuracy experiments).  With
    ``timing`` off (the default) recorded times are zero so that records and
    serialized outputs are bitwise reproducible.

    ``restart`` resets the momentum (t = 1, so the next extrapolation is
    zero) whenever the last step turns against the previous move, the
    gradient test of O'Donoghue and Candes (2015).  The 4 tau_h / (k+1)^2
    value bound is proven only for the unrestarted scheme, so every run
    whose sweeps are counted or checked against it keeps the default off;
    the long reference runs that only produce an optimum turn it on, since
    it reaches the same residual in far fewer sweeps.
    """

    max_iters: int = 10000
    tol: float = 1e-6
    log_every: int = 1
    check_every: int = 1
    timing: bool = False
    phi_target: float | None = None
    restart: bool = False

    def __post_init__(self):
        if not self.max_iters >= 1:
            raise InputError("max_iters must be at least 1")
        if not 0.0 <= self.tol < np.inf:
            raise InputError(f"tol must be in [0, inf), got {self.tol}")
        if not (self.log_every >= 0 and self.check_every >= 1):
            raise InputError("bad logging or checking cadence")


@dataclass
class RunRecord:
    """Per-iteration log of one solver run plus the final state."""

    ks: np.ndarray
    phi: np.ndarray
    kkt: np.ndarray
    gap: np.ndarray
    time_s: np.ndarray
    final: DualIterate
    u: np.ndarray
    y: np.ndarray
    converged: bool
    iterations: int
    stop_reason: str
    restarts: int = 0

    def summary(self, prob: ProblemInstance) -> dict:
        u_l2m = float(np.sqrt(dot(self.u, prob.ops.M_full @ self.u)))
        y_l2m = float(np.sqrt(dot(self.y, prob.ops.M @ self.y)))
        return {
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "stop_reason": self.stop_reason,
            "restarts": int(self.restarts),
            "kkt": float(self.kkt[-1]) if self.kkt.size else None,
            "phi": float(self.phi[-1]) if self.phi.size else None,
            "gap": float(self.gap[-1]) if self.gap.size else None,
            "u_l2M": u_l2m,
            "u_linf": float(np.abs(self.u).max()) if self.u.size else 0.0,
            "y_l2M": y_l2m,
            "y_linf": float(np.abs(self.y).max()) if self.y.size else 0.0,
        }


def support_box(s: np.ndarray, a: float, b: float) -> float:
    """Support function of the box [a, b]^n at s."""
    s = np.asarray(s, dtype=float)
    return float(b * np.maximum(s, 0.0).sum() + a * np.minimum(s, 0.0).sum())


_BOX_SLACK = 1e-12


def dual_objective(prob: ProblemInstance, lam, p, mu, w=None) -> float:
    """Dual objective value; +inf when lam violates the [-beta, beta] box.

    The first term is ``(K p - M y_d).(w - y_d)/2`` with ``w = M^{-1} K p``:
    :func:`solve` passes the ``w`` of its sweep's second p-solve, else one
    mass solve.
    """
    lam = np.asarray(lam, dtype=float)
    p = np.asarray(p, dtype=float)
    mu = np.asarray(mu, dtype=float)
    beta = prob.beta
    if np.abs(lam).max(initial=0.0) > beta + _BOX_SLACK * (1.0 + beta):
        return float("inf")
    ops = prob.ops
    kp = ops.K @ p
    if w is None:
        w = ops.mass_factor.solve(kp)
    coupling = lam + mu
    coupling -= ops.pad(p)
    kp -= prob.m_yd
    val = 0.5 * dot(kp, w - prob.y_d)
    val += 0.5 / prob.alpha * dot(coupling, ops.M_full @ coupling)
    val += dot(prob.m_yr, p)
    val += support_box(ops.M_full @ mu, *prob.box)
    val -= 0.5 * dot(prob.y_d, prob.m_yd)
    return val


def primal_value(prob: ProblemInstance, u: np.ndarray) -> float:
    """Tracking plus control cost of ``u`` with the exact discrete state.

    The L1 control cost is discretized as ``sum_i |(M u)_i|``, through the
    same consistent mass matrix that weights the coupling term of
    :func:`dual_objective`.  With matching pairings the two functionals are
    exact conjugates, so ``dual_objective(z) + primal_value(u)`` is a true
    duality gap: nonnegative, and zero only at the optimal pair.
    """
    u = np.asarray(u, dtype=float)
    ops = prob.ops
    diff = prob.state(u)
    diff -= prob.y_d
    val = 0.5 * dot(diff, ops.M @ diff)
    m_u = ops.M_full @ u
    val += 0.5 * prob.alpha * dot(u, m_u)
    val += prob.beta * float(np.abs(m_u, out=m_u).sum())
    return val


def _p_rhs(prob: ProblemInstance, lam: np.ndarray,
           xi_t: np.ndarray) -> np.ndarray:
    """Right side of the p-solve at the multipliers ``lam`` and ``mu_t``,
    read through ``xi_t = M_full mu_t``."""
    ops = prob.ops
    return prob.p_rhs_data + ops.restrict(ops.M_full @ lam + xi_t) / prob.alpha


def _p_solve(prob: ProblemInstance, lam: np.ndarray, xi_t: np.ndarray,
             start=None, stop=None) -> tuple[np.ndarray, np.ndarray]:
    """``(p, w)`` of the p-solve at ``lam`` and ``xi_t``, from ``start``,
    the ``(p, w)`` of an earlier p-solve, when one is given, to the
    backward error ``stop`` when one is given."""
    return prob.solver.solve_with_multiplier(_p_rhs(prob, lam, xi_t), start,
                                             stop)


def _lambda_xi(prob: ProblemInstance, lam_t: np.ndarray, xi_t: np.ndarray,
               p_hat: np.ndarray) -> np.ndarray:
    ops = prob.ops
    coupled = ops.M_full @ (ops.pad(p_hat) - lam_t) - xi_t
    return lambda_kernel(lam_t, coupled, ops.W_full, prob.beta)


def step_phat(prob: ProblemInstance, lam_t: np.ndarray,
              mu_t: np.ndarray) -> np.ndarray:
    """First p-solve of the sweep, at the extrapolated lam: the sweep's own
    step, handed ``xi_t = M_full mu_t``."""
    return _p_solve(prob, lam_t, prob.ops.M_full @ mu_t)[0]


def lambda_kernel(lam_t, coupled, W, beta: float) -> np.ndarray:
    """Componentwise lam update: clip(lam_t + coupled / W, -beta, beta).

    ``coupled`` is M (p_hat - mu_t - lam_t); the kernel exactly minimizes
    the box-constrained quadratic with an added (W - M)-weighted proximal
    term, which makes the metric diagonal.
    """
    return np.clip(np.asarray(lam_t, float)
                   + np.asarray(coupled, float) / np.asarray(W, float),
                   -beta, beta)


def step_lambda(prob: ProblemInstance, lam_t: np.ndarray, mu_t: np.ndarray,
                p_hat: np.ndarray) -> np.ndarray:
    """Closed-form lam update, a lumped-metric projection onto the box: the
    sweep's own step, handed ``xi_t = M_full mu_t``."""
    return _lambda_xi(prob, lam_t, prob.ops.M_full @ mu_t, p_hat)


def step_p(prob: ProblemInstance, lam_new: np.ndarray,
           mu_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Second p-solve of the sweep, at the updated lam: ``(p, w)`` with
    ``w = M^{-1} K p`` from the same solve, for :func:`dual_objective`; the
    sweep's own step, handed ``xi_t = M_full mu_t``."""
    return _p_solve(prob, lam_new, prob.ops.M_full @ mu_t)


def _lam_p_block(prob: ProblemInstance, lam_t: np.ndarray, xi_t: np.ndarray,
                 stop=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (lam, p) block of a sweep: ``(lam, p, w)`` from the p-solve at
    ``lam_t``, the lam update and the p-solve at the new lam, started from
    the first p-solve's ``(p, w)``; both p-solves stop at ``stop``."""
    first = _p_solve(prob, lam_t, xi_t, stop=stop)
    lam = _lambda_xi(prob, lam_t, xi_t, first[0])
    return (lam, *_p_solve(prob, lam, xi_t, first, stop))


def mu_xi_kernel(v, W, a: float, b: float, alpha: float,
                 gamma: float) -> np.ndarray:
    """Componentwise optimality map of the mu subproblem in xi = M mu:

    xi = v - (alpha/gamma) W clip((gamma/alpha) v / W, a, b).
    """
    v = np.asarray(v, dtype=float)
    W = np.asarray(W, dtype=float)
    proj = np.clip((gamma / alpha) * v / W, a, b)
    return v - (alpha / gamma) * W * proj


def _xi_step(prob: ProblemInstance, lam_new: np.ndarray, p_new: np.ndarray,
             mu_t: np.ndarray, xi_t: np.ndarray) -> np.ndarray:
    """The mu update in ``xi = M_full mu``: one projection by
    :func:`mu_xi_kernel`."""
    ops = prob.ops
    v = xi_t + (ops.W_full * (ops.pad(p_new) - lam_new - mu_t)) / prob.gamma
    return mu_xi_kernel(v, ops.W_full, *prob.box, prob.alpha, prob.gamma)


def step_mu(prob: ProblemInstance, xi: np.ndarray, mu_t: np.ndarray,
            stop=None) -> np.ndarray:
    """The new mu from the mu update's ``xi = M_full mu``: one mass solve
    by the instance's solver, which a grid solver starts at ``mu_t`` and
    stops at the backward error ``stop`` when one is given.

    The mu subproblem is a proximal step on the box support function
    composed with M; in the variable xi it separates componentwise, so the
    sweep takes xi by one projection and mu by this solve, once a sweep.
    From ``GRID_MIN_N`` on :func:`solve` runs it on its worker, beside the
    next sweep's (lam, p) block, which reads xi and not mu.
    """
    return prob.solver.solve_mass_full(xi, mu_t, stop)


def _extrapolate(x: np.ndarray, x_prev: np.ndarray, beta_k: float,
                 out: np.ndarray) -> np.ndarray:
    """``x + beta_k (x - x_prev)``, formed in ``out``: the same bits as
    the expression, since IEEE sums and products commute."""
    out = np.subtract(x, x_prev, out=out)
    out *= beta_k
    out += x
    return out


def momentum(t: float) -> tuple[float, float]:
    """Accelerated step-size recurrence: returns (t_next, beta_k)."""
    t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
    return float(t_next), float((t - 1.0) / t_next)


def recover_primal(prob: ProblemInstance, lam, p, mu) -> tuple[np.ndarray, np.ndarray]:
    """Control and state recovered from dual variables.

    ``u = (E p - lam - mu) / alpha`` (unclipped; at an optimum it is
    feasible), ``y`` solves the state equation for that control, so the
    state residual vanishes by construction.
    """
    ops = prob.ops
    u = ops.pad(p)
    u -= np.asarray(lam, float)
    u -= np.asarray(mu, float)
    u /= prob.alpha
    return u, prob.state(u)


def kkt_residual(prob: ProblemInstance, lam, p, mu, u, y) -> float:
    """Relative first-order residual: max of adjoint and two complementarity
    residuals, each normalized by 1 + the scale of its anchor vector."""
    ops = prob.ops

    adj = ops.K @ p
    adj -= ops.M @ (prob.y_d - y)
    r_adj = norm(adj) / (1.0 + norm(prob.m_yd))

    lam_prox = lambda_kernel(lam, ops.M_full @ u, ops.W_full, prob.beta)
    r_lam = norm(np.subtract(lam, lam_prox, out=lam_prox)) / (1.0 + norm(lam))

    u_prox = ops.M_full @ mu
    u_prox /= ops.W_full
    u_prox += u
    np.clip(u_prox, *prob.box, out=u_prox)
    r_mu = norm(np.subtract(u, u_prox, out=u_prox)) / (1.0 + norm(u))

    return max(r_adj, r_lam, r_mu)


def _sweep_stop(tol: float, k: int) -> float:
    """``tol k^-3``, the backward error at which sweep ``k``'s grid solves
    stop; ``sparse_linalg._corrections`` raises it to ``GRID_BERR_STOP``.
    The errors it leaves are summable with weight ``k``, so the value bound
    keeps its ``1/k^2`` rate (module docstring, README)."""
    return tol / k**3


# from this many interior unknowns (level 7 and up) an instance solves by
# fast sine transforms, and a sweep's mass solve and diagnostics run on a
# worker thread beside the next sweep's (lam, p) block; read only by
# ProblemInstance.on_grid, see the module docstring
GRID_MIN_N = 10_000


def _finish(prob: ProblemInstance, config: SolverConfig, k: int, lam, p, w,
            xi, mu_t, t0: float):
    """Sweep ``k`` from its ``xi`` on: the new mu by :func:`step_mu`, the
    divergence check, then the stop tests and the log row when the sweep is
    checked or logged or a ``phi_target`` is set (``max_iters`` forces a
    check, and so the last row).

    Returns ``(mu, stop_reason, row, u, y)``: ``stop_reason`` is None while
    the run goes on, ``row`` is None when the sweep is not logged, and
    ``u, y`` are None when no KKT residual was taken.  The objective is
    evaluated only for the target test or a row.
    """
    mu = step_mu(prob, xi, mu_t, _sweep_stop(config.tol, k))
    if not all(np.isfinite(x).all() for x in (lam, p, mu)):
        raise DivergenceError(f"non-finite iterate at k={k}", k,
                              DualIterate(lam, p, mu, k))
    check_now = k % config.check_every == 0 or k == config.max_iters
    log_now = config.log_every > 0 and k % config.log_every == 0
    target = config.phi_target
    stop_reason = row = u = y = None
    if target is not None:
        phi = dual_objective(prob, lam, p, mu, w)
        if phi <= target:
            stop_reason = "phi_target"
    if check_now or log_now or stop_reason is not None:
        u, y = recover_primal(prob, lam, p, mu)
        res = kkt_residual(prob, lam, p, mu, u, y)
        if check_now and res <= config.tol:
            stop_reason = "kkt"
    if stop_reason is None and k == config.max_iters:
        stop_reason = "max_iters"
    if log_now or stop_reason is not None:
        if target is None:
            phi = dual_objective(prob, lam, p, mu, w)
        row = (k, phi, res, phi + primal_value(prob, np.clip(u, *prob.box)),
               time.perf_counter() - t0 if config.timing else 0.0)
    return mu, stop_reason, row, u, y


def solve(prob: ProblemInstance, config: SolverConfig | None = None,
          z0: DualIterate | None = None) -> RunRecord:
    """Run the accelerated dual scheme from ``z0`` (zeros by default).

    Each sweep begins with a p-solve, so only the size of ``z0``'s p block
    is read (a prolongated start carries a zero p).  Logs one row
    (k, dual objective, KKT residual, duality gap, time) at the configured
    cadence and at the last sweep; stops on the KKT tolerance, on
    ``phi_target`` when set, or at ``max_iters``.  ``config.restart`` resets
    the momentum after every sweep whose step turns against the previous
    move, counted in ``RunRecord.restarts``.  Non-finite iterates raise
    :class:`DivergenceError`.

    A sweep is the (lam, p) block (:func:`_lam_p_block`), the mu update
    in ``xi = M_full mu`` (:func:`_xi_step`) and its mass solve
    (:func:`step_mu`); this loop is the package's only sequence of them
    (``analysis.prolongated_start`` is a one-sweep run).  The run carries
    ``xi_t = xi + beta (xi - xi_prev)`` beside ``lam_t``, so a sweep's
    (lam, p) block reads ``xi_t`` and not ``mu_t``.  A sweep's mass solve
    and its diagnostics are one job, :func:`_finish`, called directly below
    ``GRID_MIN_N`` interior unknowns.  From it on the job runs on a
    one-thread pool owned by this call, under the caller's numpy error
    state and error callback, while this thread takes the next sweep's
    (lam, p) block at the extrapolation that assumes no restart; the block
    is dropped when the job ends the run, and taken again from ``t = 1``
    when the restart test fires.  Both paths return the same record, bit
    for bit.  Every solve goes through ``prob.solver``, which this call
    builds before the worker exists.  Spent arrays are reused: the next
    ``lam_t``, ``xi_t`` and ``mu_t`` are formed in the last ones, so the
    arrays that a step is handed are rewritten by later sweeps.  The run
    keeps no zero start and, while a job runs, no earlier job's ``(u, y)``.
    """
    config = config or SolverConfig()
    if z0 is None:
        z0 = DualIterate.for_instance(prob)
    lam_prev = np.array(z0.lam, dtype=float)
    mu_prev = np.array(z0.mu, dtype=float)
    if lam_prev.shape != (prob.n_full,) or mu_prev.shape != (prob.n_full,) \
            or np.shape(z0.p) != (prob.n,):
        raise ValueError("start has wrong block sizes: expected "
                         f"lam/mu ({prob.n_full},), p ({prob.n},)")
    viol = np.abs(lam_prev).max(initial=0.0) - prob.beta
    if viol > 1e-9 * (1.0 + prob.beta):
        raise ValueError(f"initial lam violates the box by {viol:.3e}")
    np.clip(lam_prev, -prob.beta, prob.beta, out=lam_prev)
    del z0  # the sweeps read the copies; a zero start is not kept

    lam_t, mu_t = lam_prev, mu_prev
    xi_t = xi_prev = prob.ops.M_full @ mu_prev
    t, restarts = 1.0, 0
    t0 = time.perf_counter()
    log: list[tuple[int, float, float, float, float]] = []
    block = None  # sweep k's (lam, p) block, when taken beside job k-1
    # this thread's p-solves and the worker's mass and state solves share
    # the instance's solver: it is built before the worker exists
    prob.solver
    pool = ThreadPoolExecutor(1, "pdeabcd-worker") if prob.on_grid else None
    # the worker's jobs run in the caller's error state and callback
    errstate = np.errstate(call=np.geterrcall(), **np.geterr())

    with pool or nullcontext():
        for k in range(1, config.max_iters + 1):
            if block is None:
                block = _lam_p_block(prob, lam_t, xi_t,
                                     _sweep_stop(config.tol, k))
            lam, p, w = block
            xi = _xi_step(prob, lam, p, mu_t, xi_t)
            args = (prob, config, k, lam, p, w, xi, mu_t, t0)
            # the next extrapolation of lam and xi, taken before the job
            # says whether this sweep is the last or restarts the momentum
            t_next, beta_k = momentum(t)
            if config.restart:
                # the restart test's lam term, before lam_t is spent
                lam_turn = dot(lam_t - lam, lam - lam_prev)
            # lam_t and xi_t are spent and hold the extrapolation; at k = 1
            # they are lam_prev and xi_prev, which only a restart reads
            # again, and the restart test is minus a sum of squares there
            lam_next = _extrapolate(lam, lam_prev, beta_k, lam_t)
            xi_next = _extrapolate(xi, xi_prev, beta_k, xi_t)
            if not config.restart:
                lam_prev = xi_prev = None
            block = None
            if pool is None:
                mu, stop_reason, row, u, y = _finish(*args)
            else:
                job = pool.submit(errstate(_finish), *args)
                if not job.done() and k < config.max_iters:
                    block = _lam_p_block(prob, lam_next, xi_next,
                                         _sweep_stop(config.tol, k + 1))
                mu, stop_reason, row, u, y = job.result()
            if row is not None:
                log.append(row)
            if stop_reason is not None:
                break
            # the record takes the last sweep's; none is held meanwhile
            u = y = None

            if config.restart \
                    and lam_turn + dot(mu_t - mu, mu - mu_prev) > 0.0:
                # the next block is taken again, from t = 1
                restarts += 1
                t_next, beta_k = momentum(1.0)
                lam_next = _extrapolate(lam, lam_prev, beta_k, lam_next)
                xi_next = _extrapolate(xi, xi_prev, beta_k, xi_next)
                block = None
            lam_t, xi_t = lam_next, xi_next
            mu_t = _extrapolate(mu, mu_prev, beta_k, mu_t)  # mu_t is spent
            lam_prev, mu_prev, xi_prev = lam, mu, xi
            t = t_next

    ks, *cols = zip(*log)
    return RunRecord(np.asarray(ks, dtype=np.int64),
                     *(np.asarray(col, dtype=float) for col in cols),
                     final=DualIterate(lam, p, mu, k), u=u, y=y,
                     converged=stop_reason != "max_iters", iterations=k,
                     stop_reason=stop_reason, restarts=restarts)
