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
Phi with no solve of its own, so a run factors only the p-solve, M_full
(the mu update) and K (the primal state), never the interior M.  The
value gap decays like 4 tau / (k+1)^2 with tau the weighted squared
distance from the start to an optimum (analysis.compute_tau_h).

Phi is the exact Fenchel dual of the primal above: delta_box(lam) with the
componentwise bound beta is the conjugate constraint of the consistent-mass
L1 term, and support_box(M_full mu) that of the box indicator, both under
the M_full pairing that also weights the coupling term.  primal_value uses
the matching discretization, so phi + primal_value is a genuine duality
gap, certified against an independent primal solver (oracle module).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .assembly import LUMPED_MASS_GAMMA, FemOperators
from .mesh import InputError
from .sparse_linalg import AugmentedSolver


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
        if not 0.0 < self.alpha < np.inf:
            raise InputError(f"alpha must be in (0, inf), got {self.alpha}")
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

    @cached_property
    def psolve(self) -> AugmentedSolver:
        """Solver for ``(K M^{-1} K + M/alpha) p = b``, factored on first use."""
        return AugmentedSolver(self.ops.K, self.ops.M, self.alpha)

    def state(self, u: np.ndarray) -> np.ndarray:
        """The state of control ``u``: solves ``K y = M_int (u + y_r)``."""
        ops = self.ops
        return ops.stiffness_factor.solve(ops.mass_interior_rows(u + self.y_r))

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

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("k,phi,kkt,gap,time_s\n")
            for k, phi, kkt, gap, ts in zip(
                    self.ks, self.phi, self.kkt, self.gap, self.time_s):
                fh.write(f"{int(k)},{float(phi)!r},{float(kkt)!r},"
                         f"{float(gap)!r},{float(ts)!r}\n")

    def summary(self, prob: ProblemInstance) -> dict:
        u_l2m = float(np.sqrt(self.u @ (prob.ops.M_full @ self.u)))
        y_l2m = float(np.sqrt(self.y @ (prob.ops.M @ self.y)))
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
    the sweep passes the ``w`` of :func:`step_p`, else one mass solve.
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
    coupling = lam + mu - ops.pad(p)
    val = 0.5 * float((kp - prob.m_yd) @ (w - prob.y_d))
    val += 0.5 / prob.alpha * float(coupling @ (ops.M_full @ coupling))
    val += float(prob.m_yr @ p)
    val += support_box(ops.M_full @ mu, *prob.box)
    val -= 0.5 * float(prob.y_d @ prob.m_yd)
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
    diff = prob.state(u) - prob.y_d
    val = 0.5 * float(diff @ (ops.M @ diff))
    m_u = ops.M_full @ u
    val += 0.5 * prob.alpha * float(u @ m_u)
    val += prob.beta * float(np.abs(m_u).sum())
    return val


def _p_rhs(prob: ProblemInstance, lam: np.ndarray,
           mu_t: np.ndarray) -> np.ndarray:
    """Right side of the p-solve at the multipliers ``lam`` and ``mu_t``."""
    coupled = prob.ops.mass_interior_rows(lam + mu_t)
    return prob.p_rhs_data + coupled / prob.alpha


def step_phat(prob: ProblemInstance, lam_t: np.ndarray,
              mu_t: np.ndarray) -> np.ndarray:
    """First p-solve of the sweep, at the extrapolated lam."""
    return prob.psolve.solve(_p_rhs(prob, lam_t, mu_t))


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
    """Closed-form lam update: lumped-metric projection onto the box."""
    ops = prob.ops
    coupled = ops.M_full @ (ops.pad(p_hat) - mu_t - lam_t)
    return lambda_kernel(lam_t, coupled, ops.W_full, prob.beta)


def step_p(prob: ProblemInstance, lam_new: np.ndarray,
           mu_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Second p-solve of the sweep, at the updated lam: ``(p, w)`` with
    ``w = M^{-1} K p`` from the same solve, for :func:`dual_objective`."""
    return prob.psolve.solve_with_multiplier(_p_rhs(prob, lam_new, mu_t))


def mu_xi_kernel(v, W, a: float, b: float, alpha: float,
                 gamma: float) -> np.ndarray:
    """Componentwise optimality map of the mu subproblem in xi = M mu:

    xi = v - (alpha/gamma) W clip((gamma/alpha) v / W, a, b).
    """
    v = np.asarray(v, dtype=float)
    W = np.asarray(W, dtype=float)
    proj = np.clip((gamma / alpha) * v / W, a, b)
    return v - (alpha / gamma) * W * proj


def step_mu(prob: ProblemInstance, lam_new: np.ndarray, p_new: np.ndarray,
            mu_t: np.ndarray) -> np.ndarray:
    """Closed-form mu update via the lumped-metric proximal map.

    The subproblem is a proximal step on the box support function composed
    with M; in the variable xi = M mu it separates componentwise, so xi
    follows from one projection and mu from one mass solve.
    """
    ops = prob.ops
    v = ops.M_full @ mu_t \
        + (ops.W_full * (ops.pad(p_new) - lam_new - mu_t)) / prob.gamma
    xi = mu_xi_kernel(v, ops.W_full, *prob.box, prob.alpha, prob.gamma)
    return ops.mass_full_factor.solve(xi)


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
    u = (ops.pad(p) - np.asarray(lam, float)
         - np.asarray(mu, float)) / prob.alpha
    return u, prob.state(u)


def kkt_residual(prob: ProblemInstance, lam, p, mu, u, y) -> float:
    """Relative first-order residual: max of adjoint and two complementarity
    residuals, each normalized by 1 + the scale of its anchor vector."""
    ops = prob.ops
    a, b = prob.box
    beta = prob.beta

    r_adj = np.linalg.norm(ops.K @ p - ops.M @ (prob.y_d - y))
    r_adj /= 1.0 + np.linalg.norm(prob.m_yd)

    lam_prox = np.clip(lam + (ops.M_full @ u) / ops.W_full, -beta, beta)
    r_lam = np.linalg.norm(lam - lam_prox) / (1.0 + np.linalg.norm(lam))

    u_prox = np.clip(u + (ops.M_full @ mu) / ops.W_full, a, b)
    r_mu = np.linalg.norm(u - u_prox) / (1.0 + np.linalg.norm(u))

    return float(max(r_adj, r_lam, r_mu))


def solve(prob: ProblemInstance, config: SolverConfig | None = None,
          z0: DualIterate | None = None) -> RunRecord:
    """Run the accelerated dual scheme from ``z0`` (zeros by default).

    Each sweep begins with a p-solve, so only the size of ``z0``'s p block
    is read (a prolongated start carries a zero p).  Logs the dual
    objective, the KKT residual, and the duality gap at the configured
    cadence and at the last iteration; stops on the KKT tolerance, on
    ``phi_target`` when set, or at ``max_iters``.  With ``config.restart``
    the momentum is reset after every sweep whose step turns against the
    previous move, and the resets are counted in ``RunRecord.restarts``.
    Raises :class:`DivergenceError` when iterates become non-finite.
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

    lam_t, mu_t = lam_prev, mu_prev
    t = 1.0
    restarts = 0
    t0 = time.perf_counter()

    ks: list[int] = []
    phis: list[float] = []
    kkts: list[float] = []
    gaps: list[float] = []
    times: list[float] = []

    a, b = prob.box
    target = config.phi_target
    converged = False
    stop_reason = "max_iters"

    for k in range(1, config.max_iters + 1):
        p_hat = step_phat(prob, lam_t, mu_t)
        lam = step_lambda(prob, lam_t, mu_t, p_hat)
        p, w = step_p(prob, lam, mu_t)
        mu = step_mu(prob, lam, p, mu_t)

        if not (np.isfinite(lam).all() and np.isfinite(p).all()
                and np.isfinite(mu).all()):
            raise DivergenceError(f"non-finite iterate at k={k}", k,
                                  DualIterate(lam, p, mu, k))

        check_now = (k % config.check_every == 0) or (k == config.max_iters)
        log_now = config.log_every > 0 and (k % config.log_every == 0)

        phi = None
        if log_now or target is not None:
            phi = dual_objective(prob, lam, p, mu, w)
        hit_target = target is not None and phi <= target
        if check_now or log_now or hit_target:
            u, y = recover_primal(prob, lam, p, mu)
            res = kkt_residual(prob, lam, p, mu, u, y)

        if check_now and res <= config.tol:
            converged, stop_reason = True, "kkt"
        elif hit_target:
            converged, stop_reason = True, "phi_target"
        last = converged or k == config.max_iters
        # the last iteration is always logged; max_iters forces a check there
        if log_now or last:
            if phi is None:
                phi = dual_objective(prob, lam, p, mu, w)
            ks.append(k)
            phis.append(phi)
            kkts.append(res)
            gaps.append(phi + primal_value(prob, np.clip(u, a, b)))
            times.append(time.perf_counter() - t0 if config.timing else 0.0)
        if last:
            break

        if config.restart and float((lam_t - lam) @ (lam - lam_prev)) \
                + float((mu_t - mu) @ (mu - mu_prev)) > 0.0:
            t = 1.0
            restarts += 1
        t_next, beta_k = momentum(t)
        lam_t = lam + beta_k * (lam - lam_prev)
        mu_t = mu + beta_k * (mu - mu_prev)
        lam_prev, mu_prev = lam, mu
        t = t_next

    return RunRecord(
        ks=np.asarray(ks, dtype=np.int64),
        phi=np.asarray(phis, dtype=float),
        kkt=np.asarray(kkts, dtype=float),
        gap=np.asarray(gaps, dtype=float),
        time_s=np.asarray(times, dtype=float),
        final=DualIterate(lam, p, mu, k),
        u=u,
        y=y,
        converged=converged,
        iterations=k,
        stop_reason=stop_reason,
        restarts=restarts,
    )
