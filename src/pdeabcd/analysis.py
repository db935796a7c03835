"""Convergence constants, bound verification, and mesh-robustness
experiments.

The dual sweep majorizes in the block-diagonal metric on (lam, mu)

    S_h = diag((M E G^{-1} E' M + W - M)/alpha, gamma M W^{-1} M/alpha),
    G = M + alpha K M^{-1} K,  E the zero-boundary embedding,

and tau_h = 1/2 ||z0 - z*||^2 in S_h controls the accelerated value gap
through 4 tau_h / (k+1)^2.  The mesh-independence experiment runs the
solver on a level hierarchy from one prolongated starting point and
records iterations to a relative accuracy; the spectral report tracks how
the extreme eigenvalues of the operators and of S_h scale with h.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

from . import dual_solver, oracle
from .assembly import (LUMPED_MASS_GAMMA, assemble, l1h_norm,
                       l1_norm_exact, norms)
from .dual_solver import DualIterate, ProblemInstance, RunRecord, SolverConfig
from .mesh import (InputError, Mesh, build_unit_square_mesh, check_level,
                   check_levels, prolongate_nodal)
from .presets import make_instance
from .sparse_linalg import dot, power_iteration_extremes

ORACLE_CAP = 4000


def apply_g_inverse(prob: ProblemInstance, b: np.ndarray) -> np.ndarray:
    """Solve ``(M + alpha K M^{-1} K) x = b`` with the instance's p-solve."""
    return prob.solver.solve_with_multiplier(
        np.asarray(b, dtype=float) / prob.alpha)[0]


def majorizer_blocks(prob: ProblemInstance):
    """The ``(lam, mu)`` blocks of S_h as maps of full nodal vectors."""
    ops = prob.ops

    def s_lam(v):
        mv = ops.M_full @ v
        ginv = apply_g_inverse(prob, ops.restrict(mv))
        return (ops.M_full @ ops.pad(ginv) + ops.W_full * v - mv) / prob.alpha

    def s_mu(v):
        mv = ops.M_full @ v
        return (prob.gamma / prob.alpha) * (ops.M_full @ (mv / ops.W_full))

    return s_lam, s_mu


def compute_tau_h(prob: ProblemInstance, z0: DualIterate,
                  z_star: DualIterate) -> float:
    """tau_h, half the squared S_h distance of a start from an optimum.

    The p blocks do not enter; roundoff below zero is clipped.
    """
    s_lam, s_mu = majorizer_blocks(prob)
    d = z0.lam - z_star.lam
    e = z0.mu - z_star.mu
    return 0.5 * max(dot(d, s_lam(d)) + dot(e, s_mu(e)), 0.0)


def verify_complexity_bound(record: RunRecord, tau_h: float, phi_star: float,
                            slack_rel: float = 1e-10,
                            eps_bar=0.0) -> tuple[bool, float]:
    """Check the accelerated value bound along a logged run.

    Requires ``Phi(z_k) - Phi* <= 4 (sqrt(tau_h) + eps_bar_k)^2 / (k+1)^2
    + slack`` at every logged iteration, with ``slack = slack_rel * (1 +
    |Phi*|)``.  ``eps_bar`` (a number, or one per logged iteration) is the
    weighted sum of a run's solve errors up to sweep ``k``, in the norms of
    S_h's blocks: zero for a run with exact solves, the inexact form of
    the bound otherwise (README, "Inexact sweeps").  Returns the verdict
    and the smallest slack-free margin ``bound - gap`` over the run.
    """
    ks = np.asarray(record.ks, dtype=float)
    gaps = np.asarray(record.phi, dtype=float) - phi_star
    # (sqrt(tau_h) + eps_bar)^2, with tau_h itself at eps_bar = 0
    bounds = 4.0 * (tau_h + eps_bar * (2.0 * np.sqrt(tau_h) + eps_bar)) \
        / (ks + 1.0) ** 2
    slack = slack_rel * (1.0 + abs(phi_star))
    margins = bounds - gaps
    return bool(np.all(gaps <= bounds + slack)), float(margins.min())


def lam_max_majorizer(prob: ProblemInstance) -> tuple[float, bool]:
    """Largest eigenvalue of S_h, which is that of its mu block.

    Returns ``(estimate, converged)`` of 400 power steps on S_mu, False
    at the cap.  No valid gamma lets the lam block set the maximum:
    - gamma < 4 is never valid.  Colour node (i, j) by (i + j) mod 3: each
      triangle gets all three colours, so z = cos(2 pi colour / 3) sums to
      zero on it and z'W_e z = 4 z'M_e z.  So W <= gamma M, and with it
      S_mu >= M/alpha, fails for gamma < 4.
    - gamma >= 4 lets the mu block decide.  P1 has M_ii = W_i/2, so
      (M W^-1 M)_ii > M_ii^2/W_i = W_i/4 (neighbours add; the least ratio
      is 7/24): lam_max(S_mu) >= max_i (S_mu)_ii > max(W)/alpha, while
      S_lam <= W/alpha since G = M + alpha K M^-1 K dominates M.
    """
    _, s_mu = majorizer_blocks(prob)
    top_mu, mu_ok = power_iteration_extremes(s_mu, prob.n_full, iters=400)
    return float(top_mu), mu_ok


def prolongated_start(coarse_inst: ProblemInstance) -> DualIterate:
    """The start: the iterate of a one-sweep :func:`dual_solver.solve` from
    rest on the coarse level, exact (``tol = 0``) and unlogged.

    It is a P1 triple on the coarse mesh: data adapted (zero data keeps
    the start at the origin, so those runs finish in one iteration
    everywhere), dual feasible by construction, and with level-independent
    norms.  :func:`prolongate_iterate` carries lam and mu to any finer
    nested mesh as nodal interpolation of the same functions, so they are
    one fixed function pair across the hierarchy.
    """
    config = SolverConfig(max_iters=1, tol=0.0, log_every=0)
    return dual_solver.solve(coarse_inst, config).final


def prolongate_iterate(src_mesh: Mesh, z: DualIterate,
                       dst: ProblemInstance) -> DualIterate:
    """Carry a dual iterate from ``src_mesh`` to the finer nested mesh of
    ``dst`` by nodal interpolation.

    Needs only the source mesh, so a finished level's operators and
    factorizations need not outlive it.  lam is clipped to the destination's
    beta bound.  p is left zero: every sweep of :func:`dual_solver.solve`
    begins with a p-solve and :func:`compute_tau_h` ignores p.
    """
    fine = dst.ops.mesh
    lam = np.clip(prolongate_nodal(src_mesh, fine, z.lam), -dst.beta, dst.beta)
    mu = prolongate_nodal(src_mesh, fine, z.mu)
    return DualIterate(lam, np.zeros(dst.n), mu)


def reference_solution(prob: ProblemInstance, z0: DualIterate | None = None
                       ) -> tuple[DualIterate, float]:
    """Dual solve to KKT residual 1e-8; returns (z_star, phi_star).

    The run only produces a reference optimum, so it restarts its momentum
    (``SolverConfig.restart``); the runs whose sweeps are counted stay on
    the unrestarted scheme that the value bound covers.
    """
    config = SolverConfig(max_iters=200_000, tol=1e-8, log_every=0,
                          check_every=5, restart=True)
    run = dual_solver.solve(prob, config, z0=z0)
    return run.final, float(run.phi[-1])


def reference_optimum(prob: ProblemInstance, z0: DualIterate | None = None
                      ) -> tuple[DualIterate, float]:
    """Optimal dual iterate and value ``(z_star, phi_star)`` of one instance.

    Up to ``ORACLE_CAP`` interior unknowns the optimum is certified by the
    primal oracle; above it, it is a :func:`reference_solution`.  Each
    route owns its sweep cap, so no caller's run budget can truncate it.
    ``z0`` warm starts the dual run of either route.
    """
    if prob.n <= ORACLE_CAP:
        cert = oracle.certified_optimum(prob, z0=z0)
        return cert.z_star, cert.phi_star
    return reference_solution(prob, z0=z0)


def certified_preset_optimum(preset: str, level: int):
    """A preset's default instance at one level and its certified optimum."""
    inst = make_instance(preset, level)
    return inst, oracle.certified_optimum(inst)


@dataclass
class LevelResult:
    """One row of the mesh-independence report."""

    level: int
    h: float
    n_interior: int
    iters_to_eps: int
    tau_h: float
    lam_max_sh: float
    lam_max_converged: bool
    phi_star: float
    seconds: float

    @property
    def saturated(self) -> bool:
        return self.iters_to_eps < 0


@dataclass
class MeshIndependenceReport:
    """Iterations-to-accuracy across a level hierarchy.

    ``median_iters`` is None when every row saturates.
    """

    preset: str
    epsilon: float
    rows: list[LevelResult]
    median_iters: float | None
    passed: bool
    fitted_c: float | None = None
    tau_proxy: float | None = None

    def to_json_dict(self) -> dict:
        out = asdict(self)
        out["fitted_C"] = out.pop("fitted_c")
        for row in out["rows"]:
            row["lam_max_Sh"] = row.pop("lam_max_sh")
        return out


def _levels_to_compare(levels) -> list[int]:
    """The checked levels, sorted; fewer than two leave nothing to compare."""
    if len(levels) < 2:
        raise InputError("need at least two levels to compare")
    return sorted(check_levels(levels))


def mesh_independence_experiment(preset: str, levels, epsilon: float = 1e-6,
                                 *, jobs: int = 1,
                                 run_max_iters: int = 50_000,
                                 timing: bool = False,
                                 tau_proxy_level: int | None = None,
                                 alpha=None, beta=None,
                                 box=None) -> MeshIndependenceReport:
    """Iterations to relative accuracy ``epsilon`` across mesh levels.

    One ascending chain walks the row levels and the tau proxy level.  The
    coarsest instance and its one-sweep start are built once; each level
    of the chain prolongates that start, warm-starts its reference optimum
    from the previous level's, and takes tau_h between the two.  The proxy
    level's tau_h is the tau proxy, so a proxy at a row level reuses that
    row's.  A row counts the sweeps until the dual objective reaches
    ``Phi* + epsilon (1 + |Phi*|)``; the report passes when no row
    saturates, all counts lie within 20 percent of their median, and the
    tau fit holds.  ``run_max_iters`` caps the counted runs, never a
    reference solve.  ``jobs`` must be 1 and the proxy level no coarser
    than the coarsest level.  Bad input raises ``InputError`` (a
    non-integer level ``TypeError``) before any instance is built.
    """
    if jobs != 1:
        raise InputError(f"jobs must be 1, got {jobs}")
    if not 0.0 < epsilon < np.inf:
        raise InputError(f"epsilon must be in (0, inf), got {epsilon}")
    if not run_max_iters >= 1:
        raise InputError(f"run_max_iters must be >= 1, got {run_max_iters}")
    levels = _levels_to_compare(levels)
    if tau_proxy_level is not None:
        check_level(tau_proxy_level)
        if not tau_proxy_level >= levels[0]:
            raise InputError(f"tau proxy level {tau_proxy_level} is coarser "
                             f"than the coarsest level {levels[0]}")
    params = dict(alpha=alpha, beta=beta, box=box)
    inst = make_instance(preset, levels[0], **params)
    coarse_mesh = inst.ops.mesh
    start = prolongated_start(inst)

    rows: list[LevelResult] = []
    warm = proxy = None
    for level in sorted(set(levels) | ({tau_proxy_level} - {None})):
        t0 = time.perf_counter()
        if level != coarse_mesh.level:
            inst = make_instance(preset, level, **params)
        z0 = prolongate_iterate(coarse_mesh, start, inst)
        z_star, phi_star = reference_optimum(
            inst, None if warm is None else prolongate_iterate(*warm, inst))
        tau_h = compute_tau_h(inst, z0, z_star)
        if level == tau_proxy_level:
            proxy = tau_h
        if level in levels:
            lam_max_sh, lam_max_ok = lam_max_majorizer(inst)
            config = SolverConfig(
                max_iters=run_max_iters, tol=0.0, log_every=0, check_every=5,
                phi_target=phi_star + epsilon * (1.0 + abs(phi_star)))
            run = dual_solver.solve(inst, config, z0=z0)
            rows.append(LevelResult(
                level=level, h=inst.ops.mesh.h, n_interior=inst.n,
                iters_to_eps=run.iterations if run.converged else -1,
                tau_h=tau_h, lam_max_sh=lam_max_sh,
                lam_max_converged=lam_max_ok, phi_star=phi_star,
                seconds=time.perf_counter() - t0 if timing else 0.0))
        warm = (inst.ops.mesh, z_star)
        # free this level's operators before the next level is assembled
        del inst

    counts = [r.iters_to_eps for r in rows if not r.saturated]
    median = float(np.median(counts)) if counts else None
    passed = len(counts) == len(rows) and all(
        abs(c - median) <= 0.2 * median for c in counts)
    fitted_c = None
    if proxy is not None:
        fitted_c, fit_ok = fit_tau_constant(rows, proxy)
        passed = passed and fit_ok
    return MeshIndependenceReport(
        preset=preset, epsilon=epsilon, rows=rows, median_iters=median,
        passed=passed, fitted_c=fitted_c, tau_proxy=proxy)


def fit_tau_constant(rows: list[LevelResult],
                     tau_proxy: float) -> tuple[float, bool]:
    """Smallest nonnegative C with ``tau_h <= tau_proxy + C h`` on all rows."""
    c = max([0.0] + [(r.tau_h - tau_proxy) / r.h for r in rows])
    ok = all(r.tau_h <= tau_proxy + c * r.h + 1e-12 * (1.0 + abs(tau_proxy))
             for r in rows)
    return c, ok


@dataclass
class SpectralRow:
    level: int
    h: float
    lam_max_m: float
    lam_min_m: float
    lam_max_k: float
    lam_min_k: float
    lam_max_sh: float
    lam_max_converged: bool


@dataclass
class SpectralScalingReport:
    """Extreme-eigenvalue scaling of M, K, and the majorization metric."""

    rows: list[SpectralRow]

    def checks(self) -> dict[str, bool]:
        rows = self.rows
        h2 = np.array([r.h**2 for r in rows])
        max_m = np.array([r.lam_max_m for r in rows]) / h2
        min_m = np.array([r.lam_min_m for r in rows]) / h2
        min_k = np.array([r.lam_min_k for r in rows]) / h2
        max_k = np.array([r.lam_max_k for r in rows])
        max_sh = np.array([r.lam_max_sh for r in rows]) / h2
        sh_raw = np.array([r.lam_max_sh for r in rows])
        out = {key: bool(ok) for key, ok in {
            "mass_max_window2": max_m.max() <= 2.0 * max_m.min(),
            "mass_min_window2": min_m.max() <= 2.0 * min_m.min(),
            "stiffness_min_window2": min_k.max() <= 2.0 * min_k.min(),
            "stiffness_max_stable":
            abs(max_k[-1] - max_k[-2]) <= 0.10 * max_k[-2],
            "majorizer_window2": max_sh.max() <= 2.0 * max_sh.min(),
            "majorizer_decreasing": np.all(np.diff(sh_raw) < 0.0),
        }.items()}
        out["all"] = all(out.values())
        return out


def spectral_scaling_report(levels,
                            alpha: float = 1e-2) -> SpectralScalingReport:
    """Extreme eigenvalues of M, K, and the majorizer per level on ``sine``."""
    levels = _levels_to_compare(levels)
    rows = []
    for level in levels:
        inst = make_instance("sine", level, alpha=alpha)
        ops = inst.ops
        n = inst.n
        m_fact = ops.mass_factor
        k_fact = ops.stiffness_factor
        lam_max_m, _ = power_iteration_extremes(lambda v: ops.M @ v, n)
        inv_max, _ = power_iteration_extremes(m_fact.solve, n)
        lam_max_k, _ = power_iteration_extremes(lambda v: ops.K @ v, n)
        kinv_max, _ = power_iteration_extremes(k_fact.solve, n)
        lam_max_sh, lam_max_ok = lam_max_majorizer(inst)
        rows.append(SpectralRow(
            level=level,
            h=ops.mesh.h,
            lam_max_m=lam_max_m,
            lam_min_m=1.0 / inv_max,
            lam_max_k=lam_max_k,
            lam_min_k=1.0 / kinv_max,
            lam_max_sh=lam_max_sh,
            lam_max_converged=lam_max_ok,
        ))
    return SpectralScalingReport(rows=rows)


def check_samples(samples: int) -> None:
    """The randomized suites' rule: at least one sample, else ``InputError``."""
    if not samples >= 1:
        raise InputError(f"samples must be >= 1, got {samples}")


def lumped_mass_comparison_check(levels, samples: int = 1000,
                                 seed: int = 0) -> dict:
    """Sandwich check ``||z||_M^2 <= ||z||_W^2 <= gamma ||z||_M^2``.

    ``gamma`` is ``LUMPED_MASS_GAMMA``, read at call time and reported.
    Runs on random full nodal vectors; counts violations beyond a relative
    roundoff slack of 1e-12.  No level or no sample raises ``InputError``.
    """
    levels = check_levels(levels)
    if not levels:
        raise InputError("need at least one level")
    check_samples(samples)
    rng = np.random.default_rng(seed)
    out = {"gamma": LUMPED_MASS_GAMMA, "levels": {}, "violations": 0}
    for level in levels:
        ops = assemble(build_unit_square_mesh(level))
        nviol = 0
        for _ in range(samples):
            z = rng.standard_normal(ops.mesh.n_nodes)
            zm = dot(z, ops.M_full @ z)
            zw = dot(z, ops.W_full * z)
            slack = 1e-12 * max(zm, zw)
            if zw < zm - slack or zw > LUMPED_MASS_GAMMA * zm + slack:
                nviol += 1
        out["levels"][level] = nviol
        out["violations"] += nviol
    out["passed"] = out["violations"] == 0
    return out


def l1_gap_check(levels, samples: int = 1000, seed: int = 0) -> dict:
    """Two-sided check of the lumped-l1 overshoot.

    For random nodal vectors the gap ``||z||_{l1,W} - ||z||_{L1}`` must be
    nonnegative (up to roundoff) and bounded by ``C h ||z||_{H1}`` with C
    fitted at the coarsest level and reused at finer ones.  Fewer than two
    levels or no sample raises ``InputError``.
    """
    levels = _levels_to_compare(levels)
    check_samples(samples)
    rng = np.random.default_rng(seed)
    out = {"levels": {}, "fit_level": levels[0]}
    c_fit = 0.0
    passed = True
    for idx, level in enumerate(levels):
        ops = assemble(build_unit_square_mesh(level))
        h = ops.mesh.h
        worst_ratio = 0.0
        nviol_lower = 0
        nviol_upper = 0
        for _ in range(samples):
            z = rng.standard_normal(ops.mesh.n_nodes)
            gap = l1h_norm(ops.W_full, z) - l1_norm_exact(ops.mesh, z)
            _, h1 = norms(ops, z)
            if gap < -1e-12 * (1.0 + h1):
                nviol_lower += 1
            ratio = gap / (h * h1)
            worst_ratio = max(worst_ratio, ratio)
            if idx > 0 and gap > c_fit * h * h1 + 1e-12 * (1.0 + h1):
                nviol_upper += 1
        if idx == 0:
            c_fit = worst_ratio
        out["levels"][level] = {
            "worst_ratio": worst_ratio,
            "lower_violations": nviol_lower,
            "upper_violations": nviol_upper if idx > 0 else 0,
        }
        passed = passed and nviol_lower == 0 and \
            (idx == 0 or nviol_upper == 0)
    out["fitted_C"] = c_fit
    out["passed"] = passed
    return out


def operator_bound_check(levels, alpha: float = 1e-2) -> dict:
    """Scaling windows for ``G = M + alpha K M^{-1} K``.

    The smallest eigenvalue scales like h^2 and the largest like 1/h^2;
    windows are fitted on the coarsest pair of levels with a 25 percent
    margin and checked on the rest, so fewer than three levels never pass.
    An alpha so large that the power iteration on G^{-1} underflows to zero,
    or that the estimate of lam_max(G) is not positive and finite, raises
    ``InputError``.
    """
    levels = sorted(check_levels(levels))
    rows = []
    for level in levels:
        inst = make_instance("sine", level, alpha=alpha)
        ops = inst.ops

        def g_apply(v):
            mv = ops.mass_factor.solve(ops.K @ v)
            return ops.M @ v + alpha * (ops.K @ mv)

        ginv_max, _ = power_iteration_extremes(
            lambda v: apply_g_inverse(inst, v), inst.n)
        if not ginv_max > 0.0:
            raise InputError(f"alpha {alpha!r} is too large for the "
                             "coupled-operator check: G^-1 underflows to 0")
        # at such an alpha the iterates of G overflow; refused just below
        with np.errstate(over="ignore", invalid="ignore"):
            g_max, _ = power_iteration_extremes(g_apply, inst.n)
        if not 0.0 < g_max < np.inf:
            raise InputError(f"alpha {alpha!r} is too large for the "
                             "coupled-operator check: the estimate of "
                             f"lam_max(G) is {g_max!r}")
        h = ops.mesh.h
        rows.append({
            "level": level,
            "h": h,
            "lam_max_G_times_h2": g_max * h * h,
            "lam_min_G_over_h2": (1.0 / ginv_max) / (h * h),
        })
    passed = len(rows) > 2
    windows = {}
    for key in ("lam_max_G_times_h2", "lam_min_G_over_h2"):
        fit = [r[key] for r in rows[:2]]
        lo, hi = min(fit) / 1.25, max(fit) * 1.25
        windows[key] = (lo, hi)
        for r in rows[2:]:
            passed = passed and (lo <= r[key] <= hi)
    return {"alpha": alpha, "rows": rows, "windows": windows,
            "passed": passed}
