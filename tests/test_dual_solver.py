"""Dual solver unit tests.

The two componentwise kernels are checked against brute-force scalar
minimization of the subproblems they claim to solve; the sweep is checked
for its fixed point at a certified optimum, arithmetic identities of the
primal recovery, bitwise determinism, and the divergence guard; runs whose
mass solves and diagnostics go to a worker thread are checked against
inline ones, bit for bit.
"""

import dataclasses
import threading
import tracemalloc

import numpy as np
import pytest

from pdeabcd import dual_solver
from pdeabcd.assembly import assemble
from pdeabcd.cli import main
from pdeabcd.dual_solver import (
    DivergenceError,
    DualIterate,
    ProblemInstance,
    SolverConfig,
    dual_objective,
    kkt_residual,
    lambda_kernel,
    momentum,
    mu_xi_kernel,
    primal_value,
    recover_primal,
    solve,
    step_lambda,
    step_mu,
    step_p,
    step_phat,
    support_box,
)
from pdeabcd.mesh import InputError, build_unit_square_mesh
from pdeabcd.presets import make_instance
from pdeabcd.sparse_linalg import GridSolver


def _grid_min(f, lo, hi, n=4001, rounds=3):
    """Two-stage (or more) grid refinement; effective resolution (hi-lo)/n^r."""
    for _ in range(rounds):
        xs = np.linspace(lo, hi, n)
        i = int(np.argmin(f(xs)))
        lo = xs[max(i - 1, 0)]
        hi = xs[min(i + 1, n - 1)]
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# componentwise kernels against brute force


def test_lambda_kernel_brute_force(rng):
    for _ in range(200):
        w = rng.uniform(0.3, 2.0)
        m = rng.uniform(0.25 * w, w)
        beta = rng.uniform(0.1, 1.5)
        lam_t, mu_t, p = rng.normal(0.0, 2.0, size=3)

        def f(x):
            return m * (x + mu_t - p) ** 2 + (w - m) * (x - lam_t) ** 2

        best = _grid_min(f, -beta, beta)
        got = lambda_kernel(np.array([lam_t]),
                            np.array([m * (p - mu_t - lam_t)]),
                            np.array([w]), beta)[0]
        # grid argmin resolves the flat quadratic bottom only to ~sqrt(eps)
        assert got == pytest.approx(best, abs=2e-7)
        assert abs(got) <= beta


def test_mu_kernel_brute_force(rng):
    gamma = 4.0
    for _ in range(200):
        w = rng.uniform(0.3, 2.0)
        m = rng.uniform(0.25 * w, w)
        alpha = 10.0 ** rng.uniform(-3.0, -1.0)
        a = -rng.uniform(0.1, 2.0)
        b = rng.uniform(0.1, 2.0)
        lam, mu_t, p = rng.normal(0.0, 2.0, size=3)

        def f(x):
            quad = m * (x + lam - p) ** 2 \
                + (gamma * m * m / w - m) * (x - mu_t) ** 2
            supp = 2.0 * alpha * m * (b * np.maximum(x, 0.0)
                                      + a * np.minimum(x, 0.0))
            return quad + supp

        r = 10.0 * (1.0 + abs(p) + abs(lam) + abs(mu_t))
        best = _grid_min(f, -r, r)
        v = m * mu_t + (w / gamma) * (p - lam - mu_t)
        xi = mu_xi_kernel(np.array([v]), np.array([w]), a, b, alpha, gamma)[0]
        got = xi / m
        assert got == pytest.approx(best, abs=2e-7 * (1.0 + abs(best)))


def test_kernels_preserve_shapes(rng):
    lam_t = rng.standard_normal(7)
    coupled = rng.standard_normal(7)
    W = rng.uniform(0.5, 1.0, 7)
    out = lambda_kernel(lam_t, coupled, W, 0.3)
    assert out.shape == (7,)
    assert np.all(np.abs(out) <= 0.3)
    xi = mu_xi_kernel(rng.standard_normal(7), W, -1.0, 1.0, 1e-2, 4.0)
    assert xi.shape == (7,)


def test_support_box_values():
    s = np.array([2.0, -3.0, 0.0])
    # b acts on the positive part, a on the negative part
    assert support_box(s, -1.0, 1.0) == pytest.approx(2.0 + 3.0)
    assert support_box(s, 0.0, 1.0) == pytest.approx(2.0)
    assert support_box(np.zeros(3), -1.0, 1.0) == 0.0


# ---------------------------------------------------------------------------
# objective and instance plumbing


def test_dual_objective_zero_iterate(sine2):
    z = DualIterate.for_instance(sine2)
    phi = dual_objective(sine2, *z.blocks())
    assert abs(phi) < 1e-12


def test_dual_objective_infinite_outside_box(sine2, rng):
    z = DualIterate.for_instance(sine2)
    lam = z.lam.copy()
    lam[3] = sine2.beta * 1.5
    assert dual_objective(sine2, lam, z.p, z.mu) == np.inf


@pytest.mark.parametrize("level", [2, 3, 4])
@pytest.mark.parametrize("preset", ["sine", "shifted"])
def test_dual_objective_sweep_multiplier_matches_mass_solve(preset, level):
    # the logged phi uses the second p-solve's w = M^{-1} K p; without it
    # dual_objective takes w from a mass solve
    inst = make_instance(preset, level)
    for k in (1, 2, 5, 10, 20):
        run = solve(inst, SolverConfig(max_iters=k, tol=0.0, log_every=0))
        by_mass_solve = dual_objective(inst, *run.final.blocks())
        assert abs(run.phi[-1] - by_mass_solve) <= 1e-13 * abs(by_mass_solve)


def test_solve_builds_no_interior_mass_factor():
    plain = make_instance("sine", 3)
    run = solve(plain, SolverConfig(tol=1e-6))
    assert "mass_factor" not in plain.ops.__dict__
    targeted = make_instance("sine", 3)
    run = solve(targeted, SolverConfig(tol=0.0, phi_target=run.phi[-1]))
    assert run.stop_reason == "phi_target"
    assert "mass_factor" not in targeted.ops.__dict__


def test_instance_validation():
    ops = make_instance("sine", 2).ops
    n, ni = ops.mesh.n_nodes, ops.n_interior
    good = dict(ops=ops, y_d=np.zeros(ni), y_r=np.zeros(n),
                alpha=1e-2, beta=1e-2, box=(-1.0, 1.0), gamma=4.0)
    ProblemInstance(**good)
    with pytest.raises(ValueError, match="gamma"):
        ProblemInstance(**{**good, "gamma": 1.0})
    with pytest.raises(ValueError, match="box"):
        ProblemInstance(**{**good, "box": (0.5, 1.0)})
    with pytest.raises(ValueError, match="alpha"):
        ProblemInstance(**{**good, "alpha": 0.0})
    with pytest.raises(ValueError, match="beta"):
        ProblemInstance(**{**good, "beta": -1.0})
    with pytest.raises(ValueError, match="interior"):
        ProblemInstance(**{**good, "y_d": np.zeros(n)})
    with pytest.raises(ValueError, match="full"):
        ProblemInstance(**{**good, "y_r": np.zeros(ni)})
    # level 0 is a valid mesh, but the state has no unknown on it
    ops0 = assemble(build_unit_square_mesh(0))
    with pytest.raises(InputError, match="no interior node"):
        ProblemInstance(**{**good, "ops": ops0, "y_d": np.zeros(0),
                           "y_r": np.zeros(ops0.mesh.n_nodes)})


def test_solver_config_validation():
    SolverConfig(max_iters=1, tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(tol=-1.0)
    with pytest.raises(InputError):
        SolverConfig(tol=float("nan"))
    with pytest.raises(ValueError):
        SolverConfig(check_every=0)
    with pytest.raises(ValueError):
        SolverConfig(log_every=-1)


@pytest.mark.parametrize("level", [3, 4, 5])
@pytest.mark.parametrize("preset", ["sine", "shifted"])
def test_restart_never_takes_more_sweeps(preset, level):
    inst = make_instance(preset, level)
    plain = solve(inst, SolverConfig(tol=1e-6, log_every=0))
    restarted = solve(inst, SolverConfig(tol=1e-6, log_every=0,
                                         restart=True))
    assert plain.converged and restarted.converged
    assert plain.restarts == 0 and restarted.restarts > 0
    assert restarted.iterations <= plain.iterations


def test_restarted_runs_match_a_loop_of_sweeps():
    # the reference loop; a run that ends on sweep k takes the restart tests
    # after sweeps 1..k-1 only, also when the test after k would fire
    inst = make_instance("shifted", 3)
    lam_prev = mu_prev = lam_t = mu_t = np.zeros(inst.n_full)
    xi_prev = xi_t = inst.ops.M_full @ mu_t
    t, fired, iterates = 1.0, [], {}
    for k in range(1, 80):
        lam, p, _ = dual_solver._lam_p_block(inst, lam_t, xi_t)
        xi = dual_solver._xi_step(inst, lam, p, mu_t, xi_t)
        mu = step_mu(inst, xi, mu_t)
        iterates[k] = (lam, p, mu)
        if np.einsum("i,i->", lam_t - lam, lam - lam_prev) \
                + np.einsum("i,i->", mu_t - mu, mu - mu_prev) > 0.0:
            t = 1.0
            fired.append(k)
        t_next, beta_k = momentum(t)
        lam_t = lam + beta_k * (lam - lam_prev)
        mu_t = mu + beta_k * (mu - mu_prev)
        xi_t = xi + beta_k * (xi - xi_prev)
        lam_prev, mu_prev, xi_prev, t = lam, mu, xi, t_next
    assert len(fired) >= 2
    for last in (fired[1], fired[1] + 1):
        run = solve(inst, SolverConfig(max_iters=last, tol=0.0, log_every=0,
                                       restart=True))
        assert run.restarts == sum(k < last for k in fired)
        for x, y in zip(run.final.blocks(), iterates[last]):
            assert np.array_equal(x, y)


def test_momentum_recurrence():
    t1 = 1.0
    t2, beta1 = momentum(t1)
    assert beta1 == 0.0
    assert t2 == pytest.approx((1.0 + np.sqrt(5.0)) / 2.0, rel=1e-15)
    # t_k >= (k+1)/2 keeps the acceleration schedule valid
    t = 1.0
    for k in range(1, 300):
        assert t >= (k + 1) / 2.0 - 1e-12
        t, beta = momentum(t)
        assert 0.0 <= beta < 1.0


def test_start_validation(sine2):
    n_full, n = sine2.n_full, sine2.n
    bad = DualIterate(np.full(n_full, 2.0 * sine2.beta), np.zeros(n),
                      np.zeros(n_full))
    with pytest.raises(ValueError, match="lam violates"):
        solve(sine2, SolverConfig(max_iters=1), z0=bad)
    for lam, p, mu in [(n_full - 1, n, n_full), (n_full, n - 1, n_full),
                       (n_full, n, n_full - 1)]:
        short = DualIterate(np.zeros(lam), np.zeros(p), np.zeros(mu))
        with pytest.raises(ValueError, match="block sizes"):
            solve(sine2, SolverConfig(max_iters=1), z0=short)


def test_start_p_block_does_not_enter(sine2, rng):
    # every sweep begins with a p-solve, so the start's p block is unread
    lam = np.clip(rng.standard_normal(sine2.n_full), -sine2.beta, sine2.beta)
    mu = rng.standard_normal(sine2.n_full)
    cfg = SolverConfig(max_iters=40, tol=0.0, log_every=3, check_every=4)
    r1 = solve(sine2, cfg, z0=DualIterate(
        lam, rng.standard_normal(sine2.n), mu))
    r2 = solve(sine2, cfg, z0=DualIterate(
        lam, np.zeros(sine2.n), mu))
    for field in ("ks", "phi", "kkt", "gap", "time_s", "u", "y"):
        assert np.array_equal(getattr(r1, field), getattr(r2, field)), field
    for b1, b2 in zip(r1.final.blocks(), r2.final.blocks()):
        assert np.array_equal(b1, b2)
    assert (r1.final.k, r1.converged, r1.iterations, r1.stop_reason) == \
        (r2.final.k, r2.converged, r2.iterations, r2.stop_reason)


# ---------------------------------------------------------------------------
# sweep behavior


def _xi_reference(prob, lam, p, mu_t):
    """The mu update's ``xi = M_full mu`` at ``mu_t`` itself."""
    ops = prob.ops
    v = ops.M_full @ mu_t + ops.W_full * (ops.pad(p) - lam - mu_t) / prob.gamma
    return mu_xi_kernel(v, ops.W_full, *prob.box, prob.alpha, prob.gamma)


def test_sweep_steps_shapes(sine2):
    z = DualIterate.for_instance(sine2)
    p_hat = step_phat(sine2, z.lam, z.mu)
    assert p_hat.shape == (sine2.n,)
    lam = step_lambda(sine2, z.lam, z.mu, p_hat)
    assert lam.shape == (sine2.n_full,)
    assert np.abs(lam).max() <= sine2.beta
    p, _ = step_p(sine2, lam, z.mu)
    mu = step_mu(sine2, _xi_reference(sine2, lam, p, z.mu), z.mu)
    assert mu.shape == (sine2.n_full,)


def _gate_sweep(prob, z):
    """One sweep from ``z`` by the gate's steps: ``(lam, p, w, xi, mu)``."""
    p_hat = step_phat(prob, z.lam, z.mu)
    lam = step_lambda(prob, z.lam, z.mu, p_hat)
    p, w = step_p(prob, lam, z.mu)
    xi = _xi_reference(prob, lam, p, z.mu)
    return lam, p, w, xi, step_mu(prob, xi, z.mu)


def _sweep_start(prob, sweeps):
    """The origin, or the iterate after ``sweeps`` sweeps: ``solve`` refuses
    a lam outside the box, so not an extrapolated point."""
    if not sweeps:
        return DualIterate.for_instance(prob)
    return solve(prob, SolverConfig(max_iters=sweeps, tol=0.0,
                                    log_every=0)).final


@pytest.mark.parametrize("sweeps", [0, 4])
def test_sweep_is_the_four_steps(sine2, sweeps):
    # one sweep of solve is the gate's steps, bit for bit, on the factors
    z = _sweep_start(sine2, sweeps)
    run = solve(sine2, SolverConfig(max_iters=1, tol=0.0), z0=z)
    lam, p, w, xi, mu = _gate_sweep(sine2, z)
    for got, ref in zip(run.final.blocks(), (lam, p, mu)):
        assert np.array_equal(got, ref)
    # the logged value reads the w of the second p-solve
    assert run.phi[-1] == dual_objective(sine2, lam, p, mu, w)
    # step_mu solves M_full mu = xi
    r = np.abs(sine2.ops.M_full @ mu - xi).max()
    assert r <= 1e-14 * (np.abs(xi).max() + 1.0)


@pytest.mark.parametrize("sweeps", [0, 4])
def test_grid_sweep_is_the_four_steps_to_roundoff(sweeps, monkeypatch):
    """On the grid path, forced at level 3 by ``GRID_MIN_N``, a sweep of
    ``solve`` starts its second p-solve from its first, where the gate's
    ``step_p`` starts cold; both stop at ``GRID_BERR_STOP``, so the two
    sweeps agree to roundoff (up to 2e-15 relative in ``p``, ``mu`` and the
    logged value, from the origin and after 4 or 20 sweeps)."""
    monkeypatch.setattr(dual_solver, "GRID_MIN_N", 0)
    inst = make_instance("sine", 3)
    z = _sweep_start(inst, sweeps)
    run = solve(inst, SolverConfig(max_iters=1, tol=0.0), z0=z)
    assert isinstance(inst.solver, GridSolver)
    lam, p, w, _, mu = _gate_sweep(inst, z)
    # the first p-solve and the lam update are the same solves
    assert np.array_equal(run.final.lam, lam)
    for got, ref in ((run.final.p, p), (run.final.mu, mu)):
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
    phi = dual_objective(inst, lam, p, mu, w)
    assert abs(run.phi[-1] - phi) <= 1e-14 * abs(phi)


def test_sweeps_warm_start_their_second_grid_p_solve(monkeypatch):
    """From level 7 a sweep starts its second p-solve from the first's
    ``(p, w)``, so a run takes fewer sine-transform solves with the p-solve
    preconditioner than with every p-solve started cold."""
    inst = make_instance("sine", 7)
    config = SolverConfig(max_iters=10, tol=0.0, log_every=0)
    diagonal_solve = GridSolver._diagonal_solve
    solve_with_multiplier = GridSolver.solve_with_multiplier
    calls = []

    def counted(self, eig_inv, v):
        if eig_inv is self._p_inv:
            calls.append(None)
        return diagonal_solve(self, eig_inv, v)

    def cold(self, b, start=None, stop=None):
        return solve_with_multiplier(self, b, stop=stop)

    monkeypatch.setattr(GridSolver, "_diagonal_solve", counted)
    warm = solve(inst, config)
    warm_calls = len(calls)
    calls.clear()
    monkeypatch.setattr(GridSolver, "solve_with_multiplier", cold)
    cold_run = solve(inst, config)
    assert 0 < warm_calls < len(calls)
    # the same sweeps, to roundoff
    assert np.allclose(warm.phi, cold_run.phi, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("preset", ["sine", "shifted"])
def test_loose_grid_sweeps_report_exact_values(preset, monkeypatch):
    """A run on the grid path, forced at level 3 by ``GRID_MIN_N``, whose
    solves stop at ``tol k^-3`` logs the exact dual value and gap of the
    iterate it returns: ``dual_objective`` there with an exact mass solve
    in place of the sweep's ``w``, and that plus the primal value of the
    clipped control."""
    monkeypatch.setattr(dual_solver, "GRID_MIN_N", 0)
    inst = make_instance(preset, 3)
    run = solve(inst, SolverConfig(max_iters=3, tol=1e-3))
    assert isinstance(inst.solver, GridSolver)
    assert (run.iterations, run.stop_reason) == (3, "max_iters")
    phi = dual_objective(inst, *run.final.blocks())
    assert abs(run.phi[-1] - phi) <= 1e-14 * abs(phi)
    u, _ = recover_primal(inst, *run.final.blocks())
    gap = phi + primal_value(inst, np.clip(u, *inst.box))
    assert abs(run.gap[-1] - gap) <= 1e-14 * abs(phi)


@pytest.mark.parametrize("preset, sweeps", [("sine", 61), ("shifted", 209)])
def test_loose_grid_sweeps_keep_the_level_7_sweep_counts(preset, sweeps):
    """From rest to tol 1e-6, level 7 takes the grid path with every
    solve stopped at ``tol k^-3``, and ends on the KKT test after as many
    sweeps as with every solve exact."""
    inst = make_instance(preset, 7)
    run = solve(inst)
    assert isinstance(inst.solver, GridSolver)
    assert (run.iterations, run.stop_reason) == (sweeps, "kkt")


def test_grid_solve_working_set_is_bounded():
    """At level 7 the traced peak of a ``sine`` solve to tol 1e-6, over
    what is live when it starts (the instance with its grid solver built),
    is at most 31 full-length vectors: each p-solve forms its residual and
    transforms in one buffer of its own, and the run keeps no zero start,
    no earlier job's ``(u, y)`` and no spent extrapolation."""
    inst = make_instance("sine", 7)
    assert isinstance(inst.solver, GridSolver)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run = solve(inst, SolverConfig(tol=1e-6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.iterations == 61
    vectors = (peak - start) / (8 * inst.n_full)
    assert vectors <= 31, vectors


def test_recover_primal_identities(sine2, rng):
    lam = np.clip(rng.standard_normal(sine2.n_full), -sine2.beta, sine2.beta)
    p = rng.standard_normal(sine2.n)
    mu = rng.standard_normal(sine2.n_full)
    u, y = recover_primal(sine2, lam, p, mu)
    # alpha u + lam + mu = E p, exact arithmetic
    lhs = sine2.alpha * u + lam + mu
    assert np.allclose(lhs, sine2.ops.pad(p), atol=1e-13)
    # K y = (M (u + y_r))_interior up to the direct-solve tolerance
    r = sine2.ops.K @ y - sine2.ops.mass_interior_rows(u + sine2.y_r)
    assert np.abs(r).max() < 1e-9 * (1.0 + np.abs(u).max())


def test_solve_sine_converges(sine2):
    run = solve(sine2, SolverConfig(max_iters=5000, tol=1e-8))
    assert run.converged
    assert run.stop_reason == "kkt"
    assert run.kkt[-1] <= 1e-8
    # logged columns stay aligned and the iterate is feasible
    assert run.ks.size == run.phi.size == run.kkt.size == run.gap.size
    assert np.all(np.diff(run.ks) > 0)
    assert np.abs(run.final.lam).max() <= sine2.beta
    # duality gap at the solution is tiny and nonnegative up to roundoff
    assert run.gap[-1] <= 1e-6
    assert run.gap[-1] >= -1e-10


def test_fixed_point_at_certified_optimum(certified_sine2):
    inst, cert = certified_sine2
    run = solve(inst, SolverConfig(max_iters=1, tol=0.0), z0=cert.z_star)
    z1 = run.final
    zs = cert.z_star
    scale = 1.0 + np.abs(zs.lam).max() + np.abs(zs.p).max() + np.abs(zs.mu).max()
    assert np.abs(z1.lam - zs.lam).max() < 1e-6 * scale
    assert np.abs(z1.p - zs.p).max() < 1e-6 * scale
    assert np.abs(z1.mu - zs.mu).max() < 1e-6 * scale
    assert run.kkt[-1] < 1e-7


def test_phi_decreases_from_rest(sine2):
    # not monotone in general, but after the first sweeps the accelerated
    # method must sit far below the starting value
    run = solve(sine2, SolverConfig(max_iters=50, tol=0.0))
    assert run.phi[-1] < run.phi[0]
    assert np.isfinite(run.phi).all()


def test_logging_cadence(sine2):
    run = solve(sine2, SolverConfig(max_iters=10, tol=0.0, log_every=3))
    assert list(run.ks) == [3, 6, 9, 10]
    assert run.ks.dtype == np.int64
    columns = (run.ks, run.phi, run.kkt, run.gap, run.time_s)
    assert {len(col) for col in columns} == {4}
    assert all(col.dtype == np.float64 for col in columns[1:])
    run2 = solve(sine2, SolverConfig(max_iters=10, tol=0.0, log_every=0))
    # only the final row is recorded
    assert list(run2.ks) == [10]


def test_solve_deterministic(sine2):
    cfg = SolverConfig(max_iters=300, tol=0.0, log_every=7)
    r1 = solve(sine2, cfg)
    r2 = solve(sine2, cfg)
    assert np.array_equal(r1.phi, r2.phi)
    assert np.array_equal(r1.kkt, r2.kkt)
    assert np.array_equal(r1.gap, r2.gap)
    assert np.array_equal(r1.final.lam, r2.final.lam)
    assert np.array_equal(r1.u, r2.u)
    # timing is disabled by default so the column is exactly zero
    assert np.all(r1.time_s == 0.0)


def test_phi_target_stop(sine2, certified_sine2):
    _, cert = certified_sine2
    target = cert.phi_star + 1e-3
    run = solve(sine2, SolverConfig(max_iters=5000, tol=0.0,
                                    phi_target=target))
    assert run.converged
    assert run.stop_reason == "phi_target"
    assert run.phi[-1] <= target


def test_divergence_guard():
    inst0 = make_instance("sine", 2)
    inst = dataclasses.replace(inst0, y_d=np.full(inst0.n, 1e308))
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc:
        solve(inst, SolverConfig(max_iters=20000, tol=0.0, log_every=0))
    err = exc.value
    assert err.k >= 1
    assert err.iterate is not None
    assert err.iterate.lam.shape == (inst.n_full,)


def test_divergence_on_nan_data():
    inst0 = make_instance("sine", 2)
    y_r = inst0.y_r.copy()
    y_r[0] = np.nan
    bad = ProblemInstance(ops=inst0.ops, y_d=inst0.y_d, y_r=y_r,
                          alpha=inst0.alpha, beta=inst0.beta,
                          box=inst0.box, gamma=inst0.gamma)
    with pytest.raises(DivergenceError) as exc:
        solve(bad, SolverConfig(max_iters=5, tol=0.0))
    assert exc.value.k == 1


def test_record_csv_roundtrip(tmp_path, sine2):
    run = solve(sine2, SolverConfig(max_iters=30, tol=0.0))
    assert main(["solve", "--preset", "sine", "--level", "2",
                 "--max-iters", "30", "--tol", "0", "--out",
                 str(tmp_path)]) == 0
    text = (tmp_path / "record.csv").read_text().splitlines()
    assert text[0].split(",") == ["k", "phi", "kkt", "gap", "time_s"]
    assert len(text) == 1 + run.ks.size
    assert "np." not in "".join(text)
    # ints stay ints and floats round-trip exactly through repr
    cols = list(zip(*(line.split(",") for line in text[1:])))
    assert [int(k) for k in cols[0]] == run.ks.tolist()
    for col, values in zip(cols[1:], (run.phi, run.kkt, run.gap)):
        assert np.array_equal([float(v) for v in col], values)


def test_summary_keys(sine2):
    run = solve(sine2, SolverConfig(max_iters=20, tol=0.0))
    s = run.summary(sine2)
    for key in ("converged", "iterations", "stop_reason", "restarts", "kkt",
                "phi", "gap", "u_l2M", "u_linf", "y_l2M", "y_linf"):
        assert key in s
    assert s["iterations"] == 20
    assert s["restarts"] == 0


def test_primal_value_zero_control(sine2):
    # u = 0 and y_r = 0: only the tracking term remains
    val = primal_value(sine2, np.zeros(sine2.n_full))
    expected = 0.5 * float(sine2.y_d @ (sine2.ops.M @ sine2.y_d))
    assert val == pytest.approx(expected, rel=1e-13)


def test_kkt_residual_zero_at_certified_optimum(certified_sine2):
    inst, cert = certified_sine2
    z = cert.z_star
    u, y = recover_primal(inst, z.lam, z.p, z.mu)
    assert kkt_residual(inst, z.lam, z.p, z.mu, u, y) < 1e-8


# ---------------------------------------------------------------------------
# mass solves and diagnostics on a worker thread beside the next sweep


def _assert_same_record(a, b):
    for name in ("ks", "phi", "kkt", "gap", "time_s", "u", "y"):
        assert np.array_equal(getattr(a, name), getattr(b, name),
                              equal_nan=True), name
    for x, y in zip(a.final.blocks(), b.final.blocks()):
        assert np.array_equal(x, y)
    assert (a.final.k, a.iterations, a.stop_reason, a.restarts,
            a.converged) == (b.final.k, b.iterations, b.stop_reason,
                             b.restarts, b.converged)


def _overlapped(monkeypatch, call):
    """``call()`` with every instance overlapped, checking that its
    diagnostics ran off the main thread and that no thread outlived it.

    The overlap uses whatever solver an instance already holds.  Every
    caller solves inline first, so its instance keeps the factored solver
    and the bit-for-bit comparisons stay on one solver."""
    monkeypatch.setattr(dual_solver, "GRID_MIN_N", 0)
    threads = set()
    residual = dual_solver.kkt_residual

    def traced(*args):
        threads.add(threading.current_thread())
        return residual(*args)

    monkeypatch.setattr(dual_solver, "kkt_residual", traced)
    before = threading.active_count()
    try:
        return call()
    finally:
        assert threading.active_count() == before
        assert threads and threading.main_thread() not in threads


@pytest.mark.parametrize("preset", ["sine", "shifted"])
def test_forced_grid_path_run_matches_the_factored_run(preset, monkeypatch):
    """Below level 7 a run forced onto the grid path, by ``GRID_MIN_N``
    lowered before the instance's first solver read, takes the sweeps of
    a fresh factored run and ends at its dual value to roundoff."""
    factored_inst = make_instance(preset, 3)
    factored = solve(factored_inst)
    assert not isinstance(factored_inst.solver, GridSolver)
    inst = make_instance(preset, 3)
    monkeypatch.setattr(dual_solver, "GRID_MIN_N", 0)
    grid = solve(inst)
    assert isinstance(inst.solver, GridSolver)
    assert (grid.iterations, grid.stop_reason) \
        == (factored.iterations, factored.stop_reason)
    assert abs(grid.phi[-1] - factored.phi[-1]) \
        <= 1e-12 * abs(factored.phi[-1])


def test_size_rule_overlaps_diagnostics_from_level_7(monkeypatch):
    """With ``GRID_MIN_N`` as shipped, a level-6 solve runs its
    diagnostics on the main thread, a level-7 solve runs them on one other
    thread, and neither leaves a thread behind."""
    residual = dual_solver.kkt_residual
    threads = []

    def traced(*args):
        threads.append(threading.current_thread())
        return residual(*args)

    monkeypatch.setattr(dual_solver, "kkt_residual", traced)
    for level, config in ((6, SolverConfig()),
                          (7, SolverConfig(max_iters=3, tol=0.0))):
        threads.clear()
        before = threading.active_count()
        solve(make_instance("sine", level), config)
        assert threading.active_count() == before
        assert threads
        if level == 6:
            assert set(threads) == {threading.main_thread()}
        else:
            assert len(set(threads)) == 1
            assert threads[0] is not threading.main_thread()


@pytest.mark.parametrize("case, stop", [
    (lambda cert: (make_instance("sine", 3), SolverConfig()), "kkt"),
    (lambda cert: (make_instance("shifted", 3),
                   SolverConfig(restart=True, check_every=5, log_every=0)),
     "kkt"),
    (lambda cert: (cert[0], SolverConfig(max_iters=5000, tol=0.0,
                                         phi_target=cert[1].phi_star + 1e-3)),
     "phi_target"),
    (lambda cert: (make_instance("sine", 3),
                   SolverConfig(max_iters=17, tol=0.0, log_every=3)),
     "max_iters"),
], ids=["kkt", "restarted", "phi-target", "max-iters"])
def test_overlapped_run_equals_inline_run(case, stop, certified_sine2,
                                          monkeypatch):
    inst, config = case(certified_sine2)
    inline = solve(inst, config)
    assert inline.stop_reason == stop
    if config.restart:
        assert inline.restarts > 0
    overlapped = _overlapped(monkeypatch, lambda: solve(inst, config))
    _assert_same_record(inline, overlapped)


@pytest.mark.parametrize("case, stop", [
    (lambda: (make_instance("sine", 3), SolverConfig()), "kkt"),
    (lambda: (make_instance("shifted", 3),
              SolverConfig(restart=True, check_every=5, log_every=0)),
     "kkt"),
], ids=["kkt", "restarted"])
def test_blocks_taken_beside_held_jobs_equal_the_inline_run(case, stop,
                                                            monkeypatch):
    # each job waits until this thread has taken the next sweep's (lam, p)
    # block, so every block after the first is taken beside a job: it
    # stands, is taken again after a restart, or is dropped after the last
    # sweep
    inst, config = case()
    inline = solve(inst, config)
    assert inline.stop_reason == stop
    assert (inline.restarts > 0) == config.restart
    lam_p_block = dual_solver._lam_p_block
    xi_step = dual_solver._xi_step
    step_mu = dual_solver.step_mu
    taken = threading.Event()
    blocks = []

    def block(*args):
        out = lam_p_block(*args)
        blocks.append(threading.current_thread())
        taken.set()
        return out

    def xi(*args):
        taken.clear()
        return xi_step(*args)

    def held(*args):
        if not taken.wait(timeout=30):
            raise AssertionError("no block was taken beside the job")
        return step_mu(*args)

    monkeypatch.setattr(dual_solver, "_lam_p_block", block)
    monkeypatch.setattr(dual_solver, "_xi_step", xi)
    monkeypatch.setattr(dual_solver, "step_mu", held)
    overlapped = _overlapped(monkeypatch, lambda: solve(inst, config))
    _assert_same_record(inline, overlapped)
    # one block a sweep, one after the last, and one more per restart
    assert len(blocks) == overlapped.iterations + 1 + overlapped.restarts
    assert set(blocks) == {threading.main_thread()}


def _divergence_k(sine2, monkeypatch, target, poison):
    """The ``k`` of the DivergenceError when ``poison`` spoils the output of
    ``dual_solver.<target>`` from its fifth call on, inline and with every
    job on the worker."""
    original = getattr(dual_solver, target)

    def diverge():
        calls = []

        def poisoned(*args):
            calls.append(None)
            out = original(*args)
            return poison(out) if len(calls) >= 5 else out

        monkeypatch.setattr(dual_solver, target, poisoned)
        with pytest.raises(DivergenceError) as exc:
            solve(sine2, SolverConfig(max_iters=100, tol=0.0))
        return exc.value.k

    return diverge(), _overlapped(monkeypatch, diverge)


def test_overlapped_divergence_has_the_inline_k(sine2, monkeypatch):
    # a NaN mu_5 from the job's mass solve
    assert _divergence_k(sine2, monkeypatch, "step_mu",
                         lambda mu: mu * np.nan) == (5, 5)


def test_overlapped_lam_divergence_has_the_inline_k(sine2, monkeypatch):
    # a NaN lam_5 from the (lam, p) block, which the worker's job checks
    # once mu_4 has passed
    def poison(block):
        lam, p, w = block
        return lam * np.nan, p, w

    assert _divergence_k(sine2, monkeypatch, "_lam_p_block",
                         poison) == (5, 5)


def test_overlapped_diagnostics_keep_the_callers_error_state(sine2,
                                                            monkeypatch):
    # a residual that overflows on the way: np.errstate must silence the
    # worker thread as it silences the caller's
    residual = dual_solver.kkt_residual

    def overflowing(*args):
        return residual(*args) + 0.0 * (np.float64(1e308) * 10.0)

    monkeypatch.setattr(dual_solver, "kkt_residual", overflowing)
    config = SolverConfig(max_iters=5, tol=0.0)
    with np.errstate(all="ignore"):
        inline = solve(sine2, config)
        overlapped = _overlapped(monkeypatch, lambda: solve(sine2, config))
    assert np.isnan(inline.kkt).all()
    _assert_same_record(inline, overlapped)


def test_overlapped_diagnostics_call_the_callers_error_callback(
        sine2, monkeypatch):
    # the overflow and the invalid product of each residual, taken on the
    # worker, reach the callback that the caller set
    residual = dual_solver.kkt_residual

    def overflowing(*args):
        return residual(*args) + 0.0 * (np.float64(1e308) * 10.0)

    def run():
        calls = []

        def callback(kind, flag):
            calls.append((kind, threading.current_thread()))

        with np.errstate(all="call", call=callback):
            solve(sine2, SolverConfig(max_iters=5, tol=0.0))
        return calls

    monkeypatch.setattr(dual_solver, "kkt_residual", overflowing)
    kinds = ["overflow", "invalid value"] * 5
    inline = run()
    assert inline == [(kind, threading.main_thread()) for kind in kinds]
    overlapped = _overlapped(monkeypatch, run)
    assert [kind for kind, _ in overlapped] == kinds
    assert threading.main_thread() not in {t for _, t in overlapped}


def test_exception_in_diagnostics_passes_out_of_solve_unchanged(
        sine2, monkeypatch):
    # a fault in the third diagnostics job leaves solve as it was raised,
    # on both paths, and the worker does not outlive it
    residual = dual_solver.kkt_residual
    fault = RuntimeError("diagnostics fault")
    seen = []

    def failing(prob, lam, p, mu, u, y):
        if len(seen) == 2:
            raise fault
        seen.append(None)
        return residual(prob, lam, p, mu, u, y)

    def run():
        seen.clear()
        with pytest.raises(RuntimeError) as exc:
            solve(sine2, SolverConfig(max_iters=10, tol=0.0))
        return exc.value, len(seen)

    monkeypatch.setattr(dual_solver, "kkt_residual", failing)
    assert run() == (fault, 2)
    assert _overlapped(monkeypatch, run) == (fault, 2)
