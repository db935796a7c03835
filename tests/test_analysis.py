"""Distance constant, complexity-bound checking, scaling reports, and the
mesh-independence harness."""

import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from pdeabcd import analysis, dual_solver, oracle, sparse_linalg
from pdeabcd.analysis import (
    LevelResult,
    apply_g_inverse,
    compute_tau_h,
    fit_tau_constant,
    l1_gap_check,
    lam_max_majorizer,
    lumped_mass_comparison_check,
    mesh_independence_experiment,
    operator_bound_check,
    prolongate_iterate,
    prolongated_start,
    reference_solution,
    spectral_scaling_report,
    verify_complexity_bound,
)
from pdeabcd.assembly import assemble
from pdeabcd.cli import main
from pdeabcd.dual_solver import (
    DualIterate,
    SolverConfig,
    kkt_residual,
    recover_primal,
    solve,
)
from pdeabcd.mesh import InputError, build_unit_square_mesh
from pdeabcd.presets import make_instance
from pdeabcd.sparse_linalg import (AugmentedSolver, GridSolver,
                                   power_iteration_extremes)


def _dense_tau(prob, z0, z_star):
    """Dense mirror of the weighted squared distance, for cross-checking."""
    ops = prob.ops
    d = z0.lam - z_star.lam
    e = z0.mu - z_star.mu
    Mf = ops.M_full.toarray()
    W = ops.W_full
    K = ops.K.toarray()
    M = ops.M.toarray()
    G = M + prob.alpha * (K @ np.linalg.solve(M, K))
    md_int = (Mf @ d)[ops.interior]
    term = md_int @ np.linalg.solve(G, md_int)
    term += d @ (W * d) - d @ (Mf @ d)
    me = Mf @ e
    term += prob.gamma * (me / W) @ me
    return max(term, 0.0) / (2.0 * prob.alpha)


def test_apply_g_inverse(sine2, rng):
    b = rng.standard_normal(sine2.n)
    x = apply_g_inverse(sine2, b)
    ops = sine2.ops
    lhs = ops.M @ x + sine2.alpha * (
        ops.K @ ops.mass_factor.solve(ops.K @ x))
    assert np.allclose(lhs, b, atol=1e-9 * (1.0 + np.abs(b).max()))


def test_tau_zero_at_optimum(certified_sine2):
    inst, cert = certified_sine2
    assert compute_tau_h(inst, cert.z_star, cert.z_star) == 0.0


def test_tau_ignores_p_block(certified_sine2, rng):
    inst, cert = certified_sine2
    z0 = DualIterate.for_instance(inst)
    tau = compute_tau_h(inst, z0, cert.z_star)
    z0_shift = DualIterate(
        z0.lam, rng.standard_normal(inst.n), z0.mu)
    assert compute_tau_h(inst, z0_shift, cert.z_star) == tau
    assert tau > 0.0


def test_tau_matches_dense(certified_sine2, rng):
    inst, cert = certified_sine2
    lam = np.clip(rng.standard_normal(inst.n_full) * inst.beta,
                  -inst.beta, inst.beta)
    z0 = DualIterate(lam, np.zeros(inst.n), rng.standard_normal(inst.n_full))
    tau = compute_tau_h(inst, z0, cert.z_star)
    dense = _dense_tau(inst, z0, cert.z_star)
    assert tau == pytest.approx(dense, rel=1e-9)


def test_verify_complexity_bound_pass_and_fail(certified_sine2):
    inst, cert = certified_sine2
    z0 = DualIterate.for_instance(inst)
    tau = compute_tau_h(inst, z0, cert.z_star)
    run = solve(inst, SolverConfig(max_iters=400, tol=0.0))
    ok, margin = verify_complexity_bound(run, tau, cert.phi_star)
    assert ok
    assert margin > 0.0
    # negative control: push every logged value 50 percent above the bound
    fake_gaps = 1.5 * 4.0 * tau / (np.asarray(run.ks, float) + 1.0) ** 2
    corrupted = dataclasses.replace(run, phi=cert.phi_star + fake_gaps)
    bad_ok, bad_margin = verify_complexity_bound(corrupted, tau,
                                                 cert.phi_star)
    assert not bad_ok
    assert bad_margin < 0.0


def _dense_block_maxima(prob):
    """Dense largest eigenvalues of the (lam, mu) blocks of S_h."""
    ops = prob.ops
    Mf = ops.M_full.toarray()
    W = ops.W_full
    K = ops.K.toarray()
    M = ops.M.toarray()
    G = M + prob.alpha * (K @ np.linalg.solve(M, K))
    E = np.zeros((prob.n_full, prob.n))
    E[ops.interior, np.arange(prob.n)] = 1.0
    S_lam = (Mf @ E @ np.linalg.solve(G, E.T @ Mf)
             + np.diag(W) - Mf) / prob.alpha
    S_mu = (prob.gamma / prob.alpha) * (Mf @ np.diag(1.0 / W) @ Mf)
    return np.linalg.eigvalsh(S_lam).max(), np.linalg.eigvalsh(S_mu).max()


def test_lam_max_majorizer_matches_dense(certified_sine2):
    inst, _ = certified_sine2
    got, _ = lam_max_majorizer(inst)
    assert got == pytest.approx(max(_dense_block_maxima(inst)), rel=1e-6)


def test_lam_max_majorizer_reports_unconverged_power_iteration():
    # at its 400-step cap the mu block's power iteration has not settled
    _, converged = lam_max_majorizer(make_instance("sine", 4))
    assert converged is False


@pytest.mark.parametrize("level", [2, 3])
def test_lam_block_below_w_over_alpha(level):
    inst = make_instance("sine", level)
    top_lam, _ = _dense_block_maxima(inst)
    assert top_lam <= inst.ops.W_full.max() / inst.alpha


@pytest.mark.parametrize("preset", ["sine", "shifted"])
@pytest.mark.parametrize("level", [2, 3, 4, 5])
def test_lam_max_bound_path_matches_two_blocks(preset, level):
    inst = make_instance(preset, level)
    s_lam, s_mu = analysis.majorizer_blocks(inst)
    top_lam, _ = power_iteration_extremes(s_lam, inst.n_full, iters=400)
    top_mu, mu_ok = power_iteration_extremes(s_mu, inst.n_full, iters=400)
    assert top_lam <= inst.ops.W_full.max() / inst.alpha <= top_mu
    # the value is the two-block maximum; the flag is that of the mu block,
    # the only iteration the value depends on
    assert lam_max_majorizer(inst) == (float(max(top_lam, top_mu)), mu_ok)


def test_gamma_below_lumped_mass_constant_rejected(monkeypatch):
    inst = make_instance("sine", 2)
    with pytest.raises(InputError, match="gamma"):
        make_instance("sine", 2, gamma=3.99)
    with pytest.raises(InputError, match="gamma"):
        dataclasses.replace(inst, gamma=3.99)
    assert dataclasses.replace(inst, gamma=4.0).gamma == 4.0
    wide = make_instance("sine", 2, gamma=8.0)
    calls = []

    def counted(apply, n, iters=2000):
        calls.append(apply)
        return power_iteration_extremes(apply, n, iters)

    monkeypatch.setattr(analysis, "power_iteration_extremes", counted)
    got, _ = lam_max_majorizer(wide)
    assert len(calls) == 1
    assert got == pytest.approx(max(_dense_block_maxima(wide)), rel=1e-6)


@pytest.mark.parametrize("level", [2, 3, 4, 5, 6])
def test_lumped_mass_constant_attained_and_mu_diagonal_dominates(level):
    # why gamma >= 4 is the rule and why the mu block sets lam_max(S_h)
    ops = assemble(build_unit_square_mesh(level))
    ij = np.rint(ops.mesh.nodes * 2**level).astype(int)
    z = np.cos(2.0 * np.pi * ((ij[:, 0] + ij[:, 1]) % 3) / 3.0)
    Mf, W = ops.M_full, ops.W_full
    assert (z @ (W * z)) / (z @ (Mf @ z)) == pytest.approx(4.0, abs=1e-12)
    mwm_diag = (Mf @ sp.diags(1.0 / W) @ Mf).diagonal()
    assert (mwm_diag / W).min() >= 0.25


def test_lam_max_builds_no_p_solve_when_bound_decides(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("p-solve factor built")

    inst = make_instance("sine", 3)
    monkeypatch.setattr(dual_solver, "AugmentedSolver", refuse)
    got, converged = lam_max_majorizer(inst)
    assert got > 0.0 and converged is True
    assert "solver" not in vars(inst)


def test_prolongated_start_zero_data_stays_at_origin():
    coarse = make_instance("zero", 2)
    fine = make_instance("zero", 4)
    z0 = prolongate_iterate(coarse.ops.mesh, prolongated_start(coarse), fine)
    assert np.all(z0.lam == 0.0)
    assert np.all(z0.p == 0.0)
    assert np.all(z0.mu == 0.0)


@pytest.mark.parametrize("preset", ["sine", "shifted"])
def test_prolongated_start_is_the_one_sweep_solve(preset, monkeypatch):
    """The start is one sweep of the gate's steps from the origin.  On the
    grid path, forced at level 3, the first p-solve and the lam update
    are the same solves, so lam is the same bits; the second p-solve
    starts warm where ``step_p`` starts cold, and both stop at
    ``GRID_BERR_STOP``, so mu agrees to 1e-14 relative (about 1e-15 when
    written)."""
    monkeypatch.setattr(dual_solver, "GRID_MIN_N", 0)
    inst = make_instance(preset, 3)
    start = prolongated_start(inst)
    assert isinstance(inst.solver, GridSolver)
    assert start.k == 1
    ops = inst.ops
    origin = DualIterate.for_instance(inst)
    p_hat = dual_solver.step_phat(inst, origin.lam, origin.mu)
    lam = dual_solver.step_lambda(inst, origin.lam, origin.mu, p_hat)
    p, _ = dual_solver.step_p(inst, lam, origin.mu)
    v = ops.W_full * (ops.pad(p) - lam) / inst.gamma
    xi = dual_solver.mu_xi_kernel(v, ops.W_full, *inst.box, inst.alpha,
                                  inst.gamma)
    mu = dual_solver.step_mu(inst, xi, origin.mu)
    assert np.array_equal(start.lam, lam)
    assert np.abs(start.mu - mu).max() <= 1e-14 * np.abs(mu).max()
    assert np.abs(mu).max() > 0.0


def test_prolongated_start_feasible_and_deterministic():
    coarse = make_instance("sine", 2)
    fine = make_instance("sine", 4)
    z0 = prolongate_iterate(coarse.ops.mesh, prolongated_start(coarse), fine)
    assert np.abs(z0.lam).max() <= fine.beta
    assert z0.lam.shape == (fine.n_full,)
    assert z0.p.shape == (fine.n,)
    z1 = prolongate_iterate(coarse.ops.mesh, prolongated_start(coarse), fine)
    assert np.array_equal(z0.lam, z1.lam)
    assert np.array_equal(z0.mu, z1.mu)
    # nonzero data produces a nonzero start
    assert np.abs(z0.mu).max() > 0.0


def test_prolongate_iterate_nested_consistency(rng):
    src = make_instance("sine", 2)
    dst = make_instance("sine", 3)
    lam = np.clip(rng.standard_normal(src.n_full) * src.beta,
                  -src.beta, src.beta)
    z = DualIterate(lam, rng.standard_normal(src.n),
                    rng.standard_normal(src.n_full))
    out = prolongate_iterate(src.ops.mesh, z, dst)
    # coarse nodes are a subset of fine nodes: values carry over
    coarse_in_fine = []
    fine_nodes = {tuple(x): i for i, x in enumerate(map(tuple, dst.ops.mesh.nodes))}
    for i, x in enumerate(map(tuple, src.ops.mesh.nodes)):
        coarse_in_fine.append(fine_nodes[x])
    idx = np.array(coarse_in_fine)
    assert np.allclose(out.lam[idx], z.lam, atol=1e-13)
    assert np.allclose(out.mu[idx], z.mu, atol=1e-13)
    assert np.array_equal(out.p, np.zeros(dst.n))


def test_reference_solution(sine2):
    z, phi = reference_solution(sine2)
    u, y = recover_primal(sine2, *z.blocks())
    assert kkt_residual(sine2, *z.blocks(), u, y) <= 1e-8
    assert np.isfinite(phi)
    # warm start from the solution converges immediately to the same value
    z2, phi2 = reference_solution(sine2, z0=z)
    assert phi2 == pytest.approx(phi, abs=1e-9 * (1.0 + abs(phi)))


def test_mesh_independence_zero_preset_single_iteration():
    rep = mesh_independence_experiment("zero", [3, 4, 5], epsilon=1e-6)
    assert rep.passed
    assert [r.iters_to_eps for r in rep.rows] == [1, 1, 1]
    assert rep.median_iters == 1.0


def test_mesh_independence_report_shape_and_csv(tmp_path, capsys):
    assert main(["mesh-indep", "--preset", "sine", "--levels", "2,3,4",
                 "--eps", "1e-4", "--out", str(tmp_path)]) in (0, 4)
    text = (tmp_path / "mesh_indep.csv").read_text()
    # the same table goes to stdout
    assert capsys.readouterr().out.startswith(text)
    lines = text.splitlines()
    assert len(lines) == 4
    assert "np." not in text
    d = json.loads((tmp_path / "mesh_indep.json").read_text())
    assert d["preset"] == "sine"
    assert len(d["rows"]) == 3
    row = d["rows"][1]
    assert row["level"] == 3
    assert row["h"] == pytest.approx(np.sqrt(2.0) / 8.0)
    assert row["n_interior"] == 49
    assert [r["lam_max_converged"] for r in d["rows"]] == [True, True, False]
    # each CSV line holds its JSON row, floats exactly
    keys = lines[0].split(",")
    for line, row in zip(lines[1:], d["rows"]):
        assert dict(zip(keys, map(float, line.split(",")))) == \
            {k: row[k] for k in keys}


def test_mesh_independence_saturation_flagged():
    rep = mesh_independence_experiment("sine", [3, 4], epsilon=1e-8,
                                       run_max_iters=4)
    assert not rep.passed
    assert all(r.saturated for r in rep.rows)


def test_fit_tau_constant_synthetic():
    def row(level, h, tau):
        return LevelResult(level=level, h=h, n_interior=1, iters_to_eps=1,
                           tau_h=tau, lam_max_sh=1.0,
                           lam_max_converged=True, phi_star=0.0,
                           seconds=0.0)

    proxy = 1.0
    rows = [row(2, 0.4, 1.0 + 0.5 * 0.4), row(3, 0.2, 1.0 + 0.5 * 0.2)]
    c, ok = fit_tau_constant(rows, proxy)
    assert ok
    assert c == pytest.approx(0.5, rel=1e-12)
    # all below the proxy: the fitted constant collapses to zero
    c2, ok2 = fit_tau_constant([row(2, 0.4, 0.9), row(3, 0.2, 0.99)], proxy)
    assert ok2
    assert c2 == 0.0


def test_spectral_scaling_report_small_levels():
    rep = spectral_scaling_report([2, 3, 4])
    checks = rep.checks()
    assert checks["all"]
    for key in ("mass_max_window2", "mass_min_window2",
                "stiffness_min_window2", "stiffness_max_stable",
                "majorizer_window2", "majorizer_decreasing"):
        assert checks[key], key
    # h^2-normalized mass extremes stay inside a factor-2 window
    rows = rep.rows
    vals = [r.lam_max_m / r.h**2 for r in rows]
    assert max(vals) <= 2.0 * min(vals)


def test_lumped_mass_comparison_check(seed, monkeypatch):
    out = lumped_mass_comparison_check([2, 3], samples=200, seed=seed)
    assert out["passed"]
    assert out["violations"] == 0
    # factor gamma=2 is too tight for this mesh family
    monkeypatch.setattr(analysis, "LUMPED_MASS_GAMMA", 2.0)
    bad = lumped_mass_comparison_check([2, 3], samples=200, seed=seed)
    assert bad["gamma"] == 2.0
    assert not bad["passed"]
    assert bad["violations"] > 0


def test_l1_gap_check(seed):
    out = l1_gap_check([2, 3, 4], samples=150, seed=seed)
    assert out["passed"]
    assert out["fitted_C"] > 0.0
    assert out["fit_level"] == 2
    for level, entry in out["levels"].items():
        assert entry["lower_violations"] == 0
        assert entry["upper_violations"] == 0


def test_l1_gap_check_counts_both_violations(monkeypatch, seed):
    # an exact L1 norm that overshoots the lumped one breaks the lower side
    # everywhere; one that drops to zero past the fit level breaks the
    # upper side there
    exact = analysis.l1_norm_exact
    monkeypatch.setattr(analysis, "l1_norm_exact",
                        lambda mesh, z: 2.0 * exact(mesh, z))
    out = l1_gap_check([2, 3], samples=4, seed=seed)
    assert not out["passed"]
    assert [(e["lower_violations"], e["upper_violations"])
            for e in out["levels"].values()] == [(4, 0), (4, 0)]
    monkeypatch.setattr(analysis, "l1_norm_exact",
                        lambda mesh, z: exact(mesh, z) if mesh.level == 2
                        else 0.0)
    out = l1_gap_check([2, 3], samples=4, seed=seed)
    assert not out["passed"]
    assert [(e["lower_violations"], e["upper_violations"])
            for e in out["levels"].values()] == [(0, 0), (0, 4)]


@pytest.mark.parametrize("check", [
    lumped_mass_comparison_check,
    l1_gap_check,
], ids=["sandwich", "l1-gap"])
def test_sampling_checks_refuse_no_samples(check, built):
    with pytest.raises(InputError, match="samples"):
        check([2, 3, 4], samples=0)
    assert built == []


def test_sandwich_check_refuses_no_level():
    with pytest.raises(InputError, match="at least one level"):
        lumped_mass_comparison_check([], samples=10)


@pytest.mark.parametrize("check", [
    spectral_scaling_report,
    lambda levels: lumped_mass_comparison_check(levels, samples=2),
    lambda levels: l1_gap_check(levels, samples=2),
    operator_bound_check,
], ids=["spectral", "sandwich", "l1-gap", "operator-bound"])
def test_check_functions_reject_repeated_levels(check):
    with pytest.raises(InputError, match="distinct"):
        check([3, 3, 4])


@pytest.fixture
def built(monkeypatch):
    # levels of every mesh or instance the analysis module builds
    levels = []

    def making(preset, level, **params):
        levels.append(level)
        return make_instance(preset, level, **params)

    def building(level):
        levels.append(level)
        return build_unit_square_mesh(level)

    monkeypatch.setattr(analysis, "make_instance", making)
    monkeypatch.setattr(analysis, "build_unit_square_mesh", building)
    return levels


@pytest.mark.parametrize("check", [
    spectral_scaling_report,
    lambda levels: lumped_mass_comparison_check(levels, samples=2),
    lambda levels: l1_gap_check(levels, samples=2),
    operator_bound_check,
    lambda levels: mesh_independence_experiment("sine", levels),
], ids=["spectral", "sandwich", "l1-gap", "operator-bound", "experiment"])
def test_check_functions_reject_non_integer_levels(check, built):
    with pytest.raises(TypeError, match="integer"):
        check([2.5, 3.9, 4.2])
    assert built == []


@pytest.mark.parametrize("check", [
    spectral_scaling_report,
    lambda levels: l1_gap_check(levels, samples=2),
], ids=["spectral", "l1-gap"])
def test_scaling_checks_need_two_levels(check, built):
    with pytest.raises(InputError, match="at least two levels"):
        check([3])
    assert built == []


def test_operator_bound_check():
    out = operator_bound_check([2, 3, 4])
    assert out["passed"]
    # two levels only fit the windows and leave no level to check
    assert operator_bound_check([3, 4])["passed"] is False


def test_operator_bound_check_refuses_underflowing_alpha():
    # the p-solve's answer to b/alpha underflows, so G^-1 reads as zero
    with pytest.raises(InputError, match="too large"):
        operator_bound_check([2, 3, 4], alpha=1e200)


def test_operator_bound_check_refuses_overflowing_alpha():
    # G^-1 still reads positive, but the iterates of G overflow at level 4
    # and its estimate collapses to 0
    with pytest.raises(InputError, match=r"lam_max\(G\) is 0\.0"):
        operator_bound_check([2, 3, 4], alpha=1e150)


def test_tau_h_at_level_positive():
    # the tau proxy route: prolongated start, reference optimum, tau_h
    tau = mesh_independence_experiment("sine", [2, 3],
                                       tau_proxy_level=4).tau_proxy
    assert tau > 0.0
    assert np.isfinite(tau)


def test_reference_solves_ignore_run_max_iters(monkeypatch):
    # every level takes the dual reference route; the counted runs' cap
    # must not reach it
    monkeypatch.setattr(analysis, "ORACLE_CAP", 0)
    capped = mesh_independence_experiment("sine", [2, 3], run_max_iters=1)
    full = mesh_independence_experiment("sine", [2, 3])
    for a, b in zip(capped.rows, full.rows):
        assert a.tau_h == b.tau_h
        assert a.phi_star == b.phi_star


def test_tau_proxy_below_finest_level_matches_its_row():
    # a proxy at a row level is that row's tau_h, with no second solve
    rep = mesh_independence_experiment("sine", [2, 3, 4], tau_proxy_level=3)
    row = next(r for r in rep.rows if r.level == 3)
    assert rep.tau_proxy == row.tau_h


@pytest.mark.parametrize("levels, proxy, solved", [
    ([2, 3, 4], 3, [2, 3, 4]),
    ([2, 3, 5], 4, [2, 3, 4, 5]),
])
def test_reference_solves_walk_one_chain(monkeypatch, levels, proxy, solved):
    # the proxy joins the chain of levels: one reference solve per level,
    # in ascending order
    seen = []
    reference_optimum = analysis.reference_optimum

    def tracking(prob, *args, **kwargs):
        seen.append(prob.ops.mesh.level)
        return reference_optimum(prob, *args, **kwargs)

    monkeypatch.setattr(analysis, "reference_optimum", tracking)
    mesh_independence_experiment("sine", levels, tau_proxy_level=proxy)
    assert seen == solved


def test_mesh_independence_timing_and_json_keys():
    plain = mesh_independence_experiment("sine", [2, 3, 4], epsilon=1e-4)
    timed = mesh_independence_experiment("sine", [2, 3, 4], epsilon=1e-4,
                                         timing=True)
    assert all(r.seconds == 0.0 for r in plain.rows)
    assert all(r.seconds > 0.0 for r in timed.rows)
    d = plain.to_json_dict()
    assert set(d) == {"preset", "epsilon", "median_iters", "passed",
                      "fitted_C", "tau_proxy", "rows"}
    for row in d["rows"]:
        assert set(row) == {"level", "h", "n_interior", "iters_to_eps",
                            "tau_h", "lam_max_Sh", "lam_max_converged",
                            "phi_star", "seconds"}


def test_mesh_independence_builds_each_level_once(monkeypatch):
    built = []
    starts = []

    def counting(preset, level, **kwargs):
        built.append(level)
        return make_instance(preset, level, **kwargs)

    def counting_start(coarse_inst):
        starts.append(coarse_inst.ops.mesh.level)
        return prolongated_start(coarse_inst)

    monkeypatch.setattr(analysis, "make_instance", counting)
    monkeypatch.setattr(analysis, "prolongated_start", counting_start)
    rep = mesh_independence_experiment("sine", [2, 3, 4], tau_proxy_level=5)
    assert sorted(built) == [2, 3, 4, 5]
    # the coarse one-sweep start serves every level and the proxy
    assert starts == [2]
    assert rep.tau_proxy > 0.0
    assert np.isfinite(rep.tau_proxy)


@pytest.mark.parametrize("levels, kwargs", [
    ([2, 3, 4], {"jobs": 2}),
    ([3, 3, 3], {}),
    ([3, 4, 5], {"tau_proxy_level": 2}),
    ([2, 3, 4], {"epsilon": float("nan")}),
    ([2, 3, 4], {"run_max_iters": 0}),
    ([3, 4, 13], {}),
    ([3, 4, 5], {"tau_proxy_level": 13}),
    ([3], {}),
])
def test_mesh_independence_rejects_bad_input_before_building(
        monkeypatch, levels, kwargs):
    built = []

    def counting(preset, level, **params):
        built.append(level)
        return make_instance(preset, level, **params)

    monkeypatch.setattr(analysis, "make_instance", counting)
    with pytest.raises(ValueError):
        mesh_independence_experiment("sine", levels, **kwargs)
    assert built == []


def test_mesh_independence_releases_finished_levels(monkeypatch):
    # warm starts carry a mesh, not operators: a finished level's factors
    # must be freed before the next level factorizes
    seen = []
    reference_optimum = analysis.reference_optimum

    def tracking(prob, *args, **kwargs):
        gc.collect()
        for level, ref in seen[1:]:
            assert ref() is None, f"level {level} operators still alive"
        seen.append((prob.ops.mesh.level, weakref.ref(prob.ops)))
        return reference_optimum(prob, *args, **kwargs)

    monkeypatch.setattr(analysis, "reference_optimum", tracking)
    mesh_independence_experiment("sine", [2, 3, 4], tau_proxy_level=5)
    assert [level for level, _ in seen] == [2, 3, 4, 5]


# ---------------------------------------------------------------------------
# the value bound of a run whose grid solves stop early


def _recorded_sweeps(inst, monkeypatch):
    """Record what each sweep of an unrestarted run on ``inst``'s grid
    solver hands its solves.  ``"first"``, ``"second"`` and ``"mass"`` map
    the stop ``tol k^-3`` of sweep ``k`` to the p-solves' ``(b, p)`` and
    the mass solve's ``(xi, mu)``; ``"mu_step"`` lists each sweep's
    ``(lam, p, mu_t, xi_t)``, as the mu update reads them."""
    grid = inst.solver
    assert isinstance(grid, GridSolver)
    sweeps = {"first": {}, "second": {}, "mass": {}, "mu_step": []}
    p_solve, mass_solve = grid.solve_with_multiplier, grid.solve_mass_full
    xi_step = dual_solver._xi_step

    def recorded_p_solve(b, start=None, stop=None):
        out = p_solve(b, start, stop)
        sweeps["first" if start is None else "second"][stop] = (b, out[0])
        return out

    def recorded_mass_solve(b, x0, stop=None):
        out = mass_solve(b, x0, stop)
        sweeps["mass"][stop] = (b, out)
        return out

    def recorded_xi_step(prob, lam, p, mu_t, xi_t):
        # copies: solve forms the next extrapolations in mu_t and xi_t
        sweeps["mu_step"].append((lam, p, mu_t.copy(), xi_t.copy()))
        return xi_step(prob, lam, p, mu_t, xi_t)

    monkeypatch.setattr(grid, "solve_with_multiplier", recorded_p_solve)
    monkeypatch.setattr(grid, "solve_mass_full", recorded_mass_solve)
    monkeypatch.setattr(dual_solver, "_xi_step", recorded_xi_step)
    return sweeps


def _measured_eps_bar(inst, tol, sweeps, ks, phis):
    """``eps_bar_k`` of README's inexact bound at each logged ``k``, from
    the errors that the recorded solves left, measured with the instance's
    factors.

    Sweep ``j`` adds ``sqrt(2) t_j D_j``, with ``D_j`` its error in the
    norms of the blocks, ``H = G/alpha`` the p-solve's operator:
    - the p-solves' ``d'_j`` and ``d_j``, ``|H p - b|_{H^-1}``, bound the
      (lam, p) block's by ``d'_j + 2 d_j``;
    - the mass solves' error at the extrapolated mu,
      ``e_t = mu_t - M_full^-1 xi_t``, enters the mu block's gradient:
      ``|M_full e_t / alpha|_{S_mu^-1} = sqrt(e_t' W e_t / (alpha gamma))``.
    The bound covers ``(lam_k, p_k, M_full^-1 xi_k)``; a logged ``Phi``
    above that value by ``x_k`` adds ``(k+1) sqrt(x_k) / 2``.
    """
    ops, alpha, gamma = inst.ops, inst.alpha, inst.gamma
    exact = AugmentedSolver(ops, alpha)

    def h_dual_norm(b, p):
        delta = ops.K @ ops.mass_factor.solve(ops.K @ p) + ops.M @ p / alpha \
            - b
        return np.sqrt(max(delta @ exact.solve_with_multiplier(delta)[0],
                           0.0))

    logged = dict(zip(ks.tolist(), phis))
    eps_bar, total, t = [], 0.0, 1.0
    for j, (lam, p, mu_t, xi_t) in enumerate(sweeps["mu_step"], start=1):
        stop = tol / j**3
        e_t = mu_t - ops.mass_full_factor.solve(xi_t)
        mass = np.sqrt(max(e_t @ (ops.W_full * e_t), 0.0) / (alpha * gamma))
        total += np.sqrt(2.0) * t * (
            h_dual_norm(*sweeps["first"][stop])
            + 2.0 * h_dual_norm(*sweeps["second"][stop]) + mass)
        if j in logged:
            xi = sweeps["mass"][stop][0]
            covered = dual_solver.dual_objective(
                inst, lam, p, ops.mass_full_factor.solve(xi))
            excess = max(logged[j] - covered, 0.0)
            eps_bar.append(total + (j + 1) * np.sqrt(excess) / 2.0)
        t = dual_solver.momentum(t)[0]
    return np.array(eps_bar)


@pytest.mark.parametrize("preset, level", [("sine", 3), ("shifted", 4),
                                           ("sine", 5)])
def test_inexact_value_bound_holds_on_forced_grid_runs(preset, level,
                                                        monkeypatch):
    """A run on the grid path, forced below level 7 by ``GRID_MIN_N``,
    stops each sweep's solves at ``tol k^-3``.  Its logged values keep the
    inexact bound ``4 (sqrt(tau_h) + eps_bar_k)^2 / (k+1)^2`` against the
    certified optimum along the whole run, with ``eps_bar_k`` measured
    from the errors its solves left; with tau_h an eighth as large, the
    same check fails."""
    inst = make_instance(preset, level)
    cert = oracle.certified_optimum(inst)
    monkeypatch.setattr(dual_solver, "GRID_MIN_N", 0)
    fresh = make_instance(preset, level)
    sweeps = _recorded_sweeps(fresh, monkeypatch)
    tol = 1e-6
    run = solve(fresh, SolverConfig(tol=tol))
    assert run.stop_reason == "kkt"
    # every sweep's solves were loose, so the run is inexact throughout
    assert len(sweeps["mu_step"]) == run.iterations
    assert min(sweeps["mass"]) > sparse_linalg.GRID_BERR_STOP
    eps_bar = _measured_eps_bar(fresh, tol, sweeps, run.ks, run.phi)
    assert eps_bar[-1] > 0.0
    tau = compute_tau_h(inst, DualIterate.for_instance(inst), cert.z_star)
    ok, margin = verify_complexity_bound(run, tau, cert.phi_star,
                                         eps_bar=eps_bar)
    assert ok and margin > 0.0, margin
    # the errors are small against the distance to the optimum
    assert eps_bar[-1] < 1e-3 * np.sqrt(tau)
    ok, _ = verify_complexity_bound(run, tau / 8.0, cert.phi_star,
                                    eps_bar=eps_bar)
    assert not ok
