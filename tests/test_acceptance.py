"""End-to-end acceptance gate.

Each test covers one advertised guarantee of the package at its stated
tolerance and prints a single PASS line with the governing numbers; a
failure reads as the corresponding FAIL in pytest output.  Heavyweight
shared artifacts (certified optima, the level 3..6 iteration experiment)
are session fixtures so the gate stays fast.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from pdeabcd import analysis
from pdeabcd.analysis import (
    certified_preset_optimum,
    compute_tau_h,
    fit_tau_constant,
    l1_gap_check,
    lumped_mass_comparison_check,
    mesh_independence_experiment,
    spectral_scaling_report,
    verify_complexity_bound,
)
from pdeabcd.dual_solver import (
    DualIterate,
    ProblemInstance,
    SolverConfig,
    lambda_kernel,
    mu_xi_kernel,
    recover_primal,
    solve,
    step_lambda,
    step_p,
    step_phat,
)
from pdeabcd.presets import make_instance, preset_names

SEED = int(os.environ.get("PDEABCD_SEED", "0"))
LEVELS_SMALL = (2, 3, 4)


def _report(num: int, text: str) -> None:
    print(f"\nPASS criterion {num}: {text}")


@pytest.fixture(scope="session")
def certified_small():
    """(preset, level) -> (inst, cert, seconds) for every preset, levels 2-4."""
    out = {}
    for preset in preset_names():
        for level in LEVELS_SMALL:
            t0 = time.perf_counter()
            inst, cert = certified_preset_optimum(preset, level)
            out[preset, level] = inst, cert, time.perf_counter() - t0
    return out


@pytest.fixture(scope="session")
def iteration_experiment():
    t0 = time.perf_counter()
    rep = mesh_independence_experiment("sine", [3, 4, 5, 6], epsilon=1e-6,
                                       tau_proxy_level=7)
    return rep, time.perf_counter() - t0


def test_criterion_01_value_bound(certified_small):
    """Phi(z_k) - Phi* <= 4 tau_h / (k+1)^2 at every k <= 2000."""
    worst_margin = np.inf
    worst_cell_s = 0.0
    for preset in ("sine", "shifted"):
        for level in LEVELS_SMALL:
            t0 = time.perf_counter()
            inst, cert, cert_s = certified_small[preset, level]
            z0 = DualIterate.for_instance(inst)
            tau = compute_tau_h(inst, z0, cert.z_star)
            run = solve(inst, SolverConfig(max_iters=2000, tol=0.0,
                                           log_every=1, check_every=1))
            ok, margin = verify_complexity_bound(run, tau, cert.phi_star,
                                                 slack_rel=1e-10)
            cell_s = cert_s + time.perf_counter() - t0
            assert ok, (preset, level, margin)
            assert cell_s < 60.0, (preset, level, cell_s)
            worst_margin = min(worst_margin, margin)
            worst_cell_s = max(worst_cell_s, cell_s)
    _report(1, "value bound holds on sine/shifted x levels 2-4, "
            f"min margin {worst_margin:.3e}, slowest cell {worst_cell_s:.1f}s")


def test_criterion_02_oracle_equivalence(certified_small):
    """Dual solution matches the splitting oracle in control and value."""
    worst_u = 0.0
    worst_gap = 0.0
    for preset in preset_names():
        for level in LEVELS_SMALL:
            inst, cert, _ = certified_small[preset, level]
            u_dual, _ = recover_primal(inst, *cert.z_star.blocks())
            u_dual = np.clip(u_dual, *inst.box)
            du = u_dual - cert.u_star
            err_u = float(np.sqrt(du @ (inst.ops.M_full @ du)))
            gap = abs(cert.cross_phi + cert.j_star)
            rel_gap = gap / (1.0 + abs(cert.j_star))
            assert err_u <= 1e-6, (preset, level, err_u)
            assert rel_gap <= 1e-6, (preset, level, rel_gap)
            worst_u = max(worst_u, err_u)
            worst_gap = max(worst_gap, rel_gap)
    _report(2, "all presets x levels 2-4: max ||u_dual - u_oracle||_M "
            f"{worst_u:.3e}, max relative value gap {worst_gap:.3e}")


def test_criterion_03_mesh_independence(iteration_experiment):
    """Iterations to 1e-6 relative accuracy flat across levels 3-6."""
    rep, seconds = iteration_experiment
    iters = [r.iters_to_eps for r in rep.rows]
    assert all(i > 0 for i in iters), iters
    med = float(np.median(iters))
    for r in rep.rows:
        assert abs(r.iters_to_eps - med) <= 0.2 * med, (r.level, iters, med)
    assert rep.passed
    assert seconds < 600.0, seconds
    _report(3, f"sine levels 3-6 iterations {iters}, median {med:.0f}, "
            f"experiment took {seconds:.1f}s")


def test_criterion_04_tau_bounded(iteration_experiment):
    """tau_h <= tau_proxy + C h with one nonnegative fitted constant."""
    rep, _ = iteration_experiment
    assert rep.tau_proxy is not None and rep.tau_proxy > 0.0
    c, ok = fit_tau_constant(rep.rows, rep.tau_proxy)
    assert ok
    assert c >= 0.0
    assert rep.fitted_c == c
    taus = [r.tau_h for r in rep.rows]
    _report(4, f"tau_h {['%.4e' % t for t in taus]} vs proxy "
            f"{rep.tau_proxy:.4e}, fitted C = {c:.4e}")


def test_criterion_05_norm_sandwich():
    """z'Mz <= z'Wz <= 4 z'Mz on 1000 vectors per level, levels 2-4."""
    out = lumped_mass_comparison_check(LEVELS_SMALL, samples=1000, seed=SEED)
    assert out["violations"] == 0, out
    assert out["passed"]
    _report(5, "0 violations in 3000 sampled vectors (levels 2-4)")


def test_criterion_06_l1_overshoot():
    """0 <= lumped l1 - exact L1 <= C h |z|_H1, C fitted at level 2."""
    out = l1_gap_check(LEVELS_SMALL, samples=1000, seed=SEED)
    assert out["passed"], out
    assert out["fit_level"] == 2
    for level, entry in out["levels"].items():
        assert entry["lower_violations"] == 0, (level, entry)
        assert entry["upper_violations"] == 0, (level, entry)
    _report(6, f"fitted C = {out['fitted_C']:.4f} at level 2, "
            "0 violations on levels 3-4 x 1000 vectors")


def test_criterion_07_spectral_scaling():
    """h^-2 scalings of mass extremes and the majorizer top eigenvalue."""
    rep = spectral_scaling_report([2, 3, 4, 5, 6])
    checks = rep.checks()
    assert checks["all"], checks
    mass_hi = [r.lam_max_m / r.h**2 for r in rep.rows]
    mass_lo = [r.lam_min_m / r.h**2 for r in rep.rows]
    major = [r.lam_max_sh / r.h**2 for r in rep.rows]
    for vals in (mass_hi, mass_lo, major):
        assert max(vals) <= 2.0 * min(vals), vals
    _report(7, "levels 2-6: lam_max(M)/h^2 in "
            f"[{min(mass_hi):.3f}, {max(mass_hi):.3f}], lam_min(M)/h^2 in "
            f"[{min(mass_lo):.3f}, {max(mass_lo):.3f}], lam_max(S)/h^2 in "
            f"[{min(major):.3f}, {max(major):.3f}] (factor-2 windows)")


def _grid_min(f, lo, hi, n=4001, rounds=3):
    for _ in range(rounds):
        xs = np.linspace(lo, hi, n)
        i = int(np.argmin(f(xs)))
        lo = xs[max(i - 1, 0)]
        hi = xs[min(i + 1, n - 1)]
    return 0.5 * (lo + hi)


def test_criterion_08_componentwise_prox():
    """Both scalar kernels match brute-force minimization within 1e-6."""
    rng = np.random.default_rng(SEED)
    gamma = 4.0
    worst_lam = 0.0
    worst_mu = 0.0
    for _ in range(1000):
        w = rng.uniform(0.3, 2.0)
        m = rng.uniform(0.25 * w, w)
        beta = rng.uniform(0.1, 1.5)
        alpha = 10.0 ** rng.uniform(-3.0, -1.0)
        a = -rng.uniform(0.1, 2.0)
        b = rng.uniform(0.1, 2.0)
        lam_t, mu_t, p = rng.normal(0.0, 2.0, size=3)

        def f_lam(x):
            return m * (x + mu_t - p) ** 2 + (w - m) * (x - lam_t) ** 2

        best = _grid_min(f_lam, -beta, beta)
        got = lambda_kernel(np.array([lam_t]),
                            np.array([m * (p - mu_t - lam_t)]),
                            np.array([w]), beta)[0]
        worst_lam = max(worst_lam, abs(got - best))

        lam = float(np.clip(rng.normal(0.0, beta), -beta, beta))

        def f_mu(x):
            quad = m * (x + lam - p) ** 2 \
                + (gamma * m * m / w - m) * (x - mu_t) ** 2
            supp = 2.0 * alpha * m * (b * np.maximum(x, 0.0)
                                      + a * np.minimum(x, 0.0))
            return quad + supp

        r = 10.0 * (1.0 + abs(p) + abs(lam) + abs(mu_t))
        best_mu = _grid_min(f_mu, -r, r)
        v = m * mu_t + (w / gamma) * (p - lam - mu_t)
        xi = mu_xi_kernel(np.array([v]), np.array([w]), a, b,
                          alpha, gamma)[0]
        worst_mu = max(worst_mu, abs(xi / m - best_mu))
    assert worst_lam <= 1e-6, worst_lam
    assert worst_mu <= 1e-6, worst_mu
    _report(8, f"1000 scalar instances per kernel: max deviation "
            f"{worst_lam:.2e} (lam), {worst_mu:.2e} (mu)")


def _random_instance(rng, ops):
    alpha = 10.0 ** rng.uniform(-3.0, -1.0)
    beta = rng.uniform(0.05, 0.5)
    bound = rng.uniform(0.3, 1.5)
    return ProblemInstance(
        ops=ops,
        y_d=rng.standard_normal(ops.n_interior),
        y_r=rng.standard_normal(ops.mesh.n_nodes),
        alpha=alpha, beta=beta, box=(-bound, bound), gamma=4.0)


def test_criterion_09_block_stationarity():
    """The three-step sweep start solves the coupled (lam, p) subproblem."""
    rng = np.random.default_rng(SEED)
    ops = make_instance("sine", 2).ops
    worst_p = 0.0
    worst_lam = 0.0
    for _ in range(25):
        prob = _random_instance(rng, ops)
        lam_t = np.clip(rng.standard_normal(prob.n_full) * prob.beta,
                        -prob.beta, prob.beta)
        mu_t = rng.standard_normal(prob.n_full)
        p_hat = step_phat(prob, lam_t, mu_t)
        lam = step_lambda(prob, lam_t, mu_t, p_hat)
        p, _ = step_p(prob, lam, mu_t)

        o = prob.ops
        # stationarity in p of the joint block objective
        g_p = o.K @ o.mass_factor.solve(o.K @ p - o.M @ prob.y_d) \
            + o.mass_interior_rows(prob.y_r) \
            - o.mass_interior_rows(lam + mu_t - o.pad(p)) / prob.alpha
        worst_p = max(worst_p, float(np.abs(g_p).max()))
        # projected stationarity in lam, including the proximal metric
        d = lam - lam_t
        md = o.M_full @ d
        g_lam = (o.M_full @ (lam + mu_t - o.pad(p))
                 + (o.W_full * d - md)
                 + o.M_full @ o.pad(
                     analysis.apply_g_inverse(prob, o.restrict(md)))
                 ) / prob.alpha
        proj = np.clip(lam - g_lam, -prob.beta, prob.beta)
        worst_lam = max(worst_lam, float(np.abs(lam - proj).max()))
    assert worst_p <= 1e-9, worst_p
    assert worst_lam <= 1e-9, worst_lam
    _report(9, f"25 random instances: max |grad_p| {worst_p:.2e}, "
            f"max projected lam residual {worst_lam:.2e}")


def _run_cli(args, outdir):
    proc = subprocess.run(
        [sys.executable, "-m", "pdeabcd.cli", *args, "--out", str(outdir)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_10_determinism(tmp_path):
    """Byte-identical CSVs from repeated identical CLI invocations."""
    solve_args = ["solve", "--preset", "sine", "--level", "3",
                  "--tol", "1e-8"]
    _run_cli(solve_args, tmp_path / "s1")
    _run_cli(solve_args, tmp_path / "s2")
    rec1 = (tmp_path / "s1" / "record.csv").read_bytes()
    rec2 = (tmp_path / "s2" / "record.csv").read_bytes()
    assert rec1 == rec2

    mi_args = ["mesh-indep", "--preset", "zero", "--levels", "3,4,5"]
    _run_cli(mi_args, tmp_path / "m1")
    _run_cli(mi_args, tmp_path / "m2")
    csv1 = (tmp_path / "m1" / "mesh_indep.csv").read_bytes()
    csv2 = (tmp_path / "m2" / "mesh_indep.csv").read_bytes()
    assert csv1 == csv2
    _report(10, f"record.csv ({len(rec1)} bytes) and mesh_indep.csv "
            f"({len(csv1)} bytes) byte-identical across reruns")
