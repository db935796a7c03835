"""The acceptance gate's guarantees 1, 2 and 9 on the grid path.

The gate (``test_acceptance.py``) runs below ``dual_solver.GRID_MIN_N``,
where every solve is a SuperLU factor's and ``solve`` has no worker.  Here
a module fixture lowers ``GRID_MIN_N`` to 0 before any instance reads its
``solver``, so the gate's library calls run on ``GridSolver`` (the stencil
residual, sine-transform p-solves and Chebyshev mass solves, at 3 and 7
interior nodes per side) and on ``solve``'s worker thread, with the gate's
tolerances.  Each optimum is also checked against the factored path's.
"""

import numpy as np
import pytest

from pdeabcd import analysis, dual_solver
from pdeabcd.analysis import compute_tau_h, verify_complexity_bound
from pdeabcd.dual_solver import (
    DualIterate,
    ProblemInstance,
    SolverConfig,
    recover_primal,
    solve,
    step_lambda,
    step_p,
    step_phat,
)
from pdeabcd.oracle import certified_optimum
from pdeabcd.presets import make_instance
from pdeabcd.sparse_linalg import AugmentedSolver, GridSolver

CELLS = [(preset, level) for preset in ("sine", "shifted") for level in (2, 3)]
IDS = [f"{preset}-{level}" for preset, level in CELLS]


@pytest.fixture(scope="module")
def factored():
    """(preset, level) -> certified optimum on the factored path."""
    out = {}
    for cell in CELLS:
        inst = make_instance(*cell)
        out[cell] = certified_optimum(inst)
        assert isinstance(inst.solver, AugmentedSolver)
    return out


@pytest.fixture(scope="module")
def grid_path(factored):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dual_solver, "GRID_MIN_N", 0)
        yield


@pytest.fixture(scope="module")
def certified(grid_path):
    """(preset, level) -> (instance, certified optimum) on the grid path."""
    out = {}
    for cell in CELLS:
        inst = make_instance(*cell)
        out[cell] = inst, certified_optimum(inst)
        assert isinstance(inst.solver, GridSolver)
    return out


@pytest.mark.parametrize("cell", CELLS, ids=IDS)
def test_criterion_01_value_bound_on_the_grid_path(certified, cell):
    """Phi(z_k) - Phi* <= 4 tau_h / (k+1)^2 at every k <= 2000."""
    inst, cert = certified[cell]
    tau = compute_tau_h(inst, DualIterate.for_instance(inst), cert.z_star)
    run = solve(inst, SolverConfig(max_iters=2000, tol=0.0, log_every=1,
                                   check_every=1))
    ok, margin = verify_complexity_bound(run, tau, cert.phi_star,
                                         slack_rel=1e-10)
    assert ok, margin


@pytest.mark.parametrize("cell", CELLS, ids=IDS)
def test_criterion_02_oracle_equivalence_on_the_grid_path(certified,
                                                          factored, cell):
    """The dual solution matches the oracle in control and value, and the
    certified value is the factored path's to roundoff."""
    inst, cert = certified[cell]
    u_dual, _ = recover_primal(inst, *cert.z_star.blocks())
    du = np.clip(u_dual, *inst.box) - cert.u_star
    assert np.sqrt(du @ (inst.ops.M_full @ du)) <= 1e-6
    assert abs(cert.cross_phi + cert.j_star) <= 1e-6 * (1.0 + abs(cert.j_star))
    phi = factored[cell].phi_star
    assert abs(cert.phi_star - phi) <= 1e-12 * abs(phi)


@pytest.mark.parametrize("level", [2, 3])
def test_criterion_09_block_stationarity_on_the_grid_path(grid_path, seed,
                                                          level):
    """The three-step sweep start solves the coupled (lam, p) subproblem,
    on 10 random instances of the gate's family."""
    rng = np.random.default_rng(seed)
    o = make_instance("sine", level).ops
    for _ in range(10):
        bound = rng.uniform(0.3, 1.5)
        prob = ProblemInstance(
            ops=o, y_d=rng.standard_normal(o.n_interior),
            y_r=rng.standard_normal(o.mesh.n_nodes),
            alpha=10.0 ** rng.uniform(-3.0, -1.0),
            beta=rng.uniform(0.05, 0.5), box=(-bound, bound), gamma=4.0)
        lam_t = np.clip(rng.standard_normal(prob.n_full) * prob.beta,
                        -prob.beta, prob.beta)
        mu_t = rng.standard_normal(prob.n_full)
        p_hat = step_phat(prob, lam_t, mu_t)
        lam = step_lambda(prob, lam_t, mu_t, p_hat)
        p, _ = step_p(prob, lam, mu_t)
        assert isinstance(prob.solver, GridSolver)
        # stationarity in p of the joint block objective
        g_p = o.K @ o.mass_factor.solve(o.K @ p - o.M @ prob.y_d) \
            + o.mass_interior_rows(prob.y_r) \
            - o.mass_interior_rows(lam + mu_t - o.pad(p)) / prob.alpha
        assert np.abs(g_p).max() <= 1e-9
        # projected stationarity in lam, including the proximal metric
        d = lam - lam_t
        md = o.M_full @ d
        g_lam = (o.M_full @ (lam + mu_t - o.pad(p)) + (o.W_full * d - md)
                 + o.M_full @ o.pad(analysis.apply_g_inverse(
                     prob, o.restrict(md)))) / prob.alpha
        proj = np.clip(lam - g_lam, -prob.beta, prob.beta)
        assert np.abs(lam - proj).max() <= 1e-9
