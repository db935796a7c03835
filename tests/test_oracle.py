"""Primal oracle tests: objective values, the splitting reference, and the
cross-certification logic."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from pdeabcd import dual_solver, oracle
from pdeabcd.dual_solver import (
    DualIterate,
    ProblemInstance,
    SolverConfig,
    dual_objective,
    primal_value,
    solve,
)
from pdeabcd.oracle import (
    CertifiedOptimum,
    OracleError,
    OracleInconsistencyError,
    admm_reference,
    certified_optimum,
)
from pdeabcd.presets import make_instance


def _dense_objective(prob, u):
    """Dense textbook evaluation of the consistent-mass functional."""
    ops = prob.ops
    K = ops.K.toarray()
    Mf = ops.M_full.toarray()
    Mi = Mf[ops.interior]
    y = np.linalg.solve(K, Mi @ (u + prob.y_r))
    diff = y - prob.y_d
    M = ops.M.toarray()
    val = 0.5 * diff @ M @ diff
    val += 0.5 * prob.alpha * u @ Mf @ u
    val += prob.beta * np.abs(Mf @ u).sum()
    return float(val)


def test_primal_objective_zero_control(sine2):
    expected = 0.5 * float(sine2.y_d @ (sine2.ops.M @ sine2.y_d))
    got = primal_value(sine2, np.zeros(sine2.n_full))
    assert got == pytest.approx(expected, rel=1e-13)


def test_primal_objective_zero_preset_is_zero(zero2):
    assert primal_value(zero2, np.zeros(zero2.n_full)) == 0.0


def test_primal_objective_matches_dense(sine2, rng):
    a, b = sine2.box
    for _ in range(5):
        u = rng.uniform(a, b, sine2.n_full)
        got = primal_value(sine2, u)
        expected = _dense_objective(sine2, u)
        assert got == pytest.approx(expected, rel=1e-11)


def test_admm_matches_golden(golden):
    for name, entry in golden.items():
        # every optimum is pinned at the oracle's one stopping residual
        assert entry["tol"] == oracle.TOL
        inst = make_instance(name, entry["level"])
        sol = admm_reference(inst, DualIterate.for_instance(inst))
        assert sol.J == pytest.approx(entry["J_star"],
                                      abs=1e-9 * (1.0 + abs(entry["J_star"])))
        assert sol.iterations >= 1
        a, b = inst.box
        assert sol.u.min() >= a
        assert sol.u.max() <= b


def test_admm_start_independence(sine2, rng):
    beta = sine2.beta
    start = DualIterate(rng.uniform(-beta, beta, sine2.n_full),
                        rng.standard_normal(sine2.n),
                        rng.standard_normal(sine2.n_full))
    s1 = admm_reference(sine2, DualIterate.for_instance(sine2))
    s2 = admm_reference(sine2, z0=start)
    assert s1.J == pytest.approx(s2.J, abs=1e-9 * (1.0 + abs(s1.J)))
    assert np.abs(s1.u - s2.u).max() < 1e-6


def test_admm_solves_the_state_equation_once(sine2, monkeypatch):
    real = ProblemInstance.state
    calls = []

    def counting(self, u):
        calls.append(u)
        return real(self, u)

    monkeypatch.setattr(ProblemInstance, "state", counting)
    admm_reference(sine2, DualIterate.for_instance(sine2))
    assert len(calls) == 1


def test_admm_iteration_cap_raises(sine2, monkeypatch):
    monkeypatch.setattr(oracle, "MAX_ITERS", 3)
    with pytest.raises(OracleError):
        admm_reference(sine2, DualIterate.for_instance(sine2))


def test_admm_optimum_not_improved_by_perturbation(shifted2, rng):
    # no feasible control near the oracle's minimizer has a lower value
    sol = admm_reference(shifted2, DualIterate.for_instance(shifted2))
    floor = sol.J - 1e-9 * (1.0 + abs(sol.J))
    for _ in range(20):
        d = rng.standard_normal(shifted2.n_full)
        for t in (1e-1, 1e-2, 1e-3):
            u = np.clip(sol.u + t * d, *shifted2.box)
            assert primal_value(shifted2, u) >= floor


def test_control_shrinks_with_alpha():
    # a box wide enough never to bind (the largest |u| is about 15), so
    # alpha alone sets the size of the control
    js = []
    norms = []
    for alpha in (1e-3, 1e-2, 1e-1):
        inst = make_instance("sine", 2, alpha=alpha, box=(-100.0, 100.0))
        sol = admm_reference(inst, DualIterate.for_instance(inst))
        norms.append(float(np.sqrt(sol.u @ (inst.ops.M_full @ sol.u))))
        js.append(sol.J)
    assert norms[0] > norms[1] > norms[2]
    # heavier regularization cannot lower the optimum
    assert js[0] <= js[1] <= js[2]


def test_certified_optimum_fields(certified_sine2):
    inst, cert = certified_sine2
    assert isinstance(cert, CertifiedOptimum)
    assert cert.phi_star == -cert.j_star
    # the stored phi is the dual value at the certified iterate, bit for bit
    assert dual_objective(inst, *cert.z_star.blocks()) == cert.cross_phi
    gap = abs(cert.cross_phi + cert.j_star)
    assert gap <= 1e-7 * (1.0 + abs(cert.j_star))
    assert cert.oracle.iterations >= 1


def test_certified_optimum_golden(golden, certified_sine2):
    _, cert = certified_sine2
    ref = golden["sine"]["J_star"]
    assert cert.j_star == pytest.approx(ref, abs=1e-8 * (1.0 + abs(ref)))


def test_pin_golden_reproduces_golden(golden, tmp_path):
    # iteration counts are not compared: the pinned ones predate the seeded
    # oracle and count a start from zero
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = tmp_path / "golden.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "pin_golden.py"),
         "--out", str(out)],
        capture_output=True, text=True, cwd=root,
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")))
    assert proc.returncode == 0, proc.stderr
    pinned = json.loads(out.read_text())
    assert sorted(pinned) == sorted(golden)
    for name, entry in golden.items():
        got = pinned[name]
        assert (got["level"], got["tol"]) == (entry["level"], entry["tol"])
        assert got["J_star"] == pytest.approx(
            entry["J_star"], abs=1e-9 * (1.0 + abs(entry["J_star"])))


def test_certified_inconsistency_raises(sine2, monkeypatch):
    # an oracle value off by 1e-3 cannot match the dual run: the cross
    # check must refuse to certify
    real = oracle.admm_reference

    def shifted(*args, **kwargs):
        sol = real(*args, **kwargs)
        return dataclasses.replace(sol, J=sol.J + 1e-3)

    monkeypatch.setattr(oracle, "admm_reference", shifted)
    with pytest.raises(OracleInconsistencyError):
        certified_optimum(sine2)


def test_certified_rejects_a_wrong_seed(sine2, monkeypatch):
    # a cross run that ends at a wrong point seeds the oracle there; the
    # oracle walks back to the primal optimum, and the dual value at the
    # wrong point then fails the value comparison
    real = dual_solver.solve
    seeds = []

    def halved(*args, **kwargs):
        run = real(*args, **kwargs)
        lam, p, mu = run.final.blocks()
        seeds.append(DualIterate(0.5 * lam, p, mu, run.final.k))
        return dataclasses.replace(run, final=seeds[-1])

    monkeypatch.setattr(dual_solver, "solve", halved)
    with pytest.raises(OracleInconsistencyError):
        certified_optimum(sine2)
    cold = admm_reference(sine2, DualIterate.for_instance(sine2))
    seeded = admm_reference(sine2, z0=seeds[0])
    assert seeded.J == pytest.approx(cold.J,
                                     abs=1e-9 * (1.0 + abs(cold.J)))


def test_certified_oracle_is_seeded():
    # started where the cross run ended, the oracle needs a small fraction
    # of the iterations of a start from zero (5 vs 398 when written)
    inst = make_instance("shifted", 4)
    cert = certified_optimum(inst)
    cold = admm_reference(inst, DualIterate.for_instance(inst))
    assert cert.oracle.iterations <= cold.iterations / 10


def test_certified_cross_run_restarts():
    inst = make_instance("shifted", 4)
    cert = certified_optimum(inst)
    plain = solve(inst, SolverConfig(max_iters=100_000, tol=1e-9,
                                     log_every=0, check_every=5))
    assert plain.converged
    assert cert.z_star.k < plain.iterations


def test_certified_zero_preset(zero2):
    cert = certified_optimum(zero2)
    assert cert.j_star == 0.0
    assert np.all(cert.u_star == 0.0)
    assert cert.phi_star == 0.0


@pytest.mark.parametrize("fixture", ["sine2", "shifted2"])
def test_admm_factorizes_once(fixture, request, monkeypatch):
    prob = request.getfixturevalue(fixture)
    real = oracle._splitting_factorization
    built = []

    def tracked(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(oracle, "_splitting_factorization", tracked)
    admm_reference(prob, DualIterate.for_instance(prob))
    assert len(built) == 1


def test_admm_converges_at_small_alpha(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_ITERS", 2000)
    prob = make_instance("sine", 4, alpha=1e-4)
    sol = admm_reference(prob, DualIterate.for_instance(prob))
    assert np.isfinite(sol.J)
