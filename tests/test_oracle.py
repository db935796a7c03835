"""Primal oracle tests: objective values, the active-set certificate, a
dense textbook reference solve, and the cross-certification logic."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import minimize

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


def _dense_reference(prob):
    """The optimal value by SLSQP on the split-L1 form, dense throughout.

    ``min 1/2 u'Hu + g'u + c + beta sum(s+ + s-)`` subject to ``M_full u
    = s+ - s-``, ``a <= u <= b`` and ``s+- >= 0``, with ``H = S'MS +
    alpha M_full`` and ``S = K^-1 M_i``; no solver code of the package is
    used.  ``u`` is scaled by ``diag(H)^-1/2`` so that SLSQP's first
    quasi-Newton metric, the identity, fits ``H``; ``s+-`` and the
    constraint rows share one scale of the mass matrix.  SLSQP minimizes
    without ``c``; the value returned is the dense functional at the
    minimizer, clipped to the box.
    """
    ops = prob.ops
    K = ops.K.toarray()
    M = ops.M.toarray()
    Mf = ops.M_full.toarray()
    S = np.linalg.solve(K, Mf[ops.interior])
    r = S @ prob.y_r - prob.y_d
    H = S.T @ M @ S + prob.alpha * Mf
    g = S.T @ (M @ r)
    n = Mf.shape[0]
    a, b = prob.box
    du = 1.0 / np.sqrt(np.diag(H))
    ds = float(np.diag(Mf).mean() * du.mean())
    Hs = du[:, None] * H * du
    gs = du * g
    weight = np.full(2 * n, prob.beta * ds)
    A = np.hstack((Mf * du / ds, -np.eye(n), np.eye(n)))

    res = minimize(
        lambda x: 0.5 * x[:n] @ Hs @ x[:n] + gs @ x[:n] + weight @ x[n:],
        np.zeros(3 * n),
        jac=lambda x: np.concatenate((Hs @ x[:n] + gs, weight)),
        bounds=list(zip(a / du, b / du)) + [(0.0, None)] * (2 * n),
        constraints=[{"type": "eq", "fun": lambda x: A @ x,
                      "jac": lambda x: A}],
        method="SLSQP", options={"ftol": 1e-14, "maxiter": 1000})
    assert res.success, res.message
    return _dense_objective(prob, np.clip(du * res.x[:n], a, b))


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("name", ["sine", "shifted", "zero"])
def test_certified_optimum_matches_a_dense_reference(name, level):
    inst = make_instance(name, level)
    cert = certified_optimum(inst)
    a, b = inst.box
    assert a <= cert.u_star.min() and cert.u_star.max() <= b
    assert _dense_reference(inst) == pytest.approx(
        cert.j_star, abs=1e-10 * (1.0 + abs(cert.j_star)))


def test_admm_matches_golden(golden):
    for name, entry in golden.items():
        # every optimum is pinned at the oracle's one gap tolerance
        assert entry["tol"] == oracle.TOL
        inst = make_instance(name, entry["level"])
        cert = certified_optimum(inst)
        assert cert.j_star == pytest.approx(
            entry["J_star"], abs=1e-9 * (1.0 + abs(entry["J_star"])))
        assert cert.oracle.iterations == 1
        a, b = inst.box
        assert cert.u_star.min() >= a
        assert cert.u_star.max() <= b


def test_admm_start_independence(certified_sine2, rng):
    # a random warm start of the cross run ends at the same optimum
    sine2, cert = certified_sine2
    beta = sine2.beta
    start = DualIterate(rng.uniform(-beta, beta, sine2.n_full),
                        rng.standard_normal(sine2.n),
                        rng.standard_normal(sine2.n_full))
    other = certified_optimum(sine2, z0=start)
    assert other.j_star == pytest.approx(
        cert.j_star, abs=1e-9 * (1.0 + abs(cert.j_star)))
    assert np.abs(other.u_star - cert.u_star).max() < 1e-6


def test_admm_solves_the_state_equation_once(certified_sine2, monkeypatch):
    sine2, cert = certified_sine2
    real = ProblemInstance.state
    calls = []

    def counting(self, u):
        calls.append(u)
        return real(self, u)

    monkeypatch.setattr(ProblemInstance, "state", counting)
    assert admm_reference(sine2, cert.z_star).iterations == 1
    assert len(calls) == 1


def test_admm_optimum_not_improved_by_perturbation(certified_shifted2, rng):
    # no feasible control near the oracle's minimizer has a lower value
    shifted2, cert = certified_shifted2
    sol = admm_reference(shifted2, cert.z_star)
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
        cert = certified_optimum(inst)
        norms.append(float(np.sqrt(cert.u_star @ (inst.ops.M_full
                                                  @ cert.u_star))))
        js.append(cert.j_star)
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
    assert cert.oracle.iterations == 1


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
    # sets it identifies are wrong, and the certificate's gap, which does
    # not trust the seed, refuses them
    real = dual_solver.solve

    def halved(*args, **kwargs):
        run = real(*args, **kwargs)
        lam, p, mu = run.final.blocks()
        return dataclasses.replace(
            run, final=DualIterate(0.5 * lam, p, mu, run.final.k))

    monkeypatch.setattr(dual_solver, "solve", halved)
    with pytest.raises(OracleError, match="refused: duality gap"):
        certified_optimum(sine2)


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


def test_certificate_refused_from_the_origin(sine2):
    # the dual origin identifies the wrong sets on sine L2
    with pytest.raises(OracleError, match="refused: duality gap"):
        admm_reference(sine2, DualIterate.for_instance(sine2))


def test_certificate_refuses_a_wrong_solution(certified_sine2, monkeypatch):
    # a perturbed answer of the certificate's solve fails the gap test
    sine2, cert = certified_sine2
    real = oracle.factorize_indefinite
    factored = []

    class Perturbed:
        def __init__(self, fact):
            self.fact = fact

        def solve(self, rhs):
            x = self.fact.solve(rhs)
            x[: x.size // 4] += 1e-6
            return x

    def perturbed(matrix):
        factored.append(real(matrix))
        return Perturbed(factored[-1])

    monkeypatch.setattr(oracle, "factorize_indefinite", perturbed)
    with pytest.raises(OracleError, match="refused: duality gap"):
        admm_reference(sine2, cert.z_star)
    assert len(factored) == 1


def test_certified_optimum_at_small_alpha():
    inst = make_instance("shifted", 6, alpha=1e-4)
    cert = certified_optimum(inst)
    assert cert.oracle.iterations == 1
    a, b = inst.box
    assert a <= cert.u_star.min() and cert.u_star.max() <= b
