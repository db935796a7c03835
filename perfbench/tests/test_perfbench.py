"""Tests of the benchmark harness: a smoke run at tiny levels, and one test
per correctness check showing that it rejects a corrupted answer."""

import copy
import os
import sys
import time
import types

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from pdeabcd import analysis, dual_solver, make_instance  # noqa: E402
from perfbench import checks, run, workloads  # noqa: E402
from perfbench.tracer import LAYER_METRICS, Tracer  # noqa: E402

TINY = {
    "solve": {"kind": "solve", "preset": "sine", "level": 4, "tol": 1e-6},
    "certify": {"kind": "certify", "preset": "shifted", "level": 3,
                "tol": 1e-8},
    "mesh-indep": {"kind": "mesh-indep", "preset": "sine",
                   "levels": [3, 4, 5], "eps": 1e-6, "tau_proxy_level": 5},
}


def _deadline():
    return time.monotonic() + 120.0


@pytest.mark.parametrize("kind", ["solve", "certify"])
def test_smoke_end_to_end_at_tiny_levels(kind):
    raw = run.run_workload(TINY[kind], 0.0, False, _deadline())
    result = run.summarize(raw, trace=False)
    assert result["correct"] and result["attempted"] == 1
    assert result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(raw["probes"]) == run.SETUP_PROBES


def test_smoke_traced_mesh_independence_reports_every_layer():
    raw = run.run_workload(TINY["mesh-indep"], 0.0, True, _deadline())
    result = run.summarize(raw, trace=True)
    assert result["correct"] and result["failed"] == 0
    assert [r["mode"] for r in raw["reps"]] == ["run", "trace"]
    assert raw["reps"][1]["absent"] == []
    metrics = result["metrics"]
    assert set(metrics) == set(LAYER_METRICS) | {"trace.overhead_s"}
    # bindings imported by name: presets->assemble, analysis->prolongate_nodal
    # and power_iteration_extremes, oracle->factorize_indefinite
    for name in ("assembly.assemble_calls", "mesh.prolongate_calls",
                 "sparse_linalg.power_iteration_calls",
                 "oracle.refactor_calls", "analysis.lam_max_calls",
                 "sparse_linalg.saddle_solve_calls"):
        assert metrics[name]["value"] > 0, name


def test_tracer_reports_missing_targets_as_absent(monkeypatch):
    mesh = types.ModuleType("fakepkg.mesh")
    mesh.build_unit_square_mesh = lambda level: level
    monkeypatch.setitem(sys.modules, "fakepkg", types.ModuleType("fakepkg"))
    monkeypatch.setitem(sys.modules, "fakepkg.mesh", mesh)
    tracer = Tracer()
    tracer.install("fakepkg")
    assert mesh.build_unit_square_mesh(3) == 3
    layers = tracer.layer_metrics()
    assert layers["mesh.build_calls"] == 1
    absent = tracer.absent_metrics()
    assert "sparse_linalg.saddle_factor_calls" in absent
    assert "mesh.build_calls" not in absent


@pytest.fixture(scope="module")
def solved():
    inst = make_instance("sine", 3)
    record = dual_solver.solve(inst, dual_solver.SolverConfig(tol=1e-6))
    return inst, record


def test_gap_check_rejects_perturbed_adjoint(solved):
    inst, record = solved
    prob = checks.Problem(inst)
    lam, p, mu = record.final.blocks()
    assert checks.check_gap(prob, lam, p, mu, 1e-7) == []
    assert checks.check_gap(prob, lam, 1.05 * p, mu, 1e-7)


def test_gap_check_rejects_multiplier_outside_box(solved):
    inst, record = solved
    prob = checks.Problem(inst)
    lam, p, mu = record.final.blocks()
    bad = lam.copy()
    bad[0] = 1.01 * inst.beta
    assert "leaves [-beta, beta]" in checks.check_gap(prob, bad, p, mu,
                                                       1e-7)[0]


def test_independent_values_match_the_program(solved):
    inst, record = solved
    prob = checks.Problem(inst)
    lam, p, mu = record.final.blocks()
    u = prob.control(lam, p, mu)
    assert prob.dual(lam, p, mu) == pytest.approx(
        dual_solver.dual_objective(inst, lam, p, mu), rel=1e-12)
    assert prob.primal(u) == pytest.approx(
        dual_solver.primal_value(inst, u), rel=1e-12)


@pytest.fixture(scope="module")
def certified():
    spec = TINY["certify"]
    inst = workloads.setup(spec)
    return spec, inst, workloads.run(spec, inst)


def test_certify_answer_passes(certified):
    spec, inst, answer = certified
    assert workloads.check(spec, inst, answer) == []


def test_certificate_check_rejects_perturbed_control(certified):
    spec, inst, answer = certified
    bad = copy.copy(answer)
    bad.cert = copy.copy(answer.cert)
    bad.cert.u_star = np.clip(answer.cert.u_star + 1e-3, *inst.box)
    fails = workloads.check(spec, inst, bad)
    assert any("disagree" in f for f in fails)


def test_value_bound_check_rejects_inflated_dual_value(certified):
    spec, inst, answer = certified
    prob = checks.Problem(inst)
    z = answer.cert.z_star
    tau = prob.tau(0 * z.lam, 0 * z.mu, z.lam, z.mu)
    phi_star = -prob.primal(answer.cert.u_star)
    record = answer.record
    assert checks.check_value_bound(record.ks, record.phi, tau,
                                    phi_star) == []
    phis = record.phi.copy()
    k = 10
    phis[k - 1] = phi_star + 1.5 * 4.0 * tau / (k + 1.0) ** 2
    assert checks.check_value_bound(record.ks, phis, tau, phi_star)


def test_program_tau_agrees_with_independent_tau(certified):
    _, inst, answer = certified
    z = answer.cert.z_star
    ours = checks.Problem(inst).tau(0 * z.lam, 0 * z.mu, z.lam, z.mu)
    theirs = analysis.compute_tau_h(
        inst, dual_solver.DualIterate.for_instance(inst), z)
    assert ours == pytest.approx(theirs, rel=1e-9)


def test_flat_count_check_rejects_outliers_and_saturation():
    assert checks.check_flat_counts([7, 7, 8, 7]) == []
    assert checks.check_flat_counts([7, 7, 7, 10])
    assert checks.check_flat_counts([7, -1, 7, 7])


def test_h2_check_rejects_wrong_order_and_first_order_decay():
    levels = [3, 4, 5, 6]
    second = [-0.1 - 4.0 ** -lvl for lvl in levels]
    first = [-0.1 - 2.0 ** -lvl for lvl in levels]
    assert checks.check_h2_shrinkage(levels, second) == []
    assert checks.check_h2_shrinkage(levels[::-1], second[::-1])
    assert checks.check_h2_shrinkage(levels, second[::-1])
    assert checks.check_h2_shrinkage(levels, first)
