"""The benchmark's workloads: what each one runs and how its answer is checked.

Each workload calls the public functions that the matching ``pdeabcd``
subcommand calls, with that subcommand's defaults:

* ``solve``: ``pdeabcd solve --preset P --level L --tol T``;
* ``certify``: the same with ``--check-bound`` at a level under
  ``analysis.ORACLE_CAP``, so the optimum comes from the certifying oracle;
* ``mesh-indep``: ``pdeabcd mesh-indep --preset P --levels ... --eps E
  --tau-proxy-level L`` with ``--jobs 1``.

Inputs are the package's deterministic presets; no workload draws random
numbers.  Every function here runs inside the repetition's own interpreter
and imports ``pdeabcd`` only when called, so that the import is timed as
part of set-up.
"""

from __future__ import annotations

from dataclasses import dataclass

# a solve to KKT tolerance tol must close the duality gap to GAP_SHARE * tol,
# relative; measured gaps at tol 1e-6 are 5e-9 (L4) down to 4e-11 (L7)
GAP_SHARE = 0.1

WORKLOADS = {
    "solve-L8": {"kind": "solve", "preset": "sine", "level": 8, "tol": 1e-6},
    "certify-L6": {"kind": "certify", "preset": "shifted", "level": 6,
                   "tol": 1e-8},
    "mesh-indep": {"kind": "mesh-indep", "preset": "sine",
                   "levels": [3, 4, 5, 6], "eps": 1e-6,
                   "tau_proxy_level": 7},
}

SOLVE_MAX_ITERS = 10_000       # `pdeabcd solve --max-iters` default
MESH_INDEP_MAX_ITERS = 50_000  # `pdeabcd mesh-indep --max-iters` default


@dataclass
class Answer:
    """What a workload hands back: the program's outputs and the sweeps."""

    iterations: int
    record: object = None
    cert: object = None
    bound_ok: bool = True
    report: object = None


def setup(spec: dict):
    """Build the workload's instance; ``mesh-indep`` builds its own."""
    if spec["kind"] == "mesh-indep":
        return None
    from pdeabcd import presets

    return presets.make_instance(spec["preset"], spec["level"], alpha=None,
                                 beta=None, box=None, gamma=4.0)


def run(spec: dict, inst) -> Answer:
    """The solver calls of the workload, up to the answer."""
    from pdeabcd import analysis, dual_solver

    if spec["kind"] == "mesh-indep":
        report = analysis.mesh_independence_experiment(
            spec["preset"], spec["levels"], spec["eps"], jobs=1,
            run_max_iters=MESH_INDEP_MAX_ITERS, timing=False,
            tau_proxy_level=spec["tau_proxy_level"], alpha=None, beta=None,
            box=None)
        return Answer(iterations=sum(r.iters_to_eps for r in report.rows),
                      report=report)

    config = dual_solver.SolverConfig(max_iters=SOLVE_MAX_ITERS,
                                      tol=spec["tol"], timing=False)
    record = dual_solver.solve(inst, config)
    if spec["kind"] == "solve":
        return Answer(iterations=record.iterations, record=record)

    if inst.n > analysis.ORACLE_CAP:
        raise ValueError(f"certify needs a level under ORACLE_CAP, "
                         f"got n={inst.n}")
    _, cert = analysis.certified_preset_optimum(spec["preset"], spec["level"])
    z0 = dual_solver.DualIterate.for_instance(inst)
    tau_h = analysis.compute_tau_h(inst, z0, cert.z_star)
    bound_ok, _ = analysis.verify_complexity_bound(record, tau_h,
                                                   cert.phi_star)
    return Answer(iterations=record.iterations + cert.z_star.k,
                  record=record, cert=cert, bound_ok=bound_ok)


def check(spec: dict, inst, answer: Answer) -> list[str]:
    """Failure messages for the answer; empty when every check passes."""
    from perfbench import checks

    kind = spec["kind"]
    if kind == "mesh-indep":
        rows = answer.report.rows
        fails = checks.check_flat_counts([r.iters_to_eps for r in rows])
        fails += checks.check_h2_shrinkage([r.level for r in rows],
                                           [r.phi_star for r in rows])
        if not answer.report.passed:
            fails.append("the experiment reports a failure")
        return fails

    prob = checks.Problem(inst)
    record = answer.record
    fails = [] if record.converged else \
        [f"solve stopped by {record.stop_reason} at k={record.iterations}"]
    if kind == "solve":
        return fails + checks.check_gap(prob, *record.final.blocks(),
                                     GAP_SHARE * spec["tol"])

    cert = answer.cert
    fails += checks.check_certificate(prob, cert.u_star, *cert.z_star.blocks())
    zero = 0.0 * cert.z_star.lam
    tau = prob.tau(zero, zero, cert.z_star.lam, cert.z_star.mu)
    fails += checks.check_value_bound(record.ks, record.phi, tau,
                                      -prob.primal(cert.u_star))
    if not answer.bound_ok:
        fails.append("the program's own value-bound check failed")
    return fails
