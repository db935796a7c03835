"""Spans around the public functions of each ``pdeabcd`` module.

The tracer wraps functions from outside the package: every binding of a
wrapped function in any loaded ``pdeabcd`` module is replaced (``oracle``
imports ``factorize_indefinite`` by name, ``presets`` imports ``assemble``,
``analysis`` imports ``prolongate_nodal`` and ``power_iteration_extremes``),
and methods are wrapped on their class.  Spans stay in memory; one trace id
covers one repetition, which runs in its own interpreter.

``layer_metrics`` turns the spans into the per-layer numbers listed in
``BENCHMARK.json``.  A target that no longer exists in the package is
skipped when patching and its metrics are reported as absent (value 0).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (span name, module, attribute path); "Class.method" is patched on the class
TARGETS = [
    ("mesh.build", "mesh", "build_unit_square_mesh"),
    ("mesh.prolongate", "mesh", "prolongate_nodal"),
    ("assembly.assemble", "assembly", "assemble"),
    ("presets.make_instance", "presets", "make_instance"),
    ("sparse_linalg.spd_factor", "sparse_linalg", "factorize_spd"),
    ("sparse_linalg.factorize_indefinite", "sparse_linalg",
     "factorize_indefinite"),
    ("sparse_linalg.saddle_factor", "sparse_linalg", "AugmentedSolver.__init__"),
    ("sparse_linalg.saddle_solve", "sparse_linalg",
     "AugmentedSolver.solve_with_multiplier"),
    ("sparse_linalg.factor_solve", "sparse_linalg", "Factorization.solve"),
    ("sparse_linalg.power_iteration", "sparse_linalg",
     "power_iteration_extremes"),
    ("dual_solver.solve", "dual_solver", "solve"),
    ("dual_solver.step_phat", "dual_solver", "step_phat"),
    ("dual_solver.step_lambda", "dual_solver", "step_lambda"),
    ("dual_solver.step_p", "dual_solver", "step_p"),
    ("dual_solver.step_mu", "dual_solver", "step_mu"),
    ("dual_solver.recover_primal", "dual_solver", "recover_primal"),
    ("dual_solver.kkt_residual", "dual_solver", "kkt_residual"),
    ("dual_solver.dual_objective", "dual_solver", "dual_objective"),
    ("dual_solver.primal_value", "dual_solver", "primal_value"),
    ("oracle.admm", "oracle", "admm_reference"),
    ("oracle.certify", "oracle", "certified_optimum"),
    ("analysis.lam_max", "analysis", "lam_max_majorizer"),
    ("analysis.reference", "analysis", "reference_solution"),
    ("analysis.tau", "analysis", "compute_tau_h"),
    ("analysis.prolongated_start", "analysis", "prolongated_start"),
]

STEPS = ("dual_solver.step_phat", "dual_solver.step_lambda",
         "dual_solver.step_p", "dual_solver.step_mu")
DIAGNOSTICS = ("dual_solver.recover_primal", "dual_solver.kkt_residual",
               "dual_solver.dual_objective", "dual_solver.primal_value")
MODULES = ("mesh", "assembly", "presets", "sparse_linalg", "dual_solver",
           "oracle", "analysis", "bench")

# per-layer metric -> (unit, the targets it needs)
LAYER_METRICS = {
    "mesh.build_calls": ("count", ["mesh.build"]),
    "mesh.build_s": ("s", ["mesh.build"]),
    "mesh.prolongate_calls": ("count", ["mesh.prolongate"]),
    "mesh.prolongate_s": ("s", ["mesh.prolongate"]),
    "presets.make_instance_calls": ("count", ["presets.make_instance"]),
    "presets.make_instance_s": ("s", ["presets.make_instance"]),
    "assembly.assemble_calls": ("count", ["assembly.assemble"]),
    "assembly.assemble_s": ("s", ["assembly.assemble"]),
    "sparse_linalg.saddle_factor_calls": ("count",
                                          ["sparse_linalg.saddle_factor"]),
    "sparse_linalg.saddle_factor_s": ("s", ["sparse_linalg.saddle_factor"]),
    "sparse_linalg.saddle_fill_nnz": ("count", [
        "sparse_linalg.saddle_factor", "sparse_linalg.factorize_indefinite"]),
    "sparse_linalg.spd_factor_calls": ("count",
                                       ["sparse_linalg.spd_factor"]),
    "sparse_linalg.spd_factor_s": ("s", ["sparse_linalg.spd_factor"]),
    "sparse_linalg.spd_fill_nnz": ("count", ["sparse_linalg.spd_factor"]),
    "sparse_linalg.saddle_solve_calls": ("count",
                                         ["sparse_linalg.saddle_solve"]),
    "sparse_linalg.saddle_solve_ms": ("ms", ["sparse_linalg.saddle_solve"]),
    "sparse_linalg.spd_solve_calls": ("count", ["sparse_linalg.factor_solve"]),
    "sparse_linalg.spd_solve_ms": ("ms", ["sparse_linalg.factor_solve"]),
    "sparse_linalg.power_iteration_calls": ("count",
                                            ["sparse_linalg.power_iteration"]),
    "sparse_linalg.power_iteration_s": ("s",
                                        ["sparse_linalg.power_iteration"]),
    "dual_solver.solve_calls": ("count", ["dual_solver.solve"]),
    "dual_solver.sweeps": ("count", ["dual_solver.step_mu"]),
    "dual_solver.sweep_ms": ("ms", list(STEPS)),
    "dual_solver.diag_calls": ("count", list(DIAGNOSTICS)),
    "dual_solver.diag_s": ("s", list(DIAGNOSTICS)),
    "dual_solver.diag_per_iteration": ("calls/sweep", list(DIAGNOSTICS)
                                       + ["dual_solver.solve",
                                          "dual_solver.step_mu"]),
    "oracle.admm_calls": ("count", ["oracle.admm"]),
    "oracle.admm_s": ("s", ["oracle.admm"]),
    "oracle.admm_iterations": ("count", ["oracle.admm"]),
    "oracle.refactor_calls": ("count", [
        "oracle.admm", "sparse_linalg.factorize_indefinite"]),
    "oracle.refactor_s": ("s", [
        "oracle.admm", "sparse_linalg.factorize_indefinite"]),
    "oracle.certify_s": ("s", ["oracle.certify"]),
    "oracle.cross_iterations": ("count", ["oracle.certify"]),
    "analysis.lam_max_calls": ("count", ["analysis.lam_max"]),
    "analysis.lam_max_s": ("s", ["analysis.lam_max"]),
    "analysis.reference_calls": ("count", ["analysis.reference"]),
    "analysis.reference_s": ("s", ["analysis.reference"]),
    "analysis.tau_s": ("s", ["analysis.tau"]),
    "analysis.prolongated_start_s": ("s", ["analysis.prolongated_start"]),
    **{f"{m}.self_s": ("s", []) for m in MODULES},
    "trace.spans": ("count", []),
}


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _record_result(name: str, args, result, info: dict) -> None:
    """Counts read at the span boundary from public fields of the result."""
    if name in ("sparse_linalg.spd_factor",
                "sparse_linalg.factorize_indefinite"):
        info["fill_nnz"] = int(result.fill_nnz)
    elif name == "sparse_linalg.factor_solve":
        info["kind"] = args[0].kind
    elif name == "oracle.admm":
        info["iterations"] = int(result.iterations)
    elif name == "oracle.certify":
        info["cross_iterations"] = int(result.z_star.k)


class Tracer:
    """In-memory span recorder for one repetition."""

    def __init__(self, trace_id: int = 0):
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.absent: list[str] = []

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, parent, time.perf_counter()))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            _record_result(name, args, result, self.spans[idx].info)
            return result

        return traced

    def install(self, package: str = "pdeabcd") -> None:
        """Patch every binding of every target in the package."""
        for _, module, _ in TARGETS:
            try:
                importlib.import_module(f"{package}.{module}")
            except ImportError:
                pass
        loaded = [m for key, m in sorted(sys.modules.items())
                  if m is not None
                  and (key == package or key.startswith(package + "."))]
        for name, module, attr in TARGETS:
            owner = sys.modules.get(f"{package}.{module}")
            path = attr.split(".")
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None) \
                if owner is not None else None
            if original is None or (len(path) > 1 and path[-1] not in
                                    vars(owner)):
                self.absent.append(name)
                continue
            wrapped = self.wrap(name, original)
            if len(path) > 1:
                setattr(owner, path[-1], wrapped)
                continue
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def _has_ancestor(self, span: Span, names) -> bool:
        parent = span.parent
        while parent is not None:
            if self.spans[parent].name in names:
                return True
            parent = self.spans[parent].parent
        return False

    def layer_metrics(self) -> dict[str, float]:
        """Aggregate the spans into the per-layer metrics."""
        by_name: dict[str, list[Span]] = {}
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            by_name.setdefault(span.name, []).append(span)
            if span.parent is not None:
                child_s[span.parent] += span.seconds

        def spans(*names, under=None):
            found = [s for name in names for s in by_name.get(name, ())]
            if under is None:
                return found
            return [s for s in found if self._has_ancestor(s, under)]

        def seconds(found):
            return sum(s.seconds for s in found)

        def mean_ms(found):
            return 1e3 * seconds(found) / max(len(found), 1)

        def info(found, key):
            return sum(s.info.get(key, 0) for s in found)

        out: dict[str, float] = {}
        for name in ("mesh.build", "mesh.prolongate", "presets.make_instance",
                     "assembly.assemble", "sparse_linalg.saddle_factor",
                     "sparse_linalg.spd_factor",
                     "sparse_linalg.power_iteration", "oracle.admm",
                     "analysis.lam_max", "analysis.reference"):
            out[f"{name}_calls"] = len(spans(name))
            out[f"{name}_s"] = seconds(spans(name))

        out["sparse_linalg.saddle_fill_nnz"] = info(spans(
            "sparse_linalg.factorize_indefinite",
            under={"sparse_linalg.saddle_factor"}), "fill_nnz")
        out["sparse_linalg.spd_fill_nnz"] = info(
            spans("sparse_linalg.spd_factor"), "fill_nnz")
        saddle = spans("sparse_linalg.saddle_solve")
        spd = [s for s in spans("sparse_linalg.factor_solve")
               if s.info["kind"] == "spd"]
        out["sparse_linalg.saddle_solve_calls"] = len(saddle)
        out["sparse_linalg.saddle_solve_ms"] = mean_ms(saddle)
        out["sparse_linalg.spd_solve_calls"] = len(spd)
        out["sparse_linalg.spd_solve_ms"] = mean_ms(spd)

        sweeps = len(spans("dual_solver.step_mu"))
        top_steps = [s for s in spans(*STEPS)
                     if not self._has_ancestor(s, STEPS)]
        diag = spans(*DIAGNOSTICS)
        out["dual_solver.solve_calls"] = len(spans("dual_solver.solve"))
        out["dual_solver.sweeps"] = sweeps
        out["dual_solver.sweep_ms"] = 1e3 * seconds(top_steps) / max(sweeps, 1)
        out["dual_solver.diag_calls"] = len(diag)
        out["dual_solver.diag_s"] = seconds(diag)
        out["dual_solver.diag_per_iteration"] = len(spans(
            *DIAGNOSTICS, under={"dual_solver.solve"})) / max(sweeps, 1)

        refactor = spans("sparse_linalg.factorize_indefinite",
                         under={"oracle.admm"})
        out["oracle.admm_iterations"] = info(spans("oracle.admm"),
                                             "iterations")
        out["oracle.refactor_calls"] = len(refactor)
        out["oracle.refactor_s"] = seconds(refactor)
        out["oracle.certify_s"] = seconds(spans("oracle.certify"))
        out["oracle.cross_iterations"] = info(spans("oracle.certify"),
                                              "cross_iterations")
        out["analysis.tau_s"] = seconds(spans("analysis.tau"))
        out["analysis.prolongated_start_s"] = seconds(
            spans("analysis.prolongated_start"))

        for module in MODULES:
            out[f"{module}.self_s"] = sum(
                span.seconds - child_s[i] for i, span in enumerate(self.spans)
                if span.name.split(".")[0] == module)
        out["trace.spans"] = len(self.spans)
        return out

    def absent_metrics(self) -> list[str]:
        """Per-layer metrics whose wrapped functions no longer exist."""
        missing = set(self.absent)
        return sorted(name for name, (_, needs) in LAYER_METRICS.items()
                      if missing.intersection(needs))
