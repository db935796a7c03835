"""Benchmark entry point.

    python3 perfbench/run.py --workload solve-L8 --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  Every repetition runs in a fresh
interpreter (``perfbench.rep``), so module-level memos and per-operator
factorization caches of ``pdeabcd`` never carry over between repetitions.
Repetitions run one after another until ``--seconds`` have passed, at least
one.  With ``--trace 0`` a few set-up-only interpreters run first, and the
last line of output reports the end-to-end metrics as medians; with
``--trace 1`` untraced and traced repetitions alternate and the last line
reports the per-layer metrics of the traced ones, plus the tracing overhead.

The inputs are deterministic presets: ``--seed`` is recorded but changes
nothing.  BLAS thread variables are read and printed, never set.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.tracer import LAYER_METRICS  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 3
DEADLINE_S = 170.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "iterations": "count",
                    "peak_rss_mb": "MB"}


class HarnessError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


def _child(spec: dict, mode: str, trace_id: int, deadline: float) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("out of time before a repetition could start")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.rep", json.dumps(spec), mode,
             str(trace_id)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"repetition {trace_id} ran past the deadline") \
            from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise HarnessError(f"repetition {trace_id} exited with "
                           f"{proc.returncode} and no result")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(lines[-1])


def run_workload(spec: dict, seconds: float, trace: bool,
                 deadline: float) -> dict:
    """Run probes and repetitions; return the raw per-process results."""
    probes = [] if trace else [_child(spec, "setup", -1 - i, deadline)
                               for i in range(SETUP_PROBES)]
    reps = []
    start = time.monotonic()
    while True:
        modes = ("run", "trace") if trace else ("run",)
        for mode in modes:
            rep = _child(spec, mode, len(reps), deadline)
            rep["mode"] = mode
            reps.append(rep)
        if time.monotonic() - start >= seconds:
            break
    return {"probes": probes, "reps": reps}


def summarize(raw: dict, trace: bool) -> dict:
    """The result object printed as the last line."""
    reps = raw["reps"]
    failed = [r for r in reps if "error" in r or r.get("failed_checks")]
    wrong = [r for r in reps if r.get("failed_checks")]
    timed = [r for r in reps if "error" not in r]
    if not timed:
        raise HarnessError("every repetition raised: "
                           + "; ".join(r["error"] for r in reps))

    def median(key, rows):
        return statistics.median(r[key] for r in rows)

    metrics = {}
    if trace:
        traced = [r for r in timed if r["mode"] == "trace"]
        plain = [r for r in timed if r["mode"] == "run"]
        if not traced or not plain:
            raise HarnessError("need one traced and one untraced repetition")
        for name, (unit, _) in LAYER_METRICS.items():
            value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead_s"] = {
            "value": median("solve_s", traced) - median("solve_s", plain),
            "unit": "s"}
    else:
        metrics["setup_s"] = {
            "value": statistics.median(
                [p["setup_s"] for p in raw["probes"] if "setup_s" in p]
                + [r["setup_s"] for r in timed]),
            "unit": "s"}
        for name in ("solve_s", "iterations", "peak_rss_mb"):
            metrics[name] = {"value": median(name, timed),
                             "unit": END_TO_END_UNITS[name]}
    return {"correct": not wrong, "attempted": len(reps),
            "failed": len(failed), "metrics": metrics}


def environment(raw: dict, seed: int) -> dict:
    versions = next((r["versions"] for r in raw["reps"] if "versions" in r),
                    {})
    return {"seed": seed, "cpu_count": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "blas_vars": {v: os.environ.get(v) for v in BLAS_VARS},
            **versions}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "pdeabcd", "__init__.py")):
        print(f"error: no pdeabcd sources under {ROOT}/src", file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    try:
        raw = run_workload(spec, args.seconds, bool(args.trace), deadline)
        result = summarize(raw, bool(args.trace))
    except HarnessError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    print(f"workload={args.workload} spec={json.dumps(spec)}")
    print(f"env={json.dumps(environment(raw, args.seed))}")
    for p in raw["probes"]:
        print(f"probe: {json.dumps(p)}")
    for r in raw["reps"]:
        fields = {k: r[k] for k in ("mode", "setup_s", "solve_s",
                                    "iterations", "peak_rss_mb", "error",
                                    "failed_checks", "absent") if k in r}
        print(f"rep {r['trace_id']}: {json.dumps(fields)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
