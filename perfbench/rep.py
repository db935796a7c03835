"""One repetition of a workload, in a fresh interpreter.

Usage: ``python3 -m perfbench.rep SPEC_JSON MODE TRACE_ID`` from the root of
a checkout, with ``src`` on ``PYTHONPATH``.  ``MODE`` is ``setup`` (import
and instance only), ``run`` or ``trace``.  Prints one JSON object.

Only the standard library is imported before the timer starts, so
``setup_s`` covers ``import pdeabcd`` with numpy and scipy.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from contextlib import nullcontext


def main(argv: list[str]) -> int:
    spec = json.loads(argv[0])
    mode = argv[1]
    trace_id = int(argv[2])
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))

    t0 = time.perf_counter()
    import pdeabcd

    if not os.path.realpath(pdeabcd.__file__).startswith(src + os.sep):
        print(f"pdeabcd imported from {pdeabcd.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    from perfbench import workloads

    tracer = None
    span = lambda name: nullcontext()  # noqa: E731
    if mode == "trace":
        from perfbench.tracer import Tracer

        tracer = Tracer(trace_id)
        tracer.install()
        span = tracer.span
        t0 = time.perf_counter()

    out: dict = {"trace_id": trace_id}
    try:
        with span("bench.setup"):
            inst = workloads.setup(spec)
        t1 = time.perf_counter()
        out["setup_s"] = t1 - t0
        if mode == "setup":
            print(json.dumps(out))
            return 0
        with span("bench.run"):
            answer = workloads.run(spec, inst)
        out["solve_s"] = time.perf_counter() - t1
        out["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["iterations"] = int(answer.iterations)
        out["failed_checks"] = workloads.check(spec, inst, answer)
    except Exception as err:  # a failed operation, reported to the parent
        traceback.print_exc()
        out["error"] = f"{type(err).__name__}: {err}"

    import numpy
    import scipy

    out["versions"] = {"python": sys.version.split()[0],
                       "numpy": numpy.__version__, "scipy": scipy.__version__}
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["absent"] = tracer.absent_metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
