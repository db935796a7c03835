#!/usr/bin/env python3
"""Drive the full experiment suite through the command line interface.

Reproduces everything the acceptance tests measure, with artifacts on
disk: per-preset solves with the decay-bound check, the mesh-independence
study, and the discretization checks.  Results land under results/
(override with --results).  Exit status is nonzero when any stage fails,
so the script doubles as a smoke test for a fresh checkout.
"""

import argparse
import pathlib
import subprocess
import sys


def run(argv, outdir):
    print("+", " ".join(argv))
    proc = subprocess.run([sys.executable, "-m", "pdeabcd.cli", *argv,
                           "--out", str(outdir)])
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description="run all experiments")
    parser.add_argument("--results", default="results")
    parser.add_argument("--fast", action="store_true",
                        help="trim levels for a quick pass")
    args = parser.parse_args()
    root = pathlib.Path(args.results)
    failures = 0

    solve_levels = [2, 3] if args.fast else [2, 3, 4]
    for preset in ["zero", "sine", "shifted"]:
        for level in solve_levels:
            outdir = root / f"solve_{preset}_L{level}"
            outdir.mkdir(parents=True, exist_ok=True)
            rc = run(["solve", "--preset", preset, "--level", str(level),
                      "--tol", "1e-10", "--check-bound"], outdir)
            failures += rc != 0

    mi_levels = "3,4,5" if args.fast else "3,4,5,6"
    outdir = root / "mesh_indep_sine"
    outdir.mkdir(parents=True, exist_ok=True)
    rc = run(["mesh-indep", "--preset", "sine", "--levels", mi_levels,
              "--eps", "1e-6", "--tau-proxy-level", "7"], outdir)
    failures += rc != 0

    outdir = root / "checks"
    outdir.mkdir(parents=True, exist_ok=True)
    rc = run(["checks", "--levels", "2,3,4", "--samples", "1000"], outdir)
    failures += rc != 0

    print(f"done: {failures} failing stage(s), artifacts under {root}/")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
