#!/usr/bin/env python3
"""Pin certified optimal values into the package golden file.

For every preset this runs a long dual solve, then the splitting oracle
started where that solve ended, and records J* only when the two routes
agree (oracle.certified_optimum); a disagreement aborts the script instead
of writing a stale value.  The result lands in src/pdeabcd/data/golden.json
and is asserted by the test suite, so optima are pinned by computation,
never typed in by hand.  The ``iterations`` field counts the seeded
oracle's iterations, so it is far below the count of a start from zero.
"""

import argparse
import json
import pathlib

from pdeabcd import oracle
from pdeabcd.presets import PRESETS, make_instance


def main():
    parser = argparse.ArgumentParser(
        description="recompute and pin certified preset optima")
    parser.add_argument("--level", type=int, default=2)
    parser.add_argument("--tol", type=float, default=1e-10)
    parser.add_argument("--out", default=None,
                        help="target path (default: the package data file)")
    args = parser.parse_args()

    if args.out is None:
        root = pathlib.Path(__file__).resolve().parents[1]
        out = root / "src" / "pdeabcd" / "data" / "golden.json"
    else:
        out = pathlib.Path(args.out)

    entries = {}
    for name in sorted(PRESETS):
        prob = make_instance(name, args.level)
        cert = oracle.certified_optimum(prob, tol=args.tol)
        entries[name] = {
            "level": args.level,
            "J_star": cert.j_star,
            "iterations": cert.oracle.iterations,
            "tol": args.tol,
        }
        print(f"{name:8s} J*={cert.j_star!r} "
              f"cross_gap={abs(cert.cross_phi + cert.j_star):.3e} "
              f"oracle_iters={cert.oracle.iterations}")

    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as fh:
        json.dump(entries, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
