"""Command-line entry point.

Three subcommands: ``solve`` runs the accelerated dual solver on one
preset instance and writes a per-iteration CSV plus a JSON summary;
``mesh-indep`` measures iterations-to-accuracy across a mesh hierarchy;
``checks`` runs the randomized matrix and norm property suites.

This module is the package's one output stage: the library computes and
returns, and every file is written here, under ``--out``, which is created
before any work starts.  CSV cells are the ``repr`` of the Python scalar,
so floats round-trip; JSON is sorted and strict (a NaN or an infinity
raises instead of being written).

Exit codes: 0 all good, 2 bad input (a value that a rule of the library
or of this module rejects with ``InputError``, an ``--out`` that cannot be
created, or ``--dump-mesh``/``--dump-matrices`` without ``--out``; an
``--out`` that the refused run created is removed again), 3
solver divergence, 4 a checked criterion failed; any other exception
propagates.  Output files are byte-identical across repeated runs with the
same flags; wall-clock columns are only filled under --timing.  The
PDEABCD_SEED environment variable fixes the seed of the randomized check
suites.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import analysis, dual_solver
from .dual_solver import DivergenceError, SolverConfig
from .mesh import InputError, check_alpha, mesh_to_dict
from .presets import make_instance, preset_names


def _parse_box(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"box must be 'a,b', got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"box must be two floats, got {text!r}") from None
    return a, b


def _parse_levels(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"levels must be comma-separated integers, got {text!r}"
        ) from None


def _env_seed() -> int:
    raw = os.environ.get("PDEABCD_SEED", "0")
    try:
        seed = int(raw)
        if seed >= 0:
            return seed
    except ValueError:
        pass
    raise InputError(f"PDEABCD_SEED must be a nonnegative integer, "
                     f"got {raw!r}")


def load_config_tokens(path: str, bool_keys: set[str]) -> list[str]:
    """Read a plain key=value config file into flag tokens.

    Keys mirror the long flags one to one (dashes or underscores); lines
    starting with '#' and blank lines are skipped.  The ``bool_keys``, the
    names of the ``store_true`` flags, accept true/false style values.
    Each value is emitted as one ``--key=value`` token, so a value that
    starts with '-' is not read as a flag.  Command-line flags override
    the file because file tokens are injected before them.
    """
    tokens: list[str] = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(
                    f"{path}:{lineno}: expected key=value, got {line!r}")
            key, val = line.split("=", 1)
            key = key.strip().replace("_", "-")
            val = val.strip()
            if key == "config":
                raise InputError(f"{path}:{lineno}: config cannot nest")
            if key in bool_keys:
                low = val.lower()
                if low in ("1", "true", "yes", "on"):
                    tokens.append(f"--{key}")
                elif low in ("0", "false", "no", "off"):
                    pass
                else:
                    raise InputError(
                        f"{path}:{lineno}: boolean key {key} got {val!r}")
            else:
                tokens.append(f"--{key}={val}")
    return tokens


def _inject_config(argv: list[str],
                   parser: argparse.ArgumentParser) -> list[str]:
    """Splice config-file tokens after the subcommand; flags win."""
    pre = argparse.ArgumentParser(prog="pdeabcd", add_help=False,
                                  allow_abbrev=False)
    pre.add_argument("--config")
    known, rest = pre.parse_known_args(argv)
    if known.config is None or not rest:
        return argv
    tokens = load_config_tokens(known.config, _store_true_keys(parser))
    return [rest[0]] + tokens + rest[1:]


def _store_true_keys(parser: argparse.ArgumentParser) -> set[str]:
    """The long names of every subcommand's ``store_true`` flags."""
    subs = next(act for act in parser._actions
                if isinstance(act, argparse._SubParsersAction))
    return {act.option_strings[0][2:] for sub in subs.choices.values()
            for act in sub._actions
            if isinstance(act, argparse._StoreTrueAction)}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key=value file mirroring the flags; "
                     "explicit flags win")
    sub.add_argument("--out", help="directory for output files")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdeabcd",
        description="Accelerated dual solver for L1-sparse elliptic "
        "optimal control, with mesh experiments and property checks.",
        epilog="Environment: PDEABCD_SEED fixes the seed of the "
        "randomized check suites (default 0).",
        allow_abbrev=False)
    subs = parser.add_subparsers(dest="command", required=True)

    sv = subs.add_parser("solve", help="run the solver on one instance",
                         allow_abbrev=False)
    sv.add_argument("--preset", required=True, choices=preset_names())
    sv.add_argument("--level", type=int, default=4,
                    help="dyadic mesh level (default 4)")
    sv.add_argument("--alpha", type=float, default=None)
    sv.add_argument("--beta", type=float, default=None)
    sv.add_argument("--box", type=_parse_box, default=None,
                    metavar="A,B", help="control bounds a,b")
    sv.add_argument("--tol", type=float, default=1e-6,
                    help="KKT residual stop (default 1e-6)")
    sv.add_argument("--max-iters", type=int, default=10_000)
    sv.add_argument("--restart", action="store_true",
                    help="reset the momentum when a step turns against the "
                    "last move (fewer sweeps; the value bound is proven "
                    "only for the default unrestarted scheme)")
    sv.add_argument("--check-bound", action="store_true",
                    help="verify the accelerated value bound along the run "
                    "against a certified optimum")
    sv.add_argument("--dump-mesh", action="store_true",
                    help="write mesh.json next to the run outputs "
                    "(needs --out)")
    sv.add_argument("--dump-matrices", action="store_true",
                    help="write K.mtx, M.mtx, W.txt next to the run outputs "
                    "(needs --out)")
    _add_common(sv)
    sv.set_defaults(func=run_solve)

    mi = subs.add_parser("mesh-indep",
                         help="iterations-to-accuracy across mesh levels",
                         allow_abbrev=False)
    mi.add_argument("--preset", required=True, choices=preset_names())
    mi.add_argument("--levels", type=_parse_levels, default=[3, 4, 5, 6],
                    metavar="L1,L2,...", help="mesh levels (default 3,4,5,6)")
    mi.add_argument("--eps", type=float, default=1e-6,
                    help="relative objective accuracy (default 1e-6)")
    mi.add_argument("--alpha", type=float, default=None)
    mi.add_argument("--beta", type=float, default=None)
    mi.add_argument("--box", type=_parse_box, default=None, metavar="A,B")
    mi.add_argument("--max-iters", type=int, default=50_000,
                    help="per-level iteration cap (default 50000)")
    mi.add_argument("--tau-proxy-level", type=int, default=None,
                    help="also fit tau_h <= tau_proxy + C h with the proxy "
                    "taken at this level")
    _add_common(mi)
    mi.set_defaults(func=run_mesh_independence)

    for sub in (sv, mi):
        sub.add_argument("--timing", action="store_true",
                         help="fill wall-clock columns (breaks byte-for-byte "
                         "determinism of outputs)")

    ck = subs.add_parser("checks",
                         help="randomized matrix/norm/spectral properties",
                         allow_abbrev=False)
    ck.add_argument("--levels", type=_parse_levels, default=[2, 3, 4],
                    metavar="L1,L2,...", help="mesh levels (default 2,3,4)")
    ck.add_argument("--samples", type=int, default=1000,
                    help="random vectors per level (default 1000)")
    ck.add_argument("--alpha", type=float, default=1e-2)
    _add_common(ck)
    ck.set_defaults(func=run_checks)

    return parser


def _cell(x) -> str:
    """One CSV cell: the repr of the Python scalar, so floats round-trip."""
    return repr(x.item() if isinstance(x, np.generic) else x)


def _csv(rows, header: str | None = None) -> str:
    """CSV text with line ends, the header first when given."""
    lines = [header] if header else []
    lines += [",".join(map(_cell, row)) for row in rows]
    return "".join(f"{line}\n" for line in lines)


def _json(obj, indent: int | None = 2) -> str:
    """Sorted JSON text with a line end; a NaN or infinity raises."""
    return json.dumps(obj, indent=indent, sort_keys=True,
                      allow_nan=False) + "\n"


def _write(outdir: str, name: str, text: str) -> None:
    path = os.path.join(outdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    print(f"wrote {path}")


def run_solve(args) -> int:
    if args.restart and args.check_bound:
        raise InputError("--restart cannot be combined with --check-bound: "
                         "the value bound is proven only for the "
                         "unrestarted scheme")
    if (args.dump_mesh or args.dump_matrices) and not args.out:
        raise InputError("--dump-mesh and --dump-matrices write files, so "
                         "they need --out")
    inst = make_instance(args.preset, args.level, alpha=args.alpha,
                         beta=args.beta, box=args.box)
    config = SolverConfig(max_iters=args.max_iters, tol=args.tol,
                          timing=args.timing, restart=args.restart)
    record = dual_solver.solve(inst, config)

    print(f"preset={inst.name} level={args.level} n={inst.n} "
          f"alpha={inst.alpha!r} beta={inst.beta!r} "
          f"box=[{inst.box[0]!r},{inst.box[1]!r}] gamma={inst.gamma!r}")

    bound_ok = True
    bound_fields = {}
    if args.check_bound:
        z_star, phi_star = analysis.reference_optimum(inst)
        z0 = dual_solver.DualIterate.for_instance(inst)
        tau_h = analysis.compute_tau_h(inst, z0, z_star)
        bound_ok, margin = analysis.verify_complexity_bound(
            record, tau_h, phi_star)
        bound_fields = {"phi_star": phi_star, "tau_h": tau_h,
                        "bound_ok": bool(bound_ok),
                        "bound_min_margin": margin}
        verdict = "PASS" if bound_ok else "FAIL"
        print(f"bound check: {verdict} tau_h={tau_h!r} "
              f"min_margin={margin!r}")
    summary = record.summary(inst)
    summary.update(bound_fields)

    print(f"converged={summary['converged']} "
          f"iterations={summary['iterations']} "
          f"stop_reason={summary['stop_reason']} "
          f"restarts={summary['restarts']}")
    print(f"kkt={summary['kkt']!r} phi={summary['phi']!r} "
          f"gap={summary['gap']!r}")

    if args.out:
        _write(args.out, "record.csv", _csv(
            zip(record.ks, record.phi, record.kkt, record.gap,
                record.time_s), header="k,phi,kkt,gap,time_s"))
        summary.update(preset=inst.name, level=int(args.level),
                       n_interior=int(inst.n), alpha=inst.alpha,
                       beta=inst.beta, box=list(inst.box), gamma=inst.gamma,
                       tol=args.tol, max_iters=int(args.max_iters))
        _write(args.out, "summary.json", _json(summary))
        ops = inst.ops
        if args.dump_mesh:
            _write(args.out, "mesh.json",
                   _json(mesh_to_dict(ops.mesh), indent=None))
        if args.dump_matrices:
            import scipy.io

            for name, mat in (("K.mtx", ops.K), ("M.mtx", ops.M)):
                path = os.path.join(args.out, name)
                scipy.io.mmwrite(path, mat.tocoo())
                print(f"wrote {path}")
            _write(args.out, "W.txt",
                   _csv([w] for w in ops.restrict(ops.W_full)))

    return 0 if bound_ok else 4


def run_mesh_independence(args) -> int:
    if len(args.levels) < 3:
        raise InputError("--levels needs at least three levels")
    report = analysis.mesh_independence_experiment(
        args.preset, args.levels, args.eps,
        run_max_iters=args.max_iters, timing=args.timing,
        tau_proxy_level=args.tau_proxy_level, alpha=args.alpha,
        beta=args.beta, box=args.box)

    table = _csv(((r.level, r.h, r.n_interior, r.iters_to_eps, r.tau_h,
                   r.lam_max_sh, r.phi_star, r.seconds)
                  for r in report.rows),
                 header="level,h,n_interior,iters_to_eps,tau_h,lam_max_Sh,"
                 "phi_star,seconds")
    print(table, end="")
    print(f"median_iters={report.median_iters!r} passed={report.passed}")
    if report.fitted_c is not None:
        print(f"tau_proxy={report.tau_proxy!r} fitted_C={report.fitted_c!r}")

    if args.out:
        _write(args.out, "mesh_indep.csv", table)
        _write(args.out, "mesh_indep.json", _json(report.to_json_dict()))

    return 0 if report.passed else 4


def run_checks(args) -> int:
    if len(args.levels) < 3:
        raise InputError("--levels needs at least three levels")
    seed = _env_seed()

    # the --alpha rule, then the sampling suites' --samples rule, before
    # any work; each check seeds its own generator, so their order is free
    check_alpha(args.alpha)
    analysis.check_samples(args.samples)
    spectral = analysis.spectral_scaling_report(args.levels, alpha=args.alpha)
    spect = spectral.checks()
    sandwich = analysis.lumped_mass_comparison_check(
        args.levels, samples=args.samples, seed=seed)
    l1 = analysis.l1_gap_check(args.levels, samples=args.samples, seed=seed)
    opb = analysis.operator_bound_check(args.levels, alpha=args.alpha)

    rows = [
        ("norm-sandwich", sandwich["passed"],
         f"violations={sandwich['violations']} "
         f"gamma={sandwich['gamma']!r}"),
        ("l1-overshoot", l1["passed"],
         f"fitted_C={l1['fitted_C']!r}"),
        ("mass-spectrum", spect["mass_max_window2"]
         and spect["mass_min_window2"], "factor-2 window on lam(M)/h^2"),
        ("stiffness-spectrum", spect["stiffness_min_window2"]
         and spect["stiffness_max_stable"],
         "lam_min(K)/h^2 window, lam_max(K) stable"),
        ("majorizer-spectrum", spect["majorizer_window2"]
         and spect["majorizer_decreasing"],
         "factor-2 window on lam_max(Sh)/h^2, decreasing in h"),
        ("coupled-operator", opb["passed"],
         "h^2 scaling windows for M + alpha K M^-1 K"),
    ]
    all_ok = True
    for name, ok, detail in rows:
        verdict = "PASS" if ok else "FAIL"
        all_ok = all_ok and bool(ok)
        print(f"{name:20s} {verdict}  {detail}")
    print(f"checks={'PASS' if all_ok else 'FAIL'} levels={args.levels} "
          f"samples={args.samples} seed={seed}")

    if args.out:
        payload = {
            "levels": list(args.levels),
            "samples": int(args.samples),
            "seed": int(seed),
            "gamma": sandwich["gamma"],
            "alpha": args.alpha,
            "norm_sandwich": sandwich,
            "l1_overshoot": l1,
            "spectral": {
                "checks": spect,
                "rows": [vars(r) for r in spectral.rows],
            },
            "coupled_operator": opb,
            "passed": bool(all_ok),
        }
        _write(args.out, "checks.json", _json(payload))

    return 0 if all_ok else 4


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        argv = _inject_config(argv, parser)
    except (InputError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    args = parser.parse_args(argv)
    made_out = bool(args.out) and not os.path.exists(args.out)
    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as err:
            print(f"error: --out {args.out}: {err.strerror}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        # a refused run leaves no new --out behind
        if made_out and not os.listdir(args.out):
            os.rmdir(args.out)
        return 2
    except DivergenceError as err:
        path = os.path.join(args.out or ".", "divergence.npz")
        lam, p, mu = err.iterate.blocks()
        np.savez(path, k=np.array([err.k]), lam=lam, p=p, mu=mu)
        print(f"divergence at iteration {err.k}: {err}", file=sys.stderr)
        print(f"wrote {path}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
