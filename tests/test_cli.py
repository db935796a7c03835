"""Command-line interface: exit codes, file outputs, config files,
determinism of written artifacts."""

import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from pdeabcd import analysis, cli, dual_solver, presets
from pdeabcd.cli import main

# in-process invocations keep the suite fast; two subprocess tests
# exercise the real entry point


def run_cli(argv, capsys=None):
    return main(argv)


def test_solve_zero_preset(tmp_path, capsys):
    rc = main(["solve", "--preset", "zero", "--level", "3",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "converged=True" in out
    assert "iterations=1" in out
    record = (tmp_path / "record.csv").read_text()
    assert record.splitlines()[0] == "k,phi,kkt,gap,time_s"
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["iterations"] == 1
    assert summary["stop_reason"] == "kkt"


def test_solve_check_bound(tmp_path, capsys):
    rc = main(["solve", "--preset", "sine", "--level", "2", "--check-bound",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bound check: PASS" in out
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["bound_ok"] is True
    assert summary["tau_h"] > 0.0


def test_solve_check_bound_assembles_once(monkeypatch, capsys):
    calls = []
    real = presets.assemble

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(presets, "assemble", counting)
    assert main(["solve", "--preset", "sine", "--level", "2",
                 "--check-bound"]) == 0
    assert len(calls) == 1


def test_solve_dump_artifacts(tmp_path):
    rc = main(["solve", "--preset", "zero", "--level", "2", "--dump-mesh",
               "--dump-matrices", "--out", str(tmp_path)])
    assert rc == 0
    for name in ("mesh.json", "K.mtx", "M.mtx", "W.txt"):
        assert (tmp_path / name).exists(), name


def test_solve_divergence_exit_code(tmp_path, capsys, monkeypatch):
    # a NaN in the source shift makes the first sweep non-finite
    real = cli.make_instance

    def nan_source(*args, **kw):
        inst = real(*args, **kw)
        inst.y_r[0] = np.nan
        return inst

    monkeypatch.setattr(cli, "make_instance", nan_source)
    with np.errstate(all="ignore"):
        rc = main(["solve", "--preset", "sine", "--level", "2",
                   "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "divergence at iteration" in err
    dump = np.load(tmp_path / "divergence.npz")
    assert int(dump["k"][0]) >= 1
    # level 2: 25 nodes, 9 interior
    assert dump["lam"].shape == (25,)
    assert dump["p"].shape == (9,)
    assert dump["mu"].shape == (25,)


def test_solve_record_deterministic(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        rc = main(["solve", "--preset", "sine", "--level", "3",
                   "--tol", "1e-8", "--out", str(d)])
        assert rc == 0
    assert (d1 / "record.csv").read_bytes() == (d2 / "record.csv").read_bytes()
    assert (d1 / "summary.json").read_bytes() == \
        (d2 / "summary.json").read_bytes()


def test_solve_timing_breaks_zero_column(tmp_path):
    rc = main(["solve", "--preset", "zero", "--level", "2", "--timing",
               "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "record.csv").read_text().splitlines()[1:]
    times = [float(r.split(",")[4]) for r in rows]
    assert any(t > 0.0 for t in times)


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--preset", "unknown"])
    assert exc.value.code == 2
    for argv in (["solve", "--preset", "sine", "--box", "bad"],
                 ["solve", "--preset", "sine", "--box", "a,b"],
                 ["mesh-indep", "--preset", "zero", "--levels", "3,x"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["nonsense"])
    # values that pass argparse but break a rule return 2 instead of raising
    assert main(["mesh-indep", "--preset", "zero", "--levels", "3,4,5",
                 "--eps", "0"]) == 2
    assert main(["mesh-indep", "--preset", "zero", "--levels", "3,4"]) == 2
    assert main(["checks", "--levels", "2"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["mesh-indep", "--preset", "zero", "--jobs", "2"])
    assert exc.value.code == 2
    # --timing fills wall-clock columns, and checks writes none
    with pytest.raises(SystemExit) as exc:
        main(["checks", "--timing"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["solve", "--preset", "sine", "--level", "2", "--max-iters", "0"],
    ["solve", "--preset", "sine", "--level", "-1"],
    ["solve", "--preset", "sine", "--level", "2", "--alpha", "0"],
    ["solve", "--preset", "sine", "--level", "2", "--box", "1,2"],
    ["solve", "--preset", "sine", "--level", "2", "--tol", "-1"],
    ["mesh-indep", "--preset", "sine", "--levels", "2,3,4",
     "--max-iters", "0"],
    ["mesh-indep", "--preset", "sine", "--levels=-1,3,4"],
    ["mesh-indep", "--preset", "sine", "--levels", "2,3,4",
     "--tau-proxy-level=-1"],
    ["checks", "--levels", "2,3,4", "--samples", "0"],
    ["checks", "--levels", "2,3,4", "--samples", "5", "--alpha", "0"],
    ["mesh-indep", "--preset", "sine", "--levels", "2,3,4", "--alpha", "0"],
    ["mesh-indep", "--preset", "sine", "--levels", "2,3,4", "--beta", "-1"],
    ["mesh-indep", "--preset", "sine", "--levels", "2,3,4", "--box", "1,2"],
    ["mesh-indep", "--preset", "sine", "--levels", "3,4,5",
     "--tau-proxy-level", "2"],
    ["mesh-indep", "--preset", "sine", "--levels", "3,3,3"],
    ["mesh-indep", "--preset", "sine", "--levels", "2,3,4", "--eps", "nan"],
    ["solve", "--preset", "sine", "--level", "2", "--restart",
     "--check-bound"],
    ["solve", "--preset", "sine", "--level", "0"],
    ["mesh-indep", "--preset", "sine", "--levels", "0,1,2"],
    ["checks", "--levels", "0,1,2"],
    ["checks", "--levels", "3,4"],
    ["checks", "--levels", "3,3,4"],
    ["solve", "--preset", "sine", "--level", "2", "--box=-inf,inf"],
    ["solve", "--preset", "sine", "--level", "2", "--box=-1,inf",
     "--check-bound"],
    ["solve", "--preset", "zero", "--level", "2", "--dump-mesh"],
    ["solve", "--preset", "zero", "--level", "2", "--dump-matrices"],
    ["checks", "--levels", "2,3,4", "--samples", "5", "--alpha", "1e200"],
    ["checks", "--levels", "2,3,4", "--samples", "5", "--alpha", "1e150"],
])
def test_bad_flag_values_exit_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


@pytest.mark.parametrize("argv, work", [
    (["solve", "--preset", "zero", "--level", "2"], (dual_solver, "solve")),
    (["mesh-indep", "--preset", "zero", "--levels", "2,3,4"],
     (analysis, "mesh_independence_experiment")),
    (["checks"], (analysis, "spectral_scaling_report")),
])
def test_bad_out_exits_2_before_any_work(argv, work, tmp_path, capsys,
                                         monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("ran before --out was made")

    monkeypatch.setattr(*work, broken)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker / "x", blocker):
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            f"error: --out {out}: "), captured.err


def test_refused_run_leaves_no_new_out(tmp_path, capsys):
    argv = ["solve", "--preset", "sine", "--level", "2", "--alpha", "0"]
    new = tmp_path / "new"
    assert main([*argv, "--out", str(new)]) == 2
    assert not new.exists()
    # a directory that was there before the run stays, even when empty
    old = tmp_path / "old"
    old.mkdir()
    assert main([*argv, "--out", str(old)]) == 2
    assert old.is_dir()
    assert capsys.readouterr().err.count("error: ") == 2


# bounded runs of each subcommand, so a flag its rules let through ends soon
_BOUNDED_ARGS = {
    "solve": ["--preset", "sine", "--level", "2", "--max-iters", "50"],
    "mesh-indep": ["--preset", "sine", "--levels", "2,3,4"],
    "checks": ["--levels", "2,3,4", "--samples", "5"],
}


def _float_flags():
    subs = next(act for act in cli.build_parser()._actions
                if isinstance(act, argparse._SubParsersAction))
    return [(name, act.option_strings[0])
            for name, sub in subs.choices.items()
            for act in sub._actions if act.type is float]


@pytest.mark.parametrize("command, flag", _float_flags())
def test_float_flags_reject_nan(command, flag, tmp_path, capsys):
    # an infinite value is refused alike: every float rule asks for a
    # finite value
    for value in ("nan", "inf"):
        argv = [command, *_BOUNDED_ARGS[command], flag, value,
                "--out", str(tmp_path)]
        assert main(argv) == 2, value
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), \
            captured.err


def test_mesh_indep_builds_coarsest_once(monkeypatch, capsys):
    built = []

    def counting(real):
        def build(preset, level, **params):
            built.append(level)
            return real(preset, level, **params)
        return build

    for module in (cli, analysis):
        monkeypatch.setattr(module, "make_instance",
                            counting(module.make_instance))
    assert main(["mesh-indep", "--preset", "zero", "--levels", "3,4,5"]) == 0
    assert sorted(built) == [3, 4, 5]


def test_value_error_during_run_propagates(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal")

    monkeypatch.setattr(dual_solver, "solve", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["solve", "--preset", "zero", "--level", "2"])


def test_value_error_during_mesh_indep_run_propagates(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal")

    monkeypatch.setattr(analysis, "mesh_independence_experiment", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["mesh-indep", "--preset", "zero", "--levels", "2,3,4"])


def test_internal_key_error_is_not_a_usage_error(monkeypatch):
    def broken(args):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "run_solve", broken)
    with pytest.raises(KeyError):
        main(["solve", "--preset", "zero"])


def test_config_file_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# solver configuration\n"
        "preset = zero\n"
        "level = 4\n"
        "max_iters = 50  # underscores map to dashes\n"
        "box = -0.5,0.5  # a value starting with '-' is not a flag\n"
        "\n"
        "dump-mesh = true\n"
    )
    out = tmp_path / "run"
    rc = main(["solve", "--config", str(cfg), "--level", "2",
               "--out", str(out)])
    assert rc == 0
    assert (out / "mesh.json").exists()
    mesh = json.loads((out / "mesh.json").read_text())
    assert mesh["level"] == 2  # explicit flag beats the file's level=4
    summary = json.loads((out / "summary.json").read_text())
    assert summary["box"] == [-0.5, 0.5]


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("not a key value line\n")
    assert main(["solve", "--config", str(bad), "--preset", "zero"]) == 2
    nest = tmp_path / "nest.cfg"
    nest.write_text("config = other.cfg\n")
    assert main(["solve", "--config", str(nest), "--preset", "zero"]) == 2
    assert main(["solve", "--config", str(tmp_path / "missing.cfg"),
                 "--preset", "zero"]) == 2
    maybe = tmp_path / "maybe.cfg"
    maybe.write_text("restart = maybe\n")
    assert main(["solve", "--config", str(maybe), "--preset", "zero"]) == 2
    # --config without its file is a usage error, as argparse reports it
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--preset", "zero", "--config"])
    assert exc.value.code == 2


@pytest.mark.parametrize("spelling", ["--conf", "--confi"])
def test_abbreviated_config_flag_never_runs_the_defaults(spelling, tmp_path):
    # only the pre-parser reads the file; an abbreviation it does not know
    # must not reach a subparser that would accept it and ignore the file
    cfg = tmp_path / "run.cfg"
    cfg.write_text("level = 3\n")
    out = tmp_path / "run"
    try:
        rc = main(["solve", "--preset", "zero", spelling, str(cfg),
                   "--out", str(out)])
    except SystemExit as exc:
        assert exc.code == 2
        assert not out.exists()
        return
    assert rc == 0
    assert json.loads((out / "summary.json").read_text())["level"] == 3


def test_bool_keys_are_the_store_true_flags(tmp_path, monkeypatch):
    # every store_true flag written as `key = yes` in a config file sets
    # its option, and `key = no` leaves it off
    seen = []
    for run in ("run_solve", "run_mesh_independence", "run_checks"):
        monkeypatch.setattr(cli, run, lambda args: seen.append(args) or 0)
    required = {"solve": ["--preset", "zero"],
                "mesh-indep": ["--preset", "zero"], "checks": []}
    subs = next(act for act in cli.build_parser()._actions
                if isinstance(act, argparse._SubParsersAction))
    flags = [(name, act) for name, sub in subs.choices.items()
             for act in sub._actions
             if isinstance(act, argparse._StoreTrueAction)]
    assert flags
    cfg = tmp_path / "run.cfg"
    for command, act in flags:
        for value, expected in (("yes", True), ("no", False)):
            cfg.write_text(f"{act.option_strings[0][2:]} = {value}\n")
            assert main([command, "--config", str(cfg),
                         *required[command]]) == 0
            assert getattr(seen.pop(), act.dest) is expected, act.dest


def test_mesh_indep_zero(tmp_path, capsys):
    rc = main(["mesh-indep", "--preset", "zero", "--levels", "3,4,5",
               "--tau-proxy-level", "5", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "passed=True" in out
    # zero data keeps the start at the optimum, so tau_h is 0 everywhere
    assert "tau_proxy=0.0 fitted_C=0.0" in out
    csv = (tmp_path / "mesh_indep.csv").read_text().splitlines()
    assert len(csv) == 4
    iters = [int(r.split(",")[3]) for r in csv[1:]]
    assert iters == [1, 1, 1]
    rep = json.loads((tmp_path / "mesh_indep.json").read_text())
    assert rep["passed"] is True


def test_mesh_indep_saturated_still_writes_report(tmp_path, capsys):
    rc = main(["mesh-indep", "--preset", "sine", "--levels", "3,4,5",
               "--eps", "1e-8", "--max-iters", "4", "--out", str(tmp_path)])
    assert rc == 4
    assert (tmp_path / "mesh_indep.csv").exists()
    out = capsys.readouterr().out
    assert "passed=False" in out
    assert "median_iters=None" in out

    # strict JSON: no row counts, so the median is null, not a bare NaN
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    text = (tmp_path / "mesh_indep.json").read_text()
    rep = json.loads(text, parse_constant=refuse)
    assert rep["median_iters"] is None


def test_checks_pass(tmp_path, capsys):
    rc = main(["checks", "--levels", "2,3,4", "--samples", "50",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    for name in ("norm-sandwich", "l1-overshoot", "mass-spectrum",
                 "stiffness-spectrum", "majorizer-spectrum",
                 "coupled-operator"):
        assert name in out
    assert "checks=PASS" in out
    payload = json.loads((tmp_path / "checks.json").read_text())
    assert payload["passed"] is True


def test_checks_bad_gamma_fails(capsys, monkeypatch):
    # gamma = 2 undercuts the lumped-mass constant, so the sandwich fails
    monkeypatch.setattr(analysis, "LUMPED_MASS_GAMMA", 2.0)
    rc = main(["checks", "--levels", "2,3,4", "--samples", "50"])
    assert rc == 4
    out = capsys.readouterr().out
    assert "checks=FAIL" in out
    assert "norm-sandwich" in out
    assert "gamma=2.0" in out


def test_checks_rejects_alpha_before_sampling(monkeypatch, capsys):
    def sampled(*args, **kwargs):
        raise AssertionError("sampled before the alpha rule ran")

    monkeypatch.setattr(analysis, "lumped_mass_comparison_check", sampled)
    assert main(["checks", "--alpha", "0", "--levels", "2,3,4,5,6"]) == 2


def test_checks_rejects_samples_before_any_work(monkeypatch, capsys):
    def reported(*args, **kwargs):
        raise AssertionError("ran before the samples rule")

    monkeypatch.setattr(analysis, "spectral_scaling_report", reported)
    assert main(["checks", "--levels", "2,3,4", "--samples", "0"]) == 2
    assert "samples" in capsys.readouterr().err
    # a bad --alpha is still the first refusal
    assert main(["checks", "--levels", "2,3,4", "--samples", "0",
                 "--alpha", "0"]) == 2
    assert "alpha" in capsys.readouterr().err


def test_solve_restart_flag(tmp_path, capsys):
    cfg = tmp_path / "restart.cfg"
    cfg.write_text("restart = yes\n")
    off = tmp_path / "off.cfg"
    off.write_text("restart = no\n")
    summaries = {}
    for name, extra in [("plain", []), ("flag", ["--restart"]),
                        ("config", ["--config", str(cfg)]),
                        ("config-off", [f"--config={off}"])]:
        out = tmp_path / name
        assert main(["solve", "--preset", "shifted", "--level", "3",
                     *extra, "--out", str(out)]) == 0
        summaries[name] = json.loads((out / "summary.json").read_text())
    plain, flag = summaries["plain"], summaries["flag"]
    assert plain["restarts"] == 0
    assert flag["converged"] and flag["restarts"] > 0
    assert flag["iterations"] < plain["iterations"]
    assert summaries["config"] == flag
    assert summaries["config-off"] == plain


def test_checks_seed_env_deterministic(tmp_path, monkeypatch):
    d1, d2, d3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    monkeypatch.setenv("PDEABCD_SEED", "7")
    assert main(["checks", "--levels", "2,3,4", "--samples", "40",
                 "--out", str(d1)]) == 0
    assert main(["checks", "--levels", "2,3,4", "--samples", "40",
                 "--out", str(d2)]) == 0
    monkeypatch.setenv("PDEABCD_SEED", "8")
    assert main(["checks", "--levels", "2,3,4", "--samples", "40",
                 "--out", str(d3)]) == 0
    b1 = (d1 / "checks.json").read_bytes()
    assert b1 == (d2 / "checks.json").read_bytes()
    # a different seed still passes; the sampled worst cases differ
    assert json.loads((d3 / "checks.json").read_text())["passed"] is True
    for bad in ("not-an-int", "-1"):
        monkeypatch.setenv("PDEABCD_SEED", bad)
        assert main(["checks", "--levels", "2,3,4", "--samples", "10"]) == 2


def test_module_entrypoint_subprocess(tmp_path):
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-m", "pdeabcd.cli", "solve", "--preset", "zero",
         "--level", "2", "--out", str(tmp_path)],
        capture_output=True, text=True, cwd=os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
    assert proc.returncode == 0, proc.stderr
    assert "converged=True" in proc.stdout
    assert (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("argv, names", [
    (["solve", "--preset", "shifted", "--level", "7", "--max-iters", "8"],
     ("record.csv", "summary.json")),
    (["mesh-indep", "--preset", "sine", "--levels", "3,4,5",
      "--tau-proxy-level", "7"], ("mesh_indep.csv", "mesh_indep.json")),
], ids=["solve", "mesh-indep"])
def test_level7_outputs_match_under_one_and_two_blas_threads(tmp_path, argv,
                                                             names):
    """A level-7 solve, and a mesh-indep run with its tau proxy at level 7,
    write the same bytes under one and two BLAS threads."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "pdeabcd.cli", *argv, "--out", str(out)],
            capture_output=True, text=True, cwd=root, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append([(out / name).read_bytes() for name in names])
    assert outputs[0] == outputs[1]
