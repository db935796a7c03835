"""Preset catalogue and instance construction."""

import numpy as np
import pytest

from pdeabcd.dual_solver import SolverConfig, solve
from pdeabcd.mesh import InputError
from pdeabcd.presets import PRESETS, make_instance, preset_names


def test_catalogue():
    assert preset_names() == ["shifted", "sine", "zero"]
    for name, preset in PRESETS.items():
        assert preset.name == name
        a, b = preset.box
        assert a <= 0.0 <= b
        assert preset.alpha > 0.0
        assert preset.beta >= 0.0


def test_sine_instance_fields():
    inst = make_instance("sine", 2)
    assert inst.name == "sine"
    assert inst.alpha == 1e-2
    assert inst.beta == 1e-2
    assert inst.box == (-1.0, 1.0)
    assert inst.gamma == 4.0
    assert inst.y_d.shape == (inst.n,)
    assert inst.y_r.shape == (inst.n_full,)
    mesh = inst.ops.mesh
    x = mesh.nodes[mesh.interior]
    expected = np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    assert np.allclose(inst.y_d, expected)
    assert np.all(inst.y_r == 0.0)


def test_shifted_instance_fields():
    inst = make_instance("shifted", 2)
    assert inst.alpha == 1e-3
    assert inst.beta == 5e-3
    assert inst.box == (-0.5, 0.5)
    assert np.all(inst.y_r == 1.0)
    mesh = inst.ops.mesh
    x = mesh.nodes[mesh.interior]
    assert np.allclose(inst.y_d, x[:, 0] + x[:, 1])


def test_overrides():
    inst = make_instance("sine", 2, alpha=0.5, beta=0.25, box=(-2.0, 3.0),
                         gamma=8.0)
    assert inst.alpha == 0.5
    assert inst.beta == 0.25
    assert inst.box == (-2.0, 3.0)
    assert inst.gamma == 8.0


def test_unknown_preset():
    with pytest.raises(KeyError, match="unknown preset"):
        make_instance("nope", 2)


def test_bad_overrides_rejected():
    with pytest.raises(ValueError):
        make_instance("sine", 2, gamma=1.0)
    with pytest.raises(ValueError):
        make_instance("sine", 2, box=(0.1, 1.0))
    with pytest.raises(ValueError):
        make_instance("sine", 2, alpha=-1.0)
    with pytest.raises(InputError):
        make_instance("sine", 2, alpha=float("nan"))
    with pytest.raises(InputError):
        make_instance("sine", 2, beta=float("nan"))


def test_zero_preset_solves_in_one_iteration():
    inst = make_instance("zero", 3)
    run = solve(inst, SolverConfig())
    assert run.converged
    assert run.iterations == 1
    assert run.kkt[-1] == 0.0
    assert np.all(run.u == 0.0)
