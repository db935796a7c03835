"""Named problem instances for experiments and tests."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import LUMPED_MASS_GAMMA, assemble, interpolate_function
from .dual_solver import ProblemInstance
from .mesh import build_unit_square_mesh


@dataclass(frozen=True)
class Preset:
    """Analytic problem data plus default parameters."""

    name: str
    y_d: object
    y_r: object
    alpha: float
    beta: float
    box: tuple[float, float]


def _zero_field(x1, x2):
    return np.zeros_like(np.asarray(x1, dtype=float))


def _one_field(x1, x2):
    return np.ones_like(np.asarray(x1, dtype=float))


def _sine_field(x1, x2):
    return np.sin(np.pi * x1) * np.sin(np.pi * x2)


def _ramp_field(x1, x2):
    return np.asarray(x1, dtype=float) + np.asarray(x2, dtype=float)


PRESETS: dict[str, Preset] = {
    "zero": Preset("zero", _zero_field, _zero_field, 1e-2, 1e-2, (-1.0, 1.0)),
    "sine": Preset("sine", _sine_field, _zero_field, 1e-2, 1e-2, (-1.0, 1.0)),
    "shifted": Preset("shifted", _ramp_field, _one_field, 1e-3, 5e-3,
                      (-0.5, 0.5)),
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def make_instance(preset: str, level: int, *,
                  alpha: float | None = None, beta: float | None = None,
                  box: tuple[float, float] | None = None,
                  gamma: float = LUMPED_MASS_GAMMA) -> ProblemInstance:
    """Build a :class:`ProblemInstance` for a named preset at one mesh level.

    ``alpha``, ``beta``, and ``box`` override the preset defaults.  Each
    instance assembles its own operators on a fresh mesh.
    """
    try:
        spec = PRESETS[preset]
    except KeyError:
        raise KeyError(
            f"unknown preset {preset!r}; available: {preset_names()}"
        ) from None
    ops = assemble(build_unit_square_mesh(level))
    y_d = ops.restrict(interpolate_function(ops.mesh, spec.y_d))
    y_r = interpolate_function(ops.mesh, spec.y_r)
    return ProblemInstance(
        ops=ops,
        alpha=spec.alpha if alpha is None else float(alpha),
        beta=spec.beta if beta is None else float(beta),
        box=spec.box if box is None else (float(box[0]), float(box[1])),
        y_d=y_d,
        y_r=y_r,
        gamma=float(gamma),
        name=spec.name,
    )
