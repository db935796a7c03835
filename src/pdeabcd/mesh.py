"""Uniform nested triangulations of the unit square.

Level ``l`` splits (0, 1)^2 into ``2^l x 2^l`` square cells, each cut into
two right triangles along the lower-left to upper-right diagonal.  All
triangles are congruent, so the family is quasi-uniform with
level-independent shape constants, and meshes of different levels are
nested: piecewise linear interpolation from a coarse level to a finer one
is exact.  :func:`prolongate_nodal` computes it one level at a time by
midpoint refinement, so it composes exactly across levels and keeps the
range of the coarse values.

Nodes are ordered lexicographically in (y, x); triangles are oriented
counterclockwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_LEVEL = 12


class InputError(ValueError):
    """A parameter the caller passed breaks a rule of the library."""


def check_alpha(alpha: float) -> None:
    """The rule for the control cost weight: alpha in (0, inf)."""
    if not 0.0 < alpha < np.inf:
        raise InputError(f"alpha must be in (0, inf), got {alpha}")


class MeshSizeError(InputError):
    """Requested refinement level exceeds the memory guard."""


class NestingError(ValueError):
    """Meshes are not nested the way the operation requires."""


@dataclass(frozen=True)
class Mesh:
    """Triangulation of the unit square at one refinement level.

    Attributes
    ----------
    level : int
        Refinement level; the square is split into ``2**level`` cells per side.
    nodes : ndarray, shape (n_nodes, 2)
        Vertex coordinates.
    triangles : ndarray of int32, shape (n_triangles, 3)
        Vertex indices of each triangle, counterclockwise.  ``MAX_LEVEL``
        keeps every index in int32: level 12 has ``4097**2``, about 16.8M
        nodes, against int32's 2.1e9, and int64 would double the array's
        size for nothing.
    boundary_mask : ndarray of bool, shape (n_nodes,)
        True at nodes lying on the boundary of the square.
    h : float
        Mesh size, the largest triangle diameter (``sqrt(2) / 2**level``).
    """

    level: int
    nodes: np.ndarray
    triangles: np.ndarray
    boundary_mask: np.ndarray
    h: float

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def interior(self) -> np.ndarray:
        """Indices of interior nodes, in node order."""
        return np.flatnonzero(~self.boundary_mask)


def check_level(level: int) -> None:
    """Reject a level no mesh can be built at, without building anything.

    Raises :class:`InputError` for a negative level and its subclass
    :class:`MeshSizeError` for levels above ``MAX_LEVEL``.
    """
    if not isinstance(level, (int, np.integer)):
        raise TypeError(f"level must be an integer, got {level!r}")
    if not level >= 0:
        raise InputError(f"level must be nonnegative, got {level}")
    if level > MAX_LEVEL:
        raise MeshSizeError(
            f"level {level} exceeds the guard MAX_LEVEL={MAX_LEVEL} "
            f"({(2 ** level + 1) ** 2} nodes)"
        )


def check_levels(levels) -> list[int]:
    """Reject a repeated level or one :func:`check_level` rejects; as ints."""
    if len(set(levels)) < len(levels):
        raise InputError(f"levels must be distinct, got {levels}")
    for level in levels:
        check_level(level)
    return [int(level) for level in levels]


def build_unit_square_mesh(level: int) -> Mesh:
    """Build the level-``level`` uniform triangulation of the unit square.

    The mesh has ``(2**level + 1)**2`` nodes and ``2 * 4**level`` triangles.
    Levels are checked by :func:`check_level`.
    """
    check_level(level)
    n = 2**level
    cell = 1.0 / n
    side = np.arange(n + 1) * cell
    xs, ys = np.meshgrid(side, side, indexing="xy")
    nodes = np.column_stack([xs.ravel(), ys.ravel()])

    cells = np.arange(n, dtype=np.int32)
    ii, jj = np.meshgrid(cells, cells, indexing="xy")
    a = (jj * (n + 1) + ii).ravel()
    # two triangles per cell, (a, b, c) and (a, c, d) with b = a + 1,
    # c = a + n + 2 and d = a + n + 1: split along the a-c diagonal, both CCW
    triangles = np.empty((2 * n * n, 3), dtype=np.int32)
    lower, upper = triangles[0::2], triangles[1::2]
    lower[:, 0] = upper[:, 0] = a
    lower[:, 1] = a + 1
    lower[:, 2] = upper[:, 1] = a + n + 2
    upper[:, 2] = a + n + 1

    ig, jg = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="xy")
    boundary = (ig == 0) | (ig == n) | (jg == 0) | (jg == n)

    return Mesh(
        level=int(level),
        nodes=nodes,
        triangles=triangles,
        boundary_mask=boundary.ravel(),
        h=float(np.sqrt(2.0) * cell),
    )


def triangle_areas(mesh: Mesh) -> np.ndarray:
    """Signed areas of all triangles (positive for counterclockwise)."""
    p = mesh.nodes[mesh.triangles]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def prolongate_nodal(coarse: Mesh, fine: Mesh, values: np.ndarray) -> np.ndarray:
    """Evaluate a coarse piecewise linear function at the fine mesh nodes.

    ``values`` holds nodal values on ``coarse`` (full node set).  Each level
    of midpoint refinement keeps the old nodes and gives each new one the
    mean of the two ends of the edge it bisects (horizontal, vertical or
    a-c diagonal), so steps compose exactly and the range is kept.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (coarse.n_nodes,):
        raise ValueError(
            f"values has shape {values.shape}, expected ({coarse.n_nodes},)"
        )
    if fine.level < coarse.level:
        raise NestingError(
            f"fine level {fine.level} is below coarse level {coarse.level}"
        )
    grid = values.reshape(2**coarse.level + 1, -1)
    for _ in range(fine.level - coarse.level):
        out = np.empty((2 * grid.shape[0] - 1,) * 2)
        out[::2, ::2] = grid
        out[::2, 1::2] = 0.5 * (grid[:, :-1] + grid[:, 1:])
        out[1::2, ::2] = 0.5 * (grid[:-1] + grid[1:])
        out[1::2, 1::2] = 0.5 * (grid[:-1, :-1] + grid[1:, 1:])
        grid = out
    return grid.flatten()


def mesh_to_dict(mesh: Mesh) -> dict:
    """JSON-ready description of the mesh."""
    return {
        "level": mesh.level,
        "nodes": [[float(x), float(y)] for x, y in mesh.nodes],
        "triangles": [[int(v) for v in t] for t in mesh.triangles],
        "boundary": [int(b) for b in mesh.boundary_mask],
    }
