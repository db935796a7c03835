"""Mesh construction, geometry invariants, and nodal prolongation."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pdeabcd.cli import main
from pdeabcd.mesh import (
    MAX_LEVEL,
    InputError,
    Mesh,
    MeshSizeError,
    NestingError,
    build_unit_square_mesh,
    mesh_to_dict,
    prolongate_nodal,
    triangle_areas,
)

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
def test_counts(level):
    mesh = build_unit_square_mesh(level)
    n = 2**level
    assert mesh.n_nodes == (n + 1) ** 2
    assert mesh.triangles.shape[0] == 2 * n * n
    assert mesh.triangles.dtype == np.int32
    assert mesh.h == pytest.approx(np.sqrt(2.0) / n)


def test_node_order_is_row_major():
    # node k = j*(n+1) + i sits at (i*cell, j*cell)
    mesh = build_unit_square_mesh(2)
    n = 4
    for j in range(n + 1):
        for i in range(n + 1):
            k = j * (n + 1) + i
            assert mesh.nodes[k, 0] == pytest.approx(i / n)
            assert mesh.nodes[k, 1] == pytest.approx(j / n)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_areas_positive_and_tile_the_square(level):
    mesh = build_unit_square_mesh(level)
    areas = triangle_areas(mesh)
    assert np.all(areas > 0.0)
    assert areas.sum() == pytest.approx(1.0, abs=1e-14)
    # uniform triangulation: every triangle has the same area
    assert np.allclose(areas, areas[0])


def test_boundary_mask():
    mesh = build_unit_square_mesh(3)
    on_edge = (
        (mesh.nodes[:, 0] == 0.0)
        | (mesh.nodes[:, 0] == 1.0)
        | (mesh.nodes[:, 1] == 0.0)
        | (mesh.nodes[:, 1] == 1.0)
    )
    assert np.array_equal(mesh.boundary_mask, on_edge)
    n = 8
    assert mesh.interior.size == (n - 1) ** 2
    assert mesh.boundary_mask.sum() == 4 * n


def test_triangles_reference_valid_nodes():
    mesh = build_unit_square_mesh(3)
    assert mesh.triangles.min() == 0
    assert mesh.triangles.max() == mesh.n_nodes - 1
    # every triangle has three distinct vertices
    t = np.sort(mesh.triangles, axis=1)
    assert np.all(t[:, 0] < t[:, 1])
    assert np.all(t[:, 1] < t[:, 2])


def _quasi_uniformity_report(mesh: Mesh) -> tuple[float, float]:
    """Shape constants ``(kappa, tau_bar)`` of the triangulation.

    ``kappa`` is the largest ratio of triangle diameter to inscribed-circle
    diameter and ``tau_bar`` the largest ratio of mesh size to triangle
    diameter.
    """
    p = mesh.nodes[mesh.triangles]
    edges = np.stack(
        [p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]], axis=1
    )
    lengths = np.linalg.norm(edges, axis=2)
    diam = lengths.max(axis=1)
    perim = lengths.sum(axis=1)
    area = np.abs(triangle_areas(mesh))
    incircle_diam = 4.0 * area / perim
    kappa = float((diam / incircle_diam).max())
    tau_bar = float((mesh.h / diam).max())
    return kappa, tau_bar


def test_quasi_uniformity_constants_level_independent():
    """Right isoceles triangles: kappa = 1 + sqrt(2), tau_bar = 1."""
    expected_kappa = 1.0 + np.sqrt(2.0)
    for level in (1, 3, 5):
        kappa, tau_bar = _quasi_uniformity_report(build_unit_square_mesh(level))
        assert kappa == pytest.approx(expected_kappa, rel=1e-12)
        assert tau_bar == pytest.approx(1.0, rel=1e-12)


def test_level_guards():
    assert issubclass(MeshSizeError, InputError)
    with pytest.raises(MeshSizeError):
        build_unit_square_mesh(MAX_LEVEL + 1)
    with pytest.raises(ValueError):
        build_unit_square_mesh(-1)
    with pytest.raises(TypeError):
        build_unit_square_mesh(2.0)
    # the guard level itself is allowed in principle; the constructor for
    # MAX_LEVEL would allocate ~16.8M nodes, so only check the predicate
    assert MAX_LEVEL == 12


@given(a=finite, b=finite, c=finite)
def test_prolongation_exact_for_linear_functions(a, b, c):
    coarse = build_unit_square_mesh(2)
    fine = build_unit_square_mesh(4)
    f = lambda x: a * x[:, 0] + b * x[:, 1] + c
    out = prolongate_nodal(coarse, fine, f(coarse.nodes))
    assert np.allclose(out, f(fine.nodes), atol=1e-12, rtol=1e-12)


def test_prolongation_identity_at_equal_levels(rng):
    mesh = build_unit_square_mesh(3)
    v = rng.standard_normal(mesh.n_nodes)
    out = prolongate_nodal(mesh, mesh, v)
    assert np.array_equal(out, v)
    assert not np.shares_memory(out, v)


def test_prolongation_preserves_range(rng):
    # each new value is the mean of two older ones, so rounding cannot
    # leave the coarse range
    coarse = build_unit_square_mesh(2)
    fine = build_unit_square_mesh(5)
    v = rng.standard_normal(coarse.n_nodes)
    out = prolongate_nodal(coarse, fine, v)
    assert out.min() >= v.min()
    assert out.max() <= v.max()


def test_prolongation_rejects_bad_input(rng):
    coarse = build_unit_square_mesh(2)
    fine = build_unit_square_mesh(3)
    with pytest.raises(NestingError):
        prolongate_nodal(fine, coarse, rng.standard_normal(fine.n_nodes))
    with pytest.raises(ValueError):
        prolongate_nodal(coarse, fine, rng.standard_normal(coarse.n_nodes - 1))


def test_prolongation_two_steps_compose(rng):
    # going 2 -> 3 -> 4 equals going 2 -> 4 directly
    m2 = build_unit_square_mesh(2)
    m3 = build_unit_square_mesh(3)
    m4 = build_unit_square_mesh(4)
    v = rng.standard_normal(m2.n_nodes)
    via = prolongate_nodal(m3, m4, prolongate_nodal(m2, m3, v))
    direct = prolongate_nodal(m2, m4, v)
    assert np.array_equal(via, direct)


def test_prolongation_three_levels_equal_three_steps(rng):
    # one call from 2 to 5 is bit for bit three one-level calls
    meshes = [build_unit_square_mesh(level) for level in range(2, 6)]
    v = rng.standard_normal(meshes[0].n_nodes)
    stepped = v
    for coarse, fine in zip(meshes, meshes[1:]):
        stepped = prolongate_nodal(coarse, fine, stepped)
    assert np.array_equal(prolongate_nodal(meshes[0], meshes[-1], v), stepped)


def test_mesh_to_dict_and_dump(tmp_path):
    mesh = build_unit_square_mesh(2)
    d = mesh_to_dict(mesh)
    assert d["level"] == 2
    assert len(d["nodes"]) == mesh.n_nodes
    assert len(d["triangles"]) == mesh.triangles.shape[0]
    # the command line writes the dict as compact sorted JSON
    assert main(["solve", "--preset", "zero", "--level", "2", "--dump-mesh",
                 "--out", str(tmp_path)]) == 0
    text = (tmp_path / "mesh.json").read_text()
    assert text == json.dumps(d, sort_keys=True) + "\n"
    back = json.loads(text)
    assert back["level"] == 2
    assert back["nodes"][0] == [0.0, 0.0]