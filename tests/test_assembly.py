"""P1 operators: global assembly, norms, exact L1.

The exact-L1 routine is checked against an independent oracle implemented
here: each triangle is clipped against the half plane where the linear
function is negative (Sutherland-Hodgman), and the integral of a linear
function over the clipped polygon is evaluated from its vertices.  The two
routes share no code.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.io as sio
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pdeabcd.assembly import (
    assemble,
    interpolate_function,
    l1_norm_exact,
    l1h_norm,
    norms,
)
from pdeabcd.cli import main
from pdeabcd.mesh import build_unit_square_mesh, triangle_areas

# ---------------------------------------------------------------------------
# independent L1 oracle


def _clip_polygon(poly, vals, keep_nonneg):
    """Clip polygon against {v >= 0} (or {v <= 0}), interpolating values."""
    out_pts, out_vals = [], []
    m = len(poly)
    sgn = 1.0 if keep_nonneg else -1.0
    for i in range(m):
        p0, v0 = poly[i], vals[i]
        p1, v1 = poly[(i + 1) % m], vals[(i + 1) % m]
        in0 = sgn * v0 >= 0.0
        in1 = sgn * v1 >= 0.0
        if in0:
            out_pts.append(p0)
            out_vals.append(v0)
        if in0 != in1:
            t = v0 / (v0 - v1)
            out_pts.append(p0 + t * (p1 - p0))
            out_vals.append(0.0)
    return out_pts, out_vals


def _poly_integral_linear(pts, vals):
    """Integral of a linear function over a convex polygon, by fan split."""
    if len(pts) < 3:
        return 0.0
    total = 0.0
    for k in range(1, len(pts) - 1):
        a, b, c = pts[0], pts[k], pts[k + 1]
        area = 0.5 * abs(
            (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        )
        total += area * (vals[0] + vals[k] + vals[k + 1]) / 3.0
    return total


def l1_clipping_oracle(mesh, u):
    """Exact L1 norm of the P1 function via polygon clipping per triangle."""
    u = np.asarray(u, dtype=float)
    total = 0.0
    for tri in mesh.triangles:
        pts = [mesh.nodes[j] for j in tri]
        vals = [u[j] for j in tri]
        pos_pts, pos_vals = _clip_polygon(pts, vals, keep_nonneg=True)
        neg_pts, neg_vals = _clip_polygon(pts, vals, keep_nonneg=False)
        total += _poly_integral_linear(pos_pts, pos_vals)
        total -= _poly_integral_linear(neg_pts, neg_vals)
    return total


# ---------------------------------------------------------------------------
# global operators


@pytest.fixture(scope="module")
def ops3():
    return assemble(build_unit_square_mesh(3))


# The level-0 mesh is two reference right triangles (0, 1, 3) and (0, 3, 2)
# of area 1/2 on the nodes (0,0), (1,0), (0,1), (1,1), so every entry of its
# assembled operators follows by hand from the reference-triangle element
# matrices.


def test_element_stiffness_reference_triangle():
    ops = assemble(build_unit_square_mesh(0))
    assert np.array_equal(ops.K_full.toarray(), [[1.0, -0.5, -0.5, 0.0],
                                                 [-0.5, 1.0, 0.0, -0.5],
                                                 [-0.5, 0.0, 1.0, -0.5],
                                                 [0.0, -0.5, -0.5, 1.0]])
    # all four nodes lie on the boundary
    assert ops.n_interior == 0


def test_element_mass_reference_triangle():
    ops = assemble(build_unit_square_mesh(0))
    assert np.allclose(24.0 * ops.M_full.toarray(), [[4.0, 1.0, 1.0, 2.0],
                                                     [1.0, 2.0, 0.0, 1.0],
                                                     [1.0, 0.0, 2.0, 1.0],
                                                     [2.0, 1.0, 1.0, 4.0]],
                       rtol=0.0, atol=1e-14)
    assert np.allclose(6.0 * ops.W_full, [2.0, 1.0, 1.0, 2.0],
                       rtol=0.0, atol=1e-14)


def test_lumped_weights_are_row_sums(ops3):
    row_sums = np.asarray(ops3.M_full.sum(axis=1)).ravel()
    assert np.allclose(ops3.W_full, row_sums, atol=1e-15)
    assert np.all(ops3.W_full > 0.0)
    # total lumped mass is the domain area
    assert ops3.W_full.sum() == pytest.approx(1.0, abs=1e-13)


def test_stiffness_annihilates_constants(ops3):
    ones = np.ones(ops3.mesh.n_nodes)
    assert np.abs(ops3.K_full @ ones).max() < 1e-13


def test_interior_blocks_match_full(ops3):
    idx = ops3.interior
    assert np.allclose((ops3.M_full[idx][:, idx] - ops3.M).toarray(), 0.0)
    assert np.allclose((ops3.K_full[idx][:, idx] - ops3.K).toarray(), 0.0)


def test_mass_is_spd_stiffness_interior_spd(ops3):
    Md = ops3.M.toarray()
    Kd = ops3.K.toarray()
    assert np.allclose(Md, Md.T)
    assert np.allclose(Kd, Kd.T)
    assert np.linalg.eigvalsh(Md).min() > 0.0
    assert np.linalg.eigvalsh(Kd).min() > 0.0


def test_mass_integrates_linears_exactly(ops3):
    # 1' M u = integral of x1 over the unit square = 1/2
    u = interpolate_function(ops3.mesh, lambda x1, x2: x1)
    ones = np.ones(ops3.mesh.n_nodes)
    assert ones @ (ops3.M_full @ u) == pytest.approx(0.5, abs=1e-14)
    # u' K u = integral of |grad x1|^2 = 1
    assert u @ (ops3.K_full @ u) == pytest.approx(1.0, abs=1e-13)


def test_pad_restrict_roundtrip(ops3, rng):
    v = rng.standard_normal(ops3.n_interior)
    assert np.array_equal(ops3.restrict(ops3.pad(v)), v)
    padded = ops3.pad(v)
    assert np.all(padded[ops3.mesh.boundary_mask] == 0.0)


def test_mass_interior_rows(ops3, rng):
    u = rng.standard_normal(ops3.mesh.n_nodes)
    expected = (ops3.M_full @ u)[ops3.interior]
    assert np.allclose(ops3.mass_interior_rows(u), expected, atol=1e-15)


def test_factors_solve(ops3, rng):
    b = rng.standard_normal(ops3.n_interior)
    x = ops3.mass_factor.solve(b)
    assert np.allclose(ops3.M @ x, b, atol=1e-11)
    y = ops3.stiffness_factor.solve(b)
    assert np.allclose(ops3.K @ y, b, atol=1e-10)
    bf = rng.standard_normal(ops3.mesh.n_nodes)
    xf = ops3.mass_full_factor.solve(bf)
    assert np.allclose(ops3.M_full @ xf, bf, atol=1e-11)


def test_dump_operators(tmp_path, ops3):
    # the operators depend on the mesh alone, so any preset at level 3
    # dumps those of ops3
    assert main(["solve", "--preset", "zero", "--level", "3",
                 "--dump-matrices", "--out", str(tmp_path)]) == 0
    K = sio.mmread(tmp_path / "K.mtx")
    M = sio.mmread(tmp_path / "M.mtx")
    assert (sp.csr_matrix(K) - ops3.K).nnz == 0
    assert (sp.csr_matrix(M) - ops3.M).nnz == 0
    # one repr per line, so the weights round-trip exactly
    W = [float(line) for line in (tmp_path / "W.txt").read_text().splitlines()]
    assert np.array_equal(W, ops3.restrict(ops3.W_full))


def _coo_operators(mesh):
    """The operators summed by scipy from the 9-per-triangle COO triplets
    of the element matrices, and their interior blocks cut by ``np.ix_``."""
    area = triangle_areas(mesh)
    p = mesh.nodes[mesh.triangles]
    grads = np.empty((p.shape[0], 3, 2))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        grads[:, i, 0] = (p[:, j, 1] - p[:, k, 1]) / (2.0 * area)
        grads[:, i, 1] = (p[:, k, 0] - p[:, j, 0]) / (2.0 * area)
    ke = area[:, None, None] * (grads @ grads.transpose(0, 2, 1))
    me = area[:, None, None] * (np.array([[2.0, 1.0, 1.0],
                                          [1.0, 2.0, 1.0],
                                          [1.0, 1.0, 2.0]]) / 12.0)[None]
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    n = mesh.n_nodes

    def canonical(A):
        out = sp.csr_matrix(A, copy=True)
        out.sum_duplicates()
        out.eliminate_zeros()
        out.sort_indices()
        return out

    K_full, M_full = (canonical(sp.coo_matrix((e.ravel(), (rows, cols)),
                                              shape=(n, n))) for e in (ke, me))
    W_full = np.zeros(n)
    np.add.at(W_full, mesh.triangles.ravel(), np.repeat(area / 3.0, 3))
    inner = np.ix_(mesh.interior, mesh.interior)
    K, M = canonical(K_full[inner]), canonical(M_full[inner])
    return {"K_full": K_full, "M_full": M_full, "W_full": W_full,
            "K": K, "M": M}


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("level", range(7))
def test_assembly_matches_the_coo_sum_bytewise(level):
    """The pattern assembly stores the numbers, indices and index dtypes of
    scipy's COO sum, and builds ``K_full`` only when it is read."""
    mesh = build_unit_square_mesh(level)
    ops = assemble(mesh)
    assert "K_full" not in vars(ops)
    for name, ref in _coo_operators(mesh).items():
        got = getattr(ops, name)
        if sp.issparse(ref):
            assert got.format == "csr" and got.shape == ref.shape, name
            assert got.has_sorted_indices, name
            for part in ("data", "indices", "indptr"):
                assert _same_bytes(getattr(got, part), getattr(ref, part)), \
                    (name, part)
        else:
            assert _same_bytes(got, ref), name
    assert "K_full" in vars(ops)
    assert ops.K_full is ops.K_full


def test_assembly_transient_stays_below_its_output():
    """At level 7 the traced peak of ``assemble`` is at most twice the bytes
    of the operators it returns (``K_full`` unread): no triplet list, no
    per-element matrices and no sparse slicing copies are formed."""
    mesh = build_unit_square_mesh(7)
    tracemalloc.start()
    try:
        ops = assemble(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = ops.W_full.nbytes + ops.interior.nbytes + sum(
        A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
        for A in (ops.M_full, ops.K, ops.M))
    assert peak <= 2 * kept, (peak, kept)


# ---------------------------------------------------------------------------
# norms and the two l1 functionals


def test_norms_of_linear_function(ops3):
    u = interpolate_function(ops3.mesh, lambda x1, x2: x1)
    l2, h1 = norms(ops3, u)
    # ||x1||_L2^2 = 1/3 and |x1|_H1^2 = 1, both exact for P1
    assert l2 == pytest.approx(np.sqrt(1.0 / 3.0), abs=1e-13)
    assert h1 == pytest.approx(np.sqrt(1.0 + 1.0 / 3.0), abs=1e-13)


def test_assemble_rejects_clockwise_triangle():
    mesh = build_unit_square_mesh(1)
    triangles = mesh.triangles.copy()
    triangles[0, [1, 2]] = triangles[0, [2, 1]]
    with pytest.raises(ValueError, match="nonpositive signed area"):
        assemble(dataclasses.replace(mesh, triangles=triangles))


def test_l1_exact_and_norms_reject_wrong_length(ops3):
    short = np.ones(ops3.mesh.n_nodes - 1)
    with pytest.raises(ValueError, match="shape"):
        l1_norm_exact(ops3.mesh, short)
    with pytest.raises(ValueError, match="shape"):
        norms(ops3, short)


def test_l1h_requires_positive_weights():
    with pytest.raises(ValueError):
        l1h_norm(np.array([1.0, 0.0]), np.array([1.0, 1.0]))


def test_l1_exact_constant_sign(ops3):
    # for u >= 0 the exact L1 norm is the plain integral 1' M u
    u = interpolate_function(ops3.mesh, lambda x1, x2: 1.0 + 0.5 * x1)
    ones = np.ones(ops3.mesh.n_nodes)
    expected = float(ones @ (ops3.M_full @ u))
    assert l1_norm_exact(ops3.mesh, u) == pytest.approx(expected, rel=1e-14)
    # and the lumped value agrees since |u| is already P1
    assert l1h_norm(ops3.W_full, u) == pytest.approx(expected, rel=1e-14)


def test_l1_exact_matches_clipping_oracle(rng):
    mesh = build_unit_square_mesh(3)
    for _ in range(25):
        u = rng.standard_normal(mesh.n_nodes)
        expected = l1_clipping_oracle(mesh, u)
        assert l1_norm_exact(mesh, u) == pytest.approx(expected, rel=1e-12)


def test_l1_exact_sign_flip_invariance(rng):
    mesh = build_unit_square_mesh(2)
    u = rng.standard_normal(mesh.n_nodes)
    assert l1_norm_exact(mesh, u) == pytest.approx(
        l1_norm_exact(mesh, -u), rel=1e-14)
    assert l1_norm_exact(mesh, 3.0 * u) == pytest.approx(
        3.0 * l1_norm_exact(mesh, u), rel=1e-13)


def test_l1_exact_single_triangle_hand_value():
    # level-0 mesh: two triangles; pick nodal values (1, -1, 0, 0):
    # on each triangle the linear function with values (1, -1, 0) has
    # integral of |u| equal to area * (t2 t3 |v1| * 2 + signed mean) with the
    # zero line cutting off the positive corner at t = 1/2, so the value per
    # triangle is 2*(1/2)*(1/2)*(1/2)*1/3 on the minority side plus the rest.
    mesh = build_unit_square_mesh(0)
    u = np.zeros(4)
    u[0] = 1.0
    u[1] = -1.0
    got = l1_norm_exact(mesh, u)
    assert got == pytest.approx(l1_clipping_oracle(mesh, u), rel=1e-14)


@given(hnp.arrays(np.float64, 25,
                  elements=st.floats(min_value=-5.0, max_value=5.0,
                                     allow_nan=False)))
def test_norm_sandwich_property(z):
    # z' M z <= z' W z <= 4 z' M z for every nodal vector
    ops = assemble(build_unit_square_mesh(2))
    zm = float(z @ (ops.M_full @ z))
    zw = float(z @ (ops.W_full * z))
    slack = 1e-12 * (1.0 + max(zm, zw))
    assert zm <= zw + slack
    assert zw <= 4.0 * zm + slack


@given(hnp.arrays(np.float64, 25,
                  elements=st.floats(min_value=-5.0, max_value=5.0,
                                     allow_nan=False)))
def test_l1_overshoot_property(z):
    # lumped l1 dominates the exact L1 norm
    ops = assemble(build_unit_square_mesh(2))
    gap = l1h_norm(ops.W_full, z) - l1_norm_exact(ops.mesh, z)
    assert gap >= -1e-12 * (1.0 + np.abs(z).sum())
