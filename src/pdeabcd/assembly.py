"""P1 finite element operators on triangulated meshes.

Assembles the stiffness matrix of the Laplacian ``-Δy`` with homogeneous
Dirichlet conditions, the mass matrix, and the lumped mass vector
``W_i = integral of basis function i``.
Also provides nodal interpolation, the weighted-l1 surrogate of the L1 norm,
its exact counterpart (integrating the absolute value of a piecewise linear
function by splitting triangles along the zero line), and the discrete L2/H1
norms used by the scaling studies.

Boundary conditions are imposed by elimination: operators are stored both on
the full node set and restricted to interior nodes.  The state and the
adjoint p live on the interior nodes; the control, lam and mu on all nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh, triangle_areas
from .sparse_linalg import (Factorization, dot, factorize_spd,
                            pattern_positions)

# lumped-mass comparison constant of the mesh family: z'Wz <= 4 z'Mz for
# P1 triangles in the plane
LUMPED_MASS_GAMMA = 4.0

_ELEMENT_MASS_PATTERN = np.array([
    [2.0, 1.0, 1.0],
    [1.0, 2.0, 1.0],
    [1.0, 1.0, 2.0],
]) / 12.0


def _element_geometry(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Areas and constant basis gradients of every triangle of ``mesh``."""
    area = triangle_areas(mesh)
    if np.any(area <= 0):
        raise ValueError("triangle with nonpositive signed area")
    det = 2.0 * area
    p = mesh.nodes[mesh.triangles]
    grads = np.empty((p.shape[0], 3, 2))
    # grad of barycentric i is the inward normal of the opposite edge over 2A
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        grads[:, i, 0] = (p[:, j, 1] - p[:, k, 1]) / det
        grads[:, i, 1] = (p[:, k, 0] - p[:, j, 0]) / det
    return area, grads


def _node_pattern(mesh: Mesh) -> sp.csr_matrix:
    """The node adjacency of ``mesh`` as a sorted CSR pattern: an entry
    ``(i, j)`` for every two nodes of one triangle, ``i = j`` included.

    It is the pattern of ``E' E`` for the boolean triangle-node incidence
    ``E``, so no per-entry triplet list is formed.  The product stores no
    duplicate and no zero, and scipy's conversion of it to CSR sorts the
    indices.
    """
    tri = mesh.triangles
    incidence = sp.csr_matrix(
        (np.ones(tri.size, dtype=bool), tri.ravel(),
         np.arange(0, tri.size + 1, 3)),
        shape=(tri.shape[0], mesh.n_nodes))
    return (incidence.T @ incidence).tocsr()


def _pattern_data(pattern: sp.csr_matrix, triangles: np.ndarray,
                  area: np.ndarray, grads: np.ndarray,
                  with_mass: bool) -> list[np.ndarray]:
    """The stiffness matrix's data on ``pattern``, and the mass matrix's
    after it if ``with_mass``, from the element geometry ``area, grads``
    (:func:`_element_geometry`).

    For each of the nine local pairs ``(a, b)`` every element adds its
    entry in element order (``np.add.at``), so each stored number is a
    sequential sum, as scipy's sum of duplicate COO entries is.  On the
    dyadic meshes the stiffness contributions are exact and each mass
    entry sums equal values, so the two agree bit for bit.
    """
    data = [np.zeros(pattern.nnz) for _ in range(1 + with_mass)]
    for a in range(3):
        for b in range(3):
            at = pattern_positions(pattern, triangles[:, a], triangles[:, b])
            np.add.at(data[0], at,
                      area * np.einsum("ij,ij->i", grads[:, a], grads[:, b]))
            if with_mass:
                np.add.at(data[1], at, area * _ELEMENT_MASS_PATTERN[a, b])
    return data


def _block(pattern: sp.csr_matrix, data: np.ndarray, index_of: np.ndarray,
           nonzero: bool = False) -> sp.csr_matrix:
    """The block of the matrix with ``data`` on ``pattern`` whose rows and
    columns ``i`` have ``index_of[i] >= 0``, renumbered by ``index_of``;
    with ``nonzero``, its zero entries are not stored."""
    indptr, indices = pattern.indptr, pattern.indices
    inside = index_of >= 0
    keep = inside[indices]
    keep &= np.repeat(inside, np.diff(indptr))
    if nonzero:
        keep &= data != 0.0
    # every row of the node pattern holds its diagonal, so none is empty
    counts = np.add.reduceat(keep, indptr[:-1], dtype=indptr.dtype)[inside]
    size = int(inside.sum())
    return sp.csr_matrix(
        (data[keep], index_of[indices[keep]],
         np.concatenate(([0], np.cumsum(counts)))), shape=(size, size))


@dataclass
class FemOperators:
    """Assembled P1 operators for one mesh.

    ``M_full``/``W_full`` cover the whole node set; ``K`` and ``M`` are the
    interior blocks (Dirichlet elimination) of ``K_full`` and ``M_full``,
    and ``restrict(W_full)`` gives the interior lumped mass.  ``K_full``,
    the Laplacian stiffness on the whole node set, is read only by
    :func:`norms`, so it is assembled on first read and a solve never
    holds it: at level 10 the operators hold about 270 MB, and from level
    8 on a solve's resident peak sits in the solve, not in their setup
    (peaks in :func:`assemble`).  The operators own the SPD
    factorizations of ``M``, ``M_full`` and ``K`` as the cached properties
    ``mass_factor``, ``mass_full_factor`` and ``stiffness_factor``: each
    is built on first read and kept for the life of the operators.  A
    problem instance's one solver (``ProblemInstance.solver``) solves with
    the last two below ``dual_solver.GRID_MIN_N`` interior unknowns and
    with none of them from there on; the oracle and the checks read them
    directly.
    """

    mesh: Mesh
    M_full: sp.csr_matrix
    W_full: np.ndarray
    interior: np.ndarray
    K: sp.csr_matrix
    M: sp.csr_matrix

    @property
    def n_interior(self) -> int:
        return self.interior.size

    @cached_property
    def K_full(self) -> sp.csr_matrix:
        """The stiffness matrix on the whole node set, assembled on
        ``M_full``'s pattern without its zero entries."""
        data, = _pattern_data(self.M_full, self.mesh.triangles,
                              *_element_geometry(self.mesh), with_mass=False)
        return _block(self.M_full, data,
                      np.arange(self.mesh.n_nodes, dtype=np.int32),
                      nonzero=True)

    @cached_property
    def mass_factor(self) -> Factorization:
        return factorize_spd(self.M)

    @cached_property
    def mass_full_factor(self) -> Factorization:
        return factorize_spd(self.M_full)

    @cached_property
    def stiffness_factor(self) -> Factorization:
        return factorize_spd(self.K)

    def pad(self, u_int: np.ndarray) -> np.ndarray:
        """Embed an interior vector into the full node set with zero boundary."""
        out = np.zeros(self.mesh.n_nodes)
        out[self.interior] = u_int
        return out

    def restrict(self, u_full: np.ndarray) -> np.ndarray:
        return np.asarray(u_full, dtype=float)[self.interior]

    def mass_interior_rows(self, u_full: np.ndarray) -> np.ndarray:
        """Interior rows of ``M_full u`` for a full nodal vector.

        This is the rectangular coupling between fields living on all nodes
        (controls, multipliers) and fields with homogeneous boundary values
        (state, adjoint).
        """
        return (self.M_full @ np.asarray(u_full, dtype=float))[self.interior]


def assemble(mesh: Mesh) -> FemOperators:
    """Assemble stiffness, mass, and lumped mass operators on ``mesh``.

    Both matrices are summed element by element into one node-adjacency
    pattern (:func:`_pattern_data`), which ``M_full`` keeps; ``K`` and
    ``M`` are cut from it through a node-to-interior index map.  No triplet
    list, element matrix stack or sparse sum is formed, so the traced peak
    is about 1.3 times the bytes returned at levels 7-9.

    Resident peaks of a ``sine`` solve to tol 1e-6 in one process (2
    shared cores, Python 3.11, numpy 2.4, scipy 1.17), after the instance,
    after its grid solver and at the end: level 8, 77, 95 and 106 MB;
    level 9 (three sweeps), 153, 205 and 247 MB; level 10 (82 sweeps),
    430, 647 and 820-828 MB.  So each run peaks in its solve's working
    vectors.
    """
    pattern = _node_pattern(mesh)
    area, grads = _element_geometry(mesh)
    k_data, m_data = _pattern_data(pattern, mesh.triangles, area, grads,
                                   with_mass=True)
    del grads
    M_full = sp.csr_matrix((m_data, pattern.indices, pattern.indptr),
                           shape=pattern.shape)

    n = mesh.n_nodes
    W_full = np.zeros(n)
    np.add.at(W_full, mesh.triangles.ravel(), np.repeat(area / 3.0, 3))

    interior = mesh.interior
    interior_of = np.full(n, -1, dtype=np.int32)
    interior_of[interior] = np.arange(interior.size, dtype=np.int32)
    K = _block(M_full, k_data, interior_of, nonzero=True)
    del k_data
    M = _block(M_full, m_data, interior_of)

    return FemOperators(
        mesh=mesh,
        M_full=M_full,
        W_full=W_full,
        interior=interior,
        K=K,
        M=M,
    )


def interpolate_function(mesh: Mesh, f) -> np.ndarray:
    """Nodal values of ``f`` on the full node set.

    ``f`` is called once with the coordinate arrays ``(x1, x2)``; a scalar
    result is broadcast to every node.
    """
    x1 = mesh.nodes[:, 0]
    x2 = mesh.nodes[:, 1]
    vals = np.asarray(f(x1, x2), dtype=float)
    return np.broadcast_to(vals, x1.shape).astype(float)


def l1h_norm(W: np.ndarray, u: np.ndarray) -> float:
    """Lumped-mass weighted l1 norm ``sum_i W_i |u_i|``."""
    W = np.asarray(W, dtype=float)
    u = np.asarray(u, dtype=float)
    if np.any(W <= 0):
        raise ValueError("lumped mass weights must be positive")
    return dot(np.abs(u), W)


def l1_norm_exact(mesh: Mesh, u: np.ndarray) -> float:
    """Exact L1 norm of the piecewise linear function with nodal values ``u``.

    On triangles where the values change sign the integrand is split along
    the zero line of the linear function, so no quadrature error enters:
    with one vertex of odd sign, the integral of the function over the
    sub-triangle cut off at the zero crossings is area * t2 * t3 * v1 / 3.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.n_nodes,):
        raise ValueError(f"values have shape {u.shape}, expected ({mesh.n_nodes},)")
    v = u[mesh.triangles]
    area = np.abs(triangle_areas(mesh))
    pos = v > 0.0
    neg = v < 0.0
    npos = pos.sum(axis=1)
    nneg = neg.sum(axis=1)
    uniform = (npos == 0) | (nneg == 0)

    contrib = np.where(uniform, area * np.abs(v).sum(axis=1) / 3.0, 0.0)

    mixed = np.flatnonzero(~uniform)
    if mixed.size:
        vm = v[mixed]
        am = area[mixed]
        odd = np.where(npos[mixed] == 1,
                       np.argmax(pos[mixed], axis=1),
                       np.argmax(neg[mixed], axis=1))
        r = np.arange(mixed.size)
        v1 = vm[r, odd]
        v2 = vm[r, (odd + 1) % 3]
        v3 = vm[r, (odd + 2) % 3]
        t2 = v1 / (v1 - v2)
        t3 = v1 / (v1 - v3)
        minority = am * t2 * t3 * np.abs(v1) / 3.0
        total = am * (v1 + v2 + v3) / 3.0
        sign = np.where(v1 > 0.0, -1.0, 1.0)
        contrib[mixed] = 2.0 * minority + sign * total
    return float(contrib.sum())


def norms(ops: FemOperators, z: np.ndarray) -> tuple[float, float]:
    """Discrete L2 (mass) and H1 norms of a full nodal vector."""
    z = np.asarray(z, dtype=float)
    if z.shape != (ops.mesh.n_nodes,):
        raise ValueError(f"vector has shape {z.shape}, expected full node set")
    mz = dot(z, ops.M_full @ z)
    kz = dot(z, ops.K_full @ z)
    return float(np.sqrt(mz)), float(np.sqrt(kz + mz))
