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
from .sparse_linalg import Factorization, canonicalize, dot, factorize_spd

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


@dataclass
class FemOperators:
    """Assembled P1 operators for one mesh.

    ``K_full``/``M_full``/``W_full`` cover the whole node set; ``K`` and
    ``M`` are their interior blocks (Dirichlet elimination).  ``K_full`` is
    the Laplacian stiffness of the state equation and of the H1 norm, and
    ``restrict(W_full)`` gives the interior lumped mass.  The operators own
    the SPD factorizations of ``M``, ``M_full`` and ``K`` as the cached
    properties ``mass_factor``, ``mass_full_factor`` and
    ``stiffness_factor``: each is built on first read and kept for the life
    of the operators.  The p-solve depends on alpha, so the problem instance
    owns it (``ProblemInstance.psolve``).  From ``dual_solver.GRID_MIN_N``
    interior unknowns on, the instance's state solves, p-solves and
    ``M_full`` solves use ``ProblemInstance.grid`` instead, so a dual solve
    there reads none of these factors; the oracle and the checks still do.
    """

    mesh: Mesh
    K_full: sp.csr_matrix
    M_full: sp.csr_matrix
    W_full: np.ndarray
    interior: np.ndarray
    K: sp.csr_matrix
    M: sp.csr_matrix

    @property
    def n_interior(self) -> int:
        return self.interior.size

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
    """Assemble stiffness, mass, and lumped mass operators on ``mesh``."""
    area, grads = _element_geometry(mesh)
    ke = area[:, None, None] * (grads @ grads.transpose(0, 2, 1))
    me = area[:, None, None] * _ELEMENT_MASS_PATTERN[None]

    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    n = mesh.n_nodes
    K_full = canonicalize(sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(n, n)))
    M_full = canonicalize(sp.coo_matrix((me.ravel(), (rows, cols)), shape=(n, n)))

    W_full = np.zeros(n)
    np.add.at(W_full, mesh.triangles.ravel(),
              np.repeat(area / 3.0, 3))

    interior = mesh.interior
    K = canonicalize(K_full[np.ix_(interior, interior)])
    M = canonicalize(M_full[np.ix_(interior, interior)])

    return FemOperators(
        mesh=mesh,
        K_full=K_full,
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
