"""P1 finite element operators on triangulated meshes.

Assembles the stiffness matrix of a uniformly elliptic operator
``- div(a grad y) + c0 y`` with homogeneous Dirichlet conditions, the mass
matrix, and the lumped mass vector ``W_i = integral of basis function i``.
Also provides nodal interpolation, the weighted-l1 surrogate of the L1 norm,
its exact counterpart (integrating the absolute value of a piecewise linear
function by splitting triangles along the zero line), and the discrete L2/H1
norms used by the scaling studies.

Boundary conditions are imposed by elimination: operators are stored both on
the full node set and restricted to interior nodes.  Control, state, and all
dual variables live on the interior index set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.io
import scipy.sparse as sp

from .mesh import Mesh, triangle_areas
from .sparse_linalg import (AugmentedSolver, Factorization, canonicalize,
                            factorize_spd)

# edge midpoints of the reference triangle; this rule integrates quadratics
# exactly, which covers products of P1 basis functions
_QUAD_BARY = np.array([
    [0.5, 0.5, 0.0],
    [0.0, 0.5, 0.5],
    [0.5, 0.0, 0.5],
])

_ELEMENT_MASS_PATTERN = np.array([
    [2.0, 1.0, 1.0],
    [1.0, 2.0, 1.0],
    [1.0, 1.0, 2.0],
]) / 12.0


class EllipticityError(ValueError):
    """Coefficients violate uniform ellipticity or sign requirements."""


@dataclass(frozen=True)
class EllipticCoefficients:
    """Coefficients of ``- div(a grad y) + c0 y``.

    ``diffusion`` is a symmetric 2x2 array or a callable ``(x1, x2) -> (2, 2)
    arrays`` (when called with coordinate arrays of shape (k,), it must return
    shape (k, 2, 2)).  ``reaction`` is a nonnegative float or a callable on
    coordinate arrays.  ``theta`` is the ellipticity constant the diffusion
    must dominate at every sampled quadrature point.
    """

    diffusion: object = None
    reaction: object = 0.0
    theta: float = 1e-10

    def diffusion_at(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        if self.diffusion is None:
            out = np.zeros((x1.size, 2, 2))
            out[:, 0, 0] = 1.0
            out[:, 1, 1] = 1.0
            return out
        if callable(self.diffusion):
            return np.asarray(self.diffusion(x1, x2), dtype=float)
        a = np.asarray(self.diffusion, dtype=float)
        return np.broadcast_to(a, (x1.size, 2, 2)).copy()

    def reaction_at(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        if callable(self.reaction):
            return np.asarray(self.reaction(x1, x2), dtype=float)
        return np.full(x1.size, float(self.reaction))


def _validate_coefficients(coeffs: EllipticCoefficients, a: np.ndarray,
                           c0: np.ndarray) -> None:
    sym_gap = np.abs(a[:, 0, 1] - a[:, 1, 0]).max() if a.size else 0.0
    if sym_gap > 1e-12:
        raise EllipticityError(f"diffusion is not symmetric (gap {sym_gap:.3e})")
    half_tr = 0.5 * (a[:, 0, 0] + a[:, 1, 1])
    disc = np.sqrt((0.5 * (a[:, 0, 0] - a[:, 1, 1])) ** 2 + a[:, 0, 1] ** 2)
    min_eig = (half_tr - disc).min()
    if min_eig < coeffs.theta:
        raise EllipticityError(
            f"diffusion eigenvalue {min_eig:.3e} below ellipticity "
            f"constant {coeffs.theta:.3e}"
        )
    if c0.min() < 0.0:
        raise EllipticityError(f"reaction takes negative value {c0.min():.3e}")


def element_stiffness(vertices: np.ndarray,
                      coeffs: EllipticCoefficients | None = None) -> np.ndarray:
    """Element stiffness matrix of one triangle.

    Exact for constant coefficients; variable coefficients are integrated
    with the edge-midpoint quadrature rule.
    """
    coeffs = coeffs or EllipticCoefficients()
    v = np.asarray(vertices, dtype=float)
    area, grads = _element_geometry(v[None])
    qx = _QUAD_BARY @ v
    a = coeffs.diffusion_at(qx[:, 0], qx[:, 1])
    c0 = coeffs.reaction_at(qx[:, 0], qx[:, 1])
    _validate_coefficients(coeffs, a, c0)
    return _element_stiffness_blocks(area, grads, a[None], c0[None])[0]


def element_mass(vertices: np.ndarray) -> np.ndarray:
    """Element mass matrix of one triangle."""
    v = np.asarray(vertices, dtype=float)
    area, _ = _element_geometry(v[None])
    return float(area[0]) * _ELEMENT_MASS_PATTERN


def _element_geometry(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Areas and constant basis gradients for a batch of triangles (t, 3, 2)."""
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    area = 0.5 * det
    if np.any(area <= 0):
        raise ValueError("triangle with nonpositive signed area")
    grads = np.empty((p.shape[0], 3, 2))
    # grad of barycentric i is the inward normal of the opposite edge over 2A
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        grads[:, i, 0] = (p[:, j, 1] - p[:, k, 1]) / det
        grads[:, i, 1] = (p[:, k, 0] - p[:, j, 0]) / det
    return area, grads


def _element_stiffness_blocks(area, grads, a_q, c0_q) -> np.ndarray:
    """Stiffness blocks for a batch: a_q, c0_q sampled at the 3 quad points."""
    t = grads.shape[0]
    ke = np.zeros((t, 3, 3))
    w = area / 3.0
    for q in range(3):
        ag = np.einsum("tij,tkj->tki", a_q[:, q], grads)
        ke += w[:, None, None] * np.einsum("tki,tli->tkl", ag, grads)
        phi = _QUAD_BARY[q]
        ke += (w * c0_q[:, q])[:, None, None] * np.outer(phi, phi)[None]
    return ke


@dataclass
class FemOperators:
    """Assembled P1 operators for one mesh and coefficient choice.

    ``K``/``M``/``W`` are restricted to interior nodes (Dirichlet
    elimination); the ``*_full`` variants cover the whole node set.
    ``Kbar_full`` is the pure-Laplacian stiffness used by the H1 norm,
    independent of the problem coefficients.  The operators own their
    factorizations: each is built on first use and kept on the instance, so
    every problem instance sharing these operators shares the factors.
    """

    mesh: Mesh
    K_full: sp.csr_matrix
    Kbar_full: sp.csr_matrix
    M_full: sp.csr_matrix
    W_full: np.ndarray
    interior: np.ndarray
    K: sp.csr_matrix
    M: sp.csr_matrix
    W: np.ndarray
    _spd: dict[str, Factorization] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _augmented: dict[float, AugmentedSolver] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_interior(self) -> int:
        return self.interior.size

    def _spd_factor(self, name: str) -> Factorization:
        fact = self._spd.get(name)
        if fact is None:
            fact = self._spd[name] = factorize_spd(getattr(self, name))
        return fact

    def mass_factor(self) -> Factorization:
        return self._spd_factor("M")

    def mass_full_factor(self) -> Factorization:
        return self._spd_factor("M_full")

    def stiffness_factor(self) -> Factorization:
        return self._spd_factor("K")

    def augmented(self, alpha: float) -> AugmentedSolver:
        """Saddle solver for ``(K M^{-1} K + (1/alpha) M) p = b``, one per alpha."""
        key = float(alpha)
        solver = self._augmented.get(key)
        if solver is None:
            solver = self._augmented[key] = AugmentedSolver(self.K, self.M,
                                                            alpha)
        return solver

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


def assemble(mesh: Mesh, coeffs: EllipticCoefficients | None = None) -> FemOperators:
    """Assemble stiffness, mass, and lumped mass operators on ``mesh``.

    Coefficients are validated for symmetry, uniform ellipticity, and a
    nonnegative reaction at every quadrature point.
    """
    coeffs = coeffs or EllipticCoefficients()
    p = mesh.nodes[mesh.triangles]
    area, grads = _element_geometry(p)

    qx = np.einsum("qj,tjd->tqd", _QUAD_BARY, p)
    flat_x1 = qx[:, :, 0].ravel()
    flat_x2 = qx[:, :, 1].ravel()
    a_q = coeffs.diffusion_at(flat_x1, flat_x2).reshape(-1, 3, 2, 2)
    c0_q = coeffs.reaction_at(flat_x1, flat_x2).reshape(-1, 3)
    _validate_coefficients(coeffs, a_q.reshape(-1, 2, 2), c0_q.ravel())

    ke = _element_stiffness_blocks(area, grads, a_q, c0_q)
    identity_a = np.zeros_like(a_q)
    identity_a[:, :, 0, 0] = 1.0
    identity_a[:, :, 1, 1] = 1.0
    kbar_e = _element_stiffness_blocks(area, grads, identity_a,
                                       np.zeros_like(c0_q))
    me = area[:, None, None] * _ELEMENT_MASS_PATTERN[None]

    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    n = mesh.n_nodes
    K_full = canonicalize(sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(n, n)))
    Kbar_full = canonicalize(
        sp.coo_matrix((kbar_e.ravel(), (rows, cols)), shape=(n, n)))
    M_full = canonicalize(sp.coo_matrix((me.ravel(), (rows, cols)), shape=(n, n)))

    W_full = np.zeros(n)
    np.add.at(W_full, mesh.triangles.ravel(),
              np.repeat(area / 3.0, 3))

    interior = mesh.interior
    K = canonicalize(K_full[np.ix_(interior, interior)])
    M = canonicalize(M_full[np.ix_(interior, interior)])
    W = W_full[interior].copy()

    return FemOperators(
        mesh=mesh,
        K_full=K_full,
        Kbar_full=Kbar_full,
        M_full=M_full,
        W_full=W_full,
        interior=interior,
        K=K,
        M=M,
        W=W,
    )


def interpolate_function(mesh: Mesh, f) -> np.ndarray:
    """Nodal values of ``f`` on the full node set.

    ``f`` is called with coordinate arrays ``(x1, x2)``; scalar-only callables
    are evaluated pointwise.
    """
    x1 = mesh.nodes[:, 0]
    x2 = mesh.nodes[:, 1]
    try:
        vals = np.asarray(f(x1, x2), dtype=float)
        vals = np.broadcast_to(vals, x1.shape).astype(float)
    except (TypeError, ValueError):
        vals = np.array([float(f(a, b)) for a, b in mesh.nodes])
    return vals.copy()


def l1h_norm(W: np.ndarray, u: np.ndarray) -> float:
    """Lumped-mass weighted l1 norm ``sum_i W_i |u_i|``."""
    W = np.asarray(W, dtype=float)
    u = np.asarray(u, dtype=float)
    if np.any(W <= 0):
        raise ValueError("lumped mass weights must be positive")
    return float(np.abs(u) @ W)


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
    """Discrete L2 (mass) and H1 norms of a full nodal vector.

    The H1 norm always uses the pure-Laplacian stiffness, regardless of the
    problem coefficients.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (ops.mesh.n_nodes,):
        raise ValueError(f"vector has shape {z.shape}, expected full node set")
    mz = float(z @ (ops.M_full @ z))
    kz = float(z @ (ops.Kbar_full @ z))
    return float(np.sqrt(mz)), float(np.sqrt(kz + mz))


def dump_operators(ops: FemOperators, outdir) -> list[str]:
    """Write interior K and M in MatrixMarket format and W as plain text."""
    import os

    paths = []
    for name, mat in (("K", ops.K), ("M", ops.M)):
        path = os.path.join(outdir, f"{name}.mtx")
        scipy.io.mmwrite(path, sp.coo_matrix(mat))
        paths.append(path)
    wpath = os.path.join(outdir, "W.txt")
    with open(wpath, "w") as fh:
        for wi in ops.W:
            fh.write(f"{float(wi)!r}\n")
    paths.append(wpath)
    return paths
