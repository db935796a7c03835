"""Sparse direct solves, the complex-symmetric p-solve, and eigenvalue
estimates.

Storage and factorizations are backed by scipy.sparse (CSR matrices, SuperLU
factorizations); this module pins down the contracts the solver relies on:
definiteness checking for symmetric factorizations with a positive definite
real part, a solver for ``(K M^{-1} K + (1/alpha) M) p = b`` that never
forms ``M^{-1}`` explicitly, and deterministic power iteration for extreme
eigenvalues.  The factorizations are held by their users: the SPD factors
of ``M``, ``M_full`` and ``K`` by the cached properties ``mass_factor``,
``mass_full_factor`` and ``stiffness_factor`` of ``assembly.FemOperators``,
the p-solve by ``dual_solver.ProblemInstance.psolve``.  A dual solve
builds the p-solve, ``M_full`` and ``K`` factors; the factor of ``M`` is
built only by dual values taken without the p-solve's multiplier (the
oracle's certificate) and by the spectral checks.

A :class:`Factorization` holds SuperLU's own storage and nothing else.
Its ``fill_nnz`` is ``SuperLU.nnz``, the entries SuperLU stores for both
triangles, supernodal padding included.  The ``L`` and ``U`` attributes of
scipy's ``SuperLU`` are never read: the first read builds CSC copies of
both triangles and the object keeps them as long as it lives, which would
store every factor twice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.linalg._dsolve import _superlu

from .mesh import check_alpha


class DefinitenessError(ValueError):
    """Matrix handed to an SPD factorization is not positive definite."""


def canonicalize(matrix) -> sp.csr_matrix:
    """Return a CSR copy with sorted indices, summed duplicates, no stored zeros."""
    out = sp.csr_matrix(matrix)
    out.sum_duplicates()
    out.eliminate_zeros()
    out.sort_indices()
    return out


@dataclass
class Factorization:
    """Direct factorization handle with a triangular-solve entry point.

    ``_lu`` is the ``SuperLU`` object and holds the only copy of the factor;
    ``fill_nnz`` is its ``nnz``.
    """

    kind: str
    fill_nnz: int
    _lu: object

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve with ``b`` cast (safely) to the factor's dtype."""
        return self._lu.solve(b)


def _triangle_diagonal(arrays, shape) -> np.ndarray:
    return sp.csc_array(arrays, shape=shape).diagonal()


def _splu_with_pivots(csc, options: dict):
    """Factor ``csc`` as ``splu`` does with SuperLU ``options``; return the
    factor and the diagonal of its ``U``.

    SuperLU's pivots are readable only through ``SuperLU.U``, whose first
    read converts both triangles to CSC and caches them on the object.  So
    this factors through the entry point ``splu`` itself calls, after
    ``splu``'s own input preparation, and passes a CSC constructor that
    keeps only each triangle's diagonal: the copies exist while the
    diagonal is read, and the object caches two vectors of length n.
    """
    csc.sum_duplicates()
    csc = csc.astype(np.promote_types(csc.dtype, np.float32), copy=False)
    n = csc.shape[0]
    if max(n, csc.nnz) > np.iinfo(np.intc).max:
        raise ValueError(f"matrix of order {n} with {csc.nnz} entries is too "
                         "large for SuperLU's 32-bit indices")
    lu = _superlu.gstrf(n, csc.nnz, csc.data,
                        csc.indices.astype(np.intc, copy=False),
                        csc.indptr.astype(np.intc, copy=False),
                        csc_construct_func=_triangle_diagonal, ilu=False,
                        options=options)
    # the diagonal _triangle_diagonal kept, not a triangle
    return lu, lu.U


def factorize_spd(matrix) -> Factorization:
    """Factor a real SPD matrix, or a complex symmetric one with SPD real part.

    Pivoting is suppressed (symmetric mode).  The Hermitian part of such a
    matrix, ``Re(A)``, stays positive definite in every Schur complement, so
    the pivots have positive real parts; a non-positive real pivot raises
    :class:`DefinitenessError`.  The pivots are read without keeping a copy
    of either triangle (:func:`_splu_with_pivots`), so the factor holds only
    SuperLU's storage, ``fill_nnz`` entries.
    """
    csc = sp.csc_matrix(matrix)
    if csc.shape[0] != csc.shape[1]:
        raise ValueError(f"matrix is {csc.shape}, expected square")
    lu, pivots = _splu_with_pivots(csc, {"ColPerm": "MMD_AT_PLUS_A",
                                         "DiagPivotThresh": 0.0,
                                         "SymmetricMode": True})
    smallest = pivots.real.min()
    if not np.all(np.isfinite(pivots)) or smallest <= 0.0:
        raise DefinitenessError(
            f"matrix is not positive definite (smallest real pivot {smallest:.3e})")
    return Factorization("spd", lu.nnz, lu)


def factorize_indefinite(matrix) -> Factorization:
    """Factor a general sparse matrix with partial pivoting."""
    lu = spla.splu(sp.csc_matrix(matrix))
    return Factorization("indefinite", lu.nnz, lu)


class AugmentedSolver:
    """Direct solver for ``(K M^{-1} K + (1/alpha) M) p = b``.

    With ``s = 1/sqrt(alpha)``, the n x n complex symmetric ``K + i s M`` is
    factored once, on construction.  The real and imaginary parts of
    ``(K + i s M) x = b`` read ``K Re(x) - s M Im(x) = b`` and
    ``K Im(x) + s M Re(x) = 0``, so ``p = -Im(x)/s`` and
    ``w = Re(x) = M^{-1} K p`` exactly.  K and sM are SPD, so elimination
    without pivoting is stable (Higham, 1998).  The dual sweep reads ``p``
    from its first p-solve (:meth:`solve`) and ``(p, w)`` from its second
    (:meth:`solve_with_multiplier`), where ``w`` gives the dual value with
    no factor of ``M``; ``analysis.apply_g_inverse`` uses :meth:`solve`.
    """

    def __init__(self, K, M, alpha: float):
        check_alpha(alpha)
        self.n = K.shape[0]
        self.s = 1.0 / np.sqrt(alpha)
        self._fact = factorize_spd(K + 1j * self.s * M)

    def solve(self, b: np.ndarray) -> np.ndarray:
        p, _ = self.solve_with_multiplier(b)
        return p

    def solve_with_multiplier(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        b = np.asarray(b, dtype=float)
        if b.shape != (self.n,):
            raise ValueError(f"rhs has shape {b.shape}, expected ({self.n},)")
        x = self._fact.solve(b)
        return -x.imag / self.s, x.real


def power_iteration_extremes(apply, n: int,
                             iters: int = 2000) -> tuple[float, bool]:
    """Estimate the largest eigenvalue of a symmetric positive operator.

    ``apply`` maps a vector of length ``n`` to the operator image.  The
    starting vector is drawn from a fixed seed, so estimates are
    deterministic.  Returns ``(estimate, converged)``; ``converged`` is False
    when the Rayleigh quotient has not stabilized to 1e-13 relative within
    ``iters`` steps.
    """
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = apply(v)
        lam_new = float(v @ w)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0, True
        v = w / norm_w
        if abs(lam_new - lam) <= 1e-13 * max(1.0, abs(lam_new)):
            return lam_new, True
        lam = lam_new
    return lam, False
