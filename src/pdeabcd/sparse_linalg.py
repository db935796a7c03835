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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


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
    """Direct factorization handle with a triangular-solve entry point."""

    kind: str
    fill_nnz: int
    _lu: object

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve with ``b`` cast (safely) to the factor's dtype."""
        return self._lu.solve(b)


def factorize_spd(matrix) -> Factorization:
    """Factor a real SPD matrix, or a complex symmetric one with SPD real part.

    Pivoting is suppressed (symmetric mode).  The Hermitian part of such a
    matrix, ``Re(A)``, stays positive definite in every Schur complement, so
    the pivots have positive real parts; a non-positive real pivot raises
    :class:`DefinitenessError`.
    """
    csc = sp.csc_matrix(matrix)
    if csc.shape[0] != csc.shape[1]:
        raise ValueError(f"matrix is {csc.shape}, expected square")
    lu = spla.splu(
        csc,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    pivots = lu.U.diagonal()
    smallest = pivots.real.min()
    if not np.all(np.isfinite(pivots)) or smallest <= 0.0:
        raise DefinitenessError(
            f"matrix is not positive definite (smallest real pivot {smallest:.3e})")
    return Factorization("spd", lu.L.nnz + lu.U.nnz, lu)


def factorize_indefinite(matrix) -> Factorization:
    """Factor a general sparse matrix with partial pivoting."""
    csc = sp.csc_matrix(matrix)
    lu = spla.splu(csc)
    return Factorization("indefinite", lu.L.nnz + lu.U.nnz, lu)


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
        if not alpha > 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
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
