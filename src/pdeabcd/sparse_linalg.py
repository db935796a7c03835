"""Sparse direct solves, the complex-symmetric p-solve, fast-transform and
Chebyshev solves on the dyadic grid, eigenvalue estimates, and the one
dot product and norm that every reported number is summed with.

Storage and factorizations are backed by scipy.sparse (CSR matrices, SuperLU
factorizations); this module pins down the contracts the solver relies on:
definiteness checking for symmetric factorizations with a positive definite
real part, deterministic power iteration for extreme eigenvalues, and the
three solves of a dual sweep behind one interface.  The p-solve
``(K M^{-1} K + (1/alpha) M) p = b``, which never forms ``M^{-1}``, the
state solve with ``K`` and the mass solve with ``M_full`` are the methods
``solve_with_multiplier``, ``solve_stiffness`` and ``solve_mass_full`` of
both :class:`AugmentedSolver`, by SuperLU factors, and :class:`GridSolver`,
by sine transforms and Chebyshev semi-iteration, both built as
``(ops, alpha)``.  A problem instance holds one of the two
(``dual_solver.ProblemInstance.solver``).

A :class:`Factorization` holds SuperLU's own storage and nothing else.
Its ``fill_nnz`` is ``SuperLU.nnz``, the entries SuperLU stores for both
triangles, supernodal padding included.  The ``L`` and ``U`` attributes of
scipy's ``SuperLU`` are never read: the first read builds CSC copies of
both triangles and the object keeps them as long as it lives, which would
store every factor twice.

Each heavy scipy submodule is imported by its one user, when that runs:
``scipy.sparse.linalg`` by :func:`factorize_indefinite`, SuperLU's
private ``_superlu`` by :func:`_splu_with_pivots` and ``scipy.fft`` by
:class:`GridSolver`'s constructor.  So ``import pdeabcd`` adds none of
them to what ``import scipy.sparse`` loads by itself, nor does a solve on
the grid path, from ``dual_solver.GRID_MIN_N`` interior unknowns on.  With
scipy releases whose ``scipy.sparse`` loads ``csgraph`` and ``linalg``
lazily, as 1.17 does, such a solve never loads the factor stack; a
release that imports ``csgraph`` with ``scipy.sparse`` loads
``scipy.sparse.linalg`` with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec, dia_matvec

from .mesh import check_alpha


class DefinitenessError(ValueError):
    """Matrix handed to an SPD factorization is not positive definite."""


def pattern_positions(pattern: sp.csr_matrix, rows: np.ndarray,
                      cols: np.ndarray) -> np.ndarray:
    """Where the entry ``(rows[e], cols[e])`` is stored in ``pattern``'s
    data, for every ``e``; ``ValueError`` if one is not stored.

    scipy's CSR entry lookup samples them from a matrix on ``pattern``'s
    index arrays whose data is one plus each entry's place, so an entry
    not stored reads 0.
    """
    places = sp.csr_matrix(
        (np.arange(1, pattern.nnz + 1, dtype=pattern.indices.dtype),
         pattern.indices, pattern.indptr), shape=pattern.shape)
    at = np.asarray(places[rows, cols]).ravel()
    if not at.all():
        raise ValueError("an entry is not in the pattern")
    at -= 1
    return at


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
    Public ``splu`` with one ``U.diagonal()`` read would keep both
    triangles, about 20 bytes per stored entry, and raised the resident
    peaks of the perfbench ``certify-L6`` and ``mesh-indep`` workloads by
    about 10 and 4 MB, so this hook stays.
    """
    from scipy.sparse.linalg._dsolve import _superlu

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
    from scipy.sparse.linalg import splu

    lu = splu(sp.csc_matrix(matrix))
    return Factorization("indefinite", lu.nnz, lu)


def _rhs(b, n: int, copy: bool = False) -> np.ndarray:
    """``b`` as a float array of shape ``(n,)``, the one input rule of every
    solve method of both solvers: an int, bool or float32 ``b`` is cast, a
    complex one refused with ``TypeError``, never cut to its real part.
    Without ``copy`` a float ``b`` comes back itself, so a solve writes
    only into an array that ``copy=True`` made."""
    b = np.asarray(b).astype(float, casting="safe", copy=copy)
    if b.shape != (n,):
        raise ValueError(f"rhs has shape {b.shape}, expected ({n},)")
    return b


class AugmentedSolver:
    """Direct solves for a dual sweep on the operators ``ops``.

    With ``s = 1/sqrt(alpha)``, the n x n complex symmetric ``K + i s M`` is
    factored once, on the first p-solve, so an instance that only takes
    state or mass solves never factors it.  The real and imaginary parts of
    ``(K + i s M) x = b`` read ``K Re(x) - s M Im(x) = b`` and
    ``K Im(x) + s M Re(x) = 0``, so ``p = -Im(x)/s`` and
    ``w = Re(x) = M^{-1} K p`` exactly.  K and sM are SPD, so elimination
    without pivoting is stable (Higham, 1998).  The dual sweep takes
    ``(p, w)`` from both of its p-solves (:meth:`solve_with_multiplier`):
    ``w`` of the second gives the dual value with no factor of ``M``.
    :meth:`solve_stiffness` and :meth:`solve_mass_full` solve with the
    factors of ``K`` and ``M_full`` that ``ops`` owns and builds on first
    use, so the oracle and the checks share them.  The starts that the
    sweep hands its second p-solve and its mass solve, and the stops it
    hands all three, are ignored; they keep the contract of
    :class:`GridSolver`, which iterates from the starts to the stops.
    """

    def __init__(self, ops, alpha: float):
        check_alpha(alpha)
        self.n = ops.n_interior
        self.n_full = ops.mesh.n_nodes
        self.s = 1.0 / np.sqrt(alpha)
        self._ops = ops

    @cached_property
    def _fact(self) -> Factorization:
        return factorize_spd(self._ops.K + 1j * self.s * self._ops.M)

    def solve_with_multiplier(self, b: np.ndarray, start=None, stop=None
                              ) -> tuple[np.ndarray, np.ndarray]:
        """``(p, w)`` for the right side ``b``; ``start`` and ``stop`` are
        ignored."""
        x = self._fact.solve(_rhs(b, self.n))
        return -x.imag / self.s, x.real.copy()

    def solve_stiffness(self, f: np.ndarray) -> np.ndarray:
        """``K^-1 f`` by the ``K`` factor of the operators."""
        return self._ops.stiffness_factor.solve(_rhs(f, self.n))

    def solve_mass_full(self, b: np.ndarray, x0: np.ndarray, stop=None
                        ) -> np.ndarray:
        """``M_full^-1 b`` by the ``M_full`` factor of the operators;
        ``x0`` and ``stop`` are ignored."""
        return self._ops.mass_full_factor.solve(_rhs(b, self.n_full))


# the stop rule of both grid iterations, read only by _corrections
GRID_BERR_STOP = 2.0 * np.finfo(float).eps
GRID_BERR_MAX = 1e-12
GRID_STEP_CAP = 64


def _inf_norm(v: np.ndarray) -> float:
    """``|v|_inf``; for a real ``v`` without the temporary ``np.abs(v)``."""
    return np.abs(v).max() if np.iscomplexobj(v) else max(v.max(), -v.min())


def _corrections(what: str, b: np.ndarray, x: np.ndarray, a_inf: float,
                 residual, stop: float | None = None):
    """Yield ``r = residual(x)``, ``b - A x``, while ``x`` needs a step,
    which the caller makes in place: while the backward error
    ``|r|_inf / (a_inf |x|_inf + |b|_inf)``, ``a_inf = |A|_inf``, is above
    ``max(stop, GRID_BERR_STOP)`` and fewer than ``GRID_STEP_CAP`` steps
    are made; without a ``stop``, above ``GRID_BERR_STOP``.  Then a NaN
    backward error makes ``x`` all NaN, and one above
    ``max(stop, GRID_BERR_MAX)`` raises ``RuntimeError`` naming the grid
    ``what``."""
    stop = GRID_BERR_STOP if stop is None else max(stop, GRID_BERR_STOP)
    limit = max(stop, GRID_BERR_MAX)
    b_inf = _inf_norm(b)
    steps = 0
    while True:
        r = residual(x)
        berr = _inf_norm(r) / (a_inf * _inf_norm(x) + b_inf)
        if not (berr > stop and steps < GRID_STEP_CAP):
            break
        yield r
        steps += 1
    if berr != berr:
        x.view(float).fill(np.nan)  # both parts of a complex x
    elif berr > limit:
        raise RuntimeError(f"grid {what} stopped at backward error "
                           f"{berr:.3e} after {steps} steps; at most "
                           f"{limit:g} is accepted")


def _grid_stencils(v: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The 5-point Laplacian and the 7-point stencil (6 at the centre; 1 at
    E, W, N, S, NE and SW) applied to ``v`` on the ``m x m`` grid, in (y, x)
    order with zero boundary values."""
    g = np.zeros((m + 2, m + 2))
    g[1:-1, 1:-1] = v.reshape(m, m)
    centre = g[1:-1, 1:-1]
    cross = g[1:-1, 2:] + g[1:-1, :-2] + g[2:, 1:-1] + g[:-2, 1:-1]
    five = 4.0 * centre - cross
    seven = 6.0 * centre + cross + g[2:, 2:] + g[:-2, :-2]
    return five.ravel(), seven.ravel()


class GridSolver:
    """Solves with ``K`` and ``K + i s M`` by fast sine transforms, and with
    ``M_full`` by Chebyshev semi-iteration.

    ``ops`` are the operators of the level-``level`` mesh of
    ``mesh.build_unit_square_mesh``.  With ``m = 2^level - 1`` interior
    nodes per side and cell width ``c = 2^-level``, ``K`` is the 5-point
    Laplacian and ``M`` is ``c^2/12`` times the 7-point stencil with 6 at
    the centre and 1 at E, W, N, S, NE and SW.  Both are checked on
    construction: ``K @ v`` and ``M @ v`` must match the stencils for one
    fixed ``v``, and any other operator is refused with ``ValueError``.

    The orthonormal 2-D DST-I diagonalizes ``K``, with eigenvalues
    ``4 - 2 cos t_i - 2 cos t_j``, ``t_k = k pi / (m + 1)``, so
    :meth:`solve_stiffness` is two transforms and a division, exact up to
    roundoff (Buzbee, Golub and Nielson, 1970).  It also diagonalizes
    ``M~ = c^2/12 (6 I + T_x + T_y + T_x T_y / 2)``, ``T`` the sum of the
    two 1-D shifts: the average of ``M`` over both diagonal orientations,
    with eigenvalues ``c^2/12 (4 + 2 (1 + cos t_i)(1 + cos t_j)) >= c^2/3``.
    ``M - M~`` is ``c^2/24`` times the product of the two skew differences,
    so ``||M - M~||_2 <= c^2/6``.

    The p-solve ``(K + i s M) x = b``, ``s = 1/sqrt(alpha)``, takes
    Richardson steps preconditioned with ``P = K + i s M~`` (Chan and Ng,
    1996): ``x = P^-1 b``, then ``x += P^-1 (b - (K + i s M) x)``.  The error
    maps by ``P^-1 i s (M~ - M)``; ``P`` is normal with ``|P| >= s c^2/3``,
    so each step at least halves the error's 2-norm, for every alpha and
    level.  Given the ``(p, w)`` of an earlier solve as ``start``, the
    loop begins at that solve's ``x = w - i s p`` in place of ``P^-1 b``.
    The dual sweep starts its second p-solve from its first, whose right
    side differs only by the lam update's term.

    :meth:`solve_mass_full` solves ``M_full x = b`` on the full node set,
    with ``W`` the lumped mass.  For P1 triangles ``W/4 <= M_full <= W``
    (Wathen, 1987), so Chebyshev semi-iteration preconditioned with ``W``
    on the interval [1/4, 1] leaves at most ``2 / (3^k + 3^-k)`` of the
    error's ``M_full``-norm after ``k`` steps, at every level (Wathen and
    Rees, 2009).  The constructor refuses a ``W`` that is not ``M_full``'s
    row sums and an ``M_full`` off the grid's seven diagonals, on which it
    is held in DIA storage, whose product is faster than CSR's.  In a dual
    solve it runs on the solve's worker thread, beside the next sweep's
    p-solves, started at the extrapolated mu.

    Both iterations keep one stop rule, :func:`_corrections`.  A solve
    with ``A``, ``K + i s M`` or ``M_full``, stops once the backward error
    ``|b - A x|_inf / (|A|_inf |x|_inf + |b|_inf)`` is at most
    ``GRID_BERR_STOP``; ``|M_full|_inf = max(W)``, since ``M_full`` has
    nonnegative entries and row sums ``W``.  After ``GRID_STEP_CAP`` steps
    it returns only an answer within ``GRID_BERR_MAX`` and raises
    ``RuntimeError`` otherwise, and a NaN backward error gives all NaN, as
    a factor's solve does for a NaN in.  The rule is the same from any
    start, so a warm answer is as exact as a cold one.  A dual sweep
    passes its solves a looser ``stop``, its schedule's ``tol k^-3``
    (``dual_solver._sweep_stop``): they stop at ``max(stop,
    GRID_BERR_STOP)`` and raise only above ``max(stop, GRID_BERR_MAX)``.
    A loose p-solve from a start, the sweep's second, returns
    ``(K^-1 M w, w)``: one more pair of transforms and a product with
    ``M`` make ``K p = M w`` hold to roundoff, so its ``w`` is exactly the
    ``M^-1 K p`` that the dual value reads.  A cold one, whose pair only
    feeds the lam update and starts the second, returns ``-Im(x)/s`` as
    iterated.

    A solve keeps its scratch in arrays of its own call, never on the
    object: its iterate, one residual buffer in which each step is formed
    (:meth:`_richardson`, and the mass solve's), and the right side's copy
    that the transforms overwrite (:meth:`_diagonal_solve`).  It writes to
    none of its inputs and returns arrays of its own, so ``b``, a start
    and ``x0`` come back as they went in, and a ``w`` is not a view of the
    complex iterate.  :class:`AugmentedSolver` has the same constructor and
    solve methods.  The object is not changed by a solve, so two threads
    may solve with it at once.  ``scipy.fft`` is imported by the
    constructor, its one user, by the module's rule for heavy scipy
    submodules: at module level it would lengthen every import of the
    package, and only instances from ``dual_solver.GRID_MIN_N`` interior
    unknowns on use it.
    """

    def __init__(self, ops, alpha: float):
        from scipy.fft import dstn

        check_alpha(alpha)
        K, M, M_full, level = ops.K, ops.M, ops.M_full, ops.mesh.level
        m = 2**level - 1
        self.n = m * m
        self.n_full = (m + 2) ** 2
        if K.shape != (self.n, self.n) or M.shape != (self.n, self.n):
            raise ValueError(f"K is {K.shape} and M is {M.shape}, expected "
                             f"{(self.n, self.n)} at level {level}")
        W_full = np.asarray(ops.W_full, dtype=float)
        if M_full.shape != (self.n_full, self.n_full) \
                or W_full.shape != (self.n_full,):
            raise ValueError(f"M_full is {M_full.shape} and W is "
                             f"{W_full.shape}, expected "
                             f"{(self.n_full, self.n_full)} and "
                             f"({self.n_full},) at level {level}")
        c2 = 4.0 ** -level
        v = np.random.default_rng(0).standard_normal(self.n)
        five, seven = _grid_stencils(v, m)
        v_inf = np.abs(v).max()
        if np.abs(K @ v - five).max() > 1e-12 * v_inf:
            raise ValueError(f"K is not the 5-point Laplacian of the level-"
                             f"{level} grid")
        if np.abs(M @ v - c2 / 12.0 * seven).max() > 1e-12 * c2 * v_inf:
            raise ValueError(f"M is not the P1 mass matrix of the level-"
                             f"{level} grid")
        self._m = m
        self.s = 1.0 / np.sqrt(alpha)
        self._dst = partial(dstn, type=1, norm="ortho")
        cos = np.cos(np.pi * np.arange(1, m + 1) / (m + 1))
        ci, cj = cos[:, None], cos[None, :]
        k_eig = 4.0 - 2.0 * ci - 2.0 * cj
        m_eig = c2 / 12.0 * (6.0 + 2.0 * ci + 2.0 * cj + 2.0 * ci * cj)
        self._k_inv = 1.0 / k_eig
        self._p_inv = 1.0 / (k_eig + 1j * self.s * m_eig)
        self._M = M
        # K + i s M, written on M's pattern, which holds K's, and sharing
        # M's index arrays: the entries of scipy's sum, with real part 0
        # where K stores none
        a = np.zeros(M.nnz, dtype=complex)
        np.multiply(M.data, self.s, out=a.imag)
        k_rows = np.repeat(np.arange(self.n, dtype=K.indptr.dtype),
                           np.diff(K.indptr))
        a.real[pattern_positions(M, k_rows, K.indices)] = K.data
        del k_rows
        self._A = sp.csr_matrix((a, M.indices, M.indptr), shape=M.shape)
        # |A|_inf as scipy's row sums of abs(A); every row of M holds its
        # diagonal, so none is empty
        self._a_inf = float(np.add.reduceat(np.abs(a), M.indptr[:-1]).max())
        # M_full in DIA storage, read off its seven diagonals: the data of
        # sp.dia_matrix(M_full), without that conversion's COO copy and sort
        offsets = [-m - 3, -m - 2, -1, 0, 1, m + 2, m + 3]
        diagonals = np.zeros((len(offsets), self.n_full))
        for row, k in zip(diagonals, offsets):
            row[max(k, 0):self.n_full + min(k, 0)] = M_full.diagonal(k)
        if np.count_nonzero(diagonals) != M_full.count_nonzero():
            raise ValueError(f"M_full is not on the seven diagonals of the "
                             f"level-{level} grid")
        mass = sp.dia_matrix((diagonals, offsets), shape=M_full.shape)
        self._w_max = W_full.max()
        if np.abs(mass @ np.ones(self.n_full) - W_full).max() \
                > 1e-12 * self._w_max:
            raise ValueError("W is not the row sums of M_full")
        self._w_inv = 1.0 / W_full
        np.negative(mass.data, out=mass.data)
        self._neg_mass_full = mass

    def _diagonal_solve(self, eig_inv: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``S diag(eig_inv) S v`` with ``S`` the 2-D DST-I.  ``v`` is an
        array of ``eig_inv``'s dtype, float64 or complex128, that the caller
        gives up: the transforms may overwrite it, and run in it where the
        scipy.fft backend can."""
        x = self._dst(v.reshape(self._m, self._m), overwrite_x=True)
        x *= eig_inv
        return self._dst(x, overwrite_x=True).ravel()

    def solve_stiffness(self, f: np.ndarray) -> np.ndarray:
        """``K^-1 f``, exact up to roundoff."""
        return self._diagonal_solve(self._k_inv, _rhs(f, self.n, copy=True))

    def _richardson(self, b: np.ndarray, x: np.ndarray, stop) -> None:
        """Richardson steps on ``x``, in place, to the backward error
        ``stop`` (:func:`_corrections`): each residual, and the step formed
        from it, in one buffer of this call."""
        n, A = self.n, self._A
        r = np.empty(n, dtype=complex)

        def residual(x):
            # b - A x in r: A @ x is scipy's CSR kernel adding A x into
            # zeros, which this calls on r itself
            r.fill(0.0)
            csr_matvec(n, n, A.indptr, A.indices, A.data, x, r)
            return np.subtract(b, r, out=r)

        for r_k in _corrections("p-solve", b, x, self._a_inf, residual, stop):
            x += self._diagonal_solve(self._p_inv, r_k)

    def solve_with_multiplier(self, b: np.ndarray, start=None, stop=None
                              ) -> tuple[np.ndarray, np.ndarray]:
        """``(p, w)`` for the right side ``b``, iterated from ``start``, the
        ``(p, w)`` of an earlier solve, when one is given, to the backward
        error ``stop`` (:func:`_corrections`).  Started and stopped above
        ``GRID_BERR_STOP``, the pair is ``(K^-1 M w, w)``."""
        b = _rhs(b, self.n)
        if start is not None:
            p0, w0 = (_rhs(v, self.n) for v in start)
        if not b.any():
            # zero in, zero out, as a factor's solve gives, from any start:
            # iterated from a nonzero one the backward error never falls
            return np.zeros(self.n), np.zeros(self.n)
        if start is None:
            x = self._diagonal_solve(self._p_inv, b.astype(complex))
        else:
            x = w0 - 1j * self.s * p0
        self._richardson(b, x, stop)
        w = x.real.copy()
        if start is not None and stop is not None and stop > GRID_BERR_STOP:
            # K p = M w to roundoff, so w is M^-1 K p of the p returned
            return self._diagonal_solve(self._k_inv, self._M @ w), w
        return -x.imag / self.s, w

    def solve_mass_full(self, b: np.ndarray, x0: np.ndarray, stop=None
                        ) -> np.ndarray:
        """``M_full^-1 b`` by Chebyshev semi-iteration started at ``x0``, to
        the backward error ``stop`` (:func:`_corrections`)."""
        n = self.n_full
        b = _rhs(b, n)
        x = _rhs(x0, n, copy=True)
        if not b.any():
            # zero in, zero out, as a factor's solve gives, from any x0
            return np.zeros(n)
        neg = self._neg_mass_full
        r = np.empty(n)

        def residual(x):
            # b - M_full x by scipy's DIA kernel, which adds -M_full x into
            # r in place: b - M_full @ x allocates the product and is slower
            np.copyto(r, b)
            dia_matvec(n, n, neg.offsets.size, neg.data.shape[1],
                       neg.offsets, neg.data, x, r)
            return r

        # W^-1 M_full has its spectrum in [theta - delta, theta + delta]
        theta, delta = 0.625, 0.375
        d = np.zeros(n)
        rho = delta / theta
        for steps, r in enumerate(_corrections("mass solve", b, x,
                                               self._w_max, residual, stop)):
            # the step's W^-1 r, in r, which the next residual rewrites
            z = np.multiply(r, self._w_inv, out=r)
            if steps:
                rho_next = 1.0 / (2.0 * theta / delta - rho)
                d *= rho_next * rho
                z *= 2.0 * rho_next / delta
                rho = rho_next
            else:
                z /= theta
            d += z
            x += d
        return x


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """``a . b`` summed by numpy's own loop rather than BLAS.

    Every reduction whose value reaches an output goes through here (or
    :func:`norm`), for two reasons.  The sum does not depend on the BLAS
    thread count: a threaded BLAS ``ddot`` splits a long vector among its
    threads, so its last bits change with ``OPENBLAS_NUM_THREADS``.  And it
    leaves no BLAS thread pool spinning on the core that the worker of a
    large ``dual_solver.solve`` (its mass solves and diagnostics) runs on.
    """
    return float(np.einsum("i,i->", a, b))


def norm(v: np.ndarray) -> float:
    """Euclidean norm through :func:`dot`."""
    return float(np.sqrt(dot(v, v)))


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
    v /= norm(v)
    lam = 0.0
    for _ in range(iters):
        w = apply(v)
        lam_new = dot(v, w)
        norm_w = norm(w)
        if norm_w == 0.0:
            return 0.0, True
        v = w / norm_w
        if abs(lam_new - lam) <= 1e-13 * max(1.0, abs(lam_new)):
            return lam_new, True
        lam = lam_new
    return lam, False
