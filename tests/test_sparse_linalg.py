"""Factorization wrappers, the complex-symmetric p-solve and the grid
solver."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from pdeabcd import dual_solver, sparse_linalg
from pdeabcd.analysis import compute_tau_h, lam_max_majorizer
from pdeabcd.assembly import assemble
from pdeabcd.mesh import InputError, build_unit_square_mesh
from pdeabcd.presets import make_instance
from pdeabcd.sparse_linalg import (
    AugmentedSolver,
    DefinitenessError,
    GridSolver,
    canonicalize,
    factorize_indefinite,
    factorize_spd,
    power_iteration_extremes,
)


def _random_spd(rng, n=30, density=0.2):
    B = sp.random(n, n, density=density, random_state=np.random.RandomState(7))
    A = (B.T @ B + sp.identity(n)).tocsc()
    return A


def test_canonicalize_formats():
    A = sp.random(10, 10, density=0.3, random_state=np.random.RandomState(1))
    C = canonicalize(A.tolil())
    assert sp.issparse(C)
    assert C.format == "csr"
    assert C.dtype == np.float64
    assert C.has_sorted_indices
    # idempotent up to storage
    assert (canonicalize(C) != C).nnz == 0


def test_factorize_spd_matches_dense(rng):
    # real SPD, and complex symmetric with SPD real part (the p-solve matrix)
    ops = assemble(build_unit_square_mesh(3))
    for A in (_random_spd(rng), ops.K + 1j * 10.0 * ops.M):
        fact = factorize_spd(A)
        b = rng.standard_normal(A.shape[0])
        x = fact.solve(b)
        assert np.allclose(A @ x, b, atol=1e-10)
        x_dense = np.linalg.solve(A.toarray(), b)
        assert np.allclose(x, x_dense, atol=1e-9)


def test_factorize_spd_multiple_rhs(rng):
    A = _random_spd(rng)
    fact = factorize_spd(A)
    B = rng.standard_normal((A.shape[0], 3))
    X = fact.solve(B)
    assert X.shape == B.shape
    assert np.allclose(A @ X, B, atol=1e-9)


def test_factorize_spd_rejects_indefinite():
    # the complex case has an SPD imaginary part but a negative definite real one
    ops = assemble(build_unit_square_mesh(3))
    for A in (sp.diags([1.0, -1.0, 2.0]).tocsc(), -ops.K + 1j * ops.M):
        with pytest.raises(DefinitenessError):
            factorize_spd(A)
    # the message reports the smallest real pivot
    with pytest.raises(DefinitenessError, match=r"smallest real pivot -4\.000e\+00"):
        factorize_spd(-ops.K + 1j * ops.M)


def test_factorize_spd_rejects_singular():
    A = sp.diags([1.0, 0.0, 2.0]).tocsc()
    with pytest.raises((DefinitenessError, RuntimeError)):
        factorize_spd(A)


def test_factorize_spd_rejects_non_square():
    with pytest.raises(ValueError, match="expected square"):
        factorize_spd(sp.identity(4, format="csr")[:3])


def test_factorize_indefinite_saddle(rng):
    # KKT-style saddle matrix: SPD block plus a constraint row
    n = 12
    A = _random_spd(rng, n=n)
    c = sp.csc_matrix(np.ones((1, n)))
    S = sp.bmat([[A, c.T], [c, None]], format="csc")
    fact = factorize_indefinite(S)
    b = rng.standard_normal(n + 1)
    x = fact.solve(b)
    assert np.allclose(S @ x, b, atol=1e-9)


def _saddle(ops):
    return sp.bmat([[ops.M, ops.K], [ops.K, None]], format="csc")


def test_factors_keep_no_copy_of_their_triangles():
    """A factor holds SuperLU's storage only, not CSC copies of L and U.

    numpy reports its buffers to tracemalloc and SuperLU's own storage is
    not traced, so what a live factor keeps is what it copied.  CSC copies
    of both triangles would keep about 18-20 bytes per stored entry.
    """
    ops = assemble(build_unit_square_mesh(5))
    for factorize, A in ((factorize_spd, ops.K + 10j * ops.M),
                         (factorize_indefinite, _saddle(ops))):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fact = factorize(A)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 2 * fact.fill_nnz, (fact.kind, kept, fact.fill_nnz)


@pytest.mark.parametrize("level", [2, 3, 4, 5, 6, 7])
def test_fill_nnz_counts_superlu_storage(level):
    """``fill_nnz`` is ``SuperLU.nnz`` of scipy's ``splu`` with the same options.

    For the solver's SPD factors at levels 3-7 that is also ``L.nnz + U.nnz``;
    SuperLU's count includes stored padding, so at level 2 it is larger.
    """
    inst = make_instance("sine", level)
    ops = inst.ops
    # the instance's own p-solve is a grid solver from level 7 on
    aug = AugmentedSolver(ops, inst.alpha)
    factors = ((ops.M, ops.mass_factor), (ops.M_full, ops.mass_full_factor),
               (ops.K, ops.stiffness_factor),
               (ops.K + 1j * aug.s * ops.M, aug._fact))
    for A, fact in factors:
        lu = spla.splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        assert fact.fill_nnz == lu.nnz
        if level >= 3:
            assert fact.fill_nnz == lu.L.nnz + lu.U.nnz
    assert (factorize_indefinite(_saddle(ops)).fill_nnz
            == spla.splu(_saddle(ops)).nnz)


@pytest.mark.parametrize("level", [3, 5])
@pytest.mark.parametrize("alpha", [1e-4, 1e-2, 1.0])
def test_augmented_solver_identity(rng, level, alpha):
    """x = AugmentedSolver(ops, alpha).solve_with_multiplier(b)[0] solves
    (K M^-1 K + M/alpha) x = b."""
    ops = assemble(build_unit_square_mesh(level))
    aug = AugmentedSolver(ops, alpha)
    b = rng.standard_normal(ops.n_interior)
    x = aug.solve_with_multiplier(b)[0]
    lhs = ops.K @ ops.mass_factor.solve(ops.K @ x) + (ops.M @ x) / alpha
    assert np.allclose(lhs, b, atol=1e-9 * (1.0 + np.abs(b).max()))


def test_augmented_solver_with_multiplier(rng):
    ops = assemble(build_unit_square_mesh(2))
    alpha = 0.05
    aug = AugmentedSolver(ops, alpha)
    b = rng.standard_normal(ops.n_interior)
    x, y = aug.solve_with_multiplier(b)
    # block equations of the symmetric coupled form
    r1 = (ops.M @ x) / alpha + ops.K @ y - b
    r2 = ops.K @ x - ops.M @ y
    assert np.abs(r1).max() < 1e-10 * (1.0 + np.abs(b).max())
    assert np.abs(r2).max() < 1e-10 * (1.0 + np.abs(b).max())
    assert np.allclose(x, aug.solve_with_multiplier(b)[0], atol=1e-12)
    # a direct solve ignores the start the sweep hands its second p-solve
    for start in ((x + 1.0, y), (np.full(3, np.nan), y)):
        x_s, y_s = aug.solve_with_multiplier(b, start)
        assert np.array_equal(x_s, x) and np.array_equal(y_s, y)
    # the state and mass solves are the operators' factors, bit for bit,
    # and the mass solve ignores its start as the p-solve does
    f = rng.standard_normal(ops.n_interior)
    assert np.array_equal(aug.solve_stiffness(f),
                          ops.stiffness_factor.solve(f))
    bf = rng.standard_normal(ops.mesh.n_nodes)
    x_lu = ops.mass_full_factor.solve(bf)
    for x0 in (x_lu + 1.0, np.full(bf.size, np.nan)):
        assert np.array_equal(aug.solve_mass_full(bf, x0), x_lu)


def test_augmented_solver_rejects_wrong_length_rhs():
    ops = assemble(build_unit_square_mesh(2))
    aug = AugmentedSolver(ops, 0.05)
    with pytest.raises(ValueError, match="rhs has shape"):
        aug.solve_with_multiplier(np.ones(ops.n_interior + 1))[0]


@pytest.mark.parametrize("alpha", [0.0, np.inf, np.nan])
def test_augmented_solver_applies_the_alpha_rule(alpha):
    # infinity would give s = 0, and every solve would return NaN
    ops = assemble(build_unit_square_mesh(2))
    with pytest.raises(InputError, match=r"alpha must be in \(0, inf\)"):
        AugmentedSolver(ops, alpha)


def test_dual_solver_never_factors_an_indefinite_matrix(monkeypatch):
    """Every factor the dual solver and its analysis own is an SPD-mode one."""
    def refuse(matrix):
        raise AssertionError("factorize_indefinite called")

    monkeypatch.setattr(sparse_linalg, "factorize_indefinite", refuse)
    inst = make_instance("sine", 3)
    record = dual_solver.solve(inst, dual_solver.SolverConfig(tol=1e-6))
    assert record.converged
    origin = dual_solver.DualIterate.for_instance(inst)
    assert compute_tau_h(inst, origin, record.final) > 0.0
    assert lam_max_majorizer(inst)[0] > 0.0


def test_operators_own_their_factorizations(monkeypatch):
    ops = assemble(build_unit_square_mesh(2))
    assert ops.mass_factor is ops.mass_factor
    assert ops.mass_full_factor is ops.mass_full_factor
    assert ops.stiffness_factor is ops.stiffness_factor
    # the p-solve depends on alpha, so each instance owns its own, built once
    built = []

    def counting(*args):
        built.append(args)
        return AugmentedSolver(*args)

    monkeypatch.setattr(dual_solver, "AugmentedSolver", counting)
    a = make_instance("sine", 2, alpha=1e-2)
    b = make_instance("sine", 2, alpha=2e-2)
    dual_solver.solve(a, dual_solver.SolverConfig(max_iters=3, tol=0.0))
    lam_max_majorizer(a)
    assert len(built) == 1
    assert a.solver is not b.solver
    assert a.solver.s != b.solver.s
    assert len(built) == 2


@pytest.fixture(scope="module")
def ops7():
    return assemble(build_unit_square_mesh(7))


def _grid(ops, alpha):
    return GridSolver(ops.K, ops.M, ops.M_full, ops.W_full, ops.mesh.level,
                      alpha)


@pytest.mark.parametrize("alpha", [1e-8, 1e-2, 1e2])
def test_grid_solver_matches_augmented_solver(rng, ops7, alpha):
    """The grid p-solve meets the factor's residual bound and its answer."""
    ops = ops7
    grid = _grid(ops, alpha)
    aug = AugmentedSolver(ops, alpha)
    b = rng.standard_normal(ops.n_interior)
    bound = 1e-9 * (1.0 + np.abs(b).max())
    x, w = grid.solve_with_multiplier(b)
    lhs = ops.K @ ops.mass_factor.solve(ops.K @ x) + (ops.M @ x) / alpha
    assert np.abs(lhs - b).max() < bound
    assert np.abs((ops.M @ x) / alpha + ops.K @ w - b).max() < bound
    assert np.abs(ops.K @ x - ops.M @ w).max() < bound
    x_lu, w_lu = aug.solve_with_multiplier(b)
    assert np.abs(x - x_lu).max() <= 1e-9 * np.abs(x_lu).max()
    assert np.abs(w - w_lu).max() <= 1e-9 * np.abs(w_lu).max()
    assert np.array_equal(grid.solve_with_multiplier(b)[0], x)


def test_grid_solver_stiffness_solve(rng, ops7):
    grid = _grid(ops7, 1e-2)
    f = rng.standard_normal(ops7.n_interior)
    y = grid.solve_stiffness(f)
    assert np.abs(ops7.K @ y - f).max() < 1e-9 * (1.0 + np.abs(f).max())
    assert np.allclose(y, ops7.stiffness_factor.solve(f), rtol=0.0,
                       atol=1e-12 * np.abs(y).max())


def test_grid_solver_refuses_other_operators():
    ops = assemble(build_unit_square_mesh(3))
    K, M, Mf, W = ops.K, ops.M, ops.M_full, ops.W_full
    lumped = sp.diags(ops.restrict(W)).tocsr()
    bent = K.copy()
    bent[5, 6] += 1e-6
    with pytest.raises(ValueError, match="5-point Laplacian"):
        GridSolver(bent, M, Mf, W, 3, 1e-2)
    with pytest.raises(ValueError, match="5-point Laplacian"):
        GridSolver(K + M, M, Mf, W, 3, 1e-2)
    with pytest.raises(ValueError, match="mass matrix"):
        GridSolver(K, lumped, Mf, W, 3, 1e-2)
    # cells cut along the other diagonal: the same K, M coupled NW and SE
    mirror = np.arange(K.shape[0]).reshape(7, 7)[:, ::-1].ravel()
    assert (K[mirror][:, mirror] != K).nnz == 0
    with pytest.raises(ValueError, match="mass matrix"):
        GridSolver(K, M[mirror][:, mirror], Mf, W, 3, 1e-2)
    with pytest.raises(ValueError, match="expected"):
        GridSolver(K, M, Mf, W, 4, 1e-2)
    with pytest.raises(InputError, match="alpha"):
        GridSolver(K, M, Mf, W, 3, 0.0)
    # the mass solve's preconditioner must be the row sums of M_full
    bumped = W.copy()
    bumped[40] *= 1.01
    with pytest.raises(ValueError, match="row sums"):
        GridSolver(K, M, Mf, bumped, 3, 1e-2)
    with pytest.raises(ValueError, match="expected"):
        GridSolver(K, M, Mf, W[:-1], 3, 1e-2)
    wide = Mf.tolil()
    wide[0, 20] = wide[20, 0] = 1e-3
    with pytest.raises(ValueError, match="seven diagonals"):
        GridSolver(K, M, wide.tocsr(), W, 3, 1e-2)
    with pytest.raises(ValueError, match="expected"):
        GridSolver(K, M, Mf[:-1, :-1], W[:-1], 3, 1e-2)


def test_grid_solver_raises_at_its_step_cap(rng, monkeypatch):
    ops = assemble(build_unit_square_mesh(3))
    grid = _grid(ops, 1e-8)
    b = rng.standard_normal(ops.n_interior)
    assert np.isfinite(grid.solve_with_multiplier(b)[0]).all()
    b_full = rng.standard_normal(ops.mesh.n_nodes)
    x0 = np.zeros_like(b_full)
    assert np.isfinite(grid.solve_mass_full(b_full, x0)).all()
    monkeypatch.setattr(sparse_linalg, "GRID_STEP_CAP", 2)
    with pytest.raises(RuntimeError, match="after 2 corrections"):
        grid.solve_with_multiplier(b)[0]
    with pytest.raises(RuntimeError, match="after 2 steps"):
        grid.solve_mass_full(b_full, x0)


def test_grid_solver_zero_and_nan_rhs():
    ops = assemble(build_unit_square_mesh(3))
    grid = _grid(ops, 1e-2)
    n = ops.n_interior
    # zero in, zero out, also from a start that is not its answer
    start = grid.solve_with_multiplier(np.linspace(-1.0, 1.0, n))
    for args in ((), (start,)):
        p, w = grid.solve_with_multiplier(np.zeros(n), *args)
        assert not p.any() and not w.any()
    # NaN in, NaN out, as with a factor, so solve's guard sees it, also
    # from a start that holds a NaN
    b = np.ones(n)
    b[3] = np.nan
    assert np.isnan(grid.solve_with_multiplier(b)[0]).all()
    p0 = start[0].copy()
    p0[5] = np.nan
    for v in grid.solve_with_multiplier(np.ones(n), (p0, start[1])):
        assert np.isnan(v).all()
    with pytest.raises(ValueError, match="rhs has shape"):
        grid.solve_with_multiplier(np.ones(n + 1))[0]
    with pytest.raises(ValueError, match="rhs has shape"):
        grid.solve_with_multiplier(np.ones(n), (start[0], np.zeros(n + 1)))
    # the mass solve, from a start that is not its answer
    n = ops.mesh.n_nodes
    x0 = np.linspace(-1.0, 1.0, n)
    assert not grid.solve_mass_full(np.zeros(n), x0).any()
    b = np.ones(n)
    b[3] = np.nan
    assert np.isnan(grid.solve_mass_full(b, x0)).all()
    x0[5] = np.nan
    assert np.isnan(grid.solve_mass_full(np.ones(n), x0)).all()
    with pytest.raises(ValueError, match="rhs has shape"):
        grid.solve_mass_full(np.ones(ops.n_interior), np.zeros(n))
    with pytest.raises(ValueError, match="rhs has shape"):
        grid.solve_mass_full(np.ones(n), np.zeros(n + 1))


def test_grid_solver_shared_by_threads_gives_the_serial_answers(rng):
    """``solve`` shares one grid solver between its sweeps (p-solves) and
    its worker (mass solves and state solves)."""
    ops = assemble(build_unit_square_mesh(5))
    grid = _grid(ops, 1e-3)
    rhs = rng.standard_normal((8, ops.n_interior))
    rhs_full = rng.standard_normal((8, ops.mesh.n_nodes))
    x0 = np.zeros(ops.mesh.n_nodes)

    def solves(i):
        b = rhs[i % len(rhs)]
        return (grid.solve_with_multiplier(b), grid.solve_stiffness(b),
                grid.solve_mass_full(rhs_full[i % len(rhs)], x0))

    serial = [solves(i) for i in range(len(rhs))]
    results = {}

    def work(i):
        results[i] = [solves(i) for _ in range(5)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for i, runs in results.items():
        (p0, w0), y0, m0 = serial[i % len(rhs)]
        for (p, w), y, m in runs:
            assert np.array_equal(p, p0) and np.array_equal(w, w0)
            assert np.array_equal(y, y0) and np.array_equal(m, m0)
    assert len(results) == 8


@pytest.mark.parametrize("level", [3, 5, 7])
def test_grid_mass_solve_matches_the_factor(rng, ops7, level, monkeypatch):
    """From zero and from a warm start, the Chebyshev ``M_full`` solve meets
    the backward-error stop and agrees with the factor's answer, within the
    same number of steps at every level."""
    # the error bound 2 / (3^k + 3^-k) falls below 2^-52 at k = 34
    monkeypatch.setattr(sparse_linalg, "GRID_STEP_CAP", 36)
    ops = ops7 if level == 7 else assemble(build_unit_square_mesh(level))
    grid = _grid(ops, 1e-2)
    b = rng.standard_normal(ops.mesh.n_nodes)
    x_lu = ops.mass_full_factor.solve(b)
    for x0 in (np.zeros_like(b), x_lu + 1e-3 * rng.standard_normal(b.size)):
        x = grid.solve_mass_full(b, x0)
        berr = np.abs(b - ops.M_full @ x).max() / (
            ops.W_full.max() * np.abs(x).max() + np.abs(b).max())
        assert berr <= sparse_linalg.GRID_BERR_STOP
        # M_full's condition number is at most 4 max(W) / min(W) = 24
        assert np.abs(x - x_lu).max() <= 1e-13 * np.abs(x_lu).max()
        # the start is copied, never written
        assert not np.shares_memory(x, x0)


@pytest.mark.parametrize("level", [3, 5, 7])
@pytest.mark.parametrize("alpha", [1e-2, 1e-8])
def test_grid_warm_p_solve_matches_the_cold_one(rng, ops7, level, alpha):
    """Started from the answer for a neighbouring right side, as a sweep
    starts its second p-solve, the grid p-solve meets the backward-error
    stop and agrees with the cold solve and with the factor's answer."""
    ops = ops7 if level == 7 else assemble(build_unit_square_mesh(level))
    grid = _grid(ops, alpha)
    s = grid.s
    b_near = rng.standard_normal(ops.n_interior)
    b = b_near + 1e-2 * rng.standard_normal(ops.n_interior)
    p, w = grid.solve_with_multiplier(b, grid.solve_with_multiplier(b_near))
    # x = w - i s p solves (K + i s M) x = b; rebuilt from p = -Im(x)/s,
    # its imaginary part is rounded twice more, which can add about eps
    # to the backward error the solve stopped at
    A = ops.K + 1j * s * ops.M
    x = w - 1j * s * p
    berr = np.abs(b - A @ x).max() / (
        abs(A).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max())
    assert berr <= sparse_linalg.GRID_BERR_STOP + np.finfo(float).eps
    for p_ref, w_ref in (grid.solve_with_multiplier(b),
                         AugmentedSolver(ops, alpha)
                         .solve_with_multiplier(b)):
        x_ref = w_ref - 1j * s * p_ref
        assert np.abs(x - x_ref).max() <= 1e-13 * np.abs(x_ref).max()


def test_grid_solve_builds_no_factorization(monkeypatch):
    """From level 7 a dual solve takes its p-solves, state solves and mass
    solves without a factor: it never calls ``factorize_spd`` and never
    reads ``mass_full_factor``."""
    factored = []

    def recording(matrix):
        factored.append(matrix)
        return factorize_spd(matrix)

    from pdeabcd import assembly

    def refuse(ops):
        raise AssertionError("mass_full_factor read")

    monkeypatch.setattr(sparse_linalg, "factorize_spd", recording)
    monkeypatch.setattr(assembly, "factorize_spd", recording)
    monkeypatch.setattr(assembly.FemOperators, "mass_full_factor",
                        property(refuse))
    inst = make_instance("sine", 7)
    record = dual_solver.solve(inst, dual_solver.SolverConfig(tol=1e-6))
    assert record.converged
    assert factored == []
    assert isinstance(inst.solver, GridSolver)


def test_power_iteration_diagonal():
    d = np.array([0.5, 1.0, 2.0, 3.0, 7.0])
    lam, converged = power_iteration_extremes(lambda v: d * v, d.size)
    assert converged
    assert lam == pytest.approx(7.0, rel=1e-9)


def test_power_iteration_matches_dense_eigvalsh(rng):
    n = 25
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    ev = np.sort(rng.uniform(0.1, 5.0, n))
    A = Q @ np.diag(ev) @ Q.T
    lam, converged = power_iteration_extremes(lambda v: A @ v, n)
    assert converged
    assert lam == pytest.approx(ev[-1], rel=1e-7)
    # smallest eigenvalue through the inverse
    Ainv = np.linalg.inv(A)
    lam_inv, _ = power_iteration_extremes(lambda v: Ainv @ v, n)
    assert 1.0 / lam_inv == pytest.approx(ev[0], rel=1e-6)


def test_power_iteration_zero_operator():
    lam, converged = power_iteration_extremes(lambda v: 0.0 * v, 8)
    assert lam == 0.0
    assert converged


def test_power_iteration_deterministic():
    d = np.linspace(0.2, 4.0, 40)
    a = power_iteration_extremes(lambda v: d * v, d.size)
    b = power_iteration_extremes(lambda v: d * v, d.size)
    assert a == b
