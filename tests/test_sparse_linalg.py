"""Factorization wrappers, the complex-symmetric p-solve and the grid
solver."""

import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse._sparsetools import dia_matvec

from pdeabcd import dual_solver, sparse_linalg
from pdeabcd.analysis import compute_tau_h, lam_max_majorizer
from pdeabcd.assembly import assemble
from pdeabcd.mesh import InputError, build_unit_square_mesh
from pdeabcd.presets import make_instance
from pdeabcd.sparse_linalg import (
    AugmentedSolver,
    DefinitenessError,
    GridSolver,
    factorize_indefinite,
    factorize_spd,
    power_iteration_extremes,
)


def _random_spd(rng, n=30, density=0.2):
    B = sp.random(n, n, density=density, random_state=np.random.RandomState(7))
    A = (B.T @ B + sp.identity(n)).tocsc()
    return A


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
    of both triangles would keep about 18-20 bytes per stored entry.  Only
    allocations with a scipy or package frame on their stack are counted,
    so one made elsewhere in the process meanwhile is not.
    """
    ops = assemble(build_unit_square_mesh(5))
    frames = [tracemalloc.Filter(True, os.path.join(os.path.dirname(
        module.__file__), "*"), all_frames=True)
        for module in (scipy, sparse_linalg)]
    for factorize, A in ((factorize_spd, ops.K + 10j * ops.M),
                         (factorize_indefinite, _saddle(ops))):
        tracemalloc.start(50)
        try:
            before = tracemalloc.take_snapshot().filter_traces(frames)
            fact = factorize(A)
            after = tracemalloc.take_snapshot().filter_traces(frames)
        finally:
            tracemalloc.stop()
        kept = sum(stat.size_diff
                   for stat in after.compare_to(before, "filename"))
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


@pytest.mark.parametrize("cls", [AugmentedSolver, GridSolver],
                         ids=lambda cls: cls.__name__)
def test_augmented_solver_rejects_wrong_length_rhs(cls):
    """Both solvers, the grid one forced onto level 3, refuse a right side
    of the wrong length with ``ValueError`` and a complex one with
    ``TypeError`` in all three solve methods, the grid one also a complex
    start, and solve an int, bool or float32 right side as its float64
    cast, bit for bit."""
    ops = assemble(build_unit_square_mesh(3))
    solver = cls(ops, 0.05)
    n, n_full = ops.n_interior, ops.mesh.n_nodes
    with pytest.raises(ValueError, match="rhs has shape"):
        solver.solve_with_multiplier(np.ones(n + 1))
    with pytest.raises(ValueError, match="rhs has shape"):
        solver.solve_stiffness(np.ones(n + 1))
    with pytest.raises(ValueError, match="rhs has shape"):
        solver.solve_mass_full(np.ones(n), np.zeros(n_full))
    x0 = np.zeros(n_full)
    with pytest.raises(TypeError):
        solver.solve_with_multiplier(1j * np.ones(n))
    with pytest.raises(TypeError):
        solver.solve_stiffness(1j * np.ones(n))
    with pytest.raises(TypeError):
        solver.solve_mass_full(1j * np.ones(n_full), x0)
    if cls is GridSolver:
        p0, w0 = solver.solve_with_multiplier(np.ones(n))
        with pytest.raises(TypeError):
            solver.solve_with_multiplier(np.ones(n), (1j * p0, w0))
        with pytest.raises(TypeError):
            solver.solve_mass_full(np.ones(n_full), 1j * np.ones(n_full))

    def answers(b, b_full):
        return (*solver.solve_with_multiplier(b), solver.solve_stiffness(b),
                solver.solve_mass_full(b_full, x0))

    b, b_full = np.arange(n) % 7 - 3, np.arange(n_full) % 5 - 2
    for v, v_full in ((b, b_full), (b > 0, b_full > 0),
                      (b.astype(np.float32), b_full.astype(np.float32))):
        exact = answers(v.astype(float), v_full.astype(float))
        for got, want in zip(answers(v, v_full), exact):
            assert got.dtype == np.float64 and np.array_equal(got, want)


def test_both_solvers_keep_one_contract(rng):
    """Forced onto level 3, the grid solver gives the factored solver's
    answers within 1e-12 relative in all three solve methods, and both
    give zeros for a zero right side, from a nonzero start, and all NaN
    for a right side holding a NaN."""
    ops = assemble(build_unit_square_mesh(3))
    n, n_full = ops.n_interior, ops.mesh.n_nodes
    b, f = rng.standard_normal(n), rng.standard_normal(n)
    b_full = rng.standard_normal(n_full)
    x0 = np.linspace(-1.0, 1.0, n_full)
    b_nan, b_full_nan = b.copy(), b_full.copy()
    b_nan[3] = b_full_nan[3] = np.nan
    answers = []
    for solver in (AugmentedSolver(ops, 1e-2), GridSolver(ops, 1e-2)):
        start = solver.solve_with_multiplier(b)
        for v in solver.solve_with_multiplier(np.zeros(n), start):
            assert not v.any()
        assert not solver.solve_stiffness(np.zeros(n)).any()
        assert not solver.solve_mass_full(np.zeros(n_full), x0).any()
        for v in solver.solve_with_multiplier(b_nan):
            assert np.isnan(v).all()
        assert np.isnan(solver.solve_stiffness(b_nan)).all()
        assert np.isnan(solver.solve_mass_full(b_full_nan, x0)).all()
        answers.append((*start, solver.solve_stiffness(f),
                        solver.solve_mass_full(b_full, x0)))
    for factored, grid in zip(*answers):
        assert np.abs(grid - factored).max() <= 1e-12 * np.abs(factored).max()


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


def test_the_p_solve_factor_is_built_by_the_first_p_solve(monkeypatch):
    """A state solve reads only the ``K`` factor: the primal value of a
    fresh instance factors once, in real arithmetic, and the instance's
    ``K + i s M`` is factored by its first p-solve."""
    factored = []

    def recording(matrix):
        factored.append(matrix.dtype)
        return factorize_spd(matrix)

    from pdeabcd import assembly

    monkeypatch.setattr(sparse_linalg, "factorize_spd", recording)
    monkeypatch.setattr(assembly, "factorize_spd", recording)
    inst = make_instance("sine", 3)
    dual_solver.primal_value(inst, np.zeros(inst.n_full))
    assert factored == [np.float64]
    inst.solver.solve_with_multiplier(np.ones(inst.n))
    assert factored == [np.float64, np.complex128]


@pytest.fixture(scope="module")
def ops7():
    return assemble(build_unit_square_mesh(7))


@pytest.mark.parametrize("alpha", [1e-8, 1e-2, 1e2])
def test_grid_solver_matches_augmented_solver(rng, ops7, alpha):
    """The grid p-solve meets the factor's residual bound and its answer."""
    ops = ops7
    grid = GridSolver(ops, alpha)
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
    grid = GridSolver(ops7, 1e-2)
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
        GridSolver(replace(ops, K=bent), 1e-2)
    with pytest.raises(ValueError, match="5-point Laplacian"):
        GridSolver(replace(ops, K=K + M), 1e-2)
    with pytest.raises(ValueError, match="mass matrix"):
        GridSolver(replace(ops, M=lumped), 1e-2)
    # cells cut along the other diagonal: the same K, M coupled NW and SE
    mirror = np.arange(K.shape[0]).reshape(7, 7)[:, ::-1].ravel()
    assert (K[mirror][:, mirror] != K).nnz == 0
    with pytest.raises(ValueError, match="mass matrix"):
        GridSolver(replace(ops, M=M[mirror][:, mirror]), 1e-2)
    with pytest.raises(ValueError, match="expected"):
        GridSolver(replace(ops, mesh=build_unit_square_mesh(4)), 1e-2)
    with pytest.raises(InputError, match="alpha"):
        GridSolver(ops, 0.0)
    # the mass solve's preconditioner must be the row sums of M_full
    bumped = W.copy()
    bumped[40] *= 1.01
    with pytest.raises(ValueError, match="row sums"):
        GridSolver(replace(ops, W_full=bumped), 1e-2)
    with pytest.raises(ValueError, match="expected"):
        GridSolver(replace(ops, W_full=W[:-1]), 1e-2)
    wide = Mf.tolil()
    wide[0, 20] = wide[20, 0] = 1e-3
    with pytest.raises(ValueError, match="seven diagonals"):
        GridSolver(replace(ops, M_full=wide.tocsr()), 1e-2)
    with pytest.raises(ValueError, match="expected"):
        GridSolver(replace(ops, M_full=Mf[:-1, :-1]), 1e-2)
    # an entry of K off M's pattern, too small for the stencil check
    stray = K.tolil()
    stray[0, 2] = 1e-20
    with pytest.raises(ValueError, match="pattern"):
        GridSolver(replace(ops, K=stray.tocsr()), 1e-2)


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("level", [2, 3, 4, 5])
@pytest.mark.parametrize("preset", ["sine", "shifted"])
def test_grid_solver_operators_are_scipys_bitwise(level, preset):
    """``_A`` is written on ``M``'s pattern and shares its index arrays,
    ``|A|_inf`` is summed from its data, and the DIA mass is read off the
    diagonals and negated in place; each is bit for bit what scipy's sum,
    row sums and conversion give."""
    inst = make_instance(preset, level)
    ops = inst.ops
    grid = GridSolver(ops, inst.alpha)
    A = (ops.K + 1j * grid.s * ops.M).tocsr()
    for part in ("data", "indices", "indptr"):
        assert _same_bytes(getattr(grid._A, part), getattr(A, part)), part
    assert np.shares_memory(grid._A.indices, ops.M.indices)
    assert np.shares_memory(grid._A.indptr, ops.M.indptr)
    assert grid._a_inf == float(abs(A).sum(axis=1).max())
    neg = -sp.dia_matrix(ops.M_full)
    assert _same_bytes(grid._neg_mass_full.data, neg.data)
    assert _same_bytes(grid._neg_mass_full.offsets, neg.offsets)
    assert grid._neg_mass_full.shape == neg.shape


def test_grid_solver_construction_transient_stays_below_what_it_keeps():
    """At level 7 the traced peak of the constructor is at most twice the
    bytes of the arrays it keeps: no complex copy of ``K``, no ``1j s M``,
    no ``abs(A)`` and no COO copy for the DIA mass."""
    import scipy.fft  # noqa: F401  the constructor's import is not its work

    ops = assemble(build_unit_square_mesh(7))
    tracemalloc.start()
    try:
        grid = GridSolver(ops, 1e-2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for a in (grid._A.data, grid._neg_mass_full.data,
                                  grid._k_inv, grid._p_inv, grid._w_inv))
    assert peak <= 2 * kept, (peak, kept)


def test_grid_solver_raises_at_its_step_cap(rng, monkeypatch):
    ops = assemble(build_unit_square_mesh(3))
    grid = GridSolver(ops, 1e-8)
    b = rng.standard_normal(ops.n_interior)
    assert np.isfinite(grid.solve_with_multiplier(b)[0]).all()
    b_full = rng.standard_normal(ops.mesh.n_nodes)
    x0 = np.zeros_like(b_full)
    assert np.isfinite(grid.solve_mass_full(b_full, x0)).all()
    monkeypatch.setattr(sparse_linalg, "GRID_STEP_CAP", 2)
    with pytest.raises(RuntimeError, match="after 2 steps"):
        grid.solve_with_multiplier(b)[0]
    with pytest.raises(RuntimeError, match="after 2 steps"):
        grid.solve_mass_full(b_full, x0)


def test_grid_solver_zero_and_nan_rhs():
    ops = assemble(build_unit_square_mesh(3))
    grid = GridSolver(ops, 1e-2)
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
    its worker (state and mass solves): p-solves, cold and warm, exact and
    loose, on four threads while state and mass solves run on four others
    give the serial answers bit for bit, so no solve keeps scratch on the
    solver."""
    ops = assemble(build_unit_square_mesh(5))
    grid = GridSolver(ops, 1e-3)
    rhs = rng.standard_normal((8, ops.n_interior))
    rhs_full = rng.standard_normal((8, ops.mesh.n_nodes))
    x0 = np.zeros(ops.mesh.n_nodes)

    def p_solves(i):
        first = grid.solve_with_multiplier(rhs[i], stop=1e-8)
        return [*first,
                *grid.solve_with_multiplier(rhs[i] + 1e-2, first, 1e-8),
                *grid.solve_with_multiplier(rhs[i])]

    def state_and_mass_solves(i):
        f = rhs_full[i]
        return [grid.solve_stiffness(rhs[i]), grid.solve_mass_full(f, x0),
                grid.solve_mass_full(f, f, 1e-8)]

    roles = [p_solves] * 4 + [state_and_mass_solves] * 4
    serial = [role(i) for i, role in enumerate(roles)]
    results = {}

    def work(i):
        results[i] = [roles[i](i) for _ in range(5)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(roles))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == len(roles)
    for i, runs in results.items():
        for answers in runs:
            assert all(_same_bytes(u, v) for u, v in zip(answers, serial[i]))


@pytest.mark.parametrize("level", [3, 4])
@pytest.mark.parametrize("on_grid", [False, True], ids=["factors", "grid"])
def test_solves_leave_their_inputs_and_own_their_answers(rng, level, on_grid,
                                                         monkeypatch):
    """No solve method of either solver, the grid one forced below level 7
    by ``GRID_MIN_N``, writes to its right side, its start or its ``x0``,
    cold or warm, exact or loose; and every array a solve returns owns its
    memory, or is a view of a float array of its own size, so a ``w``
    never pins the complex iterate as its real part."""
    if on_grid:
        monkeypatch.setattr(dual_solver, "GRID_MIN_N", 0)
    solver = make_instance("sine", level).solver
    assert isinstance(solver, GridSolver if on_grid else AugmentedSolver)
    b = rng.standard_normal(solver.n)
    b2 = b + 1e-2 * rng.standard_normal(solver.n)
    b_full = rng.standard_normal(solver.n_full)
    start = solver.solve_with_multiplier(b)
    x0 = solver.solve_mass_full(b_full, np.zeros(solver.n_full))
    b_full2 = b_full + 1e-2 * rng.standard_normal(solver.n_full)
    inputs = (b, b2, b_full2, *start, x0)
    before = [v.copy() for v in inputs]
    answers = [*start, x0, solver.solve_stiffness(b)]
    for stop in (None, 1e-8):
        answers += solver.solve_with_multiplier(b2, stop=stop)
        answers += solver.solve_with_multiplier(b2, start, stop)
        answers.append(solver.solve_mass_full(b_full2, x0, stop))
    for v, old in zip(inputs, before):
        assert _same_bytes(v, old)
    for v in answers:
        assert v.dtype == float
        assert v.base is None or (v.base.dtype == float
                                  and v.base.nbytes == v.nbytes)


def test_grid_solves_read_what_the_transforms_return(rng):
    """``overwrite_x`` lets a scipy.fft backend destroy its input; it does
    not promise that the result lands there.  With transforms that return
    a new array and leave NaN in their input, every grid solve gives its
    answers bit for bit."""
    ops = assemble(build_unit_square_mesh(5))
    grid = GridSolver(ops, 1e-3)
    b = rng.standard_normal(ops.n_interior)

    def answers():
        first = grid.solve_with_multiplier(b, stop=1e-8)
        return [*first,
                *grid.solve_with_multiplier(b + 1e-2, first, 1e-8),
                *grid.solve_with_multiplier(b), grid.solve_stiffness(b)]

    expected = answers()
    dst = grid._dst

    def out_of_place(x, overwrite_x=False):
        y = dst(x)
        if overwrite_x:
            x.fill(np.nan)
        return y

    grid._dst = out_of_place
    assert all(_same_bytes(u, v) for u, v in zip(answers(), expected))


def _p_berr(ops, s, b, p, w):
    """Backward error of ``x = w - i s p`` in ``(K + i s M) x = b``."""
    A = ops.K + 1j * s * ops.M
    x = w - 1j * s * p
    return np.abs(b - A @ x).max() / (
        abs(A).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max())


def _mass_berr(ops, b, x):
    return np.abs(b - ops.M_full @ x).max() / (
        ops.W_full.max() * np.abs(x).max() + np.abs(b).max())


@pytest.mark.parametrize("level", [3, 5, 7])
def test_grid_mass_solve_matches_the_factor(rng, ops7, level, monkeypatch):
    """From zero and from a warm start, the Chebyshev ``M_full`` solve meets
    the backward-error stop and agrees with the factor's answer, within the
    same number of steps at every level."""
    # the error bound 2 / (3^k + 3^-k) falls below 2^-52 at k = 34
    monkeypatch.setattr(sparse_linalg, "GRID_STEP_CAP", 36)
    ops = ops7 if level == 7 else assemble(build_unit_square_mesh(level))
    grid = GridSolver(ops, 1e-2)
    b = rng.standard_normal(ops.mesh.n_nodes)
    x_lu = ops.mass_full_factor.solve(b)
    for x0 in (np.zeros_like(b), x_lu + 1e-3 * rng.standard_normal(b.size)):
        x = grid.solve_mass_full(b, x0)
        assert _mass_berr(ops, b, x) <= sparse_linalg.GRID_BERR_STOP
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
    grid = GridSolver(ops, alpha)
    s = grid.s
    b_near = rng.standard_normal(ops.n_interior)
    b = b_near + 1e-2 * rng.standard_normal(ops.n_interior)
    p, w = grid.solve_with_multiplier(b, grid.solve_with_multiplier(b_near))
    # x = w - i s p solves (K + i s M) x = b; rebuilt from p = -Im(x)/s,
    # its imaginary part is rounded twice more, which can add about eps
    # to the backward error the solve stopped at
    assert _p_berr(ops, s, b, p, w) \
        <= sparse_linalg.GRID_BERR_STOP + np.finfo(float).eps
    x = w - 1j * s * p
    for p_ref, w_ref in (grid.solve_with_multiplier(b),
                         AugmentedSolver(ops, alpha)
                         .solve_with_multiplier(b)):
        x_ref = w_ref - 1j * s * p_ref
        assert np.abs(x - x_ref).max() <= 1e-13 * np.abs(x_ref).max()


@pytest.mark.parametrize("stop", [1e-6, 1e-9])
def test_grid_solves_given_a_loose_stop_end_at_or_below_it(rng, ops7, stop,
                                                           monkeypatch):
    """A sweep's grid solves stop at its schedule's backward error: a cold
    p-solve and a mass solve end at or below ``stop``, in fewer steps than
    the exact solves; a started p-solve returns ``(K^-1 M w, w)``, a pair
    on which ``K p = M w`` holds to roundoff."""
    ops = ops7
    grid = GridSolver(ops, 1e-3)
    eps = np.finfo(float).eps
    b = rng.standard_normal(ops.n_interior)
    p, w = grid.solve_with_multiplier(b, stop=stop)
    exact = grid.solve_with_multiplier(b)
    assert _p_berr(ops, grid.s, b, p, w) <= stop + eps
    assert _p_berr(ops, grid.s, b, *exact) <= sparse_linalg.GRID_BERR_STOP \
        + eps
    # started from the loose answer for a neighbouring right side
    b2 = b + 1e-2 * rng.standard_normal(ops.n_interior)
    p2, w2 = grid.solve_with_multiplier(b2, (p, w), stop)
    # |K|_inf = 8: the roundoff of K p is about 8 eps |p|_inf
    assert np.abs(ops.K @ p2 - ops.M @ w2).max() \
        <= 1e-14 * np.abs(p2).max()
    # the pair's p is as close to the exact answer as the stop allows
    p_ref = grid.solve_with_multiplier(b2)[0]
    assert 0.0 < np.abs(p2 - p_ref).max() <= 1e3 * stop * np.abs(p_ref).max()

    b_full = rng.standard_normal(ops.mesh.n_nodes)
    x0 = np.zeros_like(b_full)
    steps = []
    corrections = sparse_linalg._corrections

    def counted(*args):
        for r in corrections(*args):
            steps[-1] += 1
            yield r

    monkeypatch.setattr(sparse_linalg, "_corrections", counted)
    for s in (stop, None):
        steps.append(0)
        x = grid.solve_mass_full(b_full, x0, s)
        assert _mass_berr(ops, b_full, x) <= (s or 0.0) \
            + sparse_linalg.GRID_BERR_STOP
    assert 0 < steps[0] < steps[1]


def test_loose_grid_solves_raise_above_their_stop(rng, monkeypatch):
    """At ``GRID_STEP_CAP`` a loose solve raises when its backward error is
    above ``max(stop, GRID_BERR_MAX)``, and returns below it."""
    ops = assemble(build_unit_square_mesh(3))
    grid = GridSolver(ops, 1e-8)
    b = rng.standard_normal(ops.n_interior)
    b_full = rng.standard_normal(ops.mesh.n_nodes)
    x0 = np.zeros_like(b_full)
    monkeypatch.setattr(sparse_linalg, "GRID_STEP_CAP", 1)
    for stop in (1e-11, 1e-6):
        with pytest.raises(RuntimeError, match=f"at most {stop:g}"):
            grid.solve_with_multiplier(b, stop=stop)
        with pytest.raises(RuntimeError, match=f"at most {stop:g}"):
            grid.solve_mass_full(b_full, x0, stop)
    # the limit is never below GRID_BERR_MAX
    with pytest.raises(RuntimeError, match="at most 1e-12"):
        grid.solve_mass_full(b_full, x0, 1e-14)
    # one step leaves a backward error that the loosest stops accept
    p, w = grid.solve_with_multiplier(b, stop=0.5)
    assert np.isfinite(p).all() and _p_berr(ops, grid.s, b, p, w) <= 0.5
    x = grid.solve_mass_full(b_full, x0, 0.5)
    assert _mass_berr(ops, b_full, x) <= 0.5


def _exact_p_solve(grid, b, start=None):
    """The grid p-solve without a stop, written out: Richardson steps from
    ``P^-1 b``, or from a start's ``w - i s p``, to ``GRID_BERR_STOP``."""
    x = grid._diagonal_solve(grid._p_inv, b.astype(complex)) \
        if start is None else start[1] - 1j * grid.s * start[0]
    b_inf = np.abs(b).max()
    while True:
        r = b - grid._A @ x
        berr = np.abs(r).max() / (grid._a_inf * np.abs(x).max() + b_inf)
        if berr <= sparse_linalg.GRID_BERR_STOP:
            return -x.imag / grid.s, x.real
        x += grid._diagonal_solve(grid._p_inv, r)


def _exact_mass_solve(grid, ops, b, x0):
    """The grid mass solve without a stop, written out: Chebyshev steps on
    [1/4, 1] preconditioned with ``W``, to ``GRID_BERR_STOP``."""
    x = np.array(x0, dtype=float)
    theta, delta = 0.625, 0.375
    d = np.zeros_like(x)
    rho = delta / theta
    b_inf = np.abs(b).max()
    w_max = ops.W_full.max()
    neg = grid._neg_mass_full
    for steps in range(sparse_linalg.GRID_STEP_CAP):
        # b - M_full x as the solve forms it, by scipy's DIA kernel
        r = b.copy()
        dia_matvec(x.size, x.size, neg.offsets.size, neg.data.shape[1],
                   neg.offsets, neg.data, x, r)
        berr = np.abs(r).max() / (w_max * np.abs(x).max() + b_inf)
        if berr <= sparse_linalg.GRID_BERR_STOP:
            break
        z = r * (1.0 / ops.W_full)
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


def test_grid_solves_without_a_stop_are_the_exact_solves():
    """Without a stop, or with one at or below ``GRID_BERR_STOP`` (the
    schedule at ``tol = 0``), both level-8 grid solves are the exact
    iterations written out, bit for bit, cold and warm."""
    ops = assemble(build_unit_square_mesh(8))
    rng = np.random.default_rng(8)
    grid = GridSolver(ops, 1e-3)
    b = rng.standard_normal(ops.n_interior)
    b2 = b + 1e-2 * rng.standard_normal(ops.n_interior)
    b_full = rng.standard_normal(ops.mesh.n_nodes)
    cold = _exact_p_solve(grid, b)
    warm = _exact_p_solve(grid, b2, cold)
    mass = {"cold": _exact_mass_solve(grid, ops, b_full, 0.0 * b_full)}
    mass["warm"] = _exact_mass_solve(grid, ops, b_full + 1e-2,
                                     mass["cold"])
    for stop in ({}, {"stop": None}, {"stop": 0.0},
                 {"stop": sparse_linalg.GRID_BERR_STOP}):
        got = grid.solve_with_multiplier(b, **stop)
        assert all(np.array_equal(u, v) for u, v in zip(got, cold))
        got = grid.solve_with_multiplier(b2, cold, **stop)
        assert all(np.array_equal(u, v) for u, v in zip(got, warm))
        assert np.array_equal(
            grid.solve_mass_full(b_full, 0.0 * b_full, **stop), mass["cold"])
        assert np.array_equal(
            grid.solve_mass_full(b_full + 1e-2, mass["cold"], **stop),
            mass["warm"])


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


_IMPORTS_ON_USE = """
import sys

import scipy.fft
import scipy.sparse

WATCHED = ("scipy.sparse.linalg", "scipy.io")
# what scipy loads by itself with the two submodules the package imports:
# releases whose scipy.sparse imports csgraph eagerly load
# scipy.sparse.linalg with it
baseline = [name for name in WATCHED if name in sys.modules]

import pdeabcd
from pdeabcd import cli, dual_solver
from pdeabcd.assembly import assemble
from pdeabcd.mesh import build_unit_square_mesh
from pdeabcd.presets import make_instance


def added():
    return [name for name in WATCHED
            if name in sys.modules and name not in baseline]


assert added() == [], added()
dual_solver.solve(make_instance("sine", 7),
                  dual_solver.SolverConfig(max_iters=2))
assert added() == [], added()
assert cli.main(["solve", "--preset", "sine", "--level", "7",
                 "--max-iters", "2"]) == 0
assert added() == [], added()
pdeabcd.factorize_spd(assemble(build_unit_square_mesh(2)).K)
assert "scipy.sparse.linalg" in sys.modules
assert set(added()) <= {"scipy.sparse.linalg"}, added()
"""


def test_grid_path_never_loads_the_factor_stack():
    """In a fresh interpreter, ``import pdeabcd``, a level-7 solve and the
    same solve through the command line add neither ``scipy.sparse.linalg``
    nor ``scipy.io`` to what ``import scipy.sparse, scipy.fft`` loads by
    itself; the first factorization loads the former."""
    src = os.path.dirname(os.path.dirname(sparse_linalg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _IMPORTS_ON_USE],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr


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
