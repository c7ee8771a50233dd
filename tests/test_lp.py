import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from safesynth import lp
from safesynth.errors import SolverError
from safesynth.lp import LpStatus, RowStack, _pow2_column_scale, solve_dense_lp
from safesynth.pipeline import room_casestudy_config, validate_config
from safesynth.polynomial import power

from .conftest import scenario_problem


def vertex_enumeration_optimum(cost, G, h, feas_tol=1e-9):
    """Brute-force optimum over all row-basis vertices; None if none feasible.

    Batched over all nv-row combinations so the oracle stays fast enough to
    sweep hundreds of instances.
    """
    m, nv = G.shape
    combos = np.array(list(itertools.combinations(range(m), nv)))
    A = G[combos]                      # (ncomb, nv, nv)
    b = h[combos]                      # (ncomb, nv)
    dets = np.linalg.det(A)
    ok = np.abs(dets) > 1e-10
    z = np.linalg.solve(A[ok], b[ok][..., None])[..., 0]   # (nok, nv)
    feasible = np.max(z @ G.T - h[None, :], axis=1) <= feas_tol
    if not np.any(feasible):
        return None
    return float(np.min(z[feasible] @ cost))


def random_bounded_lp(rng, nv=3, extra_rows=24, box=10.0):
    """Random rows through feasible origin plus box rows: feasible and bounded."""
    G_rand = rng.normal(size=(extra_rows, nv))
    h_rand = rng.uniform(0.1, 2.0, size=extra_rows)
    G_box = np.vstack([np.eye(nv), -np.eye(nv)])
    h_box = np.full(2 * nv, box)
    G = np.vstack([G_rand, G_box])
    h = np.concatenate([h_rand, h_box])
    cost = rng.normal(size=nv)
    return cost, G, h


def test_max_of_list():
    # min K s.t. K >= a_i is max(a)
    a = np.array([-3.0, -1.0, -2.0])
    G = -np.ones((3, 1))
    h = -a
    res = solve_dense_lp(np.array([1.0]), G, h)
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(-1.0, abs=1e-12)
    assert list(res.basis_rows) == [1]
    # G z - h is exactly 0 at row 1; the residual negates h - G z, and the
    # reported violation is +0.0 all the same
    assert math.copysign(1.0, res.max_violation) == 1.0


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(60):
        cost, G, h = random_bounded_lp(rng)
        res = solve_dense_lp(cost, G, h)
        assert res.status is LpStatus.OPTIMAL
        oracle = vertex_enumeration_optimum(cost, G, h)
        assert oracle is not None
        assert res.objective == pytest.approx(oracle, abs=1e-8)
        checked += 1
    assert checked == 60


def test_random_lps_match_scipy():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(7)
    for _ in range(25):
        cost, G, h = random_bounded_lp(rng, nv=5, extra_rows=40)
        res = solve_dense_lp(cost, G, h)
        ref = scipy_opt.linprog(cost, A_ub=G, b_ub=h, bounds=(None, None), method="highs")
        assert res.status is LpStatus.OPTIMAL and ref.status == 0
        assert res.objective == pytest.approx(ref.fun, abs=1e-7)


def test_infeasible_detected():
    # z <= -1 and -z <= 0 cannot hold together
    G = np.array([[1.0], [-1.0]])
    h = np.array([-1.0, 0.0])
    res = solve_dense_lp(np.array([1.0]), G, h)
    assert res.status is LpStatus.INFEASIBLE


def test_unbounded_detected():
    # min z with only z <= 1: the dual is infeasible, so phase 1 keeps an
    # artificial above its tolerance and the solve fails closed, the record
    # of the solve attached
    G = np.array([[1.0]])
    h = np.array([1.0])
    with pytest.raises(SolverError, match="not bounded below") as err:
        solve_dense_lp(np.array([1.0]), G, h)
    assert err.value.status == LpStatus.ITERATION_LIMIT.value
    assert err.value.result is not None and err.value.result.status is None
    assert err.value.result.rows_priced > 0


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["G", "h", "cost"])
def test_non_finite_input_raises(where, value):
    # `max_violation > feas_tol` is False for NaN, so a NaN must not reach it
    cost, G, h = random_bounded_lp(np.random.default_rng(3))
    {"G": G, "h": h, "cost": cost}[where].flat[1] = value
    with pytest.raises(SolverError, match="non-finite"):
        solve_dense_lp(cost, G, h)


def test_feasibility_of_reported_point():
    rng = np.random.default_rng(5)
    for _ in range(10):
        cost, G, h = random_bounded_lp(rng, nv=4, extra_rows=200)
        res = solve_dense_lp(cost, G, h)
        assert res.status is LpStatus.OPTIMAL
        assert np.max(G @ res.z - h) <= 1e-8
        assert res.max_violation <= 1e-8


def test_activity_tolerance_covers_feasibility():
    # a row the solver accepts, violated by up to `feasibility`, must count
    # as active toward the support bound N*
    assert lp.LpTolerances().activity >= lp.LpTolerances().feasibility


def test_deterministic_given_identical_input():
    rng = np.random.default_rng(31)
    cost, G, h = random_bounded_lp(rng, nv=4, extra_rows=100)
    res1 = solve_dense_lp(cost, G, h)
    res2 = solve_dense_lp(cost, G, h)
    assert np.array_equal(res1.z, res2.z)
    assert res1.iterations == res2.iterations
    assert np.array_equal(res1.basis_rows, res2.basis_rows)


def test_degenerate_vertex_handled():
    # many redundant copies of the binding row force degenerate pivots
    G = np.vstack([-np.ones((40, 1)), np.array([[1.0]])])
    h = np.concatenate([np.full(40, 1.0), [5.0]])
    res = solve_dense_lp(np.array([1.0]), G, h)
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(-1.0, abs=1e-10)


def test_active_set_multipliers_nonnegative():
    rng = np.random.default_rng(13)
    cost, G, h = random_bounded_lp(rng, nv=3, extra_rows=50)
    res = solve_dense_lp(cost, G, h)
    assert np.all(res.multipliers >= 0.0)
    # stationarity: -cost is a nonnegative combination of active row normals
    recon = res.multipliers @ G[res.basis_rows]
    assert np.allclose(recon, -cost, atol=1e-7)


def test_tall_problem_smoke():
    rng = np.random.default_rng(17)
    cost, G, h = random_bounded_lp(rng, nv=6, extra_rows=50_000, box=100.0)
    res = solve_dense_lp(cost, G, h)
    assert res.status is LpStatus.OPTIMAL
    assert np.max(G @ res.z - h) <= 1e-8


def test_equality_pair_rows_handled():
    # exact-value pins via opposing row pairs (empty-interior feasible sets)
    # are valid input; they must stay solvable
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(7)
    for trial in range(20):
        nv = int(rng.integers(2, 6))
        G = rng.normal(size=(20, nv))
        h = rng.uniform(0.1, 2.0, size=20)
        v = float(rng.normal(scale=0.01))
        pin = np.zeros((2, nv))
        pin[0, 0] = 1.0
        pin[1, 0] = -1.0
        Gb = np.vstack([G, pin, np.eye(nv), -np.eye(nv)])
        hb = np.concatenate([h, [v, -v], np.full(2 * nv, 10.0)])
        cost = rng.normal(size=nv)
        res = solve_dense_lp(cost, Gb, hb)
        ref = scipy_opt.linprog(cost, A_ub=Gb, b_ub=hb, bounds=(None, None), method="highs")
        if ref.status != 0:
            assert res.status is not LpStatus.OPTIMAL
            continue
        assert res.status is LpStatus.OPTIMAL
        assert res.objective == pytest.approx(ref.fun, abs=1e-7)
        assert res.z[0] == pytest.approx(v, abs=1e-9)


def test_optimum_with_unconstrained_coordinates():
    # objective bounded although the feasible set is unbounded elsewhere
    res = solve_dense_lp(
        np.array([1.0, 0.0, 0.0]), np.array([[-1.0, 0.0, 0.0]]), np.array([-3.0])
    )
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(3.0, abs=1e-12)


def test_column_scaling_insensitivity():
    # wildly scaled columns (like monomial bases) must not break the solve
    rng = np.random.default_rng(19)
    cost, G, h = random_bounded_lp(rng, nv=4, extra_rows=60)
    scales = np.array([1e-6, 1.0, 1e4, 1e7])
    G2 = G / scales[None, :]
    cost2 = cost / scales
    res1 = solve_dense_lp(cost, G, h)
    res2 = solve_dense_lp(cost2, G2, h)
    assert res2.status is LpStatus.OPTIMAL
    assert res2.objective == pytest.approx(res1.objective, rel=1e-8, abs=1e-10)
    assert np.allclose(res2.z * (1 / scales), res1.z, rtol=1e-6, atol=1e-8)


def test_row_stack_reads_like_its_dense_matrix():
    rng = np.random.default_rng(5)
    head = rng.normal(size=(7, 6))
    tail = rng.normal(size=(3, 9))
    stack = RowStack([(np.arange(6), head.T), ([0, 2, 5], tail), ([4], np.ones((1, 1)))], 6)
    dense = np.vstack([head, np.zeros((9, 6)), np.zeros((1, 6))])
    dense[7:16, [0, 2, 5]] = tail.T
    dense[16, 4] = 1.0
    assert stack.shape == (17, 6) and len(stack) == 17
    assert stack.nbytes == head.nbytes + tail.nbytes + 8
    assert np.array_equal(np.asarray(stack), dense)
    for i in range(17):
        assert np.array_equal(stack.row(i), dense[i])
    v = rng.normal(size=6)
    assert np.allclose(stack.matvec(v), dense @ v, rtol=1e-15, atol=1e-15)
    assert np.array_equal(stack.matvec(v)[:7], head @ v)
    keep = rng.random(17) < 0.6
    assert np.array_equal(np.asarray(stack.select(keep)), dense[keep])
    with pytest.raises(IndexError):
        stack.row(17)
    with pytest.raises(SolverError):
        RowStack([([0, 6], np.ones((2, 3)))], 6)


def test_row_stack_solves_like_its_dense_matrix():
    # a stack priced block by block reaches the dense optimum; an infeasible
    # stack ends infeasible in phase 2, and one unbounded below fails closed
    rng = np.random.default_rng(31)
    for _ in range(20):
        cost, G, h = random_bounded_lp(rng, nv=4, extra_rows=40)
        G[:30, [1, 3]] = 0.0
        stack = RowStack([*RowStack.dense(G[30:]).blocks,
                          ([0, 2], np.ascontiguousarray(G[:30, [0, 2]].T))], 4)
        h_stack = np.concatenate([h[30:], h[:30]])
        dense, blocks = solve_dense_lp(cost, G, h), solve_dense_lp(cost, stack, h_stack)
        assert blocks.status is LpStatus.OPTIMAL
        assert blocks.objective == pytest.approx(dense.objective, abs=1e-9)
    infeasible = RowStack([([0, 1], np.array([[1.0], [0.0]])), ([0], np.array([[-1.0]]))], 2)
    res = solve_dense_lp(np.array([1.0, 0.0]), infeasible, np.array([-1.0, -1.0]))
    assert res.status is LpStatus.INFEASIBLE
    unbounded = RowStack([([0, 1], np.array([[0.0], [1.0]])), ([0], np.array([[-1.0]]))], 2)
    with pytest.raises(SolverError, match="not bounded below") as err:
        solve_dense_lp(np.array([-1.0, 0.0]), unbounded, np.array([1.0, 0.0]))
    assert err.value.status == LpStatus.ITERATION_LIMIT.value


def _shared_row_stack(rng, head_rows=7, tail_rows=5):
    """A dense head over 7 columns, then a block over columns 1, 3 and 4 whose
    shared row is non-zero in columns 0 and 6; column 6 is in no block's
    columns, so only the shared row has it."""
    head = rng.normal(size=(head_rows, 7))
    tail = rng.normal(size=(3, tail_rows))
    shared = np.zeros(7)
    shared[[0, 6]] = [-1.0, 2.5e3]
    stack = RowStack([(np.arange(7), head.T), ([1, 3, 4], tail, shared)], 7)
    dense = np.vstack([head, np.tile(shared, (tail_rows, 1))])
    dense[head_rows:, [1, 3, 4]] = tail.T
    return stack, dense


def test_row_stack_with_a_shared_row_reads_like_its_dense_matrix():
    rng = np.random.default_rng(8)
    stack, dense = _shared_row_stack(rng)
    stack = RowStack(stack.blocks + [([2], np.ones((1, 1)))], 7)
    dense = np.vstack([dense, np.eye(7)[2]])
    assert stack.shape == dense.shape == (13, 7)
    assert stack.nbytes == (7 * 7 + 3 * 5 + 1) * 8 + 7 * 8
    assert np.array_equal(np.asarray(stack), dense)
    for i in range(13):
        assert np.array_equal(stack.row(i), dense[i])
    v = rng.normal(size=7)
    assert np.allclose(stack.matvec(v), dense @ v, rtol=1e-15, atol=1e-12)
    keep = rng.random(13) < 0.6
    assert np.array_equal(np.asarray(stack.select(keep)), dense[keep])
    # the shared row's scale is taken even where no block's columns reach
    assert np.array_equal(_pow2_column_scale(stack), _pow2_column_scale(RowStack.dense(dense)))
    assert _pow2_column_scale(stack)[6] == 2.0 ** -11
    with pytest.raises(SolverError):  # non-zero in the block's own columns
        RowStack([([0, 1], np.ones((2, 3)), np.ones(4))], 4)
    with pytest.raises(SolverError):  # not ncols long
        RowStack([([0, 1], np.ones((2, 3)), np.zeros(3))], 4)


def test_nan_in_a_shared_row_raises():
    stack, dense = _shared_row_stack(np.random.default_rng(9))
    stack.blocks[-1][2][6] = np.nan
    with pytest.raises(SolverError, match="non-finite"):
        solve_dense_lp(np.ones(7), stack, np.ones(len(stack)))


def _two_block_lp(rng, head_rows=20, tail_rows=41):
    """A bounded program over 7 columns: a dense block of random rows and a
    box, then a block over columns 1, 3 and 4 whose shared row is non-zero
    in columns 0 and 6."""
    head = np.vstack([rng.normal(size=(head_rows, 7)), np.eye(7), -np.eye(7)])
    tail = rng.normal(size=(3, tail_rows))
    shared = np.zeros(7)
    shared[[0, 6]] = [-1.0, 0.25]
    stack = RowStack([(np.arange(7), head.T), ([1, 3, 4], tail, shared)], 7)
    h = np.concatenate([rng.uniform(0.1, 2.0, size=head_rows), np.full(14, 10.0),
                        rng.uniform(0.1, 2.0, size=tail_rows)])
    return rng.normal(size=7), stack, h


def _degenerate_lp(rng, rows=60):
    """min z0 over rows -z0 + a.(z1, z2) <= 1 in a shared-row block, a third
    of them with a = 0, inside a box: -cost is a multiple of one row, so the
    dual basis is degenerate and the solver stalls."""
    head = np.vstack([np.eye(3), -np.eye(3)])
    tail = rng.normal(size=(2, rows))
    tail[:, ::3] = 0.0
    stack = RowStack([(np.arange(3), head.T), ([1, 2], tail, np.array([-1.0, 0.0, 0.0]))], 3)
    return np.eye(3)[0], stack, np.concatenate([np.full(6, 10.0), np.ones(rows)])


def _solve_recording(monkeypatch, chunk, *args, stall_limit=lp._STALL_LIMIT):
    """solve_dense_lp priced in chunks of `chunk` rows, switching to Bland's
    rule after `stall_limit` degenerate pivots; also every working set it
    factorised, and per walk over G (the pricing passes and the final
    residual) the number of chunks read."""
    bases, priced = [], []
    basis_matrix = lp._DualSimplex._basis_matrix
    walk = lp._DualSimplex._walk

    def counting_walk(engine, *a, **kw):
        priced.append(0)
        for item in walk(engine, *a, **kw):
            priced[-1] += 1
            yield item

    with monkeypatch.context() as mp:
        mp.setattr(lp, "_PRICE_CHUNK", chunk)
        mp.setattr(lp, "_STALL_LIMIT", stall_limit)
        mp.setattr(lp._DualSimplex, "_basis_matrix",
                   lambda engine: bases.append(engine.basis.tolist()) or basis_matrix(engine))
        mp.setattr(lp._DualSimplex, "_walk", counting_walk)
        return solve_dense_lp(*args), bases, priced


@pytest.mark.parametrize("build, kwargs", [(_two_block_lp, {}),
                                           (_degenerate_lp, {"stall_limit": 1})])
def test_chunked_pricing_takes_the_unchunked_pivot_path(monkeypatch, build, kwargs):
    # chunk boundaries inside the dense block and the shared-row block; the
    # degenerate program runs Bland's rule, which stops at its chunk
    cost, stack, h = build(np.random.default_rng(21))
    runs = [_solve_recording(monkeypatch, chunk, cost, stack, h, **kwargs)
            for chunk in (7, len(stack) + 1)]
    (chunked, bases, priced), (whole, whole_bases, whole_priced) = runs
    assert chunked.status is whole.status is LpStatus.OPTIMAL
    assert bases == whole_bases and len(bases) > 3
    assert (chunked.iterations, chunked.degenerate_steps, chunked.bland_iterations) == (
        whole.iterations, whole.degenerate_steps, whole.bland_iterations)
    assert chunked.objective.hex() == whole.objective.hex()
    assert chunked.z.tobytes() == whole.z.tobytes()
    assert max(whole_priced) == 1 and max(priced) == len(list(stack.chunks(7))) > 5
    if build is _degenerate_lp:
        assert chunked.bland_iterations > 0
        assert min(priced) < max(priced)  # Bland's rule skipped the later chunks


@pytest.mark.parametrize("build, kwargs", [(_two_block_lp, {}),
                                           (_degenerate_lp, {"stall_limit": 1})])
def test_basis_matrix_is_the_working_sets_scaled_rows(monkeypatch, build, kwargs):
    # the solver swaps one column per pivot instead of reading the working
    # set again; every matrix it factorises equals a fresh gather, bit for bit
    cost, stack, h = build(np.random.default_rng(24))
    dense = np.asarray(stack)
    real_rows = []
    basis_matrix = lp._DualSimplex._basis_matrix

    def checked_basis_matrix(engine):
        A = basis_matrix(engine)
        fresh = np.zeros((engine.nv, engine.nv))
        for pos, col in enumerate(engine.basis):
            if col < engine.m:
                fresh[:, pos] = dense[col] * engine.scale
            else:
                fresh[col - engine.m, pos] = engine.art_sign[col - engine.m]
        assert A.tobytes() == fresh.tobytes()
        real_rows.append(int(np.sum(engine.basis < engine.m)))
        return A

    monkeypatch.setattr(lp._DualSimplex, "_basis_matrix", checked_basis_matrix)
    monkeypatch.setattr(lp, "_STALL_LIMIT", kwargs.get("stall_limit", lp._STALL_LIMIT))
    assert solve_dense_lp(cost, stack, h).status is LpStatus.OPTIMAL
    assert real_rows[0] == 0 and max(real_rows) >= 3 and len(real_rows) > 3


@pytest.mark.parametrize("chunk", [64, 128, 10**6])
@pytest.mark.parametrize("phase", [1, 2])
def test_chunked_reduced_costs_are_those_of_one_mat_vec(monkeypatch, chunk, phase):
    # a multiple of 64 rows keeps BLAS's row groups; a block's last piece is
    # never a single row (at 128 the 129-row block is one piece), and the
    # two one-row blocks at the end share a run
    rng = np.random.default_rng(22)
    _, stack, h = _two_block_lp(rng, head_rows=186, tail_rows=129)
    stack = RowStack(stack.blocks + [([2], np.ones((1, 1))), ([5], np.full((1, 1), -2.0))], 7)
    h = np.concatenate([h, [0.5, 0.25]])
    monkeypatch.setattr(lp, "_PRICE_CHUNK", chunk)
    scale = _pow2_column_scale(stack)
    engine = lp._DualSimplex(stack, scale, h, np.ones(7), lp.LpTolerances(optimality=1e-9))
    engine.basis[:4] = [3, 200, 209, 320]
    v = scale * rng.normal(size=7)
    expected = stack.matvec(v)
    if phase == 2:
        expected = h - expected
    expected[[3, 200, 209, 320]] = np.inf
    starts, parts = [], []
    for start, r in engine._walk(v, phase, lambda: np.inf):
        starts.append(start)
        parts.append(r.copy())
    assert len(parts) == {64: 4 + 2 + 1, 128: 2 + 1 + 1}.get(chunk, 1)
    assert starts == np.cumsum([0] + [len(p) for p in parts[:-1]]).tolist()
    assert np.concatenate(parts).tobytes() == expected.tobytes()
    assert np.array_equal(_pow2_column_scale(stack), _pow2_column_scale(RowStack.dense(
        np.asarray(stack))))


def test_non_finite_multipliers_fail_closed(monkeypatch):
    # np.argmin would enter a NaN reduced cost and a `<` would skip it
    cost, stack, h = _two_block_lp(np.random.default_rng(23))
    monkeypatch.setattr(lp._DualSimplex, "_basis_costs",
                        lambda engine, phase: np.full(engine.nv, np.nan))
    with pytest.raises(SolverError, match="non-finite multipliers") as err:
        solve_dense_lp(cost, stack, h)
    assert err.value.status == LpStatus.ITERATION_LIMIT.value


@pytest.mark.parametrize("bland", [False, True])
def test_nan_reduced_cost_fails_closed(monkeypatch, bland):
    # finite multipliers: row 9's block product overflows to inf and its
    # shared row's term to -inf; the other rows price at +inf
    monkeypatch.setattr(lp, "_PRICE_CHUNK", 4)
    values = np.full((1, 11), 0.5)
    values[0, 9] = 2.0
    stack = RowStack([([0], values, np.array([0.0, 2.0]))], 2)
    engine = lp._DualSimplex(stack, np.ones(2), np.ones(11), np.ones(2), lp.LpTolerances(optimality=1e-9))
    engine._bland = bland
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            SolverError, match="NaN reduced cost of row 9") as err:
        engine._entering_row(np.array([1e308, -1e308]), 2)
    assert err.value.status == LpStatus.ITERATION_LIMIT.value


@pytest.mark.parametrize("bland, expected", [(False, 2), (True, 1)])
def test_entering_row_across_chunks(monkeypatch, bland, expected):
    # Dantzig: the lowest reduced cost, rows 2 and 9 tie in different chunks
    # and the first wins; Bland: the first eligible row, not the lowest
    monkeypatch.setattr(lp, "_PRICE_CHUNK", 4)
    G = np.zeros((11, 1))
    G[[1, 2, 9], 0] = [1.0, 3.0, 3.0]
    engine = lp._DualSimplex(RowStack.dense(G), np.ones(1), np.zeros(11), np.ones(1),
                             lp.LpTolerances(optimality=1e-9))
    engine._bland = bland
    assert engine._entering_row(np.ones(1), 2) == expected


# Columns of the screened programs below: 0 is the objective, 1-4 read
# x'^k - x^k and 5-6 read -x^k for a sample (x, x'), 7 is a budget; every
# sampled row has -1 in columns 0 and 7 (its shared row).
_SAMPLED_COLS = np.arange(1, 7)
_SAMPLED_SHARED = np.array([-1.0, 0, 0, 0, 0, 0, 0, -1.0])


def _sampled_values(x, x_next):
    """The maker of the screened programs' made rows: the rows `_coeff_map`
    describes, with powers taken as `power` takes them."""
    return np.vstack([power(x_next, k) - power(x, k) for k in range(1, 5)]
                     + [-power(x, k) for k in (1, 2)])


def _coeff_map():
    coeff_map = np.zeros((2, 5, 6))
    for j, k in enumerate([1, 2, 3, 4, 1, 2]):
        coeff_map[0, k, j] = -1.0
        if j < 4:
            coeff_map[1, k, j] = 1.0
    return coeff_map


def _screened_lp(rng, n, grid=6, corners=True, duplicates=0, h_sampled=None):
    """A bounded program over 8 columns: a dense head (a box and a few random
    rows), then n sampled rows in row order, made from (x, x') and indexed
    by the cells of a grid x grid grid over (x, x').  With `corners`, each
    cell also holds samples at the four corners of its data box; with
    `duplicates`, the last samples repeat the first.  The sampled rows'
    right-hand side is -u for random u, or `h_sampled(total rows)`.
    Returns (cost, stack, the same stack with unbounded cells, so every
    cell is priced on every pass, h)."""
    x = rng.uniform(0.5, 1.5, size=n)
    x_next = x + rng.normal(scale=0.05, size=n)
    if duplicates:
        x[-duplicates:], x_next[-duplicates:] = x[:duplicates], x_next[:duplicates]

    if corners:
        key = _cell_of(x, x_next, grid)
        extra = []
        for c in np.unique(key):
            at = key == c
            extra += [(a, b) for a in (x[at].min(), x[at].max())
                      for b in (x_next[at].min(), x_next[at].max())]
        extra = np.array(extra)[rng.permutation(len(extra))]
        x, x_next = np.concatenate([x, extra[:, 0]]), np.concatenate([x_next, extra[:, 1]])
    total = len(x)
    h_samp = -rng.uniform(0.0, 1.0, size=total) if h_sampled is None else h_sampled(total)
    cells = _grid_cells(x, x_next, grid, h_samp)
    head = np.vstack([np.eye(8), -np.eye(8), rng.normal(size=(6, 8))])
    h = np.concatenate([np.full(16, 10.0), rng.uniform(0.5, 2.0, size=6), h_samp])
    stacks = [RowStack([*RowStack.dense(head).blocks, (_SAMPLED_COLS, lp.PolyRows(
        [x, x_next], lp.Cells(cells.order, cells.starts, lo, hi, cells.h_min, _coeff_map()),
        _sampled_values), _SAMPLED_SHARED)], 8)
        for lo, hi in ((cells.lower, cells.upper), (np.full_like(cells.lower, -np.inf),
                                                    np.full_like(cells.upper, np.inf)))]
    return np.eye(8)[0], *stacks, h


def _cell_of(x, x_next, grid):
    """Each sample's square of a grid x grid grid over the range of (x, x')."""
    with np.errstate(invalid="ignore"):  # a constant coordinate has one square
        cx, cn = [np.minimum(np.nan_to_num((z - z.min()) / np.ptp(z) * grid).astype(int),
                             grid - 1) for z in (x, x_next)]
    return cx * grid + cn


def _grid_cells(x, x_next, grid, h):
    """The `lp.Cells` of the non-empty squares of `_cell_of`, with their data
    boxes and least h, over `_coeff_map`."""
    key = _cell_of(x, x_next, grid)
    order = np.argsort(key, kind="stable")
    counts = np.bincount(key)
    starts = np.concatenate([[0], np.cumsum(counts[counts > 0])])
    cells_at = starts[:-1]
    z = np.column_stack([x, x_next])[order]
    return lp.Cells(order, starts, np.minimum.reduceat(z, cells_at),
                    np.maximum.reduceat(z, cells_at), np.minimum.reduceat(h[order], cells_at),
                    _coeff_map())


def _reduced_costs(engine, v, phase):
    """Every row's reduced cost, priced as one mat-vec, the working set at inf."""
    r = engine.G.matvec(v)
    if phase == 2:
        r = engine.h - r
    r[engine.basis[engine.basis < engine.m]] = np.inf
    return r


def test_screened_stack_reads_like_its_rows_in_row_order():
    rng = np.random.default_rng(50)
    _, stack, _, _ = _screened_lp(rng, 3001)
    cols, values, shared = stack.blocks[-1]
    stored = RowStack([*stack.blocks[:-1], (cols, _sampled_values(*values.z), shared)], 8)
    dense = np.asarray(stored)
    assert np.asarray(stack).tobytes() == dense.tobytes()
    for i in rng.integers(0, len(stack), 20):
        assert stack.row(int(i)).tobytes() == dense[i].tobytes()
    keep = rng.random(len(stack)) < 0.7
    assert np.asarray(stack.select(keep)).tobytes() == dense[keep].tobytes()
    assert isinstance(stack.select(keep).blocks[-1][1], np.ndarray)  # stored, in row order
    assert stack.nbytes == stored.nbytes - (6 - 2) * 8 * (len(stack) - stack.starts[-2])


@pytest.mark.parametrize("phase", [1, 2])
def test_cell_bounds_are_sound_for_rows_at_box_corners(phase):
    # no row prices below its cell's bound, for pricing vectors of every
    # size and for the cancelling ones an optimum has (P close to F)
    rng = np.random.default_rng(51 + phase)
    _, stack, _, h = _screened_lp(rng, 4000)
    cols, values, shared = stack.blocks[-1]
    cells = values.cells
    lo = stack.starts[-2]
    engine = lp._DualSimplex(stack, np.ones(8), h, np.ones(8), lp.LpTolerances(optimality=1e-9))
    pruned = []
    for trial in range(60):
        v = rng.normal(size=8) * 10.0 ** rng.integers(-3, 13)
        if trial % 3 == 0:  # controller columns cancel the barrier's x^k terms
            v[5:7] = -v[1:3] * (1 + 1e-9 * rng.normal(size=2))
        r = _reduced_costs(engine, v, phase)[lo:][cells.order]
        bounds = cells.bounds(v[cols], float(shared @ v), phase)
        lowest = np.minimum.reduceat(r, cells.starts[:-1])
        assert np.all(lowest >= bounds)
        pruned.append(np.mean(bounds > np.min(r)))
    assert np.median(pruned) > 0.5  # the bounds are not vacuous


@pytest.mark.parametrize("extra", [0, 1, 2, 3])
@pytest.mark.parametrize("phase", [1, 2])
def test_screened_reduced_costs_are_those_of_the_mat_vec(monkeypatch, extra, phase):
    # made rows are multiplied in products padded to a multiple of 4 rows, in
    # the mat-vec and in each batch of cells: every reduced cost has the
    # bits of the one padded product of the rows in order
    rng = np.random.default_rng(60 + extra)
    _, stack, _, h = _screened_lp(rng, 2000 + extra, corners=False)
    cols, values, shared = stack.blocks[-1]
    cells = values.cells
    ncells = len(cells.starts) - 1
    assert len(cells.order) % 4 == extra and cells.starts[-1] == len(cells.order)
    lo = stack.starts[-2]
    engine = lp._DualSimplex(stack, np.ones(8), h, np.ones(8), lp.LpTolerances(optimality=1e-9))
    engine.basis[:3] = [lo + 5, lo + int(cells.order[0]), 3]
    v = rng.normal(size=8)
    products = stack.matvec(v)
    padded = np.concatenate([np.asarray(values), np.zeros((len(cols), -extra % 4))], axis=1)
    assert products[lo:].tobytes() == ((v[cols] @ padded)[:len(cells.order)]
                                       + shared @ v).tobytes()
    expected = _reduced_costs(engine, v, phase)
    subsets = [np.arange(ncells)] + [
        rng.permutation(ncells)[:rng.integers(1, 9)] for _ in range(30)]
    for take in subsets:
        ids, r = engine._price_batch(v[cols], float(shared @ v), take)
        assert r.tobytes() == products[ids].tobytes()
        assert len(ids) == np.sum(np.diff(cells.starts)[take])
    for chunk in (lp._PRICE_CHUNK, 64):  # then products of 64 rows, cut inside cells
        monkeypatch.setattr(lp, "_PRICE_CHUNK", chunk)
        seen = np.zeros(len(stack), dtype=int)
        for at, r in engine._walk(v, phase, lambda: np.inf):
            ids = np.arange(at, at + len(r)) if isinstance(at, int) else at
            assert r.tobytes() == expected[ids].tobytes()
            seen[ids] += 1
        assert np.all(seen == 1)


def _solve_checking_entering_rows(monkeypatch, *args, stall_limit=lp._STALL_LIMIT):
    """solve_dense_lp, switching to Bland's rule after `stall_limit`
    degenerate pivots, with every entering row checked against the one an
    unscreened pass of all rows picks; also every working set."""
    entering_row = lp._DualSimplex._entering_row
    bases, calls = [], []

    def checked(engine, v, phase):
        enter = entering_row(engine, v, phase)
        r = _reduced_costs(engine, v, phase)
        eligible = np.flatnonzero(r < -engine.opt_tol)
        expected = (None if not len(eligible) else int(eligible[0]) if engine._bland
                    else int(np.argmin(r)))
        assert enter == expected
        calls.append(engine._bland)
        bases.append(engine.basis.tolist())
        return enter

    with monkeypatch.context() as mp:
        mp.setattr(lp._DualSimplex, "_entering_row", checked)
        mp.setattr(lp, "_STALL_LIMIT", stall_limit)
        return solve_dense_lp(*args), bases, calls


@pytest.mark.parametrize("seed", range(6))
def test_screened_solve_takes_the_unscreened_pivot_path(monkeypatch, seed):
    rng = np.random.default_rng(70 + seed)
    cost, stack, plain, h = _screened_lp(rng, 3000 + seed, duplicates=50 * (seed % 2))
    kwargs = {"stall_limit": 1} if seed >= 4 else {}
    screened, bases, calls = _solve_checking_entering_rows(monkeypatch, cost, stack, h, **kwargs)
    whole, whole_bases, _ = _solve_checking_entering_rows(monkeypatch, cost, plain, h, **kwargs)
    assert screened.status is whole.status is LpStatus.OPTIMAL
    assert bases == whole_bases and len(bases) > 5
    assert screened.z.tobytes() == whole.z.tobytes()
    assert screened.active_row_ids.tolist() == whole.active_row_ids.tolist()
    assert screened.max_violation.hex() == whole.max_violation.hex()
    assert screened.rows_priced < whole.rows_priced
    if kwargs:
        assert any(calls)  # Bland's rule ran


@pytest.mark.parametrize("near", [False, True])
@pytest.mark.parametrize("bland", [False, True])
def test_screened_entering_row_for_random_pricing_vectors(monkeypatch, bland, near):
    # the cells' batches, bounds and early stop against one pass of all rows;
    # `near` puts every sampled h within 1e-3, so many bounds lie close to
    # the best reduced cost found so far; batches start at one cell
    monkeypatch.setattr(lp, "_FIRST_BATCH", 4)
    rng = np.random.default_rng(82)
    _, stack, _, h = _screened_lp(rng, 6001, grid=12, h_sampled=(
        lambda total: rng.uniform(-1.0, -0.999, size=total)) if near else None)
    lo = stack.starts[-2]
    engine = lp._DualSimplex(stack, np.ones(8), h, np.ones(8), lp.LpTolerances(optimality=1e-9))
    engine._bland = bland
    sampled = 0
    for trial in range(200):
        v = rng.normal(size=8) * 10.0 ** rng.uniform(-6 if near else -2, 1)
        engine.basis[:3] = rng.integers(0, len(stack), 3)
        phase = 1 + trial % 2
        r = _reduced_costs(engine, v, phase)
        eligible = np.flatnonzero(r < -engine.opt_tol)
        expected = (None if not len(eligible) else int(eligible[0]) if bland
                    else int(np.argmin(r)))
        assert engine._entering_row(v, phase) == expected
        sampled += expected is not None and expected >= lo
    assert sampled > 20


@pytest.mark.parametrize("first_batch", [4, lp._FIRST_BATCH])
@pytest.mark.parametrize("bland", [False, True])
def test_screened_ties_enter_the_lowest_row(monkeypatch, bland, first_batch):
    # v is zero on the sampled columns, so a row's reduced cost is its h:
    # equal h in different cells, and duplicated samples, tie exactly, in
    # one batch or across batches of one cell
    monkeypatch.setattr(lp, "_FIRST_BATCH", first_batch)
    def h_sampled(total):
        h = np.ones(total)
        h[[2911, 17, 1500, 2970, 10]] = -3.0  # sample 2970 repeats sample 10
        h[12] = -1.0  # eligible, not the lowest
        return h

    rng = np.random.default_rng(80)
    _, stack, _, h = _screened_lp(rng, 3000, duplicates=40, h_sampled=h_sampled)
    cells = stack.blocks[-1][1].cells
    lo = stack.starts[-2]
    cell_of = np.searchsorted(cells.starts, np.argsort(cells.order)[[10, 17, 1500, 2911]], "right")
    assert len(set(cell_of.tolist())) >= 3  # ties across cells
    engine = lp._DualSimplex(stack, np.ones(8), h, np.ones(8), lp.LpTolerances(optimality=1e-9))
    engine._bland = bland
    v = np.zeros(8)
    assert engine._entering_row(v, 2) == lo + 10
    engine.basis[0] = lo + 10
    assert engine._entering_row(v, 2) == (lo + 12 if bland else lo + 17)


@pytest.mark.parametrize("extra", [0, 1, 2, 3])
def test_screened_entering_row_and_residual_are_those_of_one_mat_vec(extra):
    # the last n % 4 rows are members of their cells like any other: with
    # the lowest reduced cost on the last row it enters; for random pricing
    # vectors the entering row of either rule, and the final G z - h (its
    # largest entry and active rows), are those of one mat-vec of every row
    rng = np.random.default_rng(85 + extra)
    _, stack, _, h = _screened_lp(rng, 4000 + extra, corners=False,
                                  h_sampled=lambda total: np.r_[np.ones(total - 1), -2.0])
    assert (len(stack) - stack.starts[-2]) % 4 == extra
    engine = lp._DualSimplex(stack, np.ones(8), h, np.ones(8), lp.LpTolerances(optimality=1e-9))
    assert engine._entering_row(np.zeros(8), 2) == len(stack) - 1
    _, stack, _, h = _screened_lp(rng, 4000 + extra, corners=False)
    engine = lp._DualSimplex(stack, np.ones(8), h, np.ones(8), lp.LpTolerances(optimality=1e-9))
    active = 0
    for trial in range(80):
        v = rng.normal(size=8) * 10.0 ** rng.uniform(-2, 1)
        engine.basis[:3] = rng.integers(0, len(stack), 3)
        engine._bland = trial % 4 > 1
        phase = 1 + trial % 2
        r = _reduced_costs(engine, v, phase)
        eligible = np.flatnonzero(r < -engine.opt_tol)
        expected = (None if not len(eligible) else int(eligible[0]) if engine._bland
                    else int(np.argmin(r)))
        assert engine._entering_row(v, phase) == expected
        resid = stack.matvec(v) - h
        top, near = engine.residual(v, 0.05)
        assert top == resid.max()
        assert near.tolist() == np.flatnonzero(np.abs(resid) <= 0.05).tolist()
        active += len(near)
    assert active > 20


@pytest.mark.parametrize("bland", [False, True])
def test_entering_row_with_a_block_after_the_cells(bland):
    # a dense block after the block with cells: its rows are priced before
    # the cells' batches, and
    # Dantzig's rule enters rows of both; under Bland's rule an eligible row
    # after the cells is the stop row, and a lower eligible cell row wins
    rng = np.random.default_rng(83)
    _, stack, _, h = _screened_lp(rng, 6001, grid=12)
    stack = RowStack(stack.blocks + [(np.arange(8), rng.normal(size=(40, 8)).T)], 8)
    h = np.concatenate([h, rng.uniform(-1.0, 1.0, size=40)])
    lo, hi = stack.starts[-3:-1]
    engine = lp._DualSimplex(stack, np.ones(8), h, np.ones(8), lp.LpTolerances(optimality=1e-9))
    engine._bland = bland
    where, later = [], 0
    for trial in range(300):
        v = rng.normal(size=8) * 10.0 ** rng.uniform(-2, 1)
        engine.basis[:3] = rng.integers(0, len(stack), 3)
        phase = 1 + trial % 2
        r = _reduced_costs(engine, v, phase)
        eligible = np.flatnonzero(r < -engine.opt_tol)
        expected = (None if not len(eligible) else int(eligible[0]) if bland
                    else int(np.argmin(r)))
        assert engine._entering_row(v, phase) == expected
        where.append(None if expected is None else int(expected >= lo) + int(expected >= hi))
        later += where[-1] == 1 and bool(np.any(eligible >= hi))
    assert where.count(1) > 20 and (later if bland else where.count(2)) > 20


def test_non_finite_cell_bounds_price_their_cells_and_nan_fails_closed():
    # finite multipliers: the sampled block's product overflows to +inf where
    # x > 1.06 and the shared row's term to -inf; the bounds overflow too, so
    # every cell is priced and the NaN is seen.  The head is only the box.
    rng = np.random.default_rng(90)
    _, stack, _, h = _screened_lp(rng, 2000)
    cols, values, shared = stack.blocks[-1]
    cells = values.cells
    stack = RowStack([(np.arange(8), stack.blocks[0][1][:, :16]), stack.blocks[-1]], 8)
    h = np.concatenate([h[:16], h[22:]])  # the box rows, then the sampled rows
    v = np.zeros(8)
    v[[0, 5, 7]] = 1.7e308, -1.7e308, 1.7e308
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.all(cells.bounds(v[cols], float(shared @ v), 2) == -np.inf)
        engine = lp._DualSimplex(stack, np.ones(8), h, np.ones(8), lp.LpTolerances(optimality=1e-9))
        with pytest.raises(SolverError, match="NaN reduced cost of row") as err:
            engine._entering_row(v, 2)
        r = _reduced_costs(engine, v, 2)
    row = int(str(err.value).split("row ")[1].split()[0])
    assert row >= 16 and np.isnan(r[row]) and not np.any(np.isnan(r[:16]))
    assert err.value.status == LpStatus.ITERATION_LIMIT.value


def test_cells_must_tile_their_block():
    rng = np.random.default_rng(91)
    _, stack, _, _ = _screened_lp(rng, 1000)
    values = stack.blocks[-1][1]
    cells = values.cells
    with pytest.raises(SolverError, match="tile"):
        lp.Cells(cells.order, cells.starts[:-1], cells.lower[:-1], cells.upper[:-1],
                 cells.h_min[:-1], cells.coeff_map)
    with pytest.raises(SolverError, match="rows in cells"):
        lp.PolyRows([z[1:] for z in values.z], cells, _sampled_values)


@pytest.mark.parametrize("fault", ["duplicate", "past the end", "negative"])
def test_cells_must_list_every_row_once(fault):
    # pricing, the final residual and the column maxima trust that `order`
    # is a permutation of the block's rows: a row listed twice leaves
    # another unpriced
    rng = np.random.default_rng(92)
    _, stack, _, _ = _screened_lp(rng, 1000)
    cells = stack.blocks[-1][1].cells
    order = cells.order.copy()
    order[5] = {"duplicate": order[6], "past the end": len(order), "negative": -1}[fault]
    with pytest.raises(SolverError, match="do not tile it"):
        lp.Cells(order, cells.starts, cells.lower, cells.upper, cells.h_min, cells.coeff_map)


def _full_pass_abs_max(values):
    """The column maxima of |entry| from one chunked pass over every made row."""
    rows = np.asarray(values)
    out = np.zeros(len(rows))
    for a in range(0, rows.shape[1], lp._MAKE_CHUNK):
        part = rows[:, a:a + lp._MAKE_CHUNK]
        np.maximum(out, np.maximum(part.max(axis=1), -part.min(axis=1)), out=out)
    return out


def _counting_makes(monkeypatch):
    """Record the rows of every `PolyRows._make` call into the returned list."""
    made, make = [], lp.PolyRows._make
    monkeypatch.setattr(lp.PolyRows, "_make",
                        lambda self, z: made.append(len(z[0])) or make(self, z))
    return made


def test_pivot_trace_counts_the_makes_of_the_made_block():
    # `tools/pivot_trace.py` counts makes by wrapping `PolyRows._make`: at
    # 131,073 samples the block is made, at assembly and in the solve, so
    # the tool would read 0 if makes stopped going through `_make`
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(lp.__file__))))
    run = subprocess.run([sys.executable, os.path.join(root, "tools", "pivot_trace.py"),
                          "131073", "7"],
                         capture_output=True, text=True, check=True, timeout=300)
    (made,) = [json.loads(line) for line in run.stdout.splitlines()]
    assert made["n"] == 131_073 and made["makes"] > 0 and made["assembly_makes"] > 0


@pytest.mark.parametrize("n", [131_073, 140_000])
@pytest.mark.parametrize("seed", [2025, 7, 11])
def test_screened_column_maxima_on_room_data(monkeypatch, n, seed):
    # the made sampled block's column maxima are those of every row, bit
    # for bit, made from fewer than 1% of the rows
    config = validate_config(room_casestudy_config(
        n_scenario=n, n_validation=10, seed_scenario=seed, seed_validation=9090,
    ))
    made = _counting_makes(monkeypatch)
    _, problem = scenario_problem(config)
    monkeypatch.undo()
    values = problem.G.blocks[-1][1]
    assert isinstance(values, lp.PolyRows)
    assert 0 < sum(made) < 0.01 * n
    assert values.abs_max.tobytes() == _full_pass_abs_max(values).tobytes()


@pytest.mark.parametrize("case", ["crossing zero", "lone extreme", "constant"])
def test_screened_column_maxima_are_those_of_every_row(monkeypatch, case):
    rng = np.random.default_rng(93)
    n = 2 * lp._MAKE_CHUNK + 3 if case == "constant" else 20_000
    x = rng.uniform(-1.5, 1.0, n) if case == "crossing zero" else rng.uniform(0.5, 1.5, n)
    x_next = x + rng.normal(scale=0.3, size=n)
    if case == "lone extreme":  # alone in its column of squares
        x[1234], x_next[1234] = 40.0, -3.0
    if case == "constant":  # one cell, made in pieces of at most _MAKE_CHUNK rows
        x, x_next = np.full(n, 0.75), np.full(n, -1.25)
    made = _counting_makes(monkeypatch)
    values = lp.PolyRows([x, x_next], _grid_cells(x, x_next, 16, np.zeros(n)), _sampled_values)
    monkeypatch.undo()
    assert values.abs_max.tobytes() == _full_pass_abs_max(values).tobytes()
    assert max(made) <= lp._MAKE_CHUNK
    if case == "lone extreme":
        assert values.abs_max[4] == 40.0 and sum(made) < n // 2
    if case == "constant":
        assert sum(made) == n


def test_overflowing_column_maxima_are_those_of_every_row_and_fail_closed():
    # z near 1e80: x^4 overflows, so x'^4 - x^4 is NaN where both overflow
    # and inf where one does; the maxima keep the NaN and the inf, and the
    # solve refuses the block
    rng = np.random.default_rng(94)
    n = 3000
    x = rng.uniform(0.5, 1.5, n)
    x_next = x + rng.normal(scale=0.05, size=n)
    x[:40] = x_next[:40] = 1e80 * rng.uniform(1.0, 2.0, 40)
    x_next[40:50] = 1e110
    with np.errstate(over="ignore", invalid="ignore"):
        values = lp.PolyRows([x, x_next], _grid_cells(x, x_next, 16, np.zeros(n)), _sampled_values)
        full = _full_pass_abs_max(values)
    assert np.isnan(values.abs_max[3]) and values.abs_max[2] == np.inf
    np.testing.assert_array_equal(values.abs_max, full)
    stack = RowStack([(_SAMPLED_COLS, values, _SAMPLED_SHARED)], 8)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverError, match="non-finite entries"):
            solve_dense_lp(np.eye(8)[0], stack, np.zeros(n))


def test_column_maxima_keep_a_nan_found_after_an_inf():
    # every bound overflows, so every cell is made even once each column's
    # maximum is inf, and a NaN in a later cell reads NaN as in the full pass
    x, x_next = np.array([np.inf, np.inf, 1.0, 1.25]), np.array([1.0, np.inf, 1.0, 1.5])
    lower = np.array([[np.inf, 1.0], [np.inf, np.inf], [1.0, 1.0]])
    upper = np.array([[np.inf, 1.0], [np.inf, np.inf], [1.25, 1.5]])
    with np.errstate(invalid="ignore"):
        values = lp.PolyRows([x, x_next], lp.Cells(np.arange(4), [0, 1, 2, 4], lower, upper,
                                                    np.zeros(3), _coeff_map()), _sampled_values)
        full = _full_pass_abs_max(values)
    assert np.all(np.isnan(values.abs_max[:4])) and np.all(values.abs_max[4:] == np.inf)
    np.testing.assert_array_equal(values.abs_max, full)

_TWO_BLOCK_MATVEC = """
import sys
import numpy as np
from safesynth.lp import RowStack
rng = np.random.default_rng(5)
shared = np.r_[rng.normal(size=16), np.zeros(8)]
stack = RowStack([(np.arange(24), rng.normal(size=(100_033, 24)).T),
                  (np.arange(16, 24), rng.normal(size=(8, 200_003)), shared)], 24)
sys.stdout.write(stack.matvec(rng.normal(size=24)).tobytes().hex())
"""


def test_matvec_has_the_same_bits_on_one_and_two_blas_threads():
    # a dense block and a shared-row block, each multiplied by BLAS in
    # pieces of the pricing chunk: a second thread must not change a bit
    src = os.path.dirname(os.path.dirname(os.path.abspath(lp.__file__)))
    products = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        products.append(subprocess.run([sys.executable, "-c", _TWO_BLOCK_MATVEC], env=env,
                                       capture_output=True, text=True, check=True,
                                       timeout=60).stdout)
    assert len(products[0]) == 2 * 8 * 300_036 and products[0] == products[1]
