import tracemalloc

import numpy as np
import pytest

from safesynth import scp
from safesynth.errors import AssemblyError
from safesynth.geometry import Box, RegionUnion, SampleSpace
from safesynth.lp import solve_dense_lp
from safesynth.pipeline import room_casestudy_config, validate_config
from safesynth.plant import Dataset, RoomTemperaturePlant, collect
from safesynth.polynomial import build_basis, eval_basis, eval_poly_many
from safesynth.scp import (
    CertificateValues,
    DecisionLayout,
    GridSpec,
    LpStatus,
    RowTag,
    box_to_polytope,
    build_problem,
    count_active_g3,
    g1_rows,
    g2_rows,
    g3_row,
    g3_rows,
    g4_rows,
    sampled_problem,
    solve_lp,
    static_blocks,
    structural_rows,
)

from .conftest import exact_support_count, scenario_problem


def tiny_layout(degree=1):
    return DecisionLayout.build(
        build_basis(1, degree), [build_basis(1, degree)], 1.0, [1.0]
    )


ROOM_REGIONS = (
    RegionUnion.from_intervals([[[24, 25]]]),
    RegionUnion.from_intervals([[[22.5, 23]], [[26, 26.5]]]),
    Box.from_intervals([[22.5, 26.5]]),
)


def room_layout():
    return DecisionLayout.build(build_basis(1, 4), [build_basis(1, 4)], 0.1, [0.05])


def small_problem(n_samples=40, seed=3, grids=GridSpec(201, 101, 401)):
    layout = room_layout()
    space = SampleSpace.product(
        Box.from_intervals([[22.5, 26.5]]), Box.from_intervals([[0, 1]])
    )
    data = collect(RoomTemperaturePlant(), space, n_samples, seed)
    A, b = box_to_polytope(Box.from_intervals([[0, 1]]))
    problem = build_problem(layout, data, *ROOM_REGIONS, A, b, 5, grids, 1e-6, True)
    return layout, data, problem


def test_layout_dimensions_match_case_study_template():
    layout = room_layout()
    assert layout.n_barrier == 5 and layout.n_controller == 5
    assert layout.n_core == 14
    assert layout.n_total == 24  # core + one split per coefficient


def test_gram_scheme_multiplicities():
    layout = room_layout()
    assert layout.barrier_scheme.kind == "gram-rowsum"
    assert layout.barrier_scheme.scale == (1.0, 2.0, 3.0, 2.0, 1.0)
    assert layout.barrier_scheme.groups == ((0, 1, 2), (1, 2, 3), (2, 3, 4))


def test_l1_scheme_for_multivariate():
    layout = DecisionLayout.build(build_basis(2, 2), [build_basis(2, 2)], 1.0, [1.0])
    assert layout.barrier_scheme.kind == "l1"
    assert len(layout.barrier_scheme.groups) == 1


def test_g1_row_transcription():
    layout = tiny_layout()
    grid = np.array([[24.5]])
    block, rhs = g1_rows(layout, grid, eta=1e-6)
    row = block[0]
    assert np.array_equal(row[layout.q_slice], eval_basis(layout.barrier, [24.5]))
    assert row[layout.CAP] == -1.0
    assert rhs[0] == -1e-6
    untouched = [layout.OBJECTIVE, layout.FLOOR, layout.BUDGET]
    assert all(row[i] == 0.0 for i in untouched)


def test_g1_row_exact_activity_at_cap():
    # a point with barrier value equal to the cap sits exactly on the row
    layout = tiny_layout()
    block, rhs = g1_rows(layout, np.array([[2.0]]), eta=0.0)
    d = np.zeros(layout.n_total)
    d[layout.q_slice] = [1.0, 3.0]     # barrier(x) = 1 + 3x
    d[layout.CAP] = 7.0                # equals barrier(2)
    assert block[0] @ d - rhs[0] == pytest.approx(0.0, abs=1e-14)


def test_g2_row_transcription():
    layout = tiny_layout()
    block, rhs = g2_rows(layout, np.array([[22.6]]))
    row = block[0]
    assert np.array_equal(row[layout.q_slice], -eval_basis(layout.barrier, [22.6]))
    assert row[layout.FLOOR] == 1.0
    assert rhs[0] == 0.0


def test_g2_degenerate_zero_poly_infeasible_with_tightening():
    # zero barrier and floor 0 reads 0 <= -delta: infeasible for delta > 0
    layout = tiny_layout()
    part = Box.from_intervals([[22.5, 23.0]])
    block, rhs = g2_rows(layout, np.array([[22.75]]), part_box=part, halfstep=0.05)
    d = np.zeros(layout.n_total)
    # the tightening weights hit the split columns, so force splits active
    d[layout.s_q_slice] = 1.0
    assert block[0] @ d > rhs[0]


def test_g3_row_hand_transcription():
    layout = tiny_layout(degree=1)
    coeffs, rhs = g3_row(layout, x=[1.0], u=[0.5], x_next=[2.0])
    assert np.array_equal(coeffs[layout.q_slice], [0.0, 1.0])
    assert np.array_equal(coeffs[layout.p_slice(0)], [-1.0, -1.0])
    assert coeffs[layout.BUDGET] == -1.0
    assert coeffs[layout.OBJECTIVE] == -1.0
    assert rhs == -0.5


def test_g3_identity_next_state_zeroes_barrier_part():
    layout = tiny_layout(degree=3)
    coeffs, _ = g3_row(layout, x=[1.7], u=[0.2], x_next=[1.7])
    assert np.allclose(coeffs[layout.q_slice], 0.0)


def test_g3_batch_matches_single():
    layout = room_layout()
    space = SampleSpace.product(
        Box.from_intervals([[22.5, 26.5]]), Box.from_intervals([[0, 1]])
    )
    data = collect(RoomTemperaturePlant(), space, 25, 9)
    block, rhs = g3_rows(layout, data)
    for i in (0, 7, 24):
        row, r = g3_row(layout, data.xs[i], data.us[i], data.x_nexts[i])
        assert np.allclose(block[i], row, atol=0.0)
        assert rhs[i] == pytest.approx(r, abs=0.0)


def test_g3_rows_written_in_chunks_into_out(monkeypatch):
    # chunk boundaries and a caller's uninitialised buffer leave no trace
    layout = room_layout()
    space = SampleSpace.product(
        Box.from_intervals([[22.5, 26.5]]), Box.from_intervals([[0, 1]])
    )
    data = collect(RoomTemperaturePlant(), space, 25, 9)
    whole, rhs_whole = g3_rows(layout, data)
    monkeypatch.setattr(scp, "G3_CHUNK", 7)
    out = np.full((25, layout.n_total), np.nan)
    block, rhs = g3_rows(layout, data, out=out)
    assert block is out
    assert np.array_equal(block, whole) and np.array_equal(rhs, rhs_whole)
    for i in range(25):
        row, _ = g3_row(layout, data.xs[i], data.us[i], data.x_nexts[i])
        assert np.array_equal(block[i], row)
    with pytest.raises(AssemblyError):
        g3_rows(layout, data, out=np.empty((24, layout.n_total)))


def test_g3_transcription_matches_direct_evaluation():
    # row . d - rhs must equal the literal one-step expression
    rng = np.random.default_rng(8)
    layout = room_layout()
    space = SampleSpace.product(
        Box.from_intervals([[22.5, 26.5]]), Box.from_intervals([[0, 1]])
    )
    data = collect(RoomTemperaturePlant(), space, 200, 10)
    block, rhs = g3_rows(layout, data)
    for _ in range(40):
        d = np.zeros(layout.n_total)
        d[: layout.n_core] = rng.normal(size=layout.n_core)
        cert = CertificateValues.from_vector(layout, d)
        direct = (
            eval_poly_many(cert.barrier, data.x_nexts)
            - eval_poly_many(cert.barrier, data.xs)
            + np.sum(
                data.us
                - np.column_stack([eval_poly_many(c, data.xs) for c in cert.controllers]),
                axis=1,
            )
            - cert.growth_budget
            - cert.objective
        )
        assembled = block @ d - rhs
        assert np.allclose(assembled, direct, atol=1e-10)


def test_g4_rows_for_unit_interval_input():
    layout = tiny_layout()
    A, b = box_to_polytope(Box.from_intervals([[0, 1]]))
    assert np.array_equal(A, [[1.0], [-1.0]])
    assert np.array_equal(b, [1.0, 0.0])
    grid = np.array([[23.0], [24.0]])
    block, rhs, origins = g4_rows(layout, grid, A, b)
    # first polytope row: +F(x) <= 1
    assert np.array_equal(block[0][layout.p_slice(0)], eval_basis(layout.controllers[0], [23.0]))
    assert rhs[0] == 1.0
    # second polytope row: -F(x) <= 0
    assert np.array_equal(block[2][layout.p_slice(0)], -eval_basis(layout.controllers[0], [23.0]))
    assert rhs[2] == 0.0
    assert list(origins) == [0, 1, 0, 1]


def test_g4_zero_controller_feasible_iff_rhs_nonnegative():
    layout = tiny_layout()
    A, b = box_to_polytope(Box.from_intervals([[0, 1]]))
    block, rhs, _ = g4_rows(layout, np.array([[25.0]]), A, b)
    d = np.zeros(layout.n_total)
    assert np.all(block @ d <= rhs)


def test_structural_rows_transcription():
    layout = tiny_layout()
    block, rhs = structural_rows(layout, horizon=5)
    row = block[0]
    assert row[layout.FLOOR] == -1.0
    assert row[layout.CAP] == 1.0
    assert row[layout.BUDGET] == 5.0
    assert rhs[0] == 0.0
    assert block[1][layout.BUDGET] == -1.0


def test_structural_row_active_at_boundary():
    layout = tiny_layout()
    block, rhs = structural_rows(layout, horizon=5)
    d = np.zeros(layout.n_total)
    d[layout.FLOOR] = 2.5
    d[layout.CAP] = 2.5
    d[layout.BUDGET] = 0.0
    assert block[0] @ d - rhs[0] == 0.0


def test_structural_split_rows_bound_coefficients():
    layout = room_layout()
    block, rhs = structural_rows(layout, horizon=5)
    d = np.zeros(layout.n_total)
    d[layout.q_slice] = [0.0, 1.948e-3, 0.2395, -3.841e-2, 9.74e-4]
    # choose splits at the implied minimum |coeff| / multiplicity
    scale = np.asarray(layout.barrier_scheme.scale)
    d[layout.s_q_slice] = np.abs(np.asarray(d[layout.q_slice])) / scale
    resid = block @ d - rhs
    # split rows hold with equality at |entry| = split; the group sums sit on
    # the cap up to the 4-significant-figure rounding of these coefficients
    assert np.max(resid) <= 5e-5
    split_rows = [i for i in range(len(block)) if np.any(block[i][layout.s_q_slice] == -1.0)]
    assert all(resid[i] <= 1e-15 for i in split_rows)


def test_problem_requires_sampled_rows():
    layout = tiny_layout()
    sG, sh = structural_rows(layout, 5)
    with pytest.raises(AssemblyError):
        from safesynth.scp import LpProblem

        LpProblem(sG, sh, np.full(len(sG), RowTag.STRUCTURAL), np.full(len(sG), -1),
                  layout)


def test_solve_small_problem_optimal(small_solved):
    _, _, problem, solution = small_solved
    assert solution.status is LpStatus.OPTIMAL
    assert solution.max_violation <= 1e-8
    assert solution.objective < 0.0


def test_solution_feasible_on_every_row(small_solved):
    _, _, problem, solution = small_solved
    assert np.max(problem.residuals(solution.d_star)) <= 1e-8


def test_active_rows_have_small_residual(small_solved):
    _, _, problem, solution = small_solved
    resid = problem.residuals(solution.d_star)
    assert np.all(np.abs(resid[solution.active_row_ids]) <= 1e-7)


def test_certificate_extraction(small_solved):
    config, _, problem, solution = small_solved
    cert = solution.certificate(problem.layout)
    assert cert.objective == pytest.approx(solution.objective)
    assert cert.growth_budget >= -1e-12
    assert cert.unsafe_floor - cert.initial_cap >= 5 * cert.growth_budget - 1e-9


def test_monotone_in_added_samples():
    # scenario programs only gain constraints: objective cannot decrease;
    # seeded sampling is prefix-stable so the smaller set is nested
    _, _, problem_full = small_problem(n_samples=120, seed=5)
    sol_full = solve_lp(problem_full)
    _, _, problem_small = small_problem(n_samples=40, seed=5)
    sol_small = solve_lp(problem_small)
    assert sol_small.objective <= sol_full.objective + 1e-9


def test_count_active_vs_exact_support_small():
    layout, data, problem = small_problem(n_samples=30, seed=13)
    solution = solve_lp(problem)
    active = count_active_g3(problem, solution)
    support = exact_support_count(problem, solution)
    assert active >= support
    assert support <= problem.layout.n_total  # dimension bound


def test_support_count_max_of_list_style():
    # one binding row among dominated rows: exactly one support constraint
    layout, data, problem = small_problem(n_samples=20, seed=2)
    solution = solve_lp(problem)
    support = exact_support_count(problem, solution)
    assert support >= 1


def test_duplicated_binding_row_has_no_support():
    # duplicating every sampled row makes each individually removable
    layout, data, problem = small_problem(n_samples=15, seed=4)
    doubled = Dataset(
        np.vstack([data.xs, data.xs]),
        np.vstack([data.us, data.us]),
        np.vstack([data.x_nexts, data.x_nexts]),
        data.seed, data.role, data.space,
    )
    A, b = box_to_polytope(Box.from_intervals([[0, 1]]))
    problem2 = build_problem(
        layout, doubled,
        RegionUnion.from_intervals([[[24, 25]]]),
        RegionUnion.from_intervals([[[22.5, 23]], [[26, 26.5]]]),
        Box.from_intervals([[22.5, 26.5]]), A, b, 5, GridSpec(41, 21, 81), 1e-6, True,
    )
    solution = solve_lp(problem2)
    assert exact_support_count(problem2, solution) == 0


def test_removing_inactive_rows_reproduces_objective(small_solved):
    _, _, problem, solution = small_solved
    g3_idx = problem.g3_row_indices()
    resid = problem.residuals(solution.d_star)
    inactive = [int(i) for i in g3_idx if resid[i] < -1e-6]
    reduced = problem.without_rows(inactive[:-1] if len(inactive) == len(g3_idx) else inactive)
    sol2 = solve_lp(reduced)
    assert sol2.objective == pytest.approx(solution.objective, abs=1e-7)


def test_lexicographic_refinement_preserves_objective():
    layout, data, problem = small_problem(n_samples=50, seed=21)
    plain = solve_lp(problem)
    refined = solve_lp(problem, lexicographic=True)
    assert refined.objective == pytest.approx(plain.objective, abs=1e-8)
    assert np.max(problem.residuals(refined.d_star)) <= 1e-7
    # refinement never increases any core coordinate ordering: the refined
    # point is lexicographically <= the plain vertex on (floor, cap, ...)
    for idx in range(1, layout.n_core):
        if refined.d_star[idx] < plain.d_star[idx] - 1e-9:
            break
        assert refined.d_star[idx] <= plain.d_star[idx] + 1e-7


def test_lexicographic_flag_reports_complete_refinement():
    # seed 0 pins all 14 core coordinates; at seed 21 a refinement re-solve
    # ends non-optimal, so the refinement stops early and says so
    _, _, complete = small_problem(n_samples=50, seed=0)
    assert solve_lp(complete, lexicographic=True).lexicographic is True
    _, _, partial = small_problem(n_samples=50, seed=21)
    assert solve_lp(partial, lexicographic=True).lexicographic is False


def test_scenario_problem_matches_highs():
    # independent solver cross-check on the real tall, degenerate row shape
    scipy_opt = pytest.importorskip("scipy.optimize")
    _, _, problem = small_problem(n_samples=2000, seed=77, grids=GridSpec(201, 101, 801))
    solution = solve_lp(problem)
    ref = scipy_opt.linprog(
        problem.cost, A_ub=problem.G, b_ub=problem.h, bounds=(None, None),
        method="highs",
    )
    assert solution.status is LpStatus.OPTIMAL and ref.status == 0
    assert solution.objective == pytest.approx(ref.fun, abs=1e-7)


def test_problem_dump_format(tmp_path, small_solved):
    _, _, problem, _ = small_solved
    path = tmp_path / "tableau.txt"
    problem.dump(str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == problem.n_rows
    tag, origin, rhs, *entries = lines[0].split()
    assert tag in {"g1", "g2", "g3", "g4", "structural"}
    int(origin)
    float(rhs)
    for e in entries:
        idx, val = e.split(":")
        int(idx)
        float(val)


def test_infeasible_template_reported():
    # degree-0 templates force a constant barrier: the floor can never
    # exceed the cap, so the program is infeasible and must say so
    layout = DecisionLayout.build(
        build_basis(1, 0), [build_basis(1, 0)], 1e-9, [1e-9]
    )
    space = SampleSpace.product(
        Box.from_intervals([[22.5, 26.5]]), Box.from_intervals([[0, 1]])
    )
    data = collect(RoomTemperaturePlant(), space, 10, 3)
    A, b = box_to_polytope(Box.from_intervals([[0, 1]]))
    problem = build_problem(
        layout, data,
        RegionUnion.from_intervals([[[24, 25]]]),
        RegionUnion.from_intervals([[[22.5, 23]], [[26, 26.5]]]),
        Box.from_intervals([[22.5, 26.5]]), A, b, 5, GridSpec(11, 11, 21), 1e-6, True,
    )
    solution = solve_lp(problem)
    assert solution.status is LpStatus.INFEASIBLE
    assert solution.d_star is None


def _allocation_peak(fn, *args):
    """fn(*args) and the most bytes it held allocated at once beyond its start."""
    before, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    result = fn(*args)
    return result, tracemalloc.get_traced_memory()[1] - before


def test_assembly_solve_and_support_hold_one_copy_of_G():
    # at prior scale G is 549 MB, so each extra G-sized array is a budget item
    layout = room_layout()
    space = SampleSpace.product(
        Box.from_intervals([[22.5, 26.5]]), Box.from_intervals([[0, 1]])
    )
    A, b = box_to_polytope(Box.from_intervals([[0, 1]]))
    static = static_blocks(layout, *ROOM_REGIONS, A, b, 5, GridSpec(201, 101, 401), 1e-6, True)
    data = collect(RoomTemperaturePlant(), space, 200_000 - len(static[0]), 21)
    chunk_bytes = scp.G3_CHUNK * layout.n_total * 8
    tracemalloc.start()
    try:
        problem, build_peak = _allocation_peak(sampled_problem, layout, static, data)
        res, lp_peak = _allocation_peak(
            solve_dense_lp, problem.cost, problem.G, problem.h
        )
        solution = solve_lp(problem)
        active, count_peak = _allocation_peak(count_active_g3, problem, solution)
    finally:
        tracemalloc.stop()
    G_bytes = problem.G.nbytes
    assert problem.G.shape == (200_000, 24)
    assert res.status is LpStatus.OPTIMAL and active >= 1
    assert build_peak <= G_bytes + chunk_bytes
    assert lp_peak < 0.25 * G_bytes
    assert count_peak < 0.25 * G_bytes


def test_desk_scale_pivot_path_pinned():
    # captured while the solver still priced a scaled copy of G: pricing,
    # scaling and basis masking must keep this exact pivot path
    config = validate_config(room_casestudy_config(
        n_scenario=20_000, n_validation=10_000, seed_scenario=2025, seed_validation=9090,
    ))
    _, problem = scenario_problem(config)
    tol = config.tolerances
    res = solve_dense_lp(
        problem.cost, problem.G, problem.h, opt_tol=tol.optimality,
        pivot_tol=tol.pivot, feas_tol=tol.feasibility, max_iter=tol.max_iterations,
    )
    assert res.objective.hex() == "-0x1.6cba804a7e6e3p-2"
    assert (res.iterations, res.degenerate_steps) == (65, 32)
    assert res.basis_rows.tolist() == [
        0, 2, 3, 4, 6, 9, 10, 13, 14, 15, 17, 20, 22, 23, 25, 26, 28,
        15029, 15030, 30397, 30497, 60031, 105423, 115503,
    ]
