import hashlib
import tracemalloc

import numpy as np
import pytest

from safesynth import lp as scp_lp
from safesynth import scp
from safesynth.errors import AssemblyError, SolverError
from safesynth.geometry import Box, RegionUnion, SampleSpace, box_grid, grid_halfstep
from safesynth.lp import RowStack, _pow2_column_scale, solve_dense_lp
from safesynth.pipeline import room_casestudy_config, validate_config
from safesynth.plant import Dataset, Role, RoomTemperaturePlant, collect
from safesynth.polynomial import (
    PolyBasis,
    build_basis,
    eval_basis,
    eval_basis_many,
    eval_poly_many,
    monomial_gradient_bound,
)
from safesynth.scp import (
    CertificateValues,
    DecisionLayout,
    GridSpec,
    LpStatus,
    LpTolerances,
    RowTag,
    box_to_polytope,
    build_problem,
    count_active_g3,
    g3_row,
    g3_rows,
    grid_rows,
    sampled_problem,
    solve_lp,
    static_blocks,
    structural_rows,
)

from .conftest import dense_g3_rows, exact_support_count, scenario_problem


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


def test_g3_columns_and_shared_row_split_every_sampled_row():
    # two state variables, a degree-2 barrier and controllers of degrees 1
    # and 2 (the second reuses the barrier's evaluation): every g3 row is the
    # shared row outside the live columns
    rng = np.random.default_rng(4)
    layout = DecisionLayout.build(
        build_basis(2, 2), [build_basis(2, 1), build_basis(2, 2)], 1.0, [1.0, 1.0]
    )
    data = Dataset(rng.normal(size=(30, 2)), rng.normal(size=(30, 2)),
                   rng.normal(size=(30, 2)), 0, "scenario")
    cols, shared = layout.g3_columns, layout.g3_shared_row
    assert len(cols) == 5 + 2 + 5
    block = g3_rows(layout, data.xs, data.x_nexts)
    for i in range(30):
        row, _ = g3_row(layout, data.xs[i], data.us[i], data.x_nexts[i])
        assert np.array_equal(block[:, i], row[cols])
        assert np.array_equal(np.delete(row, cols), np.delete(shared, cols))
    constant_first = build_basis(1, 2)
    with pytest.raises(AssemblyError):
        DecisionLayout.build(
            PolyBasis(1, 2, constant_first.terms[::-1]), [constant_first], 1.0, [1.0]
        )


def test_gram_scheme_multiplicities():
    layout = room_layout()
    assert layout.barrier_scheme.kind == "gram-rowsum"
    assert layout.barrier_scheme.scale == (1.0, 2.0, 3.0, 2.0, 1.0)
    assert layout.barrier_scheme.groups == ((0, 1, 2), (1, 2, 3), (2, 3, 4))


def test_l1_scheme_for_multivariate():
    layout = DecisionLayout.build(build_basis(2, 2), [build_basis(2, 2)], 1.0, [1.0])
    assert layout.barrier_scheme.kind == "l1"
    assert len(layout.barrier_scheme.groups) == 1


def expected_grid_row(layout, box, points, x, terms, constants, tighten):
    """One row of `grid_rows` at grid point x, from `eval_basis`, the layout's
    slices and schemes, and the tightening weights |c| * halfstep * scale *
    slope bound."""
    parts = [(layout.barrier, layout.q_slice, layout.s_q_slice, layout.barrier_scheme)] + [
        (basis, layout.p_slice(i), layout.s_p_slice(i), layout.controller_schemes[i])
        for i, basis in enumerate(layout.controllers)
    ]
    row = np.zeros(layout.n_total)
    for column, value in constants.items():
        row[column] = value
    for c, k in terms:
        basis, coeffs, splits, scheme = parts[k]
        row[coeffs] = c * eval_basis(basis, x)
        if tighten:
            row[splits] += abs(c) * (grid_halfstep(box, points) * np.asarray(scheme.scale)
                                     * monomial_gradient_bound(basis, box))
    return row


# (layout, box, points, terms, constants, rhs): g1 and g2 rows of a degree-1
# template, the two g4 rows of the room template's input box, and a g4 row
# of two controllers over two states with coefficients 0.5 and -2
GRID_FAMILIES = {
    "g1": (tiny_layout, [[24.0, 25.0]], 3, [(1.0, 0)], {DecisionLayout.CAP: -1.0}, -1e-6),
    "g2": (tiny_layout, [[22.5, 23.0]], 2, [(-1.0, 0)], {DecisionLayout.FLOOR: 1.0}, 0.0),
    "g4-upper": (room_layout, [[22.5, 26.5]], 5, [(1.0, 1)], {}, 1.0),
    "g4-lower": (room_layout, [[22.5, 26.5]], 5, [(-1.0, 1)], {}, 0.0),
    "g4-two-inputs": (
        lambda: DecisionLayout.build(build_basis(2, 2), [build_basis(2, 1), build_basis(2, 3)],
                                     1.0, [1.0, 2.0]),
        [[-1.0, 2.0], [0.5, 1.5]], 3, [(0.5, 1), (-2.0, 2)], {}, 0.25,
    ),
}


@pytest.mark.parametrize("tighten", [True, False], ids=["tightened", "untightened"])
@pytest.mark.parametrize("family", GRID_FAMILIES.values(), ids=GRID_FAMILIES)
def test_grid_rows_transcription(family, tighten):
    make_layout, intervals, points, terms, constants, rhs = family
    layout, box = make_layout(), Box.from_intervals(intervals)
    block, h = grid_rows(layout, box, points, terms, constants, rhs, tighten)
    grid = box_grid(box, points)
    assert block.shape == (len(grid), layout.n_total)
    assert np.array_equal(h, np.full(len(grid), rhs))
    for x, row in zip(grid, block):
        assert np.array_equal(
            row, expected_grid_row(layout, box, points, x, terms, constants, tighten))
    split_columns = slice(layout.n_core, layout.n_total)
    assert np.any(block[:, split_columns] != 0.0) == tighten


def test_g1_row_exact_activity_at_cap():
    # a point with barrier value equal to the cap sits exactly on the row
    layout = tiny_layout()
    block, rhs = grid_rows(layout, Box.from_intervals([[2.0, 2.0]]), 2, [(1.0, 0)],
                           {layout.CAP: -1.0}, 0.0, True)
    d = np.zeros(layout.n_total)
    d[layout.q_slice] = [1.0, 3.0]     # barrier(x) = 1 + 3x
    d[layout.CAP] = 7.0                # equals barrier(2)
    assert block[0] @ d - rhs[0] == pytest.approx(0.0, abs=1e-14)


def test_g2_degenerate_zero_poly_infeasible_with_tightening():
    # zero barrier and floor 0 reads 0 <= -delta: infeasible for delta > 0
    layout = tiny_layout()
    block, rhs = grid_rows(layout, Box.from_intervals([[22.5, 23.0]]), 2, [(-1.0, 0)],
                           {layout.FLOOR: 1.0}, 0.0, True)
    d = np.zeros(layout.n_total)
    # the tightening weights hit the split columns, so force splits active
    d[layout.s_q_slice] = 1.0
    assert np.all(block @ d > rhs)


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
    block, rhs = dense_g3_rows(layout, data)
    for i in (0, 7, 24):
        row, r = g3_row(layout, data.xs[i], data.us[i], data.x_nexts[i])
        assert np.allclose(block[i], row, atol=0.0)
        assert rhs[i] == pytest.approx(r, abs=0.0)


def test_g3_rows_written_in_chunks(monkeypatch):
    # chunk boundaries leave no trace
    layout = room_layout()
    space = SampleSpace.product(
        Box.from_intervals([[22.5, 26.5]]), Box.from_intervals([[0, 1]])
    )
    data = collect(RoomTemperaturePlant(), space, 25, 9)
    whole, _ = dense_g3_rows(layout, data)
    monkeypatch.setattr(scp, "G3_WRITE_CHUNK", 7)
    cols = layout.g3_columns
    # the non-constant monomials of q (columns 4-8) and p (9-13)
    assert cols.tolist() == [5, 6, 7, 8, 10, 11, 12, 13]
    shared = layout.g3_shared_row
    assert np.flatnonzero(shared).tolist() == [0, 3, 9] and np.all(shared[[0, 3, 9]] == -1.0)
    block = g3_rows(layout, data.xs, data.x_nexts)
    assert np.array_equal(block.T, whole[:, cols])
    for i in range(25):
        row, _ = g3_row(layout, data.xs[i], data.us[i], data.x_nexts[i])
        assert np.array_equal(whole[i], row)
        assert np.array_equal(block[:, i], row[cols])
        assert np.array_equal(np.delete(row, cols), np.delete(shared, cols))


def test_g3_transcription_matches_direct_evaluation():
    # row . d - rhs must equal the literal one-step expression
    rng = np.random.default_rng(8)
    layout = room_layout()
    space = SampleSpace.product(
        Box.from_intervals([[22.5, 26.5]]), Box.from_intervals([[0, 1]])
    )
    data = collect(RoomTemperaturePlant(), space, 200, 10)
    block, rhs = dense_g3_rows(layout, data)
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


def test_g4_zero_controller_feasible_iff_rhs_nonnegative():
    layout = tiny_layout()
    A, b = box_to_polytope(Box.from_intervals([[0, 1]]))
    assert np.array_equal(A, [[1.0], [-1.0]])
    assert np.array_equal(b, [1.0, 0.0])
    d = np.zeros(layout.n_total)
    for a_row, b_row in zip(A, b):
        block, rhs = grid_rows(layout, Box.from_intervals([[25.0, 25.0]]), 2,
                               [(a_row[0], 1)], {}, b_row, True)
        assert np.all(block @ d <= rhs)


def test_static_blocks_two_states_two_inputs_general_polytope():
    # a 2-state, 2-input template under an input polytope with entries other
    # than +-1 and a zero: every row against `eval_basis` and the tightening
    # weights, in table order (structural, g1 and g2 per part, g4 per row)
    layout = GRID_FAMILIES["g4-two-inputs"][0]()
    initial = RegionUnion.from_intervals([[[0.0, 0.5], [0.0, 0.25]]])
    unsafe = RegionUnion.from_intervals([[[1.5, 2.0], [1.0, 2.0]], [[-1.0, -0.5], [-1.0, 2.0]]])
    state = Box.from_intervals([[-1.0, 2.0], [-1.0, 2.0]])
    A = np.array([[0.5, -2.0], [0.0, 3.0], [-1.0, 0.0]])
    b = np.array([1.0, 0.5, 0.25])
    grids = GridSpec(3, 2, 4)
    for tighten in (True, False):
        G, h, tags = static_blocks(layout, initial, unsafe, state, A, b, 3, grids, 1e-6, tighten)
        sG, sh = structural_rows(layout, 3)
        expected = [(RowTag.STRUCTURAL, row, r) for row, r in zip(sG, sh)]
        families = [
            *((part, grids.initial, [(1.0, 0)], {layout.CAP: -1.0}, -1e-6, RowTag.G1)
              for part in initial.parts),
            *((part, grids.unsafe, [(-1.0, 0)], {layout.FLOOR: 1.0}, 0.0, RowTag.G2)
              for part in unsafe.parts),
            *((state, grids.state, [(a, 1 + j) for j, a in enumerate(a_row) if a], {}, b_i,
               RowTag.G4) for a_row, b_i in zip(A, b)),
        ]
        for box, points, terms, constants, rhs, tag in families:
            expected += [
                (tag, expected_grid_row(layout, box, points, x, terms, constants, tighten), rhs)
                for x in box_grid(box, points)
            ]
        assert len(G) == len(expected) == len(sG) + 3 * 3 + 2 * 2 * 2 + 3 * 4 * 4
        for row, r, tag, (e_tag, e_row, e_r) in zip(G, h, tags, expected):
            assert tag == e_tag and r == e_r and np.array_equal(row, e_row)
        g4 = G[tags == RowTag.G4]
        # the zero entry of the second polytope row leaves the first controller out
        assert not np.any(g4[16:32, layout.p_slice(0)])
        assert np.all(g4[16:32, layout.p_slice(1)] == 3.0 * eval_basis_many(
            layout.controllers[1], box_grid(state, 4)))
    with pytest.raises(AssemblyError):
        static_blocks(layout, initial, unsafe, state, A[:, :1], b, 3, grids, 1e-6, True)
    with pytest.raises(AssemblyError):
        static_blocks(layout, initial, unsafe, state, A, b[:2], 3, grids, 1e-6, True)


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

        LpProblem(sG, sh, np.full(len(sG), RowTag.STRUCTURAL), layout)


def test_problem_h_is_exactly_n_rows_long():
    layout, _, problem = small_problem(n_samples=20, seed=5)
    longer = np.concatenate([problem.h, np.zeros(layout.n_core)])
    with pytest.raises(AssemblyError, match="length"):
        scp.LpProblem(problem.G, longer, problem.tags, layout)


def test_problem_h_is_read_only(monkeypatch):
    # the cells' h_min is computed from h at assembly; an edit after it
    # could let pricing skip a cell that can enter
    monkeypatch.setattr(scp, "SCREEN_MIN_ROWS", 64)
    layout = room_layout()
    static, data = _room_static_and_data(layout, 500, 4)
    problem = sampled_problem(layout, static, data)
    assert isinstance(problem.G.blocks[-1][1], scp_lp.PolyRows)  # made, in cells
    with pytest.raises(ValueError, match="read-only"):
        problem.h[-1] -= 1.0
    reduced = problem.without_rows([0])
    with pytest.raises(ValueError, match="read-only"):
        reduced.h[0] = 0.0


def test_solve_small_problem_optimal(small_solved):
    _, _, problem, solution = small_solved
    assert solution.status is LpStatus.OPTIMAL
    assert solution.max_violation <= 1e-8
    assert solution.objective < 0.0


def test_solution_feasible_on_every_row(small_solved):
    _, _, problem, solution = small_solved
    assert np.max(problem.residuals(solution.z)) <= 1e-8


def test_active_rows_have_small_residual(small_solved):
    _, _, problem, solution = small_solved
    resid = problem.residuals(solution.z)
    assert np.all(np.abs(resid[solution.active_row_ids]) <= 1e-7)


def test_certificate_extraction(small_solved):
    config, _, problem, solution = small_solved
    cert = CertificateValues.from_vector(problem.layout, solution.z)
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
    resid = problem.residuals(solution.z)
    inactive = [int(i) for i in g3_idx if resid[i] < -1e-6]
    reduced = problem.without_rows(inactive[:-1] if len(inactive) == len(g3_idx) else inactive)
    sol2 = solve_lp(reduced)
    assert sol2.objective == pytest.approx(solution.objective, abs=1e-7)


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
    assert solution.z is None


@pytest.mark.parametrize("tighten", [True, False])
@pytest.mark.parametrize("states, inputs", [(1, 1), (2, 1), (1, 2)])
def test_scenario_programs_are_bounded_below(states, inputs, tighten):
    # `lp.solve_dense_lp` needs a program bounded below, which the scenario
    # program is by construction: no direction d with G d <= 0 lowers the
    # objective entry d_K.  HiGHS checks it on random data, every degree
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(100 * states + 10 * inputs + tighten)
    state = Box((-2.0,) * states, (2.0,) * states)
    initial = RegionUnion((Box((-0.5,) * states, (0.5,) * states),))
    unsafe = RegionUnion((Box((1.5,) + (-2.0,) * (states - 1), (2.0,) * states),
                          Box((-2.0,) * states, (-1.5,) + (2.0,) * (states - 1))))
    A, b = box_to_polytope(Box((0.0,) * inputs, (1.0,) * inputs))
    for degree in range(5):
        layout = DecisionLayout.build(
            build_basis(states, degree),
            [build_basis(states, (degree + j) % 5) for j in range(inputs)],
            rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0, inputs),
        )
        xs = rng.uniform(-2.0, 2.0, (30, states))
        data = Dataset(xs, rng.uniform(size=(30, inputs)),
                       xs + rng.normal(scale=0.3, size=xs.shape), 1, Role.SCENARIO)
        problem = build_problem(layout, data, initial, unsafe, state, A, b, 3,
                                GridSpec(5, 4, 6), 1e-6, tighten)
        G, cost = np.asarray(problem.G), problem.cost
        ref = scipy_opt.linprog(cost, A_ub=np.vstack([G, -cost]),
                                b_ub=np.r_[np.zeros(len(G)), 1.0], bounds=(None, None),
                                method="highs")
        assert ref.status == 0 and ref.fun >= -1e-9, (degree, ref.message)


def _allocation_peak(fn, *args):
    """fn(*args) and the most bytes it held allocated at once beyond its start."""
    before, _ = tracemalloc.get_traced_memory()
    tracemalloc.reset_peak()
    result = fn(*args)
    return result, tracemalloc.get_traced_memory()[1] - before


def test_assembly_solve_and_support_hold_one_copy_of_G():
    # at prior scale a stored G is 284 MB, so each extra G-sized array is a
    # budget item; the sampled block makes its rows from (x, x'), so the
    # budgets are those of the same G with its 8 sampled columns stored
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
    G_bytes = problem.G.nbytes + (len(layout.g3_columns) - 2) * 8 * len(data)
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
    res = solve_dense_lp(problem.cost, problem.G, problem.h, tol)
    assert res.objective.hex() == "-0x1.6cba804a7e6e3p-2"
    assert (res.iterations, res.degenerate_steps) == (65, 32)
    assert res.basis_rows.tolist() == [
        0, 2, 3, 4, 6, 9, 10, 13, 14, 15, 17, 20, 22, 23, 25, 26, 28,
        15029, 15030, 30397, 30497, 60031, 105423, 115503,
    ]


def _room_static_and_data(layout, n_samples, seed, inputs=1):
    """The room's static rows and samples; with `inputs` > 1, each sample's
    input is repeated, so one state drives that many controllers."""
    space = SampleSpace.product(
        Box.from_intervals([[22.5, 26.5]]), Box.from_intervals([[0, 1]])
    )
    A, b = box_to_polytope(Box.from_intervals([[0, 1]] * inputs))
    static = static_blocks(layout, *ROOM_REGIONS, A, b, 5, GridSpec(201, 101, 401), 1e-6, True)
    data = collect(RoomTemperaturePlant(), space, n_samples, seed)
    if inputs > 1:
        data = Dataset(data.xs, np.repeat(data.us, inputs, axis=1), data.x_nexts, seed,
                       Role.SCENARIO)
    return static, data


def test_stacked_G_is_the_dense_assembly(monkeypatch):
    # the static rows, uncopied, then the sampled rows over their g3 columns:
    # densified, bit for bit the static rows over the per-sample g3 rows
    layout = room_layout()
    static, data = _room_static_and_data(layout, 50, 4)
    dense = np.vstack([static[0]] + [
        g3_row(layout, data.xs[i], data.us[i], data.x_nexts[i])[0] for i in range(50)
    ])
    monkeypatch.setattr(scp, "G3_WRITE_CHUNK", 7)
    problem = sampled_problem(layout, static, data)
    assert problem.G.shape == dense.shape
    assert np.asarray(problem.G).tobytes() == dense.tobytes()
    assert np.shares_memory(problem.G.blocks[0][1], static[0])
    # 8 live rows of 50 samples, plus the block's shared row over 24 columns
    assert problem.G.nbytes == static[0].nbytes + 8 * 50 * 8 + 24 * 8


def test_without_rows_drops_the_named_rows():
    # a static row and a sampled row go; every other row keeps its entries,
    # right-hand side and tag, in order
    layout = room_layout()
    static, data = _room_static_and_data(layout, 30, 5)
    problem = sampled_problem(layout, static, data)
    drop = [2, len(static[1]) + 4]
    reduced = problem.without_rows(drop)
    assert np.asarray(reduced.G).tobytes() == np.delete(np.asarray(problem.G), drop, 0).tobytes()
    assert reduced.h.tobytes() == np.delete(problem.h, drop).tobytes()
    assert reduced.tags.tobytes() == np.delete(problem.tags, drop).tobytes()
    with pytest.raises(AssemblyError, match="length"):
        scp.LpProblem(problem.G, problem.h, problem.tags[1:], layout)


@pytest.mark.parametrize("degree", [4, 0])
def test_block_column_scales_match_dense(degree):
    # at degree 0 the sampled block has no live rows: its shared row alone
    # carries the g3 rows' objective, budget and controller columns
    layout = DecisionLayout.build(
        build_basis(1, degree), [build_basis(1, degree)], 0.1, [0.05]
    )
    static, data = _room_static_and_data(layout, 40, 6)
    problem = sampled_problem(layout, static, data)
    if degree == 0:
        assert problem.G.blocks[-1][1].shape == (0, 40)
    assert np.array_equal(
        _pow2_column_scale(problem.G),
        _pow2_column_scale(RowStack.dense(np.asarray(problem.G))),
    )


def test_nan_in_sampled_block_raises():
    _, _, problem = small_problem()
    problem.G.blocks[-1][1][3, 5] = np.nan
    with pytest.raises(SolverError, match="non-finite"):
        solve_lp(problem)


def test_activity_and_violation_come_from_the_solver_residual(small_solved):
    config, _, problem, solution = small_solved
    tol = config.tolerances
    resid = problem.residuals(solution.z)
    res = solve_dense_lp(problem.cost, problem.G, problem.h, tol)
    assert np.array_equal(res.active_row_ids, np.flatnonzero(np.abs(resid) <= 1e-7))
    assert res.max_violation == max(float(np.max(resid)), 0.0)
    assert np.array_equal(
        solution.active_row_ids, np.flatnonzero(np.abs(resid) <= tol.activity)
    )
    assert solution.max_violation == max(float(np.max(resid)), 0.0)


@pytest.mark.parametrize("seed", [2025, 2026, 2027, 2028])
def test_stack_pivots_like_its_dense_matrix(seed):
    # the sampled block's reduced costs round differently from the dense
    # mat-vec's; every pivot, the basis and the optimum must not
    config = validate_config(room_casestudy_config(
        n_scenario=20_000, n_validation=10_000, seed_scenario=seed, seed_validation=9090,
    ))
    _, problem = scenario_problem(config)
    tol = config.tolerances
    results = [
        solve_dense_lp(problem.cost, G, problem.h, tol)
        for G in (problem.G, np.asarray(problem.G))
    ]
    stacked, dense = results
    assert (stacked.iterations, stacked.degenerate_steps) == (
        dense.iterations, dense.degenerate_steps
    )
    assert stacked.basis_rows.tolist() == dense.basis_rows.tolist()
    assert stacked.objective.hex() == dense.objective.hex()


def test_screened_assembly_is_the_dense_assembly_in_cells(monkeypatch):
    # the sampled block is the unscreened one, bit for bit, and its cells
    # are the non-empty grid squares of (x, x'), in the grid's row-major
    # order, each listing its samples in sample order with their data box
    # and least h; the cells tile the block (5003 samples: n % 4 == 3)
    monkeypatch.setattr(scp, "SCREEN_MIN_ROWS", 64)
    monkeypatch.setattr(scp, "G3_CHUNK", 1000)  # cells straddle the chunks
    layout = room_layout()
    static, data = _room_static_and_data(layout, 5003, 7)
    problem = sampled_problem(layout, static, data)
    monkeypatch.setattr(scp, "SCREEN_MIN_ROWS", 10**9)
    plain = sampled_problem(layout, static, data)
    values = problem.G.blocks[-1][1]
    cells = values.cells
    assert isinstance(plain.G.blocks[-1][1], np.ndarray)
    assert np.asarray(values).tobytes() == plain.G.blocks[-1][1].tobytes()
    assert np.asarray(problem.G).tobytes() == np.asarray(plain.G).tobytes()
    assert problem.h.tobytes() == plain.h.tobytes()
    # the made block holds (x, x'), 2 scalars a row for the 8 stored values
    assert problem.G.nbytes == plain.G.nbytes - 6 * 8 * 5003
    n_static = len(static[1])
    xs, x_nexts = data.xs[:, 0], data.x_nexts[:, 0]
    square = [np.minimum((z - z.min()) * (scp.CELL_GRID / np.ptp(z)), scp.CELL_GRID - 1)
              .astype(int) for z in (xs, x_nexts)]
    key = square[0] * scp.CELL_GRID + square[1]
    order, starts, lower, upper, h_min = [], [0], [], [], []
    for k in np.unique(key):
        ids = np.flatnonzero(key == k)
        order += ids.tolist()
        starts.append(len(order))
        lower.append([xs[ids].min(), x_nexts[ids].min()])
        upper.append([xs[ids].max(), x_nexts[ids].max()])
        h_min.append(problem.h[n_static + ids].min())
    assert len(starts) > 100 and max(np.diff(starts)) > 1
    assert cells.order.tolist() == order
    assert cells.starts.tolist() == starts
    assert cells.lower.tobytes() == np.array(lower).tobytes()
    assert cells.upper.tobytes() == np.array(upper).tobytes()
    assert cells.h_min.tobytes() == np.array(h_min).tobytes()
    assert np.array_equal(layout.g3_coeff_map[:, :, :4].sum(axis=0), np.zeros((5, 4)))
    # dropping rows gives the rows and ids of the unscreened program
    drop = [3, n_static + 17, n_static + 5002]
    reduced, reduced_plain = problem.without_rows(drop), plain.without_rows(drop)
    assert np.asarray(reduced.G).tobytes() == np.asarray(reduced_plain.G).tobytes()
    assert reduced.tags.tobytes() == reduced_plain.tags.tobytes()
    assert reduced.h.tobytes() == reduced_plain.h.tobytes()


def test_full_scale_room_lp_prices_few_sampled_rows_and_every_pivot_is_unscreened(monkeypatch):
    # the posterior program (140k samples): the screened entering row is the
    # one an unscreened pass of every row picks, at every iteration, and
    # pricing reads under 10% of the sampled rows per pass
    config = validate_config(room_casestudy_config(
        n_scenario=140_000, n_validation=70_000, seed_scenario=2025, seed_validation=9090,
    ))
    _, problem = scenario_problem(config)
    assert isinstance(problem.G.blocks[-1][1], scp_lp.PolyRows)
    entering_row = scp_lp._DualSimplex._entering_row
    passes = []

    def checked(engine, v, phase):
        enter = entering_row(engine, v, phase)
        r = problem.G.matvec(v)
        if phase == 2:
            r = engine.h - r
        r[engine.basis[engine.basis < engine.m]] = np.inf
        eligible = np.flatnonzero(r < -engine.opt_tol)
        assert enter == (None if not len(eligible) else int(eligible[0]) if engine._bland
                         else int(np.argmin(r)))
        passes.append(engine._bland)
        return enter

    monkeypatch.setattr(scp_lp._DualSimplex, "_entering_row", checked)
    solution = solve_lp(problem, config.tolerances)
    assert solution.objective.hex() == "-0x1.6a9a8bfb3e0afp-2"
    assert (solution.iterations, len(passes)) == (61, 63) and not any(passes)
    n_static = problem.n_rows - 140_000
    assert solution.rows_priced / len(passes) - n_static < 0.1 * 140_000


def test_two_state_layout_prices_every_row(monkeypatch):
    # cells are for one state variable: a 2-state program is one block in
    # sample order, and every pricing pass reads every row
    monkeypatch.setattr(scp, "SCREEN_MIN_ROWS", 64)
    layout = DecisionLayout.build(build_basis(2, 2), [build_basis(2, 2)], 1.0, [1.0])
    rng = np.random.default_rng(3)
    xs = rng.uniform(-1.0, 1.0, size=(3000, 2))
    us = rng.uniform(0.0, 1.0, size=(3000, 1))
    data = Dataset(xs, us, 0.9 * xs + 0.05 * us, seed=3, role="scenario")
    box = Box.from_intervals([[-1, 1], [-1, 1]])
    A, b = box_to_polytope(Box.from_intervals([[0, 1]]))
    problem = build_problem(
        layout, data, RegionUnion.from_intervals([[[-0.2, 0.2], [-0.2, 0.2]]]),
        RegionUnion.from_intervals([[[0.8, 1.0], [-1.0, 1.0]]]), box, A, b, 5,
        GridSpec(5, 5, 9), 1e-6, True,
    )
    assert isinstance(problem.G.blocks[-1][1], np.ndarray)
    solution = solve_lp(problem)
    assert solution.status is LpStatus.OPTIMAL and solution.bland_iterations == 0
    assert solution.rows_priced == (solution.iterations + 2) * problem.n_rows


def test_made_rows_are_the_stored_rows_at_prior_scale():
    # the prior baseline's 2,758,749 samples: the block made from (x, x') is,
    # bit for bit, the block g3_rows stores, read whole, gathered and by row
    config = validate_config(room_casestudy_config(
        n_scenario=2_758_749, n_validation=10, seed_scenario=2025, seed_validation=9090,
    ))
    dataset, problem = scenario_problem(config)
    cols, values, shared = problem.G.blocks[-1]
    assert isinstance(values, scp_lp.PolyRows)
    n, lo = len(dataset), problem.G.starts[-2]
    stored = g3_rows(problem.layout, dataset.xs, dataset.x_nexts)
    made, kept = hashlib.sha256(), hashlib.sha256()
    for a in range(0, n, 1 << 20):
        made.update(values[:, a:a + (1 << 20)].tobytes())
        kept.update(stored[:, a:a + (1 << 20)].tobytes())
    assert made.hexdigest() == kept.hexdigest()
    assert values.abs_max.tobytes() == np.maximum(stored.max(axis=1),
                                                  -stored.min(axis=1)).tobytes()
    tail = np.array([n - 1])  # n % 4 == 1: the last row, in its cell like any other
    assert n % 4 == 1 and values.cells.starts[-1] == n and n - 1 in values.cells.order
    rng = np.random.default_rng(7)
    for size in (1, 2, 3, 5, 4097):
        for at in (1, 12_345, 999_999, n - size):
            rows = np.arange(at, at + size)
            assert values.take(rows, axis=1).tobytes() == stored[:, rows].tobytes()
            assert values[:, at:at + size].tobytes() == stored[:, at:at + size].tobytes()
        rows = np.r_[rng.choice(n, size - 1, replace=False), tail]
        assert values.take(rows, axis=1).tobytes() == stored[:, rows].tobytes()
    for i in (0, 1, n // 2 + 1, *tail):
        row = shared.copy()
        row[cols] = stored[:, i]
        assert problem.G.row(lo + int(i)).tobytes() == row.tobytes()


@pytest.mark.parametrize("degrees", [(4, 4), (6, 2), (2, 5), (3, 2, 4)])
def test_made_stack_reads_and_solves_like_the_stored_stack(monkeypatch, degrees):
    # the same program with the sampled block made or stored (degrees of
    # the barrier, then of each controller; (3, 2, 4) has two inputs): the
    # dense matrix, rows, selected rows and column scales bit for bit;
    # products are those of the stored rows in one product padded to a
    # multiple of 4 rows (5003 samples: n % 4 == 3); the cell bounds, read
    # through `g3_coeff_map`, hold every entry `g3_rows` writes; the
    # screened solve is the solve of the made block with unbounded cells,
    # which prices every cell on every pass, and pivots as the stored block
    # does
    monkeypatch.setattr(scp, "SCREEN_MIN_ROWS", 64)
    layout = DecisionLayout.build(build_basis(1, degrees[0]),
                                  [build_basis(1, d) for d in degrees[1:]],
                                  0.1, [0.05] * (len(degrees) - 1))
    static, data = _room_static_and_data(layout, 5003, 8, len(degrees) - 1)
    problem = sampled_problem(layout, static, data)
    cols, values, shared = problem.G.blocks[-1]
    assert isinstance(values, scp_lp.PolyRows)
    block = g3_rows(layout, data.xs, data.x_nexts)
    stored = RowStack([*problem.G.blocks[:-1], (cols, block, shared)], layout.n_total)
    assert np.asarray(values).tobytes() == block.tobytes()
    assert np.asarray(problem.G).tobytes() == np.asarray(stored).tobytes()
    rng = np.random.default_rng(degrees[0])
    for i in rng.integers(0, len(stored), 20):
        assert problem.G.row(int(i)).tobytes() == stored.row(int(i)).tobytes()
    lo, padded = problem.G.starts[-2], np.concatenate([block, np.zeros((len(cols), 1))], axis=1)
    for _ in range(5):
        v = rng.normal(size=layout.n_total) * 10.0 ** rng.integers(-4, 4, size=layout.n_total)
        products = problem.G.matvec(v)
        assert products[:lo].tobytes() == stored.matvec(v)[:lo].tobytes()
        assert products[lo:].tobytes() == ((v[cols] @ padded)[:-1] + shared @ v).tobytes()
    keep = rng.random(len(stored)) < 0.7
    assert np.asarray(problem.G.select(keep)).tobytes() == np.asarray(stored.select(keep)).tobytes()
    assert _pow2_column_scale(problem.G).tobytes() == _pow2_column_scale(stored).tobytes()
    cells = values.cells
    cell = np.empty(len(cells.order), dtype=np.intp)  # of each row
    cell[cells.order] = np.repeat(np.arange(len(cells.starts) - 1), np.diff(cells.starts))
    for j, e in enumerate(np.eye(len(cols))):
        assert np.all(cells.bounds(e, 0.0, 1)[cell] <= block[j])
        assert np.all(block[j] <= -cells.bounds(-e, 0.0, 1)[cell])
    unbounded = RowStack([*problem.G.blocks[:-1], (cols, scp_lp.PolyRows(values.z, scp_lp.Cells(
        cells.order, cells.starts, np.full_like(cells.lower, -np.inf),
        np.full_like(cells.upper, np.inf), cells.h_min, cells.coeff_map), values.make), shared)],
        layout.n_total)
    solves = [solve_dense_lp(problem.cost, G, problem.h) for G in (problem.G, unbounded, stored)]
    assert len({(r.status, r.iterations, r.basis_rows.tobytes()) for r in solves}) == 1
    assert solves[0].rows_priced < solves[1].rows_priced == solves[2].rows_priced
    if solves[0].z is not None:
        assert len({r.z.tobytes() for r in solves}) == 1
        assert solves[0].active_row_ids.tolist() == solves[1].active_row_ids.tolist()
        assert solves[0].max_violation.hex() == solves[1].max_violation.hex()


@pytest.mark.parametrize("seed", [2025, 2026, 2027])
def test_screened_residual_is_the_unscreened_one(monkeypatch, seed):
    # the posterior program: the solver's active rows and largest violation
    # are those of the whole G z - h, though the solve makes only a few of
    # the sampled rows, those it prices and screens in
    config = validate_config(room_casestudy_config(
        n_scenario=140_000, n_validation=70_000, seed_scenario=seed, seed_validation=9090,
    ))
    _, problem = scenario_problem(config)
    made, make = [], scp_lp.PolyRows._make
    monkeypatch.setattr(scp_lp.PolyRows, "_make",
                        lambda self, z: made.append(len(z[0])) or make(self, z))
    solution = solve_lp(problem, config.tolerances)
    monkeypatch.undo()
    resid = problem.residuals(solution.z)
    assert solution.active_row_ids.tolist() == np.flatnonzero(
        np.abs(resid) <= config.tolerances.activity).tolist()
    assert solution.max_violation.hex() == max(float(np.max(resid)), 0.0).hex()
    assert sum(made) < 0.1 * 140_000


def test_made_block_holds_two_scalars_a_row():
    # at SCREEN_MIN_ROWS samples the sampled block keeps (x, x') only; one
    # sample fewer and it stores its 8 columns
    layout = room_layout()
    for n in (scp.SCREEN_MIN_ROWS, scp.SCREEN_MIN_ROWS - 1):
        static, data = _room_static_and_data(layout, n, 9)
        G = sampled_problem(layout, static, data).G
        assert (G.nbytes < 3 * 8 * n) == (n >= scp.SCREEN_MIN_ROWS)
        assert isinstance(G.blocks[-1][1], scp_lp.PolyRows) == (n >= scp.SCREEN_MIN_ROWS)


def _stable_argsort_cells(dataset):
    """(cell, order, starts) as one stable argsort of every sample's grid
    square builds them: the oracle of `sample_cells`' counting sort."""
    square = []
    for z in (dataset.xs[:, 0], dataset.x_nexts[:, 0]):
        lo, hi = float(z.min()), float(z.max())
        square.append(np.minimum((z - lo) * (scp.CELL_GRID / (hi - lo) if hi > lo else 0.0),
                                 scp.CELL_GRID - 1).astype(np.intp))
    key = square[0] * scp.CELL_GRID + square[1]
    _, cell = np.unique(key, return_inverse=True)
    return (cell, np.argsort(key, kind="stable").astype(np.int32),
            np.concatenate([[0], np.cumsum(np.bincount(cell))]))


def _keyed_dataset(x, x_next):
    return Dataset(x[:, None], np.zeros((len(x), 1)), x_next[:, None], 0, Role.SCENARIO)


def _adversarial_dataset(kind, n, rng):
    """Samples whose grid squares are set directly: x and x' are square
    numbers, with 0 and CELL_GRID - 1 present, so square k's samples are
    those at k."""
    top = scp.CELL_GRID - 1
    if kind == "one cell":
        return _keyed_dataset(np.full(n, 24.5), np.full(n, 24.25))
    if kind == "every square":
        squares = rng.permutation(scp.CELL_GRID ** 2)
        x = np.concatenate([squares // scp.CELL_GRID, rng.integers(0, top + 1, n)])[:n]
        x_next = np.concatenate([squares % scp.CELL_GRID, rng.integers(0, top + 1, n)])[:n]
        return _keyed_dataset(x.astype(float), x_next.astype(float))
    if kind == "descending":  # every chunk's keys below the last chunk's
        x = np.sort(rng.integers(0, top + 1, n))[::-1]
        x[[0, -1]] = top, 0
        return _keyed_dataset(x.astype(float), np.sort(rng.integers(0, 2, n)).astype(float))
    # two squares alternating, so each key's samples straddle every chunk
    x = np.tile([0.0, float(top)], n)[:n]
    return _keyed_dataset(x, x[::-1].copy())


_SORT_SIZES = [scp.SCREEN_MIN_ROWS, 3 * scp.G3_CHUNK - 1, 3 * scp.G3_CHUNK, 3 * scp.G3_CHUNK + 1]


@pytest.mark.parametrize("n", _SORT_SIZES)
def test_counting_sort_is_the_stable_argsort_on_room_data(n):
    space = SampleSpace.product(Box.from_intervals([[22.5, 26.5]]), Box.from_intervals([[0, 1]]))
    data = collect(RoomTemperaturePlant(), space, n, n % 97)
    cell, order, starts = scp.sample_cells(data)
    expected = _stable_argsort_cells(data)
    assert (cell.dtype, order.dtype) == (np.uint16, np.int32)
    assert cell.tolist() == expected[0].tolist()
    assert order.tobytes() == expected[1].tobytes()
    assert np.asarray(starts).tolist() == expected[2].tolist()


@pytest.mark.parametrize("kind", ["one cell", "every square", "descending", "alternating"])
@pytest.mark.parametrize("n", _SORT_SIZES)
def test_counting_sort_is_the_stable_argsort_on_adversarial_keys(kind, n):
    data = _adversarial_dataset(kind, n, np.random.default_rng(n))
    cell, order, starts = scp.sample_cells(data)
    expected = _stable_argsort_cells(data)
    assert cell.tolist() == expected[0].tolist()
    assert order.tobytes() == expected[1].tobytes()
    assert np.asarray(starts).tolist() == expected[2].tolist()
    ncells = {"one cell": 1, "every square": scp.CELL_GRID ** 2, "alternating": 2}
    assert len(starts) - 1 == ncells.get(kind, len(starts) - 1)


def test_counting_sort_makes_no_temporary_n_long():
    # beyond its outputs (cell and order, 6 bytes a sample), sample_cells
    # holds chunk-sized temporaries; one of N intp would be 8 bytes a sample
    n = 16 * scp.G3_CHUNK
    rng = np.random.default_rng(3)
    data = _keyed_dataset(rng.uniform(22.5, 26.5, n), rng.uniform(22.5, 26.5, n))
    tracemalloc.start()
    try:
        cells, peak = _allocation_peak(scp.sample_cells, data)
    finally:
        tracemalloc.stop()
    assert peak < 6 * n + 64 * scp.G3_CHUNK + 4 * 8 * scp.CELL_GRID ** 2
    assert cells[1].tobytes() == _stable_argsort_cells(data)[1].tobytes()
