import pytest

from safesynth.errors import AssemblyError
from safesynth.geometry import Box, RegionUnion, SampleSpace
from safesynth.lp import LpStatus, solve_dense_lp
from safesynth.pipeline import room_casestudy_config, validate_config
from safesynth.polynomial import Polynomial, build_basis
from safesynth.scp import LpTolerances

# Reference values of the room-temperature case study this tool reproduces.
ROOM_STUDY = {
    "barrier": Polynomial(
        build_basis(1, 4), (0.0, 1.948e-3, 0.2395, -3.841e-2, 9.740e-4)
    ),
    "controller": Polynomial(
        build_basis(1, 4), (1.208e-5, 9.768e-2, -3.438e-3, 2.418e-5, 4.594e-7)
    ),
    "unsafe_floor": -68.14,
    "initial_cap": -69.64,
    "growth_budget": 0.2998,
    "kappa": 0.9999723,
    "lipschitz": 11.63,
    "beta": 0.05,
    "prior_eps": 7.492e-6,
    # Printed by the study and kept for the acceptance suite's discrepancy
    # records, not as expectations.  At dim=13 the printed size has binomial
    # tail 0.0542 > beta; the minimal size is 2758749.
    "prior_n": 2733296,
    # The objective of the study's printed point, which is not optimal under
    # the stated constraints (HiGHS finds about -0.3548 on the full-scale LP).
    "objective": -0.149,
}


@pytest.fixture(scope="session")
def room_space() -> SampleSpace:
    return SampleSpace.product(
        Box.from_intervals([[22.5, 26.5]]), Box.from_intervals([[0.0, 1.0]])
    )


@pytest.fixture(scope="session")
def room_regions():
    return {
        "state": Box.from_intervals([[22.5, 26.5]]),
        "input": Box.from_intervals([[0.0, 1.0]]),
        "initial": RegionUnion.from_intervals([[[24.0, 25.0]]]),
        "unsafe": RegionUnion.from_intervals([[[22.5, 23.0]], [[26.0, 26.5]]]),
    }


def small_room_config(**overrides):
    """A fast room configuration for unit tests (seconds, not minutes)."""
    raw = room_casestudy_config(n_scenario=1500, n_validation=700,
                                seed_scenario=11, seed_validation=12)
    raw["grid_points"] = {"initial": 401, "unsafe": 201, "state": 1601}
    raw.update(overrides)
    return validate_config(raw)


@pytest.fixture(scope="session")
def small_config():
    return small_room_config()


def scenario_problem(config):
    """Collect the config's scenario set and assemble its LP, as synthesis does."""
    from safesynth.plant import Role, collect, make_plant
    from safesynth.scp import box_to_polytope, build_problem

    plant = make_plant(config.plant_spec)
    dataset = collect(
        plant, config.space(), config.n_scenario, config.seed_scenario, Role.SCENARIO
    )
    input_a, input_b = box_to_polytope(config.input_box)
    problem = build_problem(
        config.layout(), dataset,
        config.initial_region, config.unsafe_region,
        config.state_box, input_a, input_b,
        config.horizon, config.grids,
        config.strict_margin, config.tighten,
    )
    return dataset, problem


def dense_g3_rows(layout, dataset):
    """The sampled rows as a dense (len(dataset), n_total) matrix and their
    right-hand side: `g3_rows`' block on `layout.g3_columns`, the shared
    row elsewhere."""
    import numpy as np

    from safesynth.scp import g3_rhs, g3_rows

    dense = np.tile(layout.g3_shared_row, (len(dataset), 1))
    dense[:, layout.g3_columns] = g3_rows(layout, dataset.xs, dataset.x_nexts).T
    return dense, g3_rhs(layout, dataset)


@pytest.fixture(scope="session")
def small_solved(small_config):
    """One solved small problem shared by solution-inspection tests."""
    from safesynth.scp import solve_lp

    dataset, problem = scenario_problem(small_config)
    solution = solve_lp(problem, small_config.tolerances)
    return small_config, dataset, problem, solution


def exact_support_count(problem, solution, tolerances=LpTolerances()):
    """Test oracle: sampled rows whose removal strictly improves the optimum.

    O(n_samples) full re-solves; intended for small problems only.
    """
    assert solution.objective is not None
    count = 0
    for i in problem.g3_row_indices():
        try:
            sub = problem.without_rows([int(i)])
        except AssemblyError:
            count += 1  # dropping the only sampled row unbounds the objective
            continue
        res = solve_dense_lp(sub.cost, sub.G, sub.h, tolerances)
        if res.status != LpStatus.OPTIMAL or res.objective is None:
            count += 1  # removal made the program unbounded: infinite improvement
            continue
        if res.objective < solution.objective - tolerances.optimality:
            count += 1
    return count
