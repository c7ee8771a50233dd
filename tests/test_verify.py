import csv
import math

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from safesynth.errors import CollectionError, GeometryError
from safesynth.geometry import Box, RegionUnion, box_grid
from safesynth.plant import (
    BlackBoxSystem,
    Dataset,
    Role,
    RoomTemperaturePlant,
    collect,
    step_room,
)
from safesynth.polynomial import Polynomial, build_basis
from safesynth.scp import CertificateValues
from safesynth.verify import (
    KNIFE_EDGE_TOL,
    check_cbf_conditions,
    emit_plot_data,
    empirical_safety,
    estimate_lipschitz,
    knife_edge_count,
    simulate_closed_loop,
    step_residuals,
    violation_frequency,
)
from .conftest import ROOM_STUDY


def study_certificate() -> CertificateValues:
    return CertificateValues(
        objective=ROOM_STUDY["objective"],
        unsafe_floor=ROOM_STUDY["unsafe_floor"],
        initial_cap=ROOM_STUDY["initial_cap"],
        growth_budget=ROOM_STUDY["growth_budget"],
        barrier=ROOM_STUDY["barrier"],
        controllers=(ROOM_STUDY["controller"],),
    )


def controller_certificate(coeffs) -> CertificateValues:
    """The study's barrier with the degree-4 controller of these coefficients."""
    return CertificateValues(
        objective=0.0,
        unsafe_floor=ROOM_STUDY["unsafe_floor"],
        initial_cap=ROOM_STUDY["initial_cap"],
        growth_budget=ROOM_STUDY["growth_budget"],
        barrier=ROOM_STUDY["barrier"],
        controllers=(Polynomial(build_basis(1, 4), coeffs),),
    )


def zero_controller_certificate() -> CertificateValues:
    return controller_certificate((0.0,) * 5)


def test_violation_frequency_zero_on_consistent_data(room_space, room_regions):
    # a certificate with a huge objective slack can never be violated
    cert = CertificateValues(
        objective=1e6,
        unsafe_floor=0.0,
        initial_cap=-1.0,
        growth_budget=0.0,
        barrier=ROOM_STUDY["barrier"],
        controllers=(ROOM_STUDY["controller"],),
    )
    data = collect(RoomTemperaturePlant(), room_space, 100, 4, Role.VALIDATION)
    count, residuals = violation_frequency(cert, data)
    assert count == 0
    assert len(residuals) == 100
    assert not np.any(residuals > KNIFE_EDGE_TOL)


def test_violation_frequency_counts_positive_residuals(room_space):
    cert = study_certificate()
    data = collect(RoomTemperaturePlant(), room_space, 500, 6, Role.VALIDATION)
    residuals = step_residuals(cert, data)
    count, returned = violation_frequency(cert, data)
    assert count == int(np.sum(residuals > 0))
    flagged = returned[returned > KNIFE_EDGE_TOL]
    assert len(flagged) == count
    assert np.all(flagged > 0)


def test_violation_frequency_single_violation(room_space):
    # shift the objective until exactly the worst sample violates
    data = collect(RoomTemperaturePlant(), room_space, 200, 17, Role.VALIDATION)
    base = study_certificate()
    residuals = step_residuals(base, data)
    top_two = np.sort(residuals)[-2:]
    shifted = CertificateValues(
        objective=base.objective + float((top_two[0] + top_two[1]) / 2),
        unsafe_floor=base.unsafe_floor,
        initial_cap=base.initial_cap,
        growth_budget=base.growth_budget,
        barrier=base.barrier,
        controllers=base.controllers,
    )
    count, _ = violation_frequency(shifted, data)
    assert count == 1


def test_self_consistency_zero_violations_on_training_data(small_solved):
    # a solution is feasible on the data it was solved on, so replaying that
    # data as a validation set must count zero violations (active rows sit at
    # machine-zero residuals, inside the knife-edge grace band)
    config, dataset, problem, solution = small_solved
    cert = CertificateValues.from_vector(problem.layout, solution.z)
    replay = Dataset(
        dataset.xs, dataset.us, dataset.x_nexts,
        dataset.seed, Role.VALIDATION, dataset.space,
    )
    count, records = violation_frequency(cert, replay)
    assert count == 0


def test_violation_frequency_requires_validation_role(room_space):
    cert = study_certificate()
    data = collect(RoomTemperaturePlant(), room_space, 10, 5, Role.SCENARIO)
    with pytest.raises(GeometryError):
        violation_frequency(cert, data)


def test_violation_frequency_pure(room_space):
    cert = study_certificate()
    data = collect(RoomTemperaturePlant(), room_space, 300, 8, Role.VALIDATION)
    a, ra = violation_frequency(cert, data)
    b, rb = violation_frequency(cert, data)
    assert a == b
    assert np.array_equal(ra, rb)


def test_knife_edge_detection():
    sample_data = Dataset(
        np.array([[24.0]]), np.array([[0.5]]), np.array([[step_room(24.0, 0.5)]]),
        1, Role.VALIDATION,
    )
    cert = study_certificate()
    resid = step_residuals(cert, sample_data)[0]
    pinned = CertificateValues(
        objective=cert.objective + resid,  # residual now exactly zero
        unsafe_floor=cert.unsafe_floor,
        initial_cap=cert.initial_cap,
        growth_budget=cert.growth_budget,
        barrier=cert.barrier,
        controllers=cert.controllers,
    )
    count, residuals = violation_frequency(pinned, sample_data)
    assert count == 0
    assert knife_edge_count(residuals) == 1


def test_case_study_conditions_pass(room_regions):
    report = check_cbf_conditions(
        study_certificate(), RoomTemperaturePlant(),
        room_regions["initial"], room_regions["unsafe"],
        room_regions["state"], room_regions["input"], horizon=5,
        region_points=801, step_points=101,
    )
    assert report.worst_initial < 0.0
    assert report.worst_unsafe <= 0.0
    assert report.worst_step <= 0.0
    assert report.worst_budget <= 0.0
    assert report.passed


def test_case_study_budget_arithmetic():
    report_budget = ROOM_STUDY["growth_budget"] * 5 - (
        ROOM_STUDY["unsafe_floor"] - ROOM_STUDY["initial_cap"]
    )
    assert report_budget == pytest.approx(-0.001, abs=1e-9)


def test_conditions_fail_for_zero_controller(room_regions):
    # u = 0 cools the room out of the band: the one-step condition breaks
    report = check_cbf_conditions(
        zero_controller_certificate(), RoomTemperaturePlant(),
        room_regions["initial"], room_regions["unsafe"],
        room_regions["state"], room_regions["input"], horizon=5,
        region_points=401, step_points=81,
    )
    assert report.worst_step > 0.0
    assert not report.passed


def coupled_step(x, u):
    return np.array([0.9 * x[0] + 0.05 * u[0], 0.8 * x[1] - 0.1 * x[0] * u[0]])


class CoupledPlant(BlackBoxSystem):
    """A 2-state, 1-input plant that records every (x, u) it is asked about."""

    def __init__(self):
        super().__init__(state_dim=2, input_dim=1)
        self.queries = []

    def step(self, x, u):
        self.queries.append((*x, *u))
        return coupled_step(x, u)


def poly_at(p: Polynomial, x) -> float:
    """p(x) term by term from its exponents, without eval_poly_many."""
    return sum(c * math.prod(v ** e for v, e in zip(x, t))
               for c, t in zip(p.coeffs, p.basis.terms))


def test_two_state_conditions_match_brute_force_loops():
    state, inputs = Box((-1.0, -0.5), (1.0, 0.5)), Box((0.0,), (1.0,))
    initial = RegionUnion.from_intervals([[[-0.2, 0.2], [-0.1, 0.1]]])
    unsafe = RegionUnion.from_intervals(
        [[[0.8, 1.0], [-0.5, 0.5]], [[-1.0, -0.8], [-0.5, 0.5]]]
    )
    cert = CertificateValues(
        objective=-0.1, unsafe_floor=0.5, initial_cap=0.1, growth_budget=0.01,
        barrier=Polynomial(build_basis(2, 2), (-0.05, 0.1, 0.2, 1.5, 0.3, 1.0)),
        controllers=(Polynomial(build_basis(2, 1), (0.4, -0.2, 0.3)),),
    )
    plant = CoupledPlant()
    report = check_cbf_conditions(
        cert, plant, initial, unsafe, state, inputs, horizon=4,
        region_points=9, step_points=7,
    )

    # the plant sees every grid state with every grid input, the state slowest
    pairs = [(x, u) for x in box_grid(state, 7) for u in box_grid(inputs, 7)]
    assert plant.queries == [(*x, *u) for x, u in pairs]
    worst_step = max(
        poly_at(cert.barrier, coupled_step(x, u)) - poly_at(cert.barrier, x)
        + u[0] - poly_at(cert.controllers[0], x) - cert.growth_budget
        for x, u in pairs
    )
    worst_initial = max(poly_at(cert.barrier, x) - cert.initial_cap
                        for part in initial.parts for x in box_grid(part, 9))
    worst_unsafe = max(cert.unsafe_floor - poly_at(cert.barrier, x)
                       for part in unsafe.parts for x in box_grid(part, 9))
    assert report.worst_step == pytest.approx(worst_step, rel=0, abs=1e-12)
    assert report.worst_initial == pytest.approx(worst_initial, rel=0, abs=1e-12)
    assert report.worst_unsafe == pytest.approx(worst_unsafe, rel=0, abs=1e-12)
    assert report.worst_budget == 0.01 * 4 - (0.5 - 0.1)
    assert report.summary() == {
        "worst_initial": report.worst_initial, "worst_unsafe": report.worst_unsafe,
        "worst_step": report.worst_step, "worst_budget": report.worst_budget,
        "passed": report.passed,
    }


def test_simulate_closed_loop_case_study(room_regions):
    traj = simulate_closed_loop(
        RoomTemperaturePlant(), study_certificate(), [[24.5]], 5,
        room_regions["input"], room_regions["unsafe"],
    )
    assert traj.states[0].shape == (6, 1)
    assert traj.safe[0]
    assert traj.clamp_events[0] == 0
    assert np.all(traj.states[0] >= 23.0) and np.all(traj.states[0] <= 26.0)


def test_simulate_closed_loop_rejects_misshapen_starts(room_regions):
    with pytest.raises(GeometryError, match=r"starts of shape \(1,\)"):
        simulate_closed_loop(RoomTemperaturePlant(), study_certificate(), [24.5], 5,
                             room_regions["input"], room_regions["unsafe"])


class _NanPlant(RoomTemperaturePlant):
    def step_batch(self, xs, us):
        return np.full((len(xs), 1), np.nan)


@pytest.mark.parametrize("check", [
    lambda plant, regions: check_cbf_conditions(
        study_certificate(), plant, regions["initial"], regions["unsafe"],
        regions["state"], regions["input"], horizon=5, region_points=21, step_points=11,
    ),
    lambda plant, regions: simulate_closed_loop(
        plant, study_certificate(), [[24.5]], 5, regions["input"], regions["unsafe"],
    ),
], ids=["check_cbf_conditions", "simulate_closed_loop"])
def test_ground_truth_checks_refuse_a_nan_plant_answer(room_regions, check):
    # a NaN next state used to read as a worst step residual of NaN, which
    # no comparison flags, and as a NaN trajectory
    with pytest.raises(CollectionError, match="non-finite state at sample 0"):
        check(_NanPlant(), room_regions)


def test_simulate_zero_horizon(room_regions):
    traj = simulate_closed_loop(
        RoomTemperaturePlant(), study_certificate(), [[24.0]], 0,
        room_regions["input"], room_regions["unsafe"],
    )
    assert traj.states[0].shape == (1, 1)
    assert traj.safe[0]
    # the unsafe bands are closed: states at exactly 23.0 and 26.0 are in them
    unsafe_starts = simulate_closed_loop(
        RoomTemperaturePlant(), study_certificate(), [[22.7], [23.0], [26.0]], 0,
        room_regions["input"], room_regions["unsafe"],
    )
    assert not np.any(unsafe_starts.safe)


def test_simulate_constant_cooling_exits_band(room_regions):
    # hand iteration of x(t+1) = 0.96 x + 0.6 from 24.0
    states = [24.0]
    for _ in range(5):
        states.append(0.96 * states[-1] + 0.6)
    assert states[3] == pytest.approx(22.962624)
    traj = simulate_closed_loop(
        RoomTemperaturePlant(), zero_controller_certificate(), [[24.0]], 5,
        room_regions["input"], room_regions["unsafe"],
    )
    assert np.allclose(traj.states[0][:, 0], states, rtol=0, atol=1e-12)
    assert not traj.safe[0]  # state 3 lands inside the lower unsafe band


def test_empirical_safety_case_study(room_regions):
    summary = empirical_safety(
        RoomTemperaturePlant(), study_certificate(),
        room_regions["initial"], room_regions["unsafe"], room_regions["input"],
        horizon=5, grid_points=401,
    )
    assert summary.fraction_safe == 1.0
    assert summary.failing_states == ()
    assert summary.min_unsafe_distance > 0.0
    assert summary.clamp_events == 0
    assert summary.n_trajectories == 401


def test_empirical_safety_detects_unsafe_controller(room_regions):
    summary = empirical_safety(
        RoomTemperaturePlant(), zero_controller_certificate(),
        room_regions["initial"], room_regions["unsafe"], room_regions["input"],
        horizon=5, grid_points=101,
    )
    assert summary.fraction_safe < 1.0
    assert len(summary.failing_states) == round(
        (1 - summary.fraction_safe) * summary.n_trajectories
    )


class _CountingPlant(RoomTemperaturePlant):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def step_batch(self, xs, us):
        self.calls += 1
        return super().step_batch(xs, us)


def test_empirical_safety_queries_the_plant_once_per_step(room_regions):
    plant = _CountingPlant()
    summary = empirical_safety(
        plant, study_certificate(),
        room_regions["initial"], room_regions["unsafe"], room_regions["input"],
        horizon=5, grid_points=401,
    )
    assert summary.n_trajectories == 401
    assert plant.calls == 5  # one query per step for all starts, not one per start and step


def reference_safety(cert, regions, horizon, grid_points):
    """Per-start closed-loop rollout of a 1-D room certificate, from
    `step_room` and `polyval` alone: the failing starts in grid order, the
    safe fraction, the least distance of any state to the unsafe bands and
    the number of clamped steps."""
    (controller,) = cert.controllers
    assert controller.basis.terms == tuple((d,) for d in range(5))  # 1, x, ..., x^4
    u_lo, u_hi = regions["input"].lower[0], regions["input"].upper[0]
    bands = [(p.lower[0], p.upper[0]) for p in regions["unsafe"].parts]
    (start_box,) = regions["initial"].parts
    failing, clamps, least = [], 0, math.inf
    for x0 in np.linspace(start_box.lower[0], start_box.upper[0], grid_points):
        x, hit = float(x0), False
        for t in range(horizon + 1):
            hit = hit or any(lo <= x <= hi for lo, hi in bands)
            least = min(least, *(max(lo - x, x - hi, 0.0) for lo, hi in bands))
            if t == horizon:
                break
            u = float(polyval(x, controller.coeffs))
            if not u_lo <= u <= u_hi:
                clamps += 1
            x = float(step_room(x, min(max(u, u_lo), u_hi)))
        if hit:
            failing.append((float(x0),))
    return tuple(failing), 1.0 - len(failing) / grid_points, least, clamps


@pytest.mark.parametrize("coeffs", [
    ROOM_STUDY["controller"].coeffs,
    (0.0, 0.0, 0.0, 0.0, 0.0),
    (0.3, 0.0, 0.0, 0.0, 0.0),
    (-7.0, 0.3, 0.0, 0.0, 0.0),
], ids=["study", "zero", "constant-0.3", "affine-clamped"])
def test_empirical_safety_matches_a_per_start_reference(room_regions, coeffs):
    cert = controller_certificate(coeffs)
    summary = empirical_safety(
        RoomTemperaturePlant(), cert,
        room_regions["initial"], room_regions["unsafe"], room_regions["input"],
        horizon=5, grid_points=401,
    )
    failing, fraction, least, clamps = reference_safety(cert, room_regions, 5, 401)
    assert summary.n_trajectories == 401
    assert summary.failing_states == failing
    assert summary.fraction_safe == fraction
    assert summary.clamp_events == clamps
    assert summary.min_unsafe_distance == pytest.approx(least, rel=0, abs=1e-12)


def test_emit_plot_data(tmp_path, room_regions):
    paths = emit_plot_data(
        study_certificate(), RoomTemperaturePlant(),
        room_regions["state"], room_regions["input"], str(tmp_path),
        barrier_points=101, surface_points=21,
    )
    with open(paths["barrier"]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "B", "gamma", "lambda"]
    assert len(rows) == 102
    gammas = {r[2] for r in rows[1:]}
    assert len(gammas) == 1
    with open(paths["g3_surface"]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "u", "g3"]
    assert len(rows) == 1 + 21 * 21


def test_emit_plot_data_deterministic(tmp_path, room_regions):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    for d in (d1, d2):
        emit_plot_data(
            study_certificate(), RoomTemperaturePlant(),
            room_regions["state"], room_regions["input"], str(d),
            barrier_points=51, surface_points=11,
        )
    assert (d1 / "barrier.csv").read_text() == (d2 / "barrier.csv").read_text()
    assert (d1 / "g3_surface.csv").read_text() == (d2 / "g3_surface.csv").read_text()


def test_barrier_curve_crosses_band(tmp_path, room_regions):
    # the barrier dips below the cap on the initial region and rises to the
    # floor on the unsafe bands, as the certificate geometry requires
    paths = emit_plot_data(
        study_certificate(), RoomTemperaturePlant(),
        room_regions["state"], room_regions["input"], str(tmp_path),
    )
    with open(paths["barrier"]) as fh:
        rows = list(csv.reader(fh))[1:]
    xs = np.array([float(r[0]) for r in rows])
    bs = np.array([float(r[1]) for r in rows])
    cap = ROOM_STUDY["initial_cap"]
    floor = ROOM_STUDY["unsafe_floor"]
    inside = (xs >= 24.0) & (xs <= 25.0)
    unsafe = (xs <= 23.0) | (xs >= 26.0)
    assert np.all(bs[inside] < cap)
    assert np.all(bs[unsafe] >= floor)


def test_estimate_lipschitz_is_lower_bound(room_space):
    est = estimate_lipschitz(
        study_certificate(), RoomTemperaturePlant(), room_space,
        n_pairs=3000, seed=11,
    )
    assert 0.0 < est <= ROOM_STUDY["lipschitz"]


def test_configured_lipschitz_bounds_the_certified_case_study_on_a_grid():
    # the bundled case study (workload seed 0 of the benchmark) certifies
    # under L = 11.63; that L must be at least the certificate's grid
    # Lipschitz constant.  Grid constant: on the 401 x 401 grid of the state
    # box x input box, the largest axis-wise difference quotient
    # |g(p + d_k e_k) - g(p)| / d_k of the one-step condition
    # g(x, u) = B(x') - B(x) + u - F(x), x' from the true plant, where d_k is
    # the grid spacing of axis k (2.3154 here; 2.3151 on 201 x 201 and
    # 2.3156 on 801 x 801)
    from safesynth.pipeline import bundled_room_config_path, load_config, synthesize
    from safesynth.verify import _true_step_condition

    config = load_config(bundled_room_config_path())
    report = synthesize(config)
    assert report.verdict == "certified" and config.lipschitz == 11.63
    points = 401
    box = config.space().box
    g = _true_step_condition(report.certificate, RoomTemperaturePlant(),
                             box_grid(box, points)).reshape(points, points)  # [x, u]
    step = box.sides() / (points - 1)
    grid_lipschitz = max(np.max(np.abs(np.diff(g, axis=k))) / step[k] for k in (0, 1))
    assert 2.0 < grid_lipschitz <= config.lipschitz
