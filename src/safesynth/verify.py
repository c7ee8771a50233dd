"""Validation tests and ground-truth checks for synthesised certificates.

Two distinct jobs live here and must not be confused:

* `violation_frequency` is part of the certification pipeline: it re-evaluates
  the sampled one-step condition on a fresh, independent validation dataset
  and counts strict sign violations.  It touches only recorded data, never
  the plant.

* everything else (condition grids, closed-loop simulation, empirical safety)
  is diagnostic tooling that may query the plant directly; it exists so a
  certificate can be confronted with the true dynamics in tests and reports.
  The synthesis path uses one of these, `estimate_lipschitz`, and only when
  the configuration sets `estimate_lipschitz`: a sampled lower bound above
  the configured Lipschitz constant ends the run `lipschitz_refuted`.

The closed-loop check makes one `query` per time step for all starts, so a
child plant sees step 1 of every start, then step 2; plants are
deterministic, so the answers are those of one trajectory at a time.
"""

import csv
import itertools
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import scp
from .errors import GeometryError
from .geometry import (
    Box,
    RegionUnion,
    SampleSpace,
    box_grid,
    distance_to_region,
    in_region,
    sample_uniform,
)
from .plant import BlackBoxSystem, Dataset, Role, atomic_write, query
from .polynomial import eval_poly_many
from .scp import CertificateValues


def _step_condition(
    cert: CertificateValues, xs: np.ndarray, us: np.ndarray, x_nexts: np.ndarray
) -> np.ndarray:
    """barrier(x') - barrier(x) + sum(u - F(x)), one value per row."""
    controls = np.column_stack([eval_poly_many(c, xs) for c in cert.controllers])
    return (
        eval_poly_many(cert.barrier, x_nexts)
        - eval_poly_many(cert.barrier, xs)
        + np.sum(us - controls, axis=1)
    )


def step_residuals(cert: CertificateValues, dataset: Dataset) -> np.ndarray:
    """Sampled one-step condition residuals, positive means violated:

        barrier(x') - barrier(x) + sum(u - F(x)) - budget - objective

    Evaluated `scp.G3_WRITE_CHUNK` samples at a time into one array, so
    the temporaries are chunk-sized, with the bits of the whole-array form
    (pinned by tests).  A lone last sample joins the chunk before it: a
    one-row matrix-vector product rounds as a dot product, which can differ
    in the last bit.
    """
    n = len(dataset)
    residuals = np.empty(n)
    for lo, hi in itertools.pairwise([*range(0, max(n - 1, 1), scp.G3_WRITE_CHUNK), n]):
        residuals[lo:hi] = _step_condition(
            cert, dataset.xs[lo:hi], dataset.us[lo:hi], dataset.x_nexts[lo:hi])
    residuals -= cert.growth_budget
    residuals -= cert.objective
    return residuals


KNIFE_EDGE_TOL = 1e-12
LIPSCHITZ_SPREAD = 1e-3  # estimate_lipschitz's pair offsets, as a share of each box side


def violation_frequency(
    cert: CertificateValues, validation: Dataset
) -> tuple[int, np.ndarray]:
    """Count strict violations of the one-step condition on fresh data.

    Returns the count and the residual of every validation sample.  The
    indicator is a strict sign test, except that residuals within
    KNIFE_EDGE_TOL of zero count as non-violations: they are numerical
    knife-edges, surfaced via `knife_edge_count` rather than folded into the
    frequency.
    """
    if validation.role != Role.VALIDATION:
        raise GeometryError("violation test requires a validation-role dataset")
    residuals = step_residuals(cert, validation)
    return int(np.sum(residuals > KNIFE_EDGE_TOL)), residuals


def knife_edge_count(residuals: np.ndarray) -> int:
    return int(np.sum(np.abs(residuals) <= KNIFE_EDGE_TOL))


@dataclass(frozen=True)
class ConditionReport:
    """Worst residuals of the four barrier conditions on dense grids.

    Residual convention: <= 0 everywhere means the condition holds.
    """

    worst_initial: float        # barrier - cap over the initial region
    worst_unsafe: float         # floor - barrier over the unsafe region
    worst_step: float           # one-step condition (with true plant) over X x U
    worst_budget: float         # budget * T - (floor - cap)

    @property
    def passed(self) -> bool:
        return (
            self.worst_initial < 0.0
            and self.worst_unsafe <= 0.0
            and self.worst_step <= 0.0
            and self.worst_budget <= 0.0
        )

    def summary(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def _true_step_condition(
    cert: CertificateValues, plant: BlackBoxSystem, points: np.ndarray
) -> np.ndarray:
    """`_step_condition` at the (x, u) rows of `points`, x' from the true plant."""
    xs, us = points[:, :plant.state_dim], points[:, plant.state_dim:]
    return _step_condition(cert, xs, us, query(plant, xs, us))


def check_cbf_conditions(
    cert: CertificateValues,
    plant: BlackBoxSystem,
    initial_region: RegionUnion,
    unsafe_region: RegionUnion,
    state_box: Box,
    input_box: Box,
    horizon: int,
    region_points: int = 2003,
    step_points: int = 201,
) -> ConditionReport:
    """Evaluate all four barrier conditions against the true plant on grids.

    Ground truth only: the plant is queried on a dense state x input grid for
    the one-step condition, which the synthesis path is never allowed to do.
    Rounding is monotone, so max(B) - cap and floor - min(B) are the worst
    residuals B - cap and floor - B bit for bit.
    """

    def barrier_on(region: RegionUnion) -> np.ndarray:
        grid = np.vstack([box_grid(p, region_points) for p in region.parts])
        return eval_poly_many(cert.barrier, grid)

    pairs = box_grid(SampleSpace.product(state_box, input_box).box, step_points)
    step_vals = _true_step_condition(cert, plant, pairs) - cert.growth_budget
    worst_budget = cert.growth_budget * horizon - (cert.unsafe_floor - cert.initial_cap)
    return ConditionReport(
        worst_initial=float(np.max(barrier_on(initial_region))) - cert.initial_cap,
        worst_unsafe=cert.unsafe_floor - float(np.min(barrier_on(unsafe_region))),
        worst_step=float(np.max(step_vals)),
        worst_budget=float(worst_budget),
    )


@dataclass(frozen=True)
class Trajectory:
    """Closed-loop rollouts from k starts over T steps."""

    states: np.ndarray        # (k, T+1, n)
    safe: np.ndarray          # (k,) no state of the rollout in the unsafe region
    clamp_events: np.ndarray  # (k,) steps whose controller output was clamped


def simulate_closed_loop(
    plant: BlackBoxSystem,
    cert: CertificateValues,
    starts: np.ndarray,
    horizon: int,
    input_box: Box,
    unsafe_region: RegionUnion,
) -> Trajectory:
    """Roll the controller forward from all starts (k, n) at once, one `query`
    per step; outputs are clamped to the input box and each trajectory's clamp
    events are counted (a certified controller should need none)."""
    x = np.asarray(starts, dtype=float)
    if x.ndim != 2 or x.shape[1] != plant.state_dim:
        raise GeometryError(f"starts of shape {x.shape} for a plant of {plant.state_dim} states")
    states = np.empty((len(x), horizon + 1, plant.state_dim))
    states[:, 0] = x
    clamps = np.zeros(len(x), dtype=int)
    for t in range(horizon):
        u = np.column_stack([eval_poly_many(c, x) for c in cert.controllers])
        clamped = np.clip(u, input_box.lower_arr, input_box.upper_arr)
        clamps += np.any(u != clamped, axis=1)
        x = query(plant, x, clamped)
        states[:, t + 1] = x
    safe = ~np.any(in_region(states, unsafe_region), axis=1)
    return Trajectory(states, safe, clamps)


@dataclass(frozen=True)
class SafetySummary:
    fraction_safe: float
    min_unsafe_distance: float
    failing_states: tuple[tuple[float, ...], ...]
    clamp_events: int
    n_trajectories: int


def empirical_safety(
    plant: BlackBoxSystem,
    cert: CertificateValues,
    initial_region: RegionUnion,
    unsafe_region: RegionUnion,
    input_box: Box,
    horizon: int,
    grid_points: int = 401,
) -> SafetySummary:
    """Simulate from a grid over the initial region and summarise safety;
    failing starts are listed in grid order."""
    starts = np.vstack([box_grid(p, grid_points) for p in initial_region.parts])
    traj = simulate_closed_loop(plant, cert, starts, horizon, input_box, unsafe_region)
    failing = tuple(map(tuple, starts[~traj.safe].tolist()))
    return SafetySummary(
        fraction_safe=1.0 - len(failing) / len(starts),
        min_unsafe_distance=float(np.min(distance_to_region(traj.states, unsafe_region))),
        failing_states=failing,
        clamp_events=int(np.sum(traj.clamp_events)),
        n_trajectories=len(starts),
    )


def emit_plot_data(
    cert: CertificateValues,
    plant: BlackBoxSystem,
    state_box: Box,
    input_box: Box,
    out_dir: str,
    barrier_points: int = 401,
    surface_points: int = 101,
) -> dict[str, str]:
    """Write the barrier curve and one-step-condition surface as CSV.

    `barrier.csv` has columns x,B,gamma,lambda; `g3_surface.csv` has columns
    x,u,g3 with surface_points^2 rows, x varying slowest.  One-dimensional
    state and input only.
    """
    if state_box.dim != 1 or input_box.dim != 1:
        raise GeometryError("plot emission supports 1-D state and input spaces")
    paths = {
        "barrier": os.path.join(out_dir, "barrier.csv"),
        "g3_surface": os.path.join(out_dir, "g3_surface.csv"),
    }

    xs = box_grid(state_box, barrier_points)
    bvals = eval_poly_many(cert.barrier, xs)
    with atomic_write(paths["barrier"], newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "B", "gamma", "lambda"])
        for (x,), b in zip(xs, bvals):
            writer.writerow([f"{x:.17g}", f"{b:.17g}",
                             f"{cert.initial_cap:.17g}", f"{cert.unsafe_floor:.17g}"])

    pairs = box_grid(SampleSpace.product(state_box, input_box).box, surface_points)
    g3 = _true_step_condition(cert, plant, pairs) - cert.growth_budget - cert.objective
    with atomic_write(paths["g3_surface"], newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "u", "g3"])
        for (x, u), g in zip(pairs, g3):
            writer.writerow([f"{x:.17g}", f"{u:.17g}", f"{g:.17g}"])
    return paths


def estimate_lipschitz(
    cert: CertificateValues,
    plant: BlackBoxSystem,
    space: SampleSpace,
    n_pairs: int = 2000,
    seed: int = 0,
) -> float:
    """Empirical LOWER bound on the constraint Lipschitz constant.

    Sampled difference quotients of the one-step condition at the given
    certificate; the true constant can only be larger, so this can expose a
    configured bound as too small but can never validate it.
    """
    base = sample_uniform(space, n_pairs, seed)
    rng = np.random.Generator(np.random.PCG64(seed + 1))
    offsets = (rng.random(base.shape) - 0.5) * LIPSCHITZ_SPREAD * space.box.sides()
    other = np.clip(base + offsets, space.box.lower_arr, space.box.upper_arr)
    num = np.abs(_true_step_condition(cert, plant, base) - _true_step_condition(cert, plant, other))
    den = np.linalg.norm(base - other, axis=1)
    ok = den > 0
    if not np.any(ok):
        return 0.0
    return float(np.max(num[ok] / den[ok]))
