"""Scenario linear program: decision layout, constraint rows, solve, activity.

The decision vector is laid out as

    d = (objective, unsafe_floor, initial_cap, growth_budget, q..., p...)

followed by auxiliary split variables that linearise the coefficient-norm
caps.  The objective entry is the worst-case slack of the sampled one-step
barrier condition and is the only variable the LP minimises.

Row families (tags):

    g1   barrier(x) - cap <= -eta          on a grid over the initial region
    g2   -barrier(x) + floor <= 0          on a grid over the unsafe region
    g3   barrier(x') - barrier(x) + sum(u - F(x)) - budget - objective <= -0
         one row per collected sample (rhs carries the -sum(u) constant)
    g4   A F(x) <= b                       on a grid over the whole state box
    structural   floor - cap >= budget*T, budget >= 0, norm caps

Grid-enforced families (g1, g2, g4) must hold everywhere, not just at grid
points, so each grid row is tightened by half the grid spacing times a sound
slope bound of its polynomial.  The slope bound is itself linear in the split
variables (|coeff| <= multiplicity * split), so tightening costs nothing in
problem class: the LP simply pays for the slopes it actually uses.

Norm caps: for a univariate even-degree block the coefficients map onto a
symmetric Gram matrix (entry for degree d is coeff_d divided by the number of
antidiagonal cells), and every absolute row sum of that matrix is capped.
For symmetric matrices the maximum absolute row sum dominates the spectral
norm, so a spectral-norm cap on the Gram matrix is implied.  Other block
shapes fall back to capping the l1 norm of the raw coefficients.
"""

from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence

import numpy as np

from .errors import AssemblyError, SolverError
from .geometry import Box, RegionUnion, box_grid, grid_halfstep
from .lp import DenseLpResult, LpStatus, solve_dense_lp
from .plant import Dataset
from .polynomial import (
    PolyBasis,
    Polynomial,
    eval_basis_many,
    monomial_gradient_bound,
)


# Samples per block when g3 rows are written: bounds the basis-evaluation
# temporaries of assembly to a few MB at any dataset size.
G3_CHUNK = 65_536


class RowTag(IntEnum):
    G1 = 1
    G2 = 2
    G3 = 3
    G4 = 4
    STRUCTURAL = 5

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class CoeffBoundScheme:
    """Linearised norm cap for one polynomial block.

    |coeff_d| <= scale[d] * split_d, plus sum_{d in group} split_d <= bound
    for every group.
    """

    kind: str
    bound: float
    scale: tuple[float, ...]
    groups: tuple[tuple[int, ...], ...]


def _bound_scheme(basis: PolyBasis, bound: float) -> CoeffBoundScheme:
    if bound <= 0:
        raise AssemblyError(f"coefficient bound must be positive, got {bound}")
    if basis.nvars == 1 and basis.degree % 2 == 0 and basis.degree > 0:
        half = basis.degree // 2
        scale = tuple(
            float(min(d, half) - max(0, d - half) + 1) for d in range(basis.degree + 1)
        )
        groups = tuple(tuple(range(i, i + half + 1)) for i in range(half + 1))
        return CoeffBoundScheme("gram-rowsum", float(bound), scale, groups)
    size = len(basis)
    return CoeffBoundScheme(
        "l1", float(bound), tuple(1.0 for _ in range(size)), (tuple(range(size)),)
    )


@dataclass(frozen=True)
class DecisionLayout:
    """Index map of the decision vector, core part then split variables."""

    barrier: PolyBasis
    controllers: tuple[PolyBasis, ...]
    barrier_scheme: CoeffBoundScheme
    controller_schemes: tuple[CoeffBoundScheme, ...]

    OBJECTIVE = 0
    FLOOR = 1
    CAP = 2
    BUDGET = 3

    @classmethod
    def build(
        cls,
        barrier: PolyBasis,
        controllers: Sequence[PolyBasis],
        barrier_bound: float,
        controller_bounds: Sequence[float],
    ) -> "DecisionLayout":
        controllers = tuple(controllers)
        if not controllers:
            raise AssemblyError("need at least one controller component")
        if any(c.nvars != barrier.nvars for c in controllers):
            raise AssemblyError("controller bases must live on the state variables")
        if len(controller_bounds) != len(controllers):
            raise AssemblyError("one coefficient bound per controller component")
        return cls(
            barrier,
            controllers,
            _bound_scheme(barrier, barrier_bound),
            tuple(_bound_scheme(c, b) for c, b in zip(controllers, controller_bounds)),
        )

    @property
    def n_barrier(self) -> int:
        return len(self.barrier)

    @property
    def n_controller(self) -> int:
        return sum(len(c) for c in self.controllers)

    @property
    def q_slice(self) -> slice:
        return slice(4, 4 + self.n_barrier)

    def p_slice(self, i: int) -> slice:
        start = 4 + self.n_barrier + sum(len(c) for c in self.controllers[:i])
        return slice(start, start + len(self.controllers[i]))

    @property
    def n_core(self) -> int:
        return 4 + self.n_barrier + self.n_controller

    @property
    def s_q_slice(self) -> slice:
        return slice(self.n_core, self.n_core + self.n_barrier)

    def s_p_slice(self, i: int) -> slice:
        start = self.n_core + self.n_barrier + sum(len(c) for c in self.controllers[:i])
        return slice(start, start + len(self.controllers[i]))

    @property
    def n_total(self) -> int:
        return self.n_core + self.n_barrier + self.n_controller


@dataclass(frozen=True)
class CertificateValues:
    """Semantic view of the core decision vector."""

    objective: float
    unsafe_floor: float
    initial_cap: float
    growth_budget: float
    barrier: Polynomial
    controllers: tuple[Polynomial, ...]

    @classmethod
    def from_vector(cls, layout: DecisionLayout, d: np.ndarray) -> "CertificateValues":
        d = np.asarray(d, dtype=float)
        return cls(
            objective=float(d[layout.OBJECTIVE]),
            unsafe_floor=float(d[layout.FLOOR]),
            initial_cap=float(d[layout.CAP]),
            growth_budget=float(d[layout.BUDGET]),
            barrier=Polynomial(layout.barrier, tuple(d[layout.q_slice])),
            controllers=tuple(
                Polynomial(basis, tuple(d[layout.p_slice(i)]))
                for i, basis in enumerate(layout.controllers)
            ),
        )

    def to_dict(self) -> dict:
        return {
            "objective": self.objective,
            "unsafe_floor": self.unsafe_floor,
            "initial_cap": self.initial_cap,
            "growth_budget": self.growth_budget,
            "barrier": self.barrier.to_dict(),
            "controllers": [c.to_dict() for c in self.controllers],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CertificateValues":
        return cls(
            objective=float(data["objective"]),
            unsafe_floor=float(data["unsafe_floor"]),
            initial_cap=float(data["initial_cap"]),
            growth_budget=float(data["growth_budget"]),
            barrier=Polynomial.from_dict(data["barrier"]),
            controllers=tuple(Polynomial.from_dict(c) for c in data["controllers"]),
        )


class LpProblem:
    """Assembled scenario program: min objective entry s.t. G d <= h."""

    def __init__(self, G, h, tags, origins, layout: DecisionLayout):
        self.G = np.ascontiguousarray(np.asarray(G, dtype=float))
        self.h = np.asarray(h, dtype=float).ravel()
        self.tags = np.asarray(tags, dtype=np.int8)
        self.origins = np.asarray(origins, dtype=np.int64)
        self.layout = layout
        if not (len(self.G) == len(self.h) == len(self.tags) == len(self.origins)):
            raise AssemblyError("row blocks disagree on length")
        if self.G.shape[1] != layout.n_total:
            raise AssemblyError(
                f"rows have {self.G.shape[1]} columns, layout wants {layout.n_total}"
            )
        if not np.any(self.tags == RowTag.G3):
            raise AssemblyError("a scenario program needs at least one sampled row")

    @property
    def n_rows(self) -> int:
        return len(self.G)

    @property
    def cost(self) -> np.ndarray:
        c = np.zeros(self.layout.n_total)
        c[self.layout.OBJECTIVE] = 1.0
        return c

    def g3_row_indices(self) -> np.ndarray:
        return np.flatnonzero(self.tags == RowTag.G3)

    def without_rows(self, drop: Sequence[int]) -> "LpProblem":
        keep = np.ones(self.n_rows, dtype=bool)
        keep[list(drop)] = False
        return LpProblem(
            self.G[keep], self.h[keep], self.tags[keep], self.origins[keep], self.layout
        )

    def residuals(self, d: np.ndarray) -> np.ndarray:
        resid = self.G @ np.asarray(d, dtype=float)
        resid -= self.h
        return resid

    def dump(self, path: str) -> None:
        """Plain-text tableau: one row per line `tag origin rhs idx:val ...`."""
        with open(path, "w") as fh:
            for i in range(self.n_rows):
                coeffs = self.G[i]
                nz = np.flatnonzero(coeffs)
                entries = " ".join(f"{j}:{coeffs[j]:.17g}" for j in nz)
                fh.write(
                    f"{RowTag(self.tags[i]).label} {self.origins[i]} {self.h[i]:.17g} {entries}\n"
                )


def _tighten_weights(scheme: CoeffBoundScheme, basis: PolyBasis, box: Box, halfstep: float) -> np.ndarray:
    grad = monomial_gradient_bound(basis, box)
    return halfstep * np.asarray(scheme.scale) * grad


def g1_rows(
    layout: DecisionLayout,
    grid: np.ndarray,
    eta: float,
    part_box: Box | None = None,
    halfstep: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """barrier(x) - cap <= -eta (- tightening) at each initial-region grid point."""
    if len(grid) == 0:
        raise AssemblyError("empty initial-region grid")
    block = np.zeros((len(grid), layout.n_total))
    block[:, layout.q_slice] = eval_basis_many(layout.barrier, grid)
    block[:, layout.CAP] = -1.0
    if halfstep:
        if part_box is None:
            raise AssemblyError("tightening needs the grid's box")
        block[:, layout.s_q_slice] += _tighten_weights(
            layout.barrier_scheme, layout.barrier, part_box, halfstep
        )
    return block, np.full(len(grid), -float(eta))


def g2_rows(
    layout: DecisionLayout,
    grid: np.ndarray,
    part_box: Box | None = None,
    halfstep: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """-barrier(x) + floor <= 0 (- tightening) at each unsafe-region grid point."""
    if len(grid) == 0:
        raise AssemblyError("empty unsafe-region grid")
    block = np.zeros((len(grid), layout.n_total))
    block[:, layout.q_slice] = -eval_basis_many(layout.barrier, grid)
    block[:, layout.FLOOR] = 1.0
    if halfstep:
        if part_box is None:
            raise AssemblyError("tightening needs the grid's box")
        block[:, layout.s_q_slice] += _tighten_weights(
            layout.barrier_scheme, layout.barrier, part_box, halfstep
        )
    return block, np.zeros(len(grid))


def g3_rows(
    layout: DecisionLayout, dataset: Dataset, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """One sampled one-step row per transition (x, u, x').

    The rows go into `out` (len(dataset) x n_total) when given, else into a
    new block, written G3_CHUNK samples at a time.
    """
    if dataset.state_dim != layout.barrier.nvars:
        raise AssemblyError(
            f"dataset state dimension {dataset.state_dim} != template dimension "
            f"{layout.barrier.nvars}"
        )
    if dataset.input_dim != len(layout.controllers):
        raise AssemblyError(
            f"dataset input dimension {dataset.input_dim} != controller count "
            f"{len(layout.controllers)}"
        )
    block = np.empty((len(dataset), layout.n_total)) if out is None else out
    if block.shape != (len(dataset), layout.n_total):
        raise AssemblyError(f"g3 block of shape {block.shape} for {len(dataset)} samples")
    for lo in range(0, len(dataset), G3_CHUNK):
        rows = block[lo:lo + G3_CHUNK]
        xs = dataset.xs[lo:lo + G3_CHUNK]
        rows.fill(0.0)
        np.subtract(
            eval_basis_many(layout.barrier, dataset.x_nexts[lo:lo + G3_CHUNK]),
            eval_basis_many(layout.barrier, xs),
            out=rows[:, layout.q_slice],
        )
        for i, basis in enumerate(layout.controllers):
            np.negative(eval_basis_many(basis, xs), out=rows[:, layout.p_slice(i)])
        rows[:, layout.BUDGET] = -1.0
        rows[:, layout.OBJECTIVE] = -1.0
    return block, -dataset.us.sum(axis=1)


def g3_row(layout: DecisionLayout, x, u, x_next) -> tuple[np.ndarray, float]:
    """Single-sample transcription; the batched form must agree with this."""
    coeffs = np.zeros(layout.n_total)
    bx = eval_basis_many(layout.barrier, np.atleast_2d(np.asarray(x, dtype=float)))[0]
    bxn = eval_basis_many(layout.barrier, np.atleast_2d(np.asarray(x_next, dtype=float)))[0]
    coeffs[layout.q_slice] = bxn - bx
    for i, basis in enumerate(layout.controllers):
        coeffs[layout.p_slice(i)] = -eval_basis_many(
            basis, np.atleast_2d(np.asarray(x, dtype=float))
        )[0]
    coeffs[layout.BUDGET] = -1.0
    coeffs[layout.OBJECTIVE] = -1.0
    return coeffs, -float(np.sum(u))


def g4_rows(
    layout: DecisionLayout,
    grid: np.ndarray,
    input_a: np.ndarray,
    input_b: np.ndarray,
    part_box: Box | None = None,
    halfstep: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Input-polytope rows A F(x) <= b at every state grid point.

    Returns (block, rhs, origins) with origins the grid index of each row.
    """
    input_a = np.atleast_2d(np.asarray(input_a, dtype=float))
    input_b = np.asarray(input_b, dtype=float).ravel()
    if input_a.shape[0] != input_b.shape[0]:
        raise AssemblyError("input polytope A and b disagree on row count")
    if input_a.shape[1] != len(layout.controllers):
        raise AssemblyError(
            f"input polytope has {input_a.shape[1]} columns for "
            f"{len(layout.controllers)} controller components"
        )
    if len(grid) == 0:
        raise AssemblyError("empty state grid")
    blocks, rhs, origins = [], [], []
    phis = [eval_basis_many(basis, grid) for basis in layout.controllers]
    for i in range(input_a.shape[0]):
        block = np.zeros((len(grid), layout.n_total))
        for j, basis in enumerate(layout.controllers):
            if input_a[i, j] != 0.0:
                block[:, layout.p_slice(j)] = input_a[i, j] * phis[j]
            if halfstep and input_a[i, j] != 0.0:
                if part_box is None:
                    raise AssemblyError("tightening needs the grid's box")
                block[:, layout.s_p_slice(j)] += abs(input_a[i, j]) * _tighten_weights(
                    layout.controller_schemes[j], basis, part_box, halfstep
                )
        blocks.append(block)
        rhs.append(np.full(len(grid), input_b[i]))
        origins.append(np.arange(len(grid)))
    return np.vstack(blocks), np.concatenate(rhs), np.concatenate(origins)


def structural_rows(layout: DecisionLayout, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """floor - cap >= budget * T, budget >= 0, and the linearised norm caps."""
    if horizon < 1:
        raise AssemblyError(f"horizon must be >= 1, got {horizon}")
    rows: list[np.ndarray] = []
    rhs: list[float] = []

    row = np.zeros(layout.n_total)
    row[layout.FLOOR] = -1.0
    row[layout.CAP] = 1.0
    row[layout.BUDGET] = float(horizon)
    rows.append(row)
    rhs.append(0.0)

    row = np.zeros(layout.n_total)
    row[layout.BUDGET] = -1.0
    rows.append(row)
    rhs.append(0.0)

    def add_scheme(scheme: CoeffBoundScheme, coeff_slice: slice, split_slice: slice):
        width = coeff_slice.stop - coeff_slice.start
        for d in range(width):
            for sign in (1.0, -1.0):
                row = np.zeros(layout.n_total)
                row[coeff_slice.start + d] = sign / scheme.scale[d]
                row[split_slice.start + d] = -1.0
                rows.append(row)
                rhs.append(0.0)
        for group in scheme.groups:
            row = np.zeros(layout.n_total)
            for d in group:
                row[split_slice.start + d] = 1.0
            rows.append(row)
            rhs.append(scheme.bound)

    add_scheme(layout.barrier_scheme, layout.q_slice, layout.s_q_slice)
    for i, scheme in enumerate(layout.controller_schemes):
        add_scheme(scheme, layout.p_slice(i), layout.s_p_slice(i))
    return np.vstack(rows), np.asarray(rhs)


def box_to_polytope(box: Box) -> tuple[np.ndarray, np.ndarray]:
    """Box as Au <= b rows: upper bounds first, then negated lower bounds."""
    dim = box.dim
    A = np.vstack([np.eye(dim), -np.eye(dim)])
    b = np.concatenate([box.upper_arr, -box.lower_arr])
    return A, b


@dataclass(frozen=True)
class GridSpec:
    """Points per axis for the three robust row families."""

    initial: int = 1001
    unsafe: int = 501
    state: int = 2001


def build_problem(
    layout: DecisionLayout,
    dataset: Dataset,
    initial_region: RegionUnion,
    unsafe_region: RegionUnion,
    state_box: Box,
    input_a: np.ndarray,
    input_b: np.ndarray,
    horizon: int,
    grids: GridSpec = GridSpec(),
    eta: float = 1e-6,
    tighten: bool = True,
) -> LpProblem:
    """Assemble the full scenario program for one collected dataset."""
    return sampled_problem(
        layout,
        static_blocks(
            layout, initial_region, unsafe_region, state_box, input_a, input_b,
            horizon, grids, eta, tighten,
        ),
        dataset,
    )


def sampled_problem(layout: DecisionLayout, static: tuple, dataset: Dataset) -> LpProblem:
    """The `static_blocks` rows followed by one g3 row per sample of `dataset`.

    G is allocated once: the static rows are copied into its head and
    `g3_rows` writes the sampled rows into its tail in place.
    """
    static_G, static_h, static_tags, static_origins = static
    n_static, n = len(static_G), len(dataset)
    G = np.empty((n_static + n, layout.n_total))
    G[:n_static] = static_G
    _, samp_h = g3_rows(layout, dataset, out=G[n_static:])
    return LpProblem(
        G,
        np.concatenate([static_h, samp_h]),
        np.concatenate([static_tags, np.full(n, RowTag.G3, dtype=np.int8)]),
        np.concatenate([static_origins, np.arange(n, dtype=np.int64)]),
        layout,
    )


def static_blocks(
    layout: DecisionLayout,
    initial_region: RegionUnion,
    unsafe_region: RegionUnion,
    state_box: Box,
    input_a: np.ndarray,
    input_b: np.ndarray,
    horizon: int,
    grids: GridSpec,
    eta: float,
    tighten: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The sample-independent rows (structural + grids), reusable across runs."""
    blocks, rhss, tags, origins = [], [], [], []

    sG, sh = structural_rows(layout, horizon)
    blocks.append(sG)
    rhss.append(sh)
    tags.append(np.full(len(sG), RowTag.STRUCTURAL, dtype=np.int8))
    origins.append(np.full(len(sG), -1, dtype=np.int64))

    offset = 0
    for part in initial_region.parts:
        grid = box_grid(part, grids.initial)
        hs = grid_halfstep(part, grids.initial) if tighten else None
        bG, bh = g1_rows(layout, grid, eta, part, hs)
        blocks.append(bG)
        rhss.append(bh)
        tags.append(np.full(len(bG), RowTag.G1, dtype=np.int8))
        origins.append(np.arange(offset, offset + len(bG), dtype=np.int64))
        offset += len(bG)

    offset = 0
    for part in unsafe_region.parts:
        grid = box_grid(part, grids.unsafe)
        hs = grid_halfstep(part, grids.unsafe) if tighten else None
        bG, bh = g2_rows(layout, grid, part, hs)
        blocks.append(bG)
        rhss.append(bh)
        tags.append(np.full(len(bG), RowTag.G2, dtype=np.int8))
        origins.append(np.arange(offset, offset + len(bG), dtype=np.int64))
        offset += len(bG)

    grid = box_grid(state_box, grids.state)
    hs = grid_halfstep(state_box, grids.state) if tighten else None
    bG, bh, borig = g4_rows(layout, grid, input_a, input_b, state_box, hs)
    blocks.append(bG)
    rhss.append(bh)
    tags.append(np.full(len(bG), RowTag.G4, dtype=np.int8))
    origins.append(borig.astype(np.int64))

    return (
        np.vstack(blocks),
        np.concatenate(rhss),
        np.concatenate(tags),
        np.concatenate(origins),
    )


@dataclass(frozen=True)
class LpTolerances:
    feasibility: float = 1e-8
    optimality: float = 1e-8
    activity: float = 1e-7
    pivot: float = 1e-11
    max_iterations: int = 20000


@dataclass
class LpSolution:
    status: LpStatus
    d_star: np.ndarray | None
    objective: float | None
    active_row_ids: np.ndarray
    iterations: int
    degenerate_steps: int
    bland_iterations: int
    max_violation: float
    zero_multipliers: int
    lexicographic: bool = False

    def certificate(self, layout: DecisionLayout) -> CertificateValues:
        if self.d_star is None:
            raise _no_solution(self.status)
        return CertificateValues.from_vector(layout, self.d_star)


def _no_solution(status: LpStatus):
    return SolverError(f"no solution available (status {status.value})", status=status.value)


def _raw_solve(
    cost: np.ndarray, G: np.ndarray, h: np.ndarray, tolerances: LpTolerances
) -> DenseLpResult:
    return solve_dense_lp(
        cost,
        G,
        h,
        opt_tol=tolerances.optimality,
        pivot_tol=tolerances.pivot,
        feas_tol=tolerances.feasibility,
        max_iter=tolerances.max_iterations,
    )


def solve_lp(
    problem: LpProblem,
    tolerances: LpTolerances = LpTolerances(),
    lexicographic: bool = False,
) -> LpSolution:
    """Solve the assembled program; optionally canonicalise among ties.

    With `lexicographic` the objective value is pinned and every core
    coordinate is minimised in layout order by exact re-solves, which makes
    the reported solution the lexicographic-minimal point of the optimal
    face (split variables excluded); `lexicographic` in the result says
    whether every core coordinate was pinned.
    """
    res = _raw_solve(problem.cost, problem.G, problem.h, tolerances)
    if res.status != LpStatus.OPTIMAL or res.z is None:
        return LpSolution(
            status=res.status,
            d_star=None,
            objective=None,
            active_row_ids=np.empty(0, dtype=int),
            iterations=res.iterations,
            degenerate_steps=res.degenerate_steps,
            bland_iterations=res.bland_iterations,
            max_violation=res.max_violation,
            zero_multipliers=res.zero_multipliers,
        )
    d = res.z
    iterations = res.iterations
    degenerate = res.degenerate_steps
    bland = res.bland_iterations
    if lexicographic:
        d, extra_iters, lexicographic = _refine_lexicographic(problem, res, tolerances)
        iterations += extra_iters
    objective = float(problem.cost @ d)
    resid = problem.residuals(d)
    active = np.flatnonzero(np.abs(resid) <= tolerances.activity)
    return LpSolution(
        status=LpStatus.OPTIMAL,
        d_star=d,
        objective=objective,
        active_row_ids=active,
        iterations=iterations,
        degenerate_steps=degenerate,
        bland_iterations=bland,
        max_violation=float(max(np.max(resid), 0.0)),
        zero_multipliers=res.zero_multipliers,
        lexicographic=lexicographic,
    )


def _refine_lexicographic(
    problem: LpProblem, base: DenseLpResult, tolerances: LpTolerances
) -> tuple[np.ndarray, int, bool]:
    """Pin the objective, then minimise each core coordinate in order.

    Every pin is a single upper-bound row: the pinned value is the minimum of
    that coordinate over the current face, so the lower bound is implied.
    A re-solve that raises or ends non-optimal stops the refinement at the
    point reached so far, and the third result (all pinned) is False.
    """
    layout = problem.layout
    G = problem.G
    h = problem.h
    extra_iters = 0
    d = base.z
    assert d is not None
    for idx in range(layout.n_core):
        pin = np.zeros((1, layout.n_total))
        pin[0, idx] = 1.0
        cost = np.zeros(layout.n_total)
        if idx == layout.OBJECTIVE:
            value = float(d[idx])
        else:
            cost[idx] = 1.0
            try:
                res = _raw_solve(cost, G, h, tolerances)
            except SolverError:
                return d, extra_iters, False
            if res.status != LpStatus.OPTIMAL or res.z is None:
                return d, extra_iters, False
            extra_iters += res.iterations
            d = res.z
            value = float(d[idx])
        G = np.vstack([G, pin])
        h = np.concatenate([h, [value]])
    return d, extra_iters, True


def count_active_g3(problem: LpProblem, solution: LpSolution, tol: float | None = None) -> int:
    """Number of sampled rows active at the solution (residual test).

    Under non-degeneracy this upper-bounds the number of support constraints.
    """
    if solution.d_star is None:
        raise _no_solution(solution.status)
    tol = LpTolerances().activity if tol is None else tol
    resid = problem.residuals(solution.d_star)
    return int(np.count_nonzero((np.abs(resid) <= tol) & (problem.tags == RowTag.G3)))
