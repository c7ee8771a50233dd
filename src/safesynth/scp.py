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

Grid-enforced families (g1, g2, g4) are one construction, `grid_rows`: a
signed sum of the layout's polynomials on a grid over a box, plus constant
entries; `static_blocks` lists them in one family table.  They must hold
everywhere, not just at grid points, so each grid row is tightened by half
the grid spacing times a sound slope bound of its polynomial.  The slope
bound is itself linear in the split variables (|coeff| <= multiplicity *
split), so tightening costs nothing in problem class: the LP simply pays for
the slopes it actually uses.

Norm caps: for a univariate even-degree block the coefficients map onto a
symmetric Gram matrix (entry for degree d is coeff_d divided by the number of
antidiagonal cells), and every absolute row sum of that matrix is capped.
For symmetric matrices the maximum absolute row sum dominates the spectral
norm, so a spectral-norm cap on the Gram matrix is implied.  Other block
shapes fall back to capping the l1 norm of the raw coefficients.
"""

import itertools
import math
from dataclasses import dataclass, fields
from enum import IntEnum
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import AssemblyError, PolynomialError, SolverError
from .geometry import Box, RegionUnion, box_grid, grid_halfstep
from .lp import Cells, LpResult, LpStatus, LpTolerances, PolyRows, RowStack, solve_dense_lp
from .plant import Dataset
from .polynomial import (
    PolyBasis,
    Polynomial,
    eval_basis_many,
    monomial_gradient_bound,
)


# Samples per chunk of the cell index's counting sort (`sample_cells`):
# bounds its temporaries to a few MB at any dataset size.
G3_CHUNK = 65_536

# Samples per chunk when `g3_rows` writes: its basis evaluations are
# (chunk, terms) temporaries of a few tens of KB, so a make of many rows
# holds little beyond the rows it returns (at 4,096 a chunk, the residual
# pass of the one-copy-of-G test in tests/test_scp.py nearly spends its
# allocation budget).
G3_WRITE_CHUNK = 2_048

# Sampled rows are indexed in cells of a CELL_GRID x CELL_GRID grid over the
# data range of (x, x') when the state is one variable and there are at
# least SCREEN_MIN_ROWS of them; pricing then skips the cells whose bound
# proves they cannot enter (see `lp.Cells`), and the rows are made from
# (x, x') when read instead of stored (`lp.PolyRows`).  On the room case study, on one
# BLAS thread, cells made assembly and solve 17 ms slower at 70k samples,
# broke even at 140k (assembly +13 ms, LP -14 ms) and saved 1.2 s of 1.5 s
# in the LP at 2.76M.
CELL_GRID = 256
SCREEN_MIN_ROWS = 131_072


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

    def __post_init__(self):
        # `g3_columns` and `g3_shared_row` take the first term of every basis
        # to be its constant monomial, as `build_basis` orders it
        for basis in (self.barrier, *self.controllers):
            if any(basis.terms[0]):
                raise AssemblyError("a basis must lead with its constant monomial")

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

    @cached_property
    def polynomials(self) -> tuple[tuple[PolyBasis, slice, slice, CoeffBoundScheme], ...]:
        """(basis, coefficient slice, split slice, scheme) of the barrier and
        then of each controller: the coefficients follow the four scalars in
        this order, and their split variables follow them in the same order."""
        bases = (self.barrier, *self.controllers)
        starts = list(itertools.accumulate(map(len, bases), initial=4))
        shift = starts[-1] - 4
        return tuple(
            (basis, slice(a, b), slice(a + shift, b + shift), scheme)
            for basis, a, b, scheme in zip(bases, starts, starts[1:],
                                           (self.barrier_scheme, *self.controller_schemes))
        )

    @property
    def n_barrier(self) -> int:
        return len(self.barrier)

    @property
    def n_controller(self) -> int:
        return sum(len(c) for c in self.controllers)

    @property
    def q_slice(self) -> slice:
        return self.polynomials[0][1]

    def p_slice(self, i: int) -> slice:
        return self.polynomials[1 + i][1]

    @property
    def n_core(self) -> int:
        return 4 + self.n_barrier + self.n_controller

    @property
    def g3_columns(self) -> np.ndarray:
        """The columns in which sampled rows differ from one another: the
        non-constant monomials of the barrier, then of every controller."""
        return np.concatenate([np.arange(c.start + 1, c.stop) for _, c, _, _ in self.polynomials])

    @property
    def g3_shared_row(self) -> np.ndarray:
        """The entries every sampled row has outside `g3_columns`: -1 at the
        objective, the budget and each controller's constant monomial, and 0
        at the barrier's, which cancels in B(x') - B(x)."""
        row = np.zeros(self.n_total)
        row[[self.OBJECTIVE, self.BUDGET]] = -1.0
        for _, coeffs, _, _ in self.polynomials[1:]:
            row[coeffs.start] = -1.0
        return row

    @property
    def g3_coeff_map(self) -> np.ndarray:
        """For one state variable, the sampled block's columns as polynomials
        of (x, x'), in the layout of `lp.Cells.coeff_map`: a barrier column
        is x'^k - x^k and a controller column -x^k.  The made block's cell
        bounds (`lp.Cells.bounds`) read its rows through this map, so it
        must describe what `g3_rows` writes."""
        bases = (self.barrier, *self.controllers)
        if self.barrier.nvars != 1:
            raise AssemblyError("sampled rows are polynomials of (x, x') for one state variable")
        coeff_map = np.zeros((2, max(b.degree for b in bases) + 1, len(self.g3_columns)))
        powers = [k for b in bases for (k,) in b.terms[1:]]
        barrier = len(self.barrier) - 1
        for j, k in enumerate(powers):
            coeff_map[0, k, j] = -1.0
            if j < barrier:
                coeff_map[1, k, j] = 1.0
        return coeff_map

    @property
    def s_q_slice(self) -> slice:
        return self.polynomials[0][2]

    def s_p_slice(self, i: int) -> slice:
        return self.polynomials[1 + i][2]

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
    def from_dict(cls, data: dict, layout: DecisionLayout | None = None) -> "CertificateValues":
        """Inverse of `to_dict`; a non-finite value raises PolynomialError
        naming its field.  Given `layout`, each polynomial's `nvars` and
        `degree` must be the template's, as JSON integers, compared before
        any basis is built (a degree of 10**30 is refused, not enumerated),
        and the polynomials take the template's bases."""
        scalars = {f.name: float(data[f.name]) for f in fields(cls) if f.type is float}
        polys = {"barrier": data["barrier"],
                 **{f"controllers[{i}]": c for i, c in enumerate(data["controllers"])}}
        bases = [None] * len(polys) if layout is None else [layout.barrier, *layout.controllers]
        if len(bases) != len(polys):
            raise PolynomialError(f"{len(polys) - 1} controllers, the configuration's "
                                  f"template has {len(bases) - 1}")
        for (name, poly), basis in zip(polys.items(), bases):
            for key in () if basis is None else ("nvars", "degree"):
                value, expected = poly[key], getattr(basis, key)
                if isinstance(value, bool) or not isinstance(value, int) or value != expected:
                    raise PolynomialError(f"{name}.{key} is {value!r}, the configuration's "
                                          f"template has {expected}")
            polys[name] = Polynomial.from_dict(poly, basis)
        for name, values in [*((k, [v]) for k, v in scalars.items()),
                             *((k, p.coeffs) for k, p in polys.items())]:
            if not all(map(math.isfinite, values)):
                raise PolynomialError(f"{name} has a non-finite value")
        barrier, *controllers = polys.values()
        return cls(**scalars, barrier=barrier, controllers=tuple(controllers))


class LpProblem:
    """Assembled scenario program: min objective entry s.t. G d <= h.

    G is a `RowStack`; a dense matrix passed in becomes its one block.  `h`
    is n_rows long and read-only, because the sampled block's cells carry
    bounds taken from it (`lp.Cells.h_min`) that pricing trusts."""

    def __init__(self, G, h, tags, layout: DecisionLayout):
        self.G = G if isinstance(G, RowStack) else RowStack.dense(G)
        m = len(self.G)
        self.h = np.asarray(h, dtype=float).ravel()
        self.h.flags.writeable = False
        self.tags = np.asarray(tags, dtype=np.int8)
        self.layout = layout
        if not len(self.h) == m == len(self.tags):
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
        return LpProblem(self.G.select(keep), self.h[keep], self.tags[keep], self.layout)

    def residuals(self, d: np.ndarray) -> np.ndarray:
        resid = self.G.matvec(d)
        resid -= self.h
        return resid


def g3_rows(layout: DecisionLayout, xs: np.ndarray, x_nexts: np.ndarray) -> np.ndarray:
    """The sampled one-step rows of the transitions from states `xs` to
    next states `x_nexts` ((n, nvars) each), column-major over
    `layout.g3_columns`: a new (len(layout.g3_columns), n) block.  Every
    row holds `layout.g3_shared_row` outside those columns, and `g3_rhs`
    is its right-hand side.

    This is the one writer of sampled-row entries: `sampled_problem`
    stores its block, or gives `lp.PolyRows` a maker that calls it on the
    samples of the rows read.  It writes G3_WRITE_CHUNK samples at a time,
    and every entry is elementwise in its sample (`polynomial.power`), so
    an entry has the same bits whichever samples are written with it.
    """
    block = np.empty((len(layout.g3_columns), len(xs)))
    # the block rows of each basis' non-constant monomials, in layout order
    spans = np.cumsum([0] + [len(b) - 1 for b in (layout.barrier, *layout.controllers)])
    for lo in range(0, len(xs), G3_WRITE_CHUNK):
        rows = block[:, lo:lo + G3_WRITE_CHUNK].T
        x = xs[lo:lo + G3_WRITE_CHUNK]
        bx_next = eval_basis_many(layout.barrier, x_nexts[lo:lo + G3_WRITE_CHUNK], "F")
        bx = eval_basis_many(layout.barrier, x, "F")
        np.subtract(bx_next[:, 1:], bx[:, 1:], out=rows[:, spans[0]:spans[1]])
        for i, basis in enumerate(layout.controllers):
            phi = bx if basis == layout.barrier else eval_basis_many(basis, x, "F")
            np.negative(phi[:, 1:], out=rows[:, spans[i + 1]:spans[i + 2]])
    return block


def g3_rhs(layout: DecisionLayout, dataset: Dataset, rhs: np.ndarray | None = None) -> np.ndarray:
    """The sampled rows' right-hand side, -sum(u) per sample, written into
    `rhs` when given, once the dataset is checked against the layout."""
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
    rhs = np.empty(len(dataset)) if rhs is None else rhs
    np.sum(dataset.us, axis=1, out=rhs)
    return np.negative(rhs, out=rhs)


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


def structural_rows(layout: DecisionLayout, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """floor - cap >= budget * T, budget >= 0, and the linearised norm caps."""
    if horizon < 1:
        raise AssemblyError(f"horizon must be >= 1, got {horizon}")
    n = layout.n_total
    head = np.zeros((2, n))
    head[0, [layout.FLOOR, layout.CAP, layout.BUDGET]] = -1.0, 1.0, float(horizon)
    head[1, layout.BUDGET] = -1.0
    rows, rhs = [head], [np.zeros(2)]
    for _, coeffs, splits, scheme in layout.polynomials:
        width = coeffs.stop - coeffs.start
        d = np.repeat(np.arange(width), 2)  # +coeff_d / scale_d - split_d <= 0, then -coeff_d
        at = np.arange(2 * width)
        caps = np.zeros((2 * width, n))
        caps[at, coeffs.start + d] = np.tile([1.0, -1.0], width) / np.take(scheme.scale, d)
        caps[at, splits.start + d] = -1.0
        groups = np.zeros((len(scheme.groups), n))  # sum of a group's splits <= bound
        groups[:, splits] = [[i in group for i in range(width)] for group in scheme.groups]
        rows += [caps, groups]
        rhs += [np.zeros(2 * width), np.full(len(scheme.groups), scheme.bound)]
    return np.vstack(rows), np.concatenate(rhs)


def grid_rows(
    layout: DecisionLayout,
    box: Box,
    points: int,
    terms: Sequence[tuple[float, int]],
    constants: dict[int, float],
    rhs: float,
    tighten: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """sum of c * P_k(x) over `terms` (c, k), plus the `constants` entries,
    <= rhs at every point of a `points`-per-axis grid over `box`; P_k is
    `layout.polynomials[k]`, the barrier for k = 0 and controller k - 1
    after it.  With `tighten` each term adds |c| times half the grid step
    times its polynomial's slope bound to the split columns of P_k, so the
    rows hold everywhere in the box, not only at the grid points."""
    grid = box_grid(box, points)
    halfstep = grid_halfstep(box, points)
    block = np.zeros((len(grid), layout.n_total))
    for column, value in constants.items():
        block[:, column] = value
    for c, k in terms:
        basis, coeffs, splits, scheme = layout.polynomials[k]
        np.multiply(c, eval_basis_many(basis, grid), out=block[:, coeffs])
        if tighten:
            slope = halfstep * np.asarray(scheme.scale) * monomial_gradient_bound(basis, box)
            block[:, splits] += abs(c) * slope
    return block, np.full(len(grid), float(rhs))


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
    grids: GridSpec,
    eta: float,
    tighten: bool,
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

    G is a stack of two row blocks: the static rows, dense and not copied,
    then the sampled rows in sample order over the `layout.g3_columns` they
    differ in (8 of the room template's 24), with `layout.g3_shared_row` as
    the block's shared row.  Their entries come from `g3_rows` either way.
    For one state variable and at least SCREEN_MIN_ROWS samples the block
    is made: it stores only the samples' (x, x'), views of the dataset,
    which must not change while the program is in use, and calls `g3_rows`
    on the samples of the rows read (`lp.PolyRows`, which makes the few
    rows that may hold a column maximum).  Its cells (`sample_cells`), each
    with the box of its (x, x') and its least h, are what pricing screens
    by, through `layout.g3_coeff_map`, the rows' polynomials in (x, x')
    (the boxes are taken from the dataset too).  Any other block is stored
    as `g3_rows` writes it.  The sampled right-hand side is written
    straight into h.
    """
    static_G, static_h, static_tags = static
    n, ns = len(dataset), len(static_h)
    h = np.empty(ns + n)
    h[:ns] = static_h
    g3_rhs(layout, dataset, rhs=h[ns:])
    cells = sample_cells(dataset)
    if cells is None:
        samp_G = g3_rows(layout, dataset.xs, dataset.x_nexts)
    else:
        cell, order, starts = cells
        z = [dataset.xs[:, 0], dataset.x_nexts[:, 0]]
        ncells = len(starts) - 1
        samp_G = PolyRows(z, Cells(
            order, starts,
            np.column_stack([_by_cell(np.minimum, cell, ncells, v) for v in z]),
            np.column_stack([_by_cell(np.maximum, cell, ncells, v) for v in z]),
            _by_cell(np.minimum, cell, ncells, h[ns:]), layout.g3_coeff_map,
        ), lambda x, x_next: g3_rows(layout, x[:, None], x_next[:, None]))
    return LpProblem(
        RowStack([*RowStack.dense(static_G).blocks,
                  (layout.g3_columns, samp_G, layout.g3_shared_row)], layout.n_total),
        h,
        np.concatenate([static_tags, np.full(n, RowTag.G3, dtype=np.int8)]),
        layout,
    )


def sample_cells(dataset: Dataset) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(cell, order, starts): the cells of a one-variable `dataset` in a
    CELL_GRID x CELL_GRID grid over the data range of (x, x'), numbered in
    the grid's row-major order and counting only the non-empty ones.
    `cell[i]` (uint16) is sample i's cell; `order` (int32) lists the
    samples cell after cell, in sample order within a cell; `starts` is the
    first index of `order` of every cell, then n.  `order` and `starts` are
    as `lp.Cells` takes them.  None below SCREEN_MIN_ROWS samples or for a
    non-finite range.

    Each sample's grid square is a uint16 key, and `order` is the keys'
    stable argsort, made by a counting sort: the keys are computed and
    counted G3_CHUNK samples at a time, the counts give each key its first
    slot in `order`, and each chunk's stable argsort is scattered to the
    next free slots of its keys, so a key's samples stay in sample order;
    the chunk's keys then become its cells in place.  No
    temporary is N long: a temporary of N intp leaves freed heap resident
    (bincount of all keys raised prior-full's peak RSS by 16 MB, and one
    stable argsort of all 2.76M keys raised the process's VmHWM by 28 MB
    within this function).
    """
    n = len(dataset)
    if dataset.state_dim != 1 or n < SCREEN_MIN_ROWS:
        return None
    columns = (dataset.xs[:, 0], dataset.x_nexts[:, 0])
    ranges = [(float(z.min()), float(z.max())) for z in columns]
    if not np.all(np.isfinite(ranges)):
        return None
    key = np.empty(n, dtype=np.uint16)
    counts = np.zeros(CELL_GRID ** 2, dtype=np.intp)
    for a in range(0, n, G3_CHUNK):
        x, x_next = [
            np.minimum((z[a:a + G3_CHUNK] - lo) * (CELL_GRID / (hi - lo) if hi > lo else 0.0),
                       CELL_GRID - 1).astype(np.uint16)
            for z, (lo, hi) in zip(columns, ranges)]
        np.add(x * np.uint16(CELL_GRID), x_next, out=key[a:a + G3_CHUNK])
        counts += np.bincount(key[a:a + G3_CHUNK], minlength=CELL_GRID ** 2)
    order = np.empty(n, dtype=np.int32)
    free = np.cumsum(counts) - counts  # the next free slot of each key
    cell = (np.cumsum(counts > 0) - 1).astype(np.uint16)  # of each key
    for a in range(0, n, G3_CHUNK):
        chunk = key[a:a + G3_CHUNK]
        ranked = np.argsort(chunk, kind="stable")
        sizes = np.bincount(chunk, minlength=CELL_GRID ** 2)
        # the chunk's sorted samples of a key go to that key's next free slots
        slot = (free - (np.cumsum(sizes) - sizes))[chunk[ranked]] + np.arange(len(chunk))
        order[slot] = ranked + a
        free += sizes
        np.take(cell, chunk, out=chunk)
    return key, order, np.concatenate([[0], np.cumsum(counts[counts > 0])])


def _by_cell(reduce, cell: np.ndarray, ncells: int, values: np.ndarray) -> np.ndarray:
    """`reduce` (np.minimum or np.maximum) of `values` over each cell's samples."""
    out = np.full(ncells, np.inf if reduce is np.minimum else -np.inf)
    reduce.at(out, cell, values)
    return out


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sample-independent rows, reusable across runs: (G, h, tags).

    The structural rows, then the grid rows (`grid_rows`) of one family
    table: g1 per initial-region part, g2 per unsafe-region part and g4 per
    input-polytope row."""
    input_a = np.atleast_2d(np.asarray(input_a, dtype=float))
    input_b = np.asarray(input_b, dtype=float).ravel()
    if input_a.shape[0] != input_b.shape[0]:
        raise AssemblyError("input polytope A and b disagree on row count")
    if input_a.shape[1] != len(layout.controllers):
        raise AssemblyError(
            f"input polytope has {input_a.shape[1]} columns for "
            f"{len(layout.controllers)} controller components"
        )
    # (tag, box, points per axis, terms, constant entries, right-hand side)
    families = [
        *((RowTag.G1, part, grids.initial, [(1.0, 0)], {layout.CAP: -1.0}, -eta)
          for part in initial_region.parts),
        *((RowTag.G2, part, grids.unsafe, [(-1.0, 0)], {layout.FLOOR: 1.0}, 0.0)
          for part in unsafe_region.parts),
        *((RowTag.G4, state_box, grids.state,
           [(a, 1 + j) for j, a in enumerate(row) if a != 0.0], {}, b)
          for row, b in zip(input_a, input_b)),
    ]
    G, h = structural_rows(layout, horizon)
    blocks, rhss, tags = [G], [h], [np.full(len(G), RowTag.STRUCTURAL, dtype=np.int8)]
    for tag, box, points, terms, constants, rhs in families:
        block, block_h = grid_rows(layout, box, points, terms, constants, rhs, tighten)
        blocks.append(block)
        rhss.append(block_h)
        tags.append(np.full(len(block), tag, dtype=np.int8))
    return np.vstack(blocks), np.concatenate(rhss), np.concatenate(tags)


def solve_lp(problem: LpProblem, tolerances: LpTolerances = LpTolerances()) -> LpResult:
    """Solve the assembled program; at an optimum the record's
    `active_row_ids` are the rows within `tolerances.activity` of their
    bound."""
    return solve_dense_lp(problem.cost, problem.G, problem.h, tolerances)


def active_g3(problem: LpProblem, solution: LpResult) -> int:
    """The sampled rows among the rows `solve_lp` found active: the support
    bound N* of the posterior method."""
    return int(np.count_nonzero(problem.tags[solution.active_row_ids] == RowTag.G3))


def count_active_g3(problem: LpProblem, solution: LpResult, tol: float | None = None) -> int:
    """Number of sampled rows active at the solution (residual test).

    Under non-degeneracy this upper-bounds the number of support constraints.
    """
    if solution.z is None:
        raise SolverError(f"no solution available (status {solution.status.value})",
                          status=solution.status.value)
    tol = LpTolerances().activity if tol is None else tol
    resid = problem.residuals(solution.z)
    np.abs(resid, out=resid)
    return int(np.count_nonzero((resid <= tol) & (problem.tags == RowTag.G3)))
