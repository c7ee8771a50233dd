"""Dense two-phase active-set solver for tall inequality-form linear programs.

Solves   min cost.z   s.t.  G z <= h   for problems with a handful of
variables (tens) and very many rows (1e5..1e6).  The working set of at most
nvars rows is maintained as the basis of the dual standard-form program

    min h.y   s.t.  G' y = -cost,   y >= 0,

so each iteration prices the rows of G (see `RowStack`) and refactorises
only an nvars x nvars basis.  At optimality the dual basis IS the active set
of the original program and the simplex multipliers of that basis are its
solution, which this module re-solves from the final working set so the
returned point satisfies its active rows to machine precision.  Programs
must be bounded below, as the scenario program is (`solve_dense_lp`).

One walk over G.  Every read of G v, the pricing of each iteration and the
final G z - h alike, goes through one walk (`_DualSimplex._walk`), so the
entering rows and the active rows see the same bits.  The walk first
streams the other blocks in runs of `_PRICE_CHUNK` rows: one mat-vec into
a scratch buffer that stays in cache, the shared row's term, `h` minus the
product and the working set masked out, all before the next run is read;
no m-long vector is formed.  `RowStack.matvec` cuts its products the same
way, so on one BLAS thread every reduced cost has the bits of that
mat-vec.  The walk then prices the made block, if any, batch by batch,
each batch the cells whose bound is at most a cut its caller sets and asks
again after each batch.  A run, or the made block, that starts at or after
a stop row its caller sets is skipped.

Screened pricing.  A block whose rows are polynomials of a few scalars per
row (the scenario program's sampled rows, in x and x') can be made from
those scalars when its rows are read instead of stored (`PolyRows`, by a
function its caller gives: for the scenario program, `scp.g3_rows`), and
carries an index of cells, runs of its rows with nearby scalars that tile
it (`Cells`).  Each iteration bounds every cell's reduced costs from below
through the polynomial structure and a rounding margin; the cut is the
best reduced cost found so far, so the cells that can beat it are priced,
in ascending order of bound, each cell's rows made once per solve.  A
skipped row is one the bound proves cannot enter, and every priced row
keeps the bits of the unscreened product (`_made_product`), so the pivots
are those of pricing every row.  The block itself stays in row order; only
pricing reads it through the index, so a solve makes only the rows it
prices.  The final G z - h is screened by the same bounds: its cut admits
a cell only if it may hold an active row or the largest violation.

Pivoting is Dantzig's rule with lowest-row tie-breaks; while the iteration
stalls on degenerate vertices it switches to Bland's rule (the lowest
eligible row), which cannot cycle, and reverts once a positive step is
taken; the walk's stop row is the first eligible row found so far, so
Bland's rule reads no run after it.  Everything is deterministic for
identical input.  Variable columns are equilibrated by
powers of two (exact in floating point) so monomial columns of wildly
different magnitude do not poison the pivot tolerances.
"""

import bisect
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import SolverError

# Rows priced per step of the pricing loop: the chunk's reduced costs (128 KB)
# stay in L2 from the mat-vec to the entering-row choice.  A multiple of 64,
# so chunks start where BLAS starts a group of rows (see `RowStack._product`).
# 8192 to 65536 priced the prior baseline's LP within 5% of each other.
_PRICE_CHUNK = 16384
# Rows of the first batch of cells pricing reads (`_cell_batches`); each later
# batch doubles, up to `_PRICE_CHUNK`.
_FIRST_BATCH = 2048
# Rows `PolyRows` makes at most at once for its column maxima.
_MAKE_CHUNK = 65536
# Degenerate pivots in a row after which pricing switches to Bland's rule.
_STALL_LIMIT = 64


class LpStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ITERATION_LIMIT = "iteration-limit"


class Cells:
    """Screening data of a row block whose rows are polynomials of a few
    scalars: row i's entry in the block's column j is
    sum over (v, k) of coeff_map[v, k, j] * z_v ** k, for the scalars z of
    its sample.

    The cells are an index of the block, which stays in row order: `order`
    (int32) lists its rows, counted from the block's first row, cell after
    cell, and cell c is the rows order[starts[c]:starts[c + 1]], whose
    samples lie in a small box: every z of them lies in [lower[c],
    upper[c]], and `h_min[c]` bounds their right-hand side from below, for
    the right-hand side the stack is solved with.  The cells tile the
    block: every row is in exactly one of them, which is checked, as
    pricing, the final residual and the column maxima read each row only
    through its cell.

    `bounds` turns the box into a lower bound of every reduced cost a row of
    the cell can price at, so pricing can skip a cell whose bound cannot
    beat the best reduced cost found so far.
    """

    def __init__(self, order, starts, lower, upper, h_min, coeff_map):
        self.order = np.asarray(order, dtype=np.int32)
        self.starts = np.asarray(starts, dtype=np.intp)
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        self.h_min = np.asarray(h_min, dtype=float)
        self.coeff_map = np.asarray(coeff_map, dtype=float)
        n, ncells = len(self.order), len(self.starts) - 1
        nz, d1, ncols = self.coeff_map.shape
        if (self.starts[0] != 0 or self.starts[-1] != n
                or np.any(np.diff(self.starts) < 0) or len(self.h_min) != ncells
                or self.lower.shape != (ncells, nz) or self.upper.shape != (ncells, nz)):
            raise SolverError(f"{ncells} cells of {n} rows over {nz} scalars do not tile the block")
        # n ids in 0..n-1 that are all seen are each seen once; the mask is
        # set a chunk at a time, as an int32 index is copied to intp
        seen = np.zeros(n, dtype=bool)
        if n and (self.order.min() < 0 or self.order.max() >= n):
            raise SolverError(f"cells list a row outside the block's {n} rows, "
                              f"so they do not tile it")
        for a in range(0, n, _MAKE_CHUNK):
            seen[self.order[a:a + _MAKE_CHUNK]] = True
        if not seen.all():
            raise SolverError(f"cells leave {n - np.count_nonzero(seen)} of the block's {n} "
                              f"rows out, so they do not tile it")
        with np.errstate(all="ignore"):  # an unbounded box gives NaN, which prices its cell
            mid = (self.lower + self.upper) / 2.0
            rad = np.nextafter(np.maximum(self.upper - mid, mid - self.lower), np.inf)
            powers = np.arange(d1)
            # [v, k, c]: the k-th power of cell c's box midpoint, and radius, in z_v
            self._mid_pow = np.ascontiguousarray((mid[..., None] ** powers).transpose(1, 2, 0))
            self._rad_pow = np.ascontiguousarray((rad[..., None] ** powers).transpose(1, 2, 0))
            reach = np.max(np.maximum(np.abs(self.lower), np.abs(self.upper)), axis=0,
                           initial=0.0)
            self._magnitude = np.einsum("vkj,vk->j", np.abs(self.coeff_map),
                                        reach[:, None] ** powers)
        self._h_reach = float(np.max(np.abs(self.h_min), initial=0.0))
        # _binomial[k, i] = C(i + k, k) where i + k < d1: a = M @ mid_pow with
        # M[k, i] = C(i + k, k) * coeff[i + k] holds the Taylor coefficients
        i, k = np.indices((d1, d1))
        self._degree_at = np.minimum(i + k, d1 - 1)
        self._binomial = np.where(i + k < d1, np.vectorize(math.comb)(i + k, k), 0.0)
        self._eps = 2.0 * (2 * ncols + 4 * (d1 - 1) + nz + 32) * 2.0 ** -53

    def bounds(self, w: np.ndarray, s: float, phase: int) -> np.ndarray:
        """Per cell, a lower bound of the reduced cost every row of it prices
        at: s + values.w in phase 1, h - (values.w + s) in phase 2, where
        `w` is the pricing vector on the block's columns and `s` the shared
        row's term.  NaN, where the bound overflowed, reads -inf.

        The bound is base + sum over v of min P_v - margin.  Here base is s,
        or h_min - s in phase 2, and P_v is the polynomial in z_v whose
        coefficients are coeff_map[v] @ sigma, with sigma = w, or -w in
        phase 2.  Over the box, P_v is bounded below by its Taylor form at
        the box midpoint c, a_0 - sum_k |a_k| rho^k with a_k = P_v^(k)(c)/k!
        and rho the rounded-up radius: exact in real arithmetic.

        Margin.  Let u = 2^-53, J the block's columns, d the degree, nz the
        scalars, Z_v the largest |z_v| of any box, mag_j = sum over (v, k)
        of |coeff_map[v, k, j]| Z_v^k, T = sum_j |w_j| mag_j, S = |s| and H
        the largest |h_min| (phase 2; 0 in phase 1).  The computed reduced
        cost of a row differs from the exact value of its polynomial by at
        most:
          (a) 8u T from the stored entries, each a power within 3 ulps or
              the rounded difference of two such powers (the assembly);
          (b) (J + 1)u T from the mat-vec, in any summation order;
          (c) 2u (T + S) from adding s, and in phase 2 2u (T + S + H) from
              h - ..., as rounding is monotone and relative to the bound.
        The computed bound differs from the exact Taylor form by at most:
          (e) (J + d + 4)u T from coeff_map @ sigma, the midpoint powers and
              the shifted coefficients: their errors weighted by rho^k sum to
              a multiple of sum_j |coeff_j| (|c| + rho)^j <= T;
          (f) (d + 3)u T from the radius powers and the sum over k;
          (g) (nz + 3)u (T + S + H) from the sums over the scalars, the base
              and the margin.
        These add up to less than (2J + 2d + nz + 23)u (T + S + H) to first
        order; the margin is twice (2J + 4d + nz + 32)u (T + S + H).
        """
        sigma = w if phase == 1 else -w
        coeff = self.coeff_map @ sigma  # (nz, d1)
        with np.errstate(all="ignore"):
            low = s if phase == 1 else self.h_min - s
            for v in range(len(coeff)):
                a = (self._binomial * coeff[v][self._degree_at]) @ self._mid_pow[v]
                low = low + a[0]
                for k in range(1, len(a)):
                    low -= np.abs(a[k]) * self._rad_pow[v, k]
            reach = np.abs(w) @ self._magnitude + abs(s) + (self._h_reach if phase == 2 else 0.0)
            bound = low - self._eps * reach
        bound[np.isnan(bound)] = -np.inf
        return bound


class PolyRows:
    """The values of a row block, made from per-row scalars when they are
    read instead of stored, with the `cells` that index them: `make(*z)`,
    for the scalars z of some rows (one 1-D array per scalar), returns
    those rows' entries, (ncols, len) and C-contiguous, each entry with the
    same bits whichever rows are made with it.  `cells.coeff_map` must
    describe what `make` returns, as pricing and the column maxima trust
    the cell bounds taken from it.  The scenario program's maker calls
    `scp.g3_rows`, which also writes its stored blocks.

    `values[:, rows]` (a row number, a slice, a mask or row numbers) and
    `values.take(rows, axis=1)` make those rows, and `np.asarray(values)`
    makes all of them, each through `_make`, the one call of `make`.  Made
    rows are multiplied only by `_made_product`.  `abs_max`, the largest
    |entry| of each column (NaN if one is NaN), is taken at construction
    from the rows of the cells whose bounds say they may hold it
    (`_abs_max`), a few in 1,000 of the room study's rows.  `nbytes` counts
    the scalars.
    """

    ndim = 2

    def __init__(self, z, cells: Cells, make):
        self.z = [np.asarray(v, dtype=float) for v in z]
        self.cells = cells
        self.make = make
        nz, _, ncols = cells.coeff_map.shape
        if (len(self.z) != nz or len({v.shape for v in self.z}) != 1 or self.z[0].ndim != 1
                or len(cells.order) != len(self.z[0])):
            raise SolverError(f"per-row scalars of shapes {[v.shape for v in self.z]} "
                              f"for {len(cells.order)} rows in cells over {nz} scalars")
        self.shape = (ncols, len(self.z[0]))
        self.abs_max = self._abs_max()

    @property
    def nbytes(self) -> int:
        return sum(v.nbytes for v in self.z)

    def _abs_max(self) -> np.ndarray:
        """The largest |entry| of each column, NaN if one is NaN, made from
        the cells that may hold it.  `Cells.bounds` at +-e_j bounds every
        entry of column j in a cell from below and from above, so a cell
        whose bound of |entry| is at most the largest |entry| made so far in
        every column cannot raise it.  First the cell of each column's top
        bound is made, then, a piece at a time, every cell whose bound still
        exceeds that maximum in some column or overflowed (NaN reads -inf, so
        such a cell is made whatever the maximum).  A piece is at most
        `_MAKE_CHUNK` rows, or the rows of one larger cell cut in pieces of
        `_MAKE_CHUNK` rows, so no temporary of the block's size is made."""
        cells, ncols = self.cells, self.shape[0]
        sizes = np.diff(cells.starts)
        top = np.empty((len(sizes), ncols))  # per cell and column, a bound of |entry|
        for j, e in enumerate(np.eye(ncols)):
            np.maximum(-cells.bounds(e, 0.0, 1), -cells.bounds(-e, 0.0, 1), out=top[:, j])
        abs_max, made = np.zeros(ncols), np.zeros(len(sizes), dtype=bool)
        todo = np.unique(np.argmax(top, axis=0)) if len(top) else np.empty(0, dtype=np.intp)
        while len(todo):
            take = todo[:max(1, int(np.searchsorted(np.cumsum(sizes[todo]), _MAKE_CHUNK,
                                                    side="right")))]
            ids = (cells.order[cells.starts[take[0]]:cells.starts[take[0] + 1]] if len(take) == 1
                   else cells.order[_positions(cells.starts, take)])
            for a in range(0, len(ids), _MAKE_CHUNK):
                part = self.take(ids[a:a + _MAKE_CHUNK])
                np.maximum(abs_max, np.maximum(part.max(axis=1), -part.min(axis=1)), out=abs_max)
            made[take] = True
            todo = np.flatnonzero(~made & np.any((top > abs_max) | (top == np.inf), axis=1))
        return abs_max

    def _make(self, z) -> np.ndarray:
        """The rows of scalars z; every make of this block goes through here
        (`tools/pivot_trace.py` counts makes by wrapping it)."""
        return self.make(*z)

    def __getitem__(self, key):
        if not (isinstance(key, tuple) and len(key) == 2 and isinstance(key[0], slice)
                and key[0] == slice(None)):
            raise IndexError(f"made rows are read as values[:, rows], not values[{key!r}]")
        rows = key[1]
        if isinstance(rows, (int, np.integer)):
            return self._make([v[[rows]] for v in self.z])[:, 0]
        return self._make([v[rows] for v in self.z])

    def take(self, rows, axis: int = 1) -> np.ndarray:
        if axis != 1:
            raise IndexError("made rows are taken along axis 1")
        return self._make([v.take(rows) for v in self.z])

    def __array__(self, dtype=None, copy=None):
        values = self._make(self.z)
        return values if dtype is None else values.astype(dtype, copy=False)


class RowStack:
    """A constraint matrix as a stack of row blocks.

    Block k is `(cols, values, shared)` with `values.shape == (len(cols),
    rows)`: `values[j, p]` is the entry in column `cols[j]` of the block's
    p-th row, and `shared`, an `ncols` vector that is zero on `cols` (or
    None for zeros, which a block given as `(cols, values)` has), holds the
    entries every row of the block has outside `cols`.  `values` either
    stores the entries, an array, or makes them from per-row scalars when
    they are read, `PolyRows`, whose cells the solver screens by (the first
    made block of a stack; the scenario program's sampled block, at
    scale).  A dense row-major matrix is the one block `(arange(ncols),
    G.T, None)`, a view.  Rows that are constant in many columns are stored
    C-contiguous over the others, so a mat-vec reads only the entries that
    vary from row to row.
    """

    def __init__(self, blocks, ncols: int):
        self.ncols = int(ncols)
        self.blocks = []
        for cols, values, *shared in blocks:
            cols = np.asarray(cols, dtype=np.intp)
            if (values.ndim != 2 or values.shape[0] != len(cols)
                    or len(np.unique(cols)) != len(cols)
                    or np.any(cols < 0) or np.any(cols >= self.ncols)):
                raise SolverError(
                    f"row block of shape {values.shape} over columns {cols.tolist()} "
                    f"of {self.ncols}"
                )
            shared = shared[0] if shared else None
            if shared is not None:
                shared = np.asarray(shared, dtype=float)
                if shared.shape != (self.ncols,) or np.any(shared[cols] != 0.0):
                    raise SolverError(
                        f"shared row of shape {shared.shape} must have {self.ncols} "
                        f"entries, zero in the block's columns {cols.tolist()}"
                    )
            if values.shape[1]:
                self.blocks.append((cols, values, shared))
        # first row of each block, then the row count; Python ints, because
        # `row` finds its block with `bisect` on every iteration
        self.starts = list(itertools.accumulate(
            (values.shape[1] for _, values, _ in self.blocks), initial=0
        ))

    @classmethod
    def dense(cls, G) -> "RowStack":
        G = np.ascontiguousarray(np.asarray(G, dtype=float))
        if G.ndim != 2:
            raise SolverError(f"constraint matrix must be 2-D, got shape {G.shape}")
        return cls([(np.arange(G.shape[1]), G.T)], G.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        return self.starts[-1], self.ncols

    def __len__(self) -> int:
        return self.starts[-1]

    @property
    def nbytes(self) -> int:
        """Bytes of the entries: values (for `PolyRows`, their scalars) and
        shared rows, not the cells."""
        return sum(values.nbytes + (0 if shared is None else shared.nbytes)
                   for _, values, shared in self.blocks)

    def _spans(self):
        return zip(self.blocks, self.starts, self.starts[1:])

    def __array__(self, dtype=None, copy=None):
        dense = np.zeros(self.shape)
        for (cols, values, shared), lo, hi in self._spans():
            if shared is not None:
                dense[lo:hi] = shared
            dense[lo:hi, cols] = np.asarray(values).T
        return dense if dtype is None else dense.astype(dtype, copy=False)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """G @ v, run by run of `chunks(_PRICE_CHUNK)`
        (`_product`), so the product has the bits of the reduced costs
        pricing computes, and BLAS threads never split a block's rows other
        than one thread does (two threads over a whole block changed the last
        bit of some rows)."""
        v = np.asarray(v, dtype=float)
        out = np.empty(len(self))
        terms = self._terms(v)
        for start, stop, pieces in self.chunks(_PRICE_CHUNK):
            self._product(pieces, terms, out[start:stop])
        return out

    def _terms(self, v: np.ndarray) -> list:
        """Per block, (v on its columns, its shared row's dot with v or None)."""
        return [(v[cols], None if shared is None else shared @ v)
                for cols, _, shared in self.blocks]

    def _product(self, pieces, terms, r: np.ndarray) -> None:
        """G v on one run of `chunks` into r, given `_terms(v)`: one product
        per piece plus its block's shared-row term.  Each piece of a block
        starts a multiple of the run size into it, where BLAS would start a
        group of rows in one product of the whole block, so every stored row
        has the bits of that product however the runs are cut; made rows
        are multiplied by `_made_product`."""
        for k, a, b, at in pieces:
            w, dot = terms[k]
            part = r[at:at + b - a]
            values = self.blocks[k][1]
            if isinstance(values, PolyRows):
                _made_product(w, values[:, a:b], part)
            else:
                np.matmul(w, values[:, a:b], out=part)
            if dot is not None:
                part += dot

    def row(self, i: int) -> np.ndarray:
        if not 0 <= i < self.starts[-1]:
            raise IndexError(f"row {i} of {len(self)}")
        k = bisect.bisect_right(self.starts, i) - 1
        cols, values, shared = self.blocks[k]
        row = np.zeros(self.ncols) if shared is None else shared.copy()
        row[cols] = values[:, i - self.starts[k]]
        return row

    def chunks(self, size: int, skip: int | None = None):
        """Runs of consecutive rows, in storage order, for streaming over
        the stack: (start, stop, pieces), where piece (k, a, b, at) is
        columns a:b of block k's values, rows start + at onwards of the run.
        Block `skip` is left out, and no run reaches across it.

        A block is cut only every `size` of its own rows, and its last piece
        keeps at least two rows, because BLAS computes a one-row product with
        another kernel, whose sum can round differently.  Shorter pieces
        share a run while it stays within `size` rows, so a stack of small
        blocks is one run.
        """
        start, pieces = 0, []
        for k, lo, hi in zip(itertools.count(), self.starts, self.starts[1:]):
            if k == skip:
                if pieces:
                    yield start, lo, pieces
                start, pieces = hi, []
                continue
            for a, b in _cuts(hi - lo, size):
                if pieces and lo + b - start > size:
                    yield start, lo + a, pieces
                    start, pieces = lo + a, []
                pieces.append((k, a, b, lo + a - start))
        if pieces:
            yield start, len(self), pieces

    def select(self, keep: np.ndarray) -> "RowStack":
        """The rows where the boolean mask `keep` is true, in order, stored
        (a made block's selected rows are made once)."""
        return RowStack([(cols, values[:, keep[lo:hi]], shared)
                         for (cols, values, shared), lo, hi in self._spans()], self.ncols)


def _made_product(w: np.ndarray, rows: np.ndarray, out: np.ndarray) -> None:
    """w @ rows into `out`, for made rows (ncols, L), as one C-contiguous
    product over a multiple of four rows, the rows after the L given ones
    zero.  BLAS computes the last L mod 4 rows of a product on another
    path, whose sums can round differently; padded, every made row is
    computed on the path of the body of a product, and so has the same
    bits in every product it is priced or multiplied in."""
    n = rows.shape[1]
    if n % 4 or not rows.flags.c_contiguous:
        rows = np.concatenate([rows, np.zeros((len(rows), -n % 4))], axis=1)
        out[:] = (w @ rows)[:n]
    else:
        np.matmul(w, rows, out=out)


def _cell_batches(cells: Cells, bounds: np.ndarray, cut):
    """Yield the cells to price together: those whose bound is at most
    `cut()`, in ascending order of bound, with `cut` asked again after each
    batch.  The first batch holds about `_FIRST_BATCH` rows, each later one
    twice as many, up to `_PRICE_CHUNK`."""
    todo = np.flatnonzero(bounds <= cut())
    todo = todo[np.argsort(bounds[todo], kind="stable")]
    sizes = np.diff(cells.starts)
    done, batch = 0, _FIRST_BATCH
    while done < len(todo):
        rows = np.cumsum(sizes[todo[done:]])
        take = todo[done:done + int(np.searchsorted(rows, batch)) + 1]
        done += len(take)
        yield take
        todo = todo[:done + int(np.searchsorted(bounds[todo[done:]], cut(), side="right"))]
        batch = min(2 * batch, _PRICE_CHUNK)


def _positions(starts: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """The positions of the given cells' rows, cell after cell."""
    sizes = starts[cells + 1] - starts[cells]
    ends = np.cumsum(sizes)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts[cells] - ends + sizes, sizes)


def _cuts(rows: int, size: int):
    """(a, b) pieces of `rows` rows, cut every `size` rows; the last keeps at
    least two rows (see `RowStack.chunks`)."""
    cuts = [0, *range(size, rows - 1, size), rows]
    return zip(cuts, cuts[1:])


@dataclass
class LpResult:
    """The record of one solve, from the dual simplex to the report.

    `_DualSimplex` makes it and counts into it while it pivots, so every
    outcome carries the counters: optimal and infeasible, and a
    `SolverError` raised once it exists carries the record too.  At an
    optimum `solve_dense_lp` adds the point `z`, its objective, the final
    working set (`basis_rows`, ascending, with their `multipliers`), the
    largest violation, max(G z - h, 0), and `active_row_ids`, the rows
    within its activity tolerance of their bound, ascending.  Without a
    point `max_violation` is None."""

    status: LpStatus | None = None
    z: np.ndarray | None = None
    objective: float | None = None
    basis_rows: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    multipliers: np.ndarray = field(default_factory=lambda: np.empty(0))
    max_violation: float | None = None
    zero_multipliers: int = 0
    active_row_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    iterations: int = 0
    degenerate_steps: int = 0
    bland_iterations: int = 0
    rows_priced: int = 0  # summed over the pricing passes, one per iteration and phase end


@dataclass(frozen=True)
class LpTolerances:
    """What `solve_dense_lp` accepts: a row violated by at most `feasibility`,
    a reduced cost entering below -`optimality` (a multiplier at most it is
    zero), a pivot entry above `pivot`; rows within `activity` >= `feasibility`
    of their bound are active, so each accepted row counts toward N*, and
    `max_iterations` pivots (the one field a configuration sets) end a solve."""

    feasibility: float = 1e-8
    optimality: float = 1e-8
    activity: float = 1e-7
    pivot: float = 1e-11
    max_iterations: int = 20000


def _pow2_column_scale(G: RowStack) -> np.ndarray:
    """Power-of-two column scales; a NaN or inf entry of G raises SolverError.

    The column maxima of |G| come from the maxima and minima of each stored
    block, both taken from one chunk of `_PRICE_CHUNK` rows while it is in
    cache, from each `PolyRows.abs_max` and from the shared rows, so no
    temporary of G's size is made and no row is made."""
    col_max = np.zeros(G.ncols)
    for cols, values, shared in G.blocks:
        if shared is not None:
            np.maximum(col_max, np.abs(shared), out=col_max)
        if isinstance(values, PolyRows):
            col_max[cols] = np.maximum(col_max[cols], values.abs_max)
    for _, _, pieces in G.chunks(_PRICE_CHUNK):
        for k, a, b, _ in pieces:
            cols, values = G.blocks[k][:2]
            if isinstance(values, PolyRows):
                continue
            part = values[:, a:b]
            col_max[cols] = np.maximum(col_max[cols], np.maximum(np.max(part, axis=1),
                                                                 -np.min(part, axis=1)))
    if not np.all(np.isfinite(col_max)):
        raise SolverError("constraint matrix has non-finite entries")
    col_max[col_max == 0.0] = 1.0
    return 2.0 ** (-np.round(np.log2(col_max)))


class _DualSimplex:
    """Revised simplex on the dual; shared by both phases.

    Works on the column-scaled rows G * scale without forming them: the
    entering row is scaled when it is read, and pricing computes G @ (scale * pi),
    which equals (G * scale) @ pi bit for bit because the scales are powers
    of two.  The entering row (`_entering_row`) and the final G z - h
    (`residual`) both read G through one walk (`_walk`).
    """

    def __init__(self, G, scale, h, b, tolerances: LpTolerances):
        self.G = G
        self.scale = scale
        self.h = h
        self.b = b
        self.m, self.nv = G.shape
        self.opt_tol = tolerances.optimality
        self.pivot_tol = tolerances.pivot
        self.max_iter = tolerances.max_iterations
        self.art_sign = np.where(b >= 0.0, 1.0, -1.0)
        self.basis = np.arange(self.m, self.m + self.nv)
        self.A_B = np.diag(self.art_sign)
        # the made block is priced batch by batch of its cells, the rest in chunks
        self.screened = next((k for k, (_, values, _) in enumerate(G.blocks)
                              if isinstance(values, PolyRows)), None)
        self.chunks = list(G.chunks(_PRICE_CHUNK, skip=self.screened))
        self.chunk_spans = np.array([(start, stop) for start, stop, _ in self.chunks],
                                    dtype=np.intp).reshape(-1, 2).T
        self.scratch = np.empty(max([stop - start for start, stop, _ in self.chunks], default=0))
        self.result = LpResult()  # counted into while pivoting
        self._gathered = {}  # see `_cell_rows`
        self._bland = False
        self._stall = 0

    def _basis_matrix(self) -> np.ndarray:
        """The working set's columns: row i of G, scaled, for a basis entry i < m
        and art_sign[j] at row j for the artificial m + j.  `run_phase` swaps
        in the entering row's column at each pivot, so no basis row is read
        again."""
        return self.A_B

    def _basis_costs(self, phase: int) -> np.ndarray:
        if phase == 1:
            return (self.basis >= self.m).astype(float)
        costs = np.zeros(self.nv)
        real = self.basis < self.m
        costs[real] = self.h[self.basis[real]]
        return costs

    def _walk(self, v: np.ndarray, phase: int, cut, stop=lambda: math.inf, working=True):
        """Yield the reduced costs of G's rows at v, h - G v in phase 2 and
        G v in phase 1 (where the caller negates v), with the working set's
        rows at inf (none with `working` false).

        First the other blocks, run by run in row order, as (start, r) for
        rows start to start + len(r); r is a view of `scratch`, overwritten
        by the next run.  Then the made block, batch by batch of its cells
        (`_cell_batches`), as (ids, r): row numbers and their costs.  A
        batch holds the cells whose bound (`Cells.bounds`) is at most
        `cut()`, which is asked again after each batch.  A run, or the made
        block, whose first row is at or after `stop()` is not priced.
        """
        rows = np.sort(self.basis[self.basis < self.m]) if working else self.basis[:0]
        # run c holds the working-set rows rows[firsts[c]:lasts[c]]
        firsts, lasts = np.searchsorted(rows, self.chunk_spans).tolist()
        terms = self.G._terms(v)
        for (start, end, pieces), i, j in zip(self.chunks, firsts, lasts):
            if start >= stop():
                break
            r = self.scratch[:end - start]
            self.G._product(pieces, terms, r)
            if phase == 2:
                np.subtract(self.h[start:end], r, out=r)
            if i < j:
                r[rows[i:j] - start] = np.inf
            yield start, r
        if self.screened is None or self.G.starts[self.screened] >= stop():
            return
        w, s = terms[self.screened]
        cells = self.G.blocks[self.screened][1].cells
        for take in _cell_batches(cells, cells.bounds(w, 0.0 if s is None else s, phase), cut):
            ids, r = self._price_batch(w, s, take)
            if phase == 2:
                np.subtract(self.h[ids], r, out=r)
            if len(rows):
                r[np.isin(ids, rows)] = np.inf
            yield ids, r

    def _entering_row(self, v: np.ndarray, phase: int) -> int | None:
        """The row Dantzig's rule (the lowest reduced cost, the lowest row on
        ties) or, during a stall, Bland's (the lowest eligible row) enters;
        None at optimality.  A NaN reduced cost raises SolverError.

        Dantzig's rule prices the cells whose bound is at most the best
        reduced cost so far.  Bland's prices every cell whose bound is below
        -opt_tol, and no run or block after the first eligible row found."""
        best, enter, bland = -self.opt_tol, None, self._bland
        below = np.nextafter(best, -np.inf)  # bound <= below is bound < -opt_tol
        for at, r in self._walk(v, phase, lambda: below if bland else best,
                                lambda: math.inf if enter is None or not bland else enter):
            self.result.rows_priced += len(r)
            chunk = isinstance(at, int)
            i = int(np.argmin(r))  # the first NaN, if r has one
            low = r[i]
            if math.isnan(low):
                raise SolverError(f"NaN reduced cost of row {at + i if chunk else at[i]} "
                                  f"in phase {phase}", status=LpStatus.ITERATION_LIMIT.value)
            if bland:
                if low < best:
                    eligible = r < best
                    first = at + int(np.argmax(eligible)) if chunk else int(at[eligible].min())
                    enter = first if enter is None else min(enter, first)
            elif low < best or (low == best and enter is not None):
                first = at + i if chunk else int(at[r == low].min())
                if low < best or first < enter:
                    best, enter = low, first
        return enter

    def _cell_rows(self, take: np.ndarray) -> np.ndarray:
        """The rows of the cells `take`, cell after cell, C-contiguous.  Each
        cell's rows are made once per solve, those of every cell not made
        yet in one `values.take`, and kept: pricing reads the same cells
        again and again (on the prior baseline about 90k distinct rows, each
        some 8 times)."""
        cols, values, _ = self.G.blocks[self.screened]
        starts = values.cells.starts
        new = np.array([c for c in take.tolist() if c not in self._gathered], dtype=np.intp)
        if len(new):
            rows = values.take(values.cells.order[_positions(starts, new)], axis=1)
            sizes = starts[new + 1] - starts[new]
            self._gathered.update(zip(new.tolist(),
                                      np.split(rows, np.cumsum(sizes)[:-1], axis=1)))
        return np.concatenate([np.empty((len(cols), 0))]
                              + [self._gathered[c] for c in take.tolist()], axis=1)

    def _price_batch(self, w: np.ndarray, s: float | None, take: np.ndarray):
        """(ids, r): the rows of the cells `take`, cell after cell, and
        w . row + s for each (s None for no shared row), at most
        `_PRICE_CHUNK` rows to a product (`_made_product`), so each has the
        bits `RowStack.matvec` gives it."""
        cells = self.G.blocks[self.screened][1].cells
        ids = self.G.starts[self.screened] + cells.order[_positions(cells.starts, take)].astype(
            np.intp)
        columns = self._cell_rows(take)
        r = np.empty(len(ids))
        for a in range(0, len(ids), _PRICE_CHUNK):
            _made_product(w, columns[:, a:a + _PRICE_CHUNK], r[a:a + _PRICE_CHUNK])
        if s is not None:
            r += s
        return ids, r

    def residual(self, z: np.ndarray, activity: float) -> tuple[float, np.ndarray]:
        """(the largest entry of G z - h, the rows where |G z - h| <= activity,
        ascending), with the bits of `RowStack.matvec(z) - h` but for the
        sign of a zero: the walk's phase-2 costs h - G z, with no working
        set, negated.

        A cell of the made block is evaluated, in ascending order of
        its bound of h - G z, only while the bound leaves room for an active
        row (bound <= activity) or for a row above the largest entry so far
        (bound < -largest); its rows come from those pricing gathered.
        Where every row is proven below -activity the largest entry reads
        -inf."""
        tops, active = [], [np.empty(0, dtype=np.intp)]
        for at, r in self._walk(z, 2, lambda: max(activity, -np.max(tops, initial=-np.inf)),
                                working=False):
            np.negative(r, out=r)
            tops.append(r.max())
            near = np.flatnonzero((r >= -activity) & (r <= activity))
            active.append(at + near if isinstance(at, int) else at[near])
        return float(np.max(tops, initial=-np.inf)), np.sort(np.concatenate(active))

    def run_phase(self, phase: int) -> tuple[str, np.ndarray, np.ndarray]:
        """Returns (outcome, pi, x_B); outcome in {"optimal", "unbounded"}."""
        while True:
            if self.result.iterations >= self.max_iter:
                raise SolverError(
                    f"iteration limit {self.max_iter} reached in phase {phase}",
                    status=LpStatus.ITERATION_LIMIT.value,
                )
            A_B = self._basis_matrix()
            try:
                x_B = np.linalg.solve(A_B, self.b)
                c_B = self._basis_costs(phase)
                pi = np.linalg.solve(A_B.T, c_B)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"singular working set in phase {phase}: {exc}",
                                  status=LpStatus.ITERATION_LIMIT.value) from exc
            if not np.all(np.isfinite(pi)):
                raise SolverError(f"non-finite multipliers in phase {phase}",
                                  status=LpStatus.ITERATION_LIMIT.value)
            # phase 1 prices -(G @ v) as G @ -v, bit for bit: negation is exact
            v = self.scale * pi
            enter = self._entering_row(-v if phase == 1 else v, phase)
            if enter is None:
                return "optimal", pi, x_B
            if self._bland:
                self.result.bland_iterations += 1
            a_q = self.G.row(enter) * self.scale
            w = np.linalg.solve(A_B, a_q)
            leave_pos, theta = self._choose_leaving(x_B, w, phase)
            if leave_pos is None:
                return "unbounded", pi, x_B
            self.basis[leave_pos] = enter
            self.A_B[:, leave_pos] = a_q
            self.result.iterations += 1
            if theta <= 1e-11:
                self.result.degenerate_steps += 1
                self._stall += 1
                if self._stall >= _STALL_LIMIT:
                    self._bland = True
            else:
                self._stall = 0
                self._bland = False

    def _choose_leaving(self, x_B, w, phase):
        art = self.basis >= self.m
        xb = np.maximum(x_B, 0.0)
        if phase == 2:
            # Zero-level artificials must not change value: force them out
            # of the working set before taking any step.
            forced = np.flatnonzero(art & (np.abs(w) > self.pivot_tol) & (xb <= 1e-7))
            if forced.size:
                pick = forced[int(np.argmax(np.abs(w[forced])))]
                return int(pick), 0.0
        candidates = np.flatnonzero(w > self.pivot_tol)
        if candidates.size == 0:
            return None, 0.0
        ratios = xb[candidates] / w[candidates]
        theta = float(np.min(ratios))
        near = candidates[ratios <= theta + 1e-9 * (1.0 + abs(theta))]
        if self._bland:
            pick = near[int(np.argmin(self.basis[near]))]
        else:
            pick = near[int(np.argmax(w[near]))]
        return int(pick), theta


def solve_dense_lp(
    cost: np.ndarray,
    G: np.ndarray,
    h: np.ndarray,
    tolerances: LpTolerances = LpTolerances(),
) -> LpResult:
    """Solve min cost.z s.t. G z <= h; see module docstring for the method.

    G is a `RowStack` or anything `np.asarray` makes a 2-D matrix of.  A
    made block of G trusts its cells' `h_min` to bound `h`.  At an optimum
    the rows with |G z - h| <= tolerances.activity are `active_row_ids`;
    G z - h is screened (`_DualSimplex.residual`), so no m-long vector is
    made.

    The program must be bounded below: cost.d >= 0 wherever G d <= 0.  By
    Farkas' lemma (Bertsimas and Tsitsiklis, *Introduction to Linear
    Optimization*, 1997, section 4.6) its dual is then feasible for every
    h, so phase 1 drives its artificials to 0 and the solve ends optimal
    or, on a dual ray in phase 2, infeasible.  Any other end of phase 1 is
    rounding, or a program unbounded below: SolverError, status
    iteration-limit, record attached.  The scenario program (`scp`) is
    bounded below by construction; for d with G d <= 0:
      - K, the objective entry, enters only the sampled rows, with -1;
      - the cap rows (|c_j| <= scale_j s_j, each group's sum of s <=
        bound) force every coefficient c and split s to 0;
      - g1, g2 and the two head rows then read cap >= 0, floor <= 0,
        T budget <= floor - cap and budget >= 0, so the budget is 0;
      - so every sampled row reads -d_K <= 0: d_K >= 0.
    """
    if not isinstance(G, RowStack):
        G = RowStack.dense(G)
    h = np.asarray(h, dtype=float).ravel()
    cost = np.asarray(cost, dtype=float).ravel()
    m, nv = G.shape
    if h.shape != (m,) or cost.shape != (nv,):
        raise SolverError(f"shape mismatch: G {G.shape}, h {h.shape}, cost {cost.shape}")
    if m < 1:
        raise SolverError("problem has no rows")
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(cost))):
        raise SolverError("right-hand side or cost has non-finite entries")

    scale = _pow2_column_scale(G)
    b = -(cost * scale)

    engine = _DualSimplex(G, scale, h, b, tolerances)
    try:
        outcome, pi, x_B = engine.run_phase(1)
        art_level = float(np.sum(np.maximum(x_B[engine.basis >= m], 0.0)))
        if outcome == "unbounded" or art_level > 1e-8 * (1.0 + float(np.max(np.abs(b)))):
            ended = ("reported an unbounded ray" if outcome == "unbounded"
                     else f"left its artificials at {art_level:.3e}")
            raise SolverError(f"phase 1 {ended}: the dual is infeasible, so the program is "
                              f"not bounded below or rounding broke the solve",
                              status=LpStatus.ITERATION_LIMIT.value)
        result = engine.result

        outcome, pi, x_B = engine.run_phase(2)
        if outcome == "unbounded":
            result.status = LpStatus.INFEASIBLE
            return result

        z = pi * scale
        max_violation, active = engine.residual(z, tolerances.activity)
        if not max_violation <= tolerances.feasibility:  # a NaN fails too
            raise SolverError(
                f"optimal basis violates feasibility tolerance: {max_violation:.3e} > "
                f"{tolerances.feasibility:.0e}",
                status=LpStatus.ITERATION_LIMIT.value,
            )
        real = engine.basis < m
        order = np.argsort(engine.basis[real])
        result.status = LpStatus.OPTIMAL
        result.z = z
        result.objective = float(cost @ z)
        result.basis_rows = np.sort(engine.basis[real])
        result.multipliers = np.maximum(x_B[real][order], 0.0)
        result.max_violation = max(0.0, max_violation)  # an exact zero reads +0.0
        result.zero_multipliers = int(np.sum(result.multipliers <= tolerances.optimality))
        result.active_row_ids = active
        return result
    except SolverError as exc:
        exc.result = engine.result
        raise
