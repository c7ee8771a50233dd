"""Dense two-phase active-set solver for tall inequality-form linear programs.

Solves   min cost.z   s.t.  G z <= h   for problems with a handful of
variables (tens) and very many rows (1e5..1e6).  The working set of at most
nvars rows is maintained as the basis of the dual standard-form program

    min h.y   s.t.  G' y = -cost,   y >= 0,

so each iteration prices every row of G (see `RowStack`) and refactorises
only an nvars x nvars basis.  Pricing streams each row block in chunks of
`_PRICE_CHUNK` rows: one mat-vec into a scratch buffer that stays in cache,
the shared row's term, `h` minus the product, the working set masked out and
the entering row chosen, all before the next chunk is read.  No m-long
vector is formed while iterating, and on one BLAS thread the reduced costs
are bit for bit those of one mat-vec per block.  At optimality the dual
basis IS the active set of the original program and the simplex multipliers
of that basis are its solution, which this module re-solves from the final
working set so the returned point satisfies its active rows to machine
precision.

Pivoting is Dantzig's rule with first-index tie-breaks; while the iteration
stalls on degenerate vertices it switches to Bland's rule, which cannot
cycle, and reverts once a positive step is taken.  Everything is
deterministic for identical input.  Variable columns are equilibrated by
powers of two (exact in floating point) so monomial columns of wildly
different magnitude do not poison the pivot tolerances.
"""

import bisect
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import SolverError

# Rows priced per step of the pricing loop: the chunk's reduced costs (128 KB)
# stay in L2 from the mat-vec to the entering-row choice.  A multiple of 64,
# so chunks start where BLAS starts a group of rows (see `_DualSimplex`).
# 8192 to 65536 priced the prior baseline's LP within 5% of each other.
_PRICE_CHUNK = 16384


class LpStatus(str, Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration-limit"


class RowStack:
    """A constraint matrix stored as a stack of row blocks.

    Block k is `(cols, values, shared)` with `values.shape == (len(cols),
    rows)`: `values[j, i]` is the entry of its i-th row in column `cols[j]`,
    and `shared`, an `ncols` vector that is zero on `cols` (or None for
    zeros), holds the entries every row of the block has outside `cols`.  A
    dense row-major matrix is the one block `(arange(ncols), G.T, None)`, a
    view.  Rows that are constant in many columns are stored C-contiguous
    over the others, so a mat-vec reads only the entries that vary from row
    to row.  `np.asarray` gives the dense matrix.
    """

    def __init__(self, blocks, ncols: int):
        self.ncols = int(ncols)
        self.blocks = []
        for cols, values, *rest in blocks:
            cols = np.asarray(cols, dtype=np.intp)
            if (values.ndim != 2 or values.shape[0] != len(cols)
                    or len(np.unique(cols)) != len(cols)
                    or np.any(cols < 0) or np.any(cols >= self.ncols)):
                raise SolverError(
                    f"row block of shape {values.shape} over columns {cols.tolist()} "
                    f"of {self.ncols}"
                )
            shared = rest[0] if rest else None
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
        return sum(values.nbytes + (0 if shared is None else shared.nbytes)
                   for _, values, shared in self.blocks)

    def _spans(self):
        return zip(self.blocks, self.starts, self.starts[1:])

    def __array__(self, dtype=None, copy=None):
        dense = np.zeros(self.shape)
        for (cols, values, shared), lo, hi in self._spans():
            if shared is not None:
                dense[lo:hi] = shared
            dense[lo:hi, cols] = values.T
        return dense if dtype is None else dense.astype(dtype, copy=False)

    def matvec(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """G @ v, one `np.matmul` per block plus its shared row's dot, into `out`
        when given."""
        v = np.asarray(v, dtype=float)
        out = np.empty(len(self)) if out is None else out
        for (cols, values, shared), lo, hi in self._spans():
            np.matmul(v[cols], values, out=out[lo:hi])
            if shared is not None:
                out[lo:hi] += shared @ v
        return out

    def row(self, i: int) -> np.ndarray:
        if not 0 <= i < self.starts[-1]:
            raise IndexError(f"row {i} of {len(self)}")
        k = bisect.bisect_right(self.starts, i) - 1
        cols, values, shared = self.blocks[k]
        row = np.zeros(self.ncols) if shared is None else shared.copy()
        row[cols] = values[:, i - self.starts[k]]
        return row

    def chunks(self, size: int):
        """Runs of consecutive rows, in row order, for streaming over the
        stack: (start, stop, pieces), where piece (k, a, b, at) is columns
        a:b of block k's values, rows start + at onwards of the run.

        A block is cut only every `size` of its own rows, and its last piece
        keeps at least two rows, because BLAS computes a one-row product with
        another kernel, whose sum can round differently.  Shorter pieces
        share a run while it stays within `size` rows, so a stack of small
        blocks is one run.
        """
        start, pieces = 0, []
        for k, lo, hi in zip(itertools.count(), self.starts, self.starts[1:]):
            cuts = [0, *range(size, hi - lo - 1, size), hi - lo]
            for a, b in zip(cuts, cuts[1:]):
                if pieces and lo + b - start > size:
                    yield start, lo + a, pieces
                    start, pieces = lo + a, []
                pieces.append((k, a, b, lo + a - start))
        if pieces:
            yield start, len(self), pieces

    def select(self, keep: np.ndarray) -> "RowStack":
        """The rows where the boolean mask `keep` is true, in order."""
        return RowStack(
            [(cols, values[:, keep[lo:hi]], shared)
             for (cols, values, shared), lo, hi in self._spans()],
            self.ncols,
        )

    def with_rows(self, cols, values: np.ndarray, shared: np.ndarray | None = None) -> "RowStack":
        """This stack with the block (cols, values, shared) appended after its last row."""
        return RowStack(self.blocks + [(cols, values, shared)], self.ncols)


@dataclass
class DenseLpResult:
    status: LpStatus
    z: np.ndarray | None
    objective: float | None
    basis_rows: np.ndarray
    multipliers: np.ndarray
    iterations: int
    degenerate_steps: int
    bland_iterations: int
    max_violation: float
    zero_multipliers: int
    residual: np.ndarray | None = None  # G z - h at the returned z


def _pow2_column_scale(G: RowStack) -> np.ndarray:
    """Power-of-two column scales; a NaN or inf entry of G raises SolverError.

    The column maxima of |G| come from the maxima and minima of each block,
    both taken from one chunk of `_PRICE_CHUNK` rows while it is in cache,
    and from its shared row, so no temporary of G's size is made."""
    col_max = np.zeros(G.ncols)
    for _, _, shared in G.blocks:
        if shared is not None:
            np.maximum(col_max, np.abs(shared), out=col_max)
    for _, _, pieces in G.chunks(_PRICE_CHUNK):
        for k, a, b, _ in pieces:
            cols, values, _ = G.blocks[k]
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
    of two.  Pricing runs chunk by chunk (`G.chunks(_PRICE_CHUNK)`) through
    one scratch buffer; each piece of a block starts a multiple of
    `_PRICE_CHUNK` rows into it, where BLAS would start a group of rows in
    one product of the whole block, so every reduced cost keeps its bits.
    """

    def __init__(self, G, scale, h, b, opt_tol, pivot_tol, stall_limit):
        self.G = G
        self.scale = scale
        self.h = h
        self.b = b
        self.m, self.nv = G.shape
        self.opt_tol = opt_tol
        self.pivot_tol = pivot_tol
        self.stall_limit = stall_limit
        self.art_sign = np.where(b >= 0.0, 1.0, -1.0)
        self.basis = np.arange(self.m, self.m + self.nv)
        self.A_B = np.diag(self.art_sign)
        self.chunks = list(G.chunks(_PRICE_CHUNK))
        self.chunk_starts = np.array([start for start, _, _ in self.chunks] + [self.m])
        self.iterations = 0
        self.degenerate_steps = 0
        self.bland_iterations = 0
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

    def new_scratch(self) -> np.ndarray:
        return np.empty(max(stop - start for start, stop, _ in self.chunks))

    def reduced_costs(self, v: np.ndarray, phase: int, scratch: np.ndarray):
        """Yield (start, r), chunk by chunk in row order: the reduced costs of
        rows start to start + len(r), h - G v in phase 2 and G v in phase 1
        (where the caller negates v), with the working-set rows at inf.

        `r` is a view of `scratch` (from `new_scratch`), overwritten by the
        next chunk."""
        v_cols = [v[cols] for cols, _, _ in self.G.blocks]
        dots = [None if shared is None else shared @ v for _, _, shared in self.G.blocks]
        rows = np.sort(self.basis[self.basis < self.m])
        # run c holds the working-set rows rows[cuts[c]:cuts[c + 1]]
        cuts = np.searchsorted(rows, self.chunk_starts).tolist()
        for (start, stop, pieces), i, j in zip(self.chunks, cuts, cuts[1:]):
            r = scratch[:stop - start]
            for k, a, b, at in pieces:
                part = r[at:at + b - a]
                np.matmul(v_cols[k], self.G.blocks[k][1][:, a:b], out=part)
                if dots[k] is not None:
                    part += dots[k]
            if phase == 2:
                np.subtract(self.h[start:stop], r, out=r)
            if i < j:
                r[rows[i:j] - start] = np.inf
            yield start, r

    def _entering_row(self, v: np.ndarray, phase: int, scratch: np.ndarray) -> int | None:
        """The row Dantzig's rule (the lowest reduced cost, first on ties) or,
        during a stall, Bland's (the first eligible row) enters; None at
        optimality.  A NaN reduced cost raises SolverError."""
        best, enter = -self.opt_tol, None
        for start, r in self.reduced_costs(v, phase, scratch):
            low = r.min()  # NaN if r has one; argmin only where a chunk improves
            if math.isnan(low):
                raise SolverError(f"NaN reduced cost of row {start + int(np.argmin(r))} "
                                  f"in phase {phase}", status=LpStatus.ITERATION_LIMIT.value)
            if low < best:  # strict: an equal minimum in a later chunk is a later row
                if self._bland:  # the chunks after this one are not priced
                    return start + int(np.argmax(r < -self.opt_tol))
                best, enter = low, start + int(np.argmin(r))
        return enter

    def run_phase(self, phase: int, max_iter: int) -> tuple[str, np.ndarray, np.ndarray]:
        """Returns (outcome, pi, x_B); outcome in {"optimal", "unbounded"}."""
        scratch = self.new_scratch()
        while True:
            if self.iterations >= max_iter:
                raise SolverError(
                    f"iteration limit {max_iter} reached in phase {phase}",
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
            enter = self._entering_row(-v if phase == 1 else v, phase, scratch)
            if enter is None:
                return "optimal", pi, x_B
            if self._bland:
                self.bland_iterations += 1
            a_q = self.G.row(enter) * self.scale
            w = np.linalg.solve(A_B, a_q)
            leave_pos, theta = self._choose_leaving(x_B, w, phase)
            if leave_pos is None:
                return "unbounded", pi, x_B
            self.basis[leave_pos] = enter
            self.A_B[:, leave_pos] = a_q
            self.iterations += 1
            if theta <= 1e-11:
                self.degenerate_steps += 1
                self._stall += 1
                if self._stall >= self.stall_limit:
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
    opt_tol: float = 1e-9,
    pivot_tol: float = 1e-11,
    feas_tol: float = 1e-8,
    max_iter: int = 20000,
    stall_limit: int = 64,
    _allow_probe: bool = True,
) -> DenseLpResult:
    """Solve min cost.z s.t. G z <= h; see module docstring for the method.

    G is a `RowStack` or anything `np.asarray` makes a 2-D matrix of."""
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

    engine = _DualSimplex(G, scale, h, b, opt_tol, pivot_tol, stall_limit)
    outcome, pi, x_B = engine.run_phase(1, max_iter)
    if outcome == "unbounded":
        # Phase 1 minimises a sum of non-negative artificials; an unbounded
        # ray here can only be numerical noise.
        raise SolverError("phase 1 reported an unbounded ray",
                          status=LpStatus.ITERATION_LIMIT.value)
    art_level = float(np.sum(np.maximum(x_B[engine.basis >= m], 0.0)))
    if art_level > 1e-8 * (1.0 + float(np.max(np.abs(b)))):
        # Dual infeasible: the original program is unbounded or infeasible.
        if _allow_probe and _primal_feasible(G, h, feas_tol, opt_tol, pivot_tol,
                                             max_iter, stall_limit):
            return _failure(LpStatus.UNBOUNDED, engine)
        return _failure(LpStatus.INFEASIBLE if _allow_probe else LpStatus.UNBOUNDED, engine)

    outcome, pi, x_B = engine.run_phase(2, max_iter)
    if outcome == "unbounded":
        return _failure(LpStatus.INFEASIBLE, engine)

    z = pi * scale
    resid = G.matvec(z)
    resid -= h
    max_violation = float(np.max(resid)) if m else 0.0
    real = engine.basis < m
    basis_rows = np.sort(engine.basis[real])
    order = np.argsort(engine.basis[real])
    multipliers = np.maximum(x_B[real][order], 0.0)
    zero_mult = int(np.sum(multipliers <= opt_tol))
    if max_violation > feas_tol:
        raise SolverError(
            f"optimal basis violates feasibility tolerance: {max_violation:.3e} > {feas_tol:.0e}",
            status=LpStatus.ITERATION_LIMIT.value,
        )
    return DenseLpResult(
        status=LpStatus.OPTIMAL,
        z=z,
        objective=float(cost @ z),
        basis_rows=basis_rows,
        multipliers=multipliers,
        iterations=engine.iterations,
        degenerate_steps=engine.degenerate_steps,
        bland_iterations=engine.bland_iterations,
        max_violation=max(max_violation, 0.0),
        zero_multipliers=zero_mult,
        residual=resid,
    )


def _failure(status: LpStatus, engine: _DualSimplex) -> DenseLpResult:
    return DenseLpResult(
        status=status,
        z=None,
        objective=None,
        basis_rows=np.empty(0, dtype=int),
        multipliers=np.empty(0),
        iterations=engine.iterations,
        degenerate_steps=engine.degenerate_steps,
        bland_iterations=engine.bland_iterations,
        max_violation=math.inf,
        zero_multipliers=0,
    )


def _primal_feasible(G: RowStack, h, feas_tol, opt_tol, pivot_tol, max_iter,
                     stall_limit) -> bool:
    """Distinguish unbounded from infeasible: min t s.t. Gz - t <= h, t >= -1.

    Always feasible and bounded, so the recursive solve cannot probe again.
    The column of t is -1 in every row of G, so it goes into each block's
    shared row and no block is copied.
    """
    m, nv = G.shape
    G_aux = RowStack(
        [(cols, values, np.append(np.zeros(nv) if shared is None else shared, -1.0))
         for cols, values, shared in G.blocks]
        + [([nv], np.full((1, 1), -1.0))],
        nv + 1,
    )
    h_aux = np.concatenate([h, [1.0]])
    cost_aux = np.zeros(nv + 1)
    cost_aux[nv] = 1.0
    res = solve_dense_lp(
        cost_aux, G_aux, h_aux,
        opt_tol=opt_tol, pivot_tol=pivot_tol, feas_tol=feas_tol,
        max_iter=max_iter, stall_limit=stall_limit, _allow_probe=False,
    )
    if res.status != LpStatus.OPTIMAL or res.objective is None:
        raise SolverError("feasibility probe failed to solve",
                          status=LpStatus.ITERATION_LIMIT.value)
    return res.objective <= feas_tol
