"""Dense two-phase active-set solver for tall inequality-form linear programs.

Solves   min cost.z   s.t.  G z <= h   for problems with a handful of
variables (tens) and very many rows (1e5..1e6).  The working set of at most
nvars rows is maintained as the basis of the dual standard-form program

    min h.y   s.t.  G' y = -cost,   y >= 0,

so each iteration prices every row with one mat-vec per row block of G (see
`RowStack`) and refactorises only an nvars x nvars basis.  At optimality the
dual basis IS the active set of the original program and the simplex
multipliers of that basis are its solution, which this module re-solves from
the final working set so the returned point satisfies its active rows to
machine precision.

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
        # first row of each block, then the row count; Python ints, because the
        # small-LP basis reads a few rows per iteration through `row`
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

    The column maxima of |G| come from the maxima and minima of each block
    and from its shared row, so no temporary of G's size is made."""
    col_max = np.zeros(G.ncols)
    for cols, values, shared in G.blocks:
        if shared is not None:
            np.maximum(col_max, np.abs(shared), out=col_max)
        block_max = np.maximum(np.max(values, axis=1), -np.min(values, axis=1))
        col_max[cols] = np.maximum(col_max[cols], block_max)
    if not np.all(np.isfinite(col_max)):
        raise SolverError("constraint matrix has non-finite entries")
    col_max[col_max == 0.0] = 1.0
    return 2.0 ** (-np.round(np.log2(col_max)))


class _DualSimplex:
    """Revised simplex on the dual; shared by both phases.

    Works on the column-scaled rows G * scale without forming them: a basis
    row is scaled when it is read, and pricing computes G @ (scale * pi),
    which equals (G * scale) @ pi bit for bit because the scales are powers
    of two.  The m-long reduced costs reuse one buffer across iterations.
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
        self.reduced = np.empty(self.m)
        self.iterations = 0
        self.degenerate_steps = 0
        self.bland_iterations = 0
        self._bland = False
        self._stall = 0

    def _basis_matrix(self) -> np.ndarray:
        A = np.zeros((self.nv, self.nv))
        for pos, col in enumerate(self.basis):
            if col < self.m:
                A[:, pos] = self.G.row(col) * self.scale
            else:
                A[col - self.m, pos] = self.art_sign[col - self.m]
        return A

    def _basis_costs(self, phase: int) -> np.ndarray:
        if phase == 1:
            return (self.basis >= self.m).astype(float)
        costs = np.zeros(self.nv)
        real = self.basis < self.m
        costs[real] = self.h[self.basis[real]]
        return costs

    def run_phase(self, phase: int, max_iter: int) -> tuple[str, np.ndarray, np.ndarray]:
        """Returns (outcome, pi, x_B); outcome in {"optimal", "unbounded"}."""
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
            if phase == 1:
                # -(G @ v) == G @ -v bit for bit: negation is exact
                reduced = self.G.matvec(-(self.scale * pi), out=self.reduced)
            else:
                reduced = self.G.matvec(self.scale * pi, out=self.reduced)
                np.subtract(self.h, reduced, out=reduced)
            reduced[self.basis[self.basis < self.m]] = np.inf
            if self._bland:
                eligible = reduced < -self.opt_tol
                enter = int(np.argmax(eligible))  # the first eligible row
                if not eligible[enter]:
                    return "optimal", pi, x_B
                self.bland_iterations += 1
            else:
                enter = int(np.argmin(reduced))
                if reduced[enter] >= -self.opt_tol:
                    return "optimal", pi, x_B
            w = np.linalg.solve(A_B, self.G.row(enter) * self.scale)
            leave_pos, theta = self._choose_leaving(x_B, w, phase)
            if leave_pos is None:
                return "unbounded", pi, x_B
            self.basis[leave_pos] = enter
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
    resid = G.matvec(z, out=engine.reduced)
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
