"""Print a fingerprint of the LP's pivot path for room configurations, for comparing two trees.

Usage (from the root of a source checkout):

    python3 tools/pivot_trace.py N SEED [N SEED ...]

Each pair assembles the room case study's scenario program with N samples
drawn with scenario seed SEED, exactly as synthesis does, solves it with
`safesynth.scp.solve_lp` at the solver's tolerances, and prints one
JSON line: the sha256 of the assembled program (every row of G as a dense
float64 row, in order, then h and the row tags; so it is the same for the
same rows however the row blocks store them), the iteration and
degenerate-step counts, the rows priced (summed over the pricing passes,
so equal counts mean screened pricing read the same cells), the sha256 of
the sequence of working sets (every basis the dual simplex factorised, in
order), the objective as `float.hex`, the sha256 of the solution vector and
of the active row ids, `max_violation`, and `makes` and `rows_made`: the
calls of `lp.PolyRows._make` during the solve and the rows they made (the
sampled block's rows, made from its samples by `scp.g3_rows` where the
solve reads them), and `assembly_makes` and `assembly_rows_made`, the
same counts while the program is assembled (the made block's column
maxima).  The solver is wrapped from outside `src/`, so the same script
runs against any tree:

    python3 tools/pivot_trace.py 20000 2025 140000 2025 > A.jsonl
    (cd OTHER_TREE && python3 tools/pivot_trace.py 20000 2025 140000 2025) > B.jsonl
    diff A.jsonl B.jsonl

Identical lines mean the same program, pivots, point and active set; only
`makes`, `rows_made` and the assembly counts may differ between trees that
read the made block in fewer or more pieces.  Between a tree that
multiplies the made block's last N % 4 rows on their own and one that pads
every product of made rows to a multiple of four rows (N >= 131,072 and
N % 4 != 0), `rows_priced` may differ too: those rows then join their cells
and are priced only when their cells are.
"""

import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from safesynth import lp  # noqa: E402
from safesynth.pipeline import _row_inputs, room_casestudy_config, validate_config  # noqa: E402
from safesynth.plant import Role, collect, make_plant  # noqa: E402
from safesynth.scp import build_problem, solve_lp  # noqa: E402


def _sha256(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class _Recording:
    """Within the `with` block, hash every working set the dual simplex
    factorises, and count the calls of `PolyRows._make` and the rows made."""

    def __enter__(self):
        self.digest = hashlib.sha256()
        self.count = self.makes = self.rows_made = 0
        self.basis_matrix = lp._DualSimplex._basis_matrix
        self.make = lp.PolyRows._make

        def recording_basis_matrix(engine):
            self.digest.update(np.asarray(engine.basis, dtype=np.int64).tobytes())
            self.count += 1
            return self.basis_matrix(engine)

        def counting_make(values, z):
            self.makes += 1
            self.rows_made += len(z[0])
            return self.make(values, z)

        lp._DualSimplex._basis_matrix = recording_basis_matrix
        lp.PolyRows._make = counting_make
        return self

    def __exit__(self, *exc):
        lp._DualSimplex._basis_matrix = self.basis_matrix
        lp.PolyRows._make = self.make

    def fields(self) -> dict:
        return {"bases": self.count, "bases_sha256": self.digest.hexdigest(),
                "makes": self.makes, "rows_made": self.rows_made}


def _program_sha256(problem) -> str:
    """sha256 of G row by row (dense, `lp._PRICE_CHUNK` rows at a time), then h and tags."""
    digest = hashlib.sha256()
    G = problem.G
    for start, stop, pieces in G.chunks(lp._PRICE_CHUNK):
        rows = np.zeros((stop - start, G.ncols))
        for k, a, b, at in pieces:
            cols, values, shared = G.blocks[k][:3]
            if shared is not None:
                rows[at:at + b - a] = shared
            rows[at:at + b - a, cols] = values[:, a:b].T
        digest.update(rows.tobytes())
    digest.update(np.ascontiguousarray(problem.h, dtype=np.float64).tobytes())
    digest.update(np.ascontiguousarray(problem.tags, dtype=np.int8).tobytes())
    return digest.hexdigest()


def trace_case(n: int, seed: int) -> dict:
    config = validate_config(room_casestudy_config(
        n_scenario=n, n_validation=max(n // 2, 1), seed_scenario=seed, seed_validation=9090,
    ))
    plant = make_plant(config.plant_spec)
    try:
        dataset = collect(plant, config.space(), n, seed, Role.SCENARIO)
    finally:
        plant.close()
    with _Recording() as assembly:
        problem = build_problem(config.layout(), dataset, *_row_inputs(config))
    del dataset
    program = _program_sha256(problem)

    with _Recording() as recording:
        solution = solve_lp(problem, config.tolerances)
    return {
        "n": n,
        "seed": seed,
        "assembly_makes": assembly.makes,
        "assembly_rows_made": assembly.rows_made,
        "program_sha256": program,
        "status": solution.status.value,
        "iterations": solution.iterations,
        "degenerate_steps": solution.degenerate_steps,
        "rows_priced": solution.rows_priced,
        **recording.fields(),
        "objective": None if solution.objective is None else solution.objective.hex(),
        "z_sha256": None if solution.z is None else _sha256(solution.z),
        "active_sha256": _sha256(np.asarray(solution.active_row_ids, dtype=np.int64)),
        "max_violation": solution.max_violation,
    }


def main(argv: list) -> int:
    if not argv or len(argv) % 2:
        print("usage: python3 tools/pivot_trace.py N SEED ...", file=sys.stderr)
        return 3
    for n, seed in zip(argv[::2], argv[1::2]):
        print(json.dumps(trace_case(int(n), int(seed)), sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
