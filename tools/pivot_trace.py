"""Print a fingerprint of the LP's pivot path for room configurations, for comparing two trees.

Usage (from the root of a source checkout):

    python3 tools/pivot_trace.py N SEED [N SEED ...]

Each pair assembles the room case study's scenario program with N samples
drawn with scenario seed SEED, exactly as synthesis does, solves it with
`safesynth.scp.solve_lp` at the configuration's tolerances, and prints one
JSON line: the iteration and degenerate-step counts, the sha256 of the
sequence of working sets (every basis the dual simplex factorised, in
order), the objective as `float.hex`, the sha256 of the solution vector and
of the active row ids, and `max_violation`.  The solver is wrapped from
outside `src/`, so the same script runs against any tree:

    python3 tools/pivot_trace.py 20000 2025 140000 2025 > A.jsonl
    (cd OTHER_TREE && python3 tools/pivot_trace.py 20000 2025 140000 2025) > B.jsonl
    diff A.jsonl B.jsonl

Identical lines mean the same pivots, point and active set.
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


def trace_case(n: int, seed: int) -> dict:
    config = validate_config(room_casestudy_config(
        n_scenario=n, n_validation=max(n // 2, 1), seed_scenario=seed, seed_validation=9090,
    ))
    plant = make_plant(config.plant_spec)
    try:
        dataset = collect(plant, config.space(), n, seed, Role.SCENARIO)
    finally:
        plant.close()
    problem = build_problem(config.layout(), dataset, *_row_inputs(config))
    del dataset

    bases = hashlib.sha256()
    factorised = 0
    basis_matrix = lp._DualSimplex._basis_matrix

    def recording_basis_matrix(engine):
        nonlocal factorised
        bases.update(np.asarray(engine.basis, dtype=np.int64).tobytes())
        factorised += 1
        return basis_matrix(engine)

    lp._DualSimplex._basis_matrix = recording_basis_matrix
    try:
        solution = solve_lp(problem, config.tolerances)
    finally:
        lp._DualSimplex._basis_matrix = basis_matrix
    return {
        "n": n,
        "seed": seed,
        "status": solution.status.value,
        "iterations": solution.iterations,
        "degenerate_steps": solution.degenerate_steps,
        "bases": factorised,
        "bases_sha256": bases.hexdigest(),
        "objective": None if solution.objective is None else solution.objective.hex(),
        "z_sha256": None if solution.d_star is None else _sha256(solution.d_star),
        "active_sha256": _sha256(np.asarray(solution.active_row_ids, dtype=np.int64)),
        "max_violation": solution.max_violation,
    }


def main(argv: list) -> int:
    if not argv or len(argv) % 2:
        print("usage: python3 tools/pivot_trace.py N SEED [N SEED ...]", file=sys.stderr)
        return 3
    for n, seed in zip(argv[::2], argv[1::2]):
        print(json.dumps(trace_case(int(n), int(seed)), sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
