"""The four benchmark workloads and the inputs each one derives from its seed.

Every workload starts from the bundled room-temperature configuration
(``src/safesynth/configs/room-temp.json``).  The workload seed only moves the
data seeds: seed ``s`` uses scenario seed ``2025 + s`` and validation seed
``9090 + s``, so seed 0 is the case study as shipped and its outcomes are
pinned below.  The program under test sees nothing but the generated files.

``BENCHMARK.json`` lists only ``posterior-full`` and ``prior-full``, the two
routes the paper compares: on a shared 2-vCPU host, runs must last about 45 s
for a run's fastest operation to be steady, and the time allowed for all runs
then fits two workloads.  ``external-desk`` and ``small-lp`` run the same way
when named on the command line.
"""

import dataclasses
import json
import os
import sys
from dataclasses import dataclass

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
BUNDLED_CONFIG = os.path.join(SRC, "safesynth", "configs", "room-temp.json")
CHILD_PLANT = os.path.join(BENCH_DIR, "child_plant.py")

SCENARIO_SEED_BASE = 2025
VALIDATION_SEED_BASE = 9090
PRIOR_EPS = 7.492e-6
# small-lp program b of workload seed s samples with seed SMALL_LP_SEED_BASE + 1000 s + b
SMALL_LP_SEED_BASE = 31_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str                     # "posterior", "prior" or "small-lp"
    n_scenario: int = 140_000
    n_validation: int = 70_000
    external: bool = False        # collect through child_plant.py
    eps: float = PRIOR_EPS        # prior-synthesize violation level
    grid_points: dict | None = None  # None keeps the bundled grids
    tighten: bool = True
    programs: int = 0             # small-lp programs per batch
    pinned: dict | None = None    # expected outcome for workload seed 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "posterior-full",
            "the product run: synthesize at N=140000/N0=70000 with datasets persisted; "
            "time goes to save_dataset, verify, lp pricing and bounds",
            "posterior",
            pinned={"exit": 0, "verdict": "certified", "objective": -0.35410517426454197,
                    "support_bound": 2, "violations": 1, "kappa": 0.9999561562716741},
        ),
        Workload(
            "prior-full",
            "prior-bound baseline at N=2758749: scp assembly, lp pricing over 2.76M rows "
            "and memory; never calls verify or bounds",
            "prior",
            pinned={"exit": 0, "verdict": "certified", "objective": -0.3536416773976734,
                    "support_bound": 2, "n_scenario": 2_758_749},
        ),
        Workload(
            "external-desk",
            "desk-scale synthesize through a child-process plant: the plant line protocol "
            "dominates and every other layer is light",
            "posterior",
            n_scenario=20_000,
            n_validation=10_000,
            external=True,
            pinned={"exit": 2, "verdict": "inconclusive",
                    "objective": -0.3561801953761529},
        ),
        Workload(
            "small-lp",
            "oracle-shape 168x24 programs solved and re-solved without each sampled row: "
            "per-iteration lp overhead dominates, pricing is negligible",
            "small-lp",
            n_scenario=15,
            n_validation=15,
            grid_points={"initial": 21, "unsafe": 11, "state": 41},
            tighten=False,
            programs=10,
        ),
    )
}


def scaled(workload: Workload, **changes) -> Workload:
    """A copy with other sizes; sizes other than the shipped ones pin nothing."""
    return dataclasses.replace(workload, pinned=None, **changes)


def small_lp_seeds(workload: Workload, seed: int) -> list[int]:
    return [SMALL_LP_SEED_BASE + 1000 * seed + b for b in range(workload.programs)]


def write_config(workload: Workload, seed: int, path: str) -> dict:
    """The bundled configuration with this workload's sizes, seeds and plant."""
    with open(BUNDLED_CONFIG) as fh:
        raw = json.load(fh)
    raw["samples"] = {"scenario": workload.n_scenario, "validation": workload.n_validation}
    raw["seeds"] = {"scenario": SCENARIO_SEED_BASE + seed,
                    "validation": VALIDATION_SEED_BASE + seed}
    if workload.grid_points is not None:
        raw["grid_points"] = dict(workload.grid_points)
    if not workload.tighten:
        raw["tighten"] = False
    if workload.external:
        raw["plant"] = {"command": [sys.executable, CHILD_PLANT],
                        "state_dim": 1, "input_dim": 1}
    with open(path, "w") as fh:
        json.dump(raw, fh, indent=2)
    return raw


def cli_argv(workload: Workload, config_path: str, out_dir: str) -> list[str]:
    """Arguments for `safesynth.cli.main` for one full run of the workload."""
    if workload.kind == "posterior":
        return ["synthesize", "--config", config_path, "--out", out_dir]
    if workload.kind == "prior":
        return ["prior-synthesize", "--config", config_path, "--eps", repr(workload.eps),
                "--out", out_dir]
    raise ValueError(f"{workload.name} is not a CLI workload")


def small_lp_batch(config, seeds):
    """Per seed, one oracle-shape scenario program followed by its copies
    without each sampled row, all through the public scp calls."""
    from safesynth.plant import Role, collect, make_plant
    from safesynth.scp import box_to_polytope, build_problem

    plant = make_plant(config.plant_spec)
    layout = config.layout()
    input_a, input_b = box_to_polytope(config.input_box)
    batch = []
    for s in seeds:
        dataset = collect(plant, config.space(), config.n_scenario, s, Role.SCENARIO)
        problem = build_problem(
            layout, dataset, config.initial_region, config.unsafe_region,
            config.state_box, input_a, input_b, config.horizon,
            config.grids, config.strict_margin, config.tighten,
        )
        batch.append([problem] + [problem.without_rows([int(i)])
                                  for i in problem.g3_row_indices()])
    return batch
