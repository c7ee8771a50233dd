"""Write the timing-free reports of a fixed set of runs, for comparing two trees.

Usage (from the root of a source checkout, whose `benchmarks/child_plant.py`
the `external` case runs):

    python3 tools/report_parity.py OUT_DIR

Each case runs through `safesynth.cli.main` on the `src/` next to this file
and leaves one `OUT_DIR/<case>.json`: the report (`repeat.json` or
`plan.json` for those commands) with every `timings` entry removed,
`manifest.json` without its `argv`, the sha256 of each CSV file the run
wrote, and, for the dataset files `scenario.csv` and `validation.csv`, the
sha256 of what `plant.load_dataset` reads from them: the samples' float64
bytes and the header's dimensions, role, seed and sample space.  Run it in
two checkouts and compare with `diff -r OUT_A OUT_B`; identical output
means the same certificates, verdicts, solver counters, configuration
echoes, manifests and datasets.  Between two trees whose dataset encodings
differ, only the files' byte hashes differ, and their sample hashes do not.

Cases: `synthesize` and `prior-synthesize --eps 7.492e-6` on the bundled
configuration, a 200/5000-sample small room configuration, the same with
the input box [0, 1e-3] (a program of another scale; about a tenth of its
inputs lie below 1e-4, where decimal text switches to exponent form, so
its sample hashes compare two encodings on magnitudes that the bundled
study never holds),
`repeat --runs 4` of a certifying small configuration, a degree-0 small
configuration whose program is infeasible
(its sampled rows have a structurally zero barrier column), and the small
configuration with `tolerances.max_iterations` 2, whose solve stops at the
iteration limit (the `SolverError` early exit).  Two cases set the
configuration through the override flags: `bundled_flags` runs `synthesize
--N 3000 --N0 1500 --seed 7 --seed-validation 8` without `--config`, so on
the bundled file, and `no_tighten_flags` runs `synthesize --no-tighten --N
300 --N0 150` on the small configuration.  The `plan_pilot` case runs `plan
--N 1000 --N0 500 --out` on the small configuration, keeping `plan.json`:
the pilot solve's K* and N*, the planner's pass/fail decision at each
(N, N0) it tried, and the warning that a plan grown past its pilot is
optimistic.
The `external` case runs `synthesize` on the small configuration with the
plant `{command: [python, benchmarks/child_plant.py], state_dim: 1,
input_dim: 1}`: the room dynamics in a child process, queried one line at a
time.

Four `verify` cases run `verify --report` with reduced grids on a copy of a
report in a directory of their own, and keep `verify.json`, its plot paths
cut to file names, and the sha256 of the plot CSVs:
`verify` on the `small` case's report;
`verify_zero_controller` on that report with its controller set to all
zeros, whose rollouts enter the unsafe set (the failing-start path);
`verify_clamped_controller` on that report with its controller set to
(-7, 0.3, 0, 0, 0), whose outputs leave the input box (the clamp count);
and `verify_external` on the `external` case's report, whose checks and
rollouts query the child plant.

Four cases end the run at the early exits the others do not reach, each on
the small configuration: `dataset_error` with the plant `{command: [python,
-c, pass], state_dim: 1, input_dim: 1}`, a child that exits without
answering (its start-up outlasts the write of the first query, so the
warning reads "closed its output stream"); `corridor_negative` with
`horizon` 10**30 at 200/100 samples; `kappa_vacuous` at 1/1 samples; and
`lipschitz_refuted` with `lipschitz` 0.5 and `estimate_lipschitz` set.
"""

import contextlib
import glob
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from safesynth.cli import main as safesynth_main  # noqa: E402
from safesynth.pipeline import bundled_room_config_path, room_casestudy_config  # noqa: E402
from safesynth.plant import load_dataset  # noqa: E402


def _small_room(**overrides) -> dict:
    """The unit tests' small room configuration at 200/5000 samples."""
    raw = room_casestudy_config(n_scenario=200, n_validation=5000,
                                seed_scenario=11, seed_validation=12)
    raw["grid_points"] = {"initial": 401, "unsafe": 201, "state": 1601}
    raw.update(overrides)
    return raw


BUNDLED = ["--config", bundled_room_config_path()]

# case name -> (subcommand and flags, configuration dict passed as --config or None)
CASES = {
    "synthesize": (["synthesize", *BUNDLED], None),
    "prior_synthesize": (["prior-synthesize", "--eps", "7.492e-6", *BUNDLED], None),
    "small": (["synthesize"], _small_room()),
    "small_tiny_inputs": (["synthesize"], _small_room(input_box=[[0.0, 1e-3]])),
    "repeat": (["repeat", "--runs", "4"], _small_room(lipschitz=0.5)),
    "lp_infeasible": (["synthesize"], _small_room(barrier_degree=0, controller_degrees=[0])),
    "lp_iteration_limit": (["synthesize"], _small_room(tolerances={"max_iterations": 2})),
    "bundled_flags": (["synthesize", "--N", "3000", "--N0", "1500",
                       "--seed", "7", "--seed-validation", "8"], None),
    "no_tighten_flags": (["synthesize", "--no-tighten", "--N", "300", "--N0", "150"],
                         _small_room()),
    "plan_pilot": (["plan", "--N", "1000", "--N0", "500"], _small_room()),
    "external": (["synthesize"], _small_room(plant={
        "command": ["python", "benchmarks/child_plant.py"], "state_dim": 1, "input_dim": 1})),
    "dataset_error": (["synthesize"], _small_room(plant={
        "command": ["python", "-c", "pass"], "state_dim": 1, "input_dim": 1})),
    "corridor_negative": (["synthesize"], _small_room(
        horizon=10**30, samples={"scenario": 200, "validation": 100})),
    "kappa_vacuous": (["synthesize"], _small_room(samples={"scenario": 1, "validation": 1})),
    "lipschitz_refuted": (["synthesize"], _small_room(lipschitz=0.5, estimate_lipschitz=True)),
}
# verify case name -> (the case whose report it checks, the controller
# coefficients put in place of the report's, or None to keep them)
VERIFY_CASES = {
    "verify": ("small", None),
    "verify_zero_controller": ("small", [0.0] * 5),
    "verify_clamped_controller": ("small", [-7.0, 0.3, 0.0, 0.0, 0.0]),
    "verify_external": ("external", None),
}
VERIFY_FLAGS = ["--region-points", "401", "--step-points", "61", "--trajectory-grid", "101"]


def _without_timings(value):
    if isinstance(value, dict):
        return {k: _without_timings(v) for k, v in value.items() if k != "timings"}
    if isinstance(value, list):
        return [_without_timings(v) for v in value]
    return value


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _dataset_sha256(path: str) -> str:
    """sha256 of the dataset `load_dataset` reads from `path`: its header
    fields, then the float64 bytes of x, u and x'."""
    data = load_dataset(path)
    space = None if data.space is None else [v.hex() for v in data.space.box.lower + data.space.box.upper]
    digest = hashlib.sha256(json.dumps(
        [data.state_dim, data.input_dim, data.role.value, data.seed, space]).encode())
    for block in (data.xs, data.us, data.x_nexts):
        digest.update(np.ascontiguousarray(block, dtype=np.float64).tobytes())
    return digest.hexdigest()


def run_case(name: str, argv: list, raw: dict | None, work: str) -> tuple[dict, str]:
    """Run one case; return its record and its run directory."""
    if raw is not None:
        config = os.path.join(work, f"{name}.config.json")
        with open(config, "w") as fh:
            json.dump(raw, fh)
        argv = argv + ["--config", config]
    runs = os.path.join(work, name)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = safesynth_main(argv + ["--out", runs])
    (run_dir,) = glob.glob(os.path.join(runs, "*"))
    report = {"repeat": "repeat.json", "plan": "plan.json"}.get(argv[0], "report.json")
    with open(os.path.join(run_dir, report)) as fh:
        payload = json.load(fh)
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    del manifest["argv"]  # holds this run's temporary paths
    return {
        "exit_code": rc,
        report: _without_timings(payload),
        "manifest.json": manifest,
        "csv_sha256": {
            os.path.basename(p): _sha256(p)
            for p in sorted(glob.glob(os.path.join(run_dir, "*.csv")))
        },
        "dataset_sha256": {
            dataset: _dataset_sha256(os.path.join(run_dir, dataset))
            for dataset in ("scenario.csv", "validation.csv")
            if os.path.exists(os.path.join(run_dir, dataset))
        },
    }, run_dir


def verify_case(run_dir: str, controller: list | None, out: str) -> dict:
    """`verify --report` on a copy of the report in `run_dir`, its controller
    replaced by `controller` when given, in the new directory `out`."""
    with open(os.path.join(run_dir, "report.json")) as fh:
        report = json.load(fh)
    if controller is not None:
        report["certificate"]["controllers"][0]["coeffs"] = controller
    os.makedirs(out)
    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump(report, fh)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = safesynth_main(["verify", "--report", os.path.join(out, "report.json"),
                             *VERIFY_FLAGS])
    with open(os.path.join(out, "verify.json")) as fh:
        payload = json.load(fh)
    plots = payload["plots"]
    payload["plots"] = {key: os.path.basename(path) for key, path in plots.items()}
    return {
        "exit_code": rc,
        "verify.json": payload,
        "csv_sha256": {os.path.basename(p): _sha256(p) for p in sorted(plots.values())},
    }


def _write(out_dir: str, name: str, result: dict) -> None:
    with open(os.path.join(out_dir, f"{name}.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{name}: exit {result['exit_code']}")


def main(argv: list) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/report_parity.py OUT_DIR", file=sys.stderr)
        return 3
    out_dir = argv[0]
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory() as work:
        run_dirs = {}
        for name, (args, raw) in CASES.items():
            result, run_dirs[name] = run_case(name, args, raw, work)
            _write(out_dir, name, result)
        for name, (source, controller) in VERIFY_CASES.items():
            _write(out_dir, name,
                   verify_case(run_dirs[source], controller, os.path.join(work, name)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
