"""Smoke test of the benchmark itself, at tiny sizes (well under a minute).

    python3 benchmarks/smoke.py

Every workload's code path runs once untraced and once traced, through the
same `Run` machinery as ``run.py``, and must pass its output checks and
report every metric.  Negative cases then feed the checks reports and LP
results that are wrong by a little (K* moved by 1e-6, a flipped verdict, an
objective off by 1e-6) and require each to be counted as failed.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

import run as bench  # sets the BLAS thread count before numpy loads
from workloads import SRC, WORKLOADS, cli_argv, scaled, small_lp_seeds, write_config

sys.path.insert(0, SRC)

SMALL_GRIDS = {"initial": 401, "unsafe": 201, "state": 1601}
TINY = {
    "posterior-full": scaled(WORKLOADS["posterior-full"], n_scenario=1500, n_validation=700,
                             grid_points=SMALL_GRIDS),
    "prior-full": scaled(WORKLOADS["prior-full"], eps=0.02, n_scenario=10,
                         grid_points=SMALL_GRIDS),
    "external-desk": scaled(WORKLOADS["external-desk"], n_scenario=400, n_validation=200,
                            grid_points=SMALL_GRIDS),
    "small-lp": scaled(WORKLOADS["small-lp"], programs=1),
}


def run_paths(tmp: str) -> None:
    from tracing import PER_LAYER

    for name, workload in TINY.items():
        for trace in (False, True):
            run = bench.Run(workload, 0, 0.0, trace, os.path.join(tmp, f"{name}-{trace}"))
            run.execute()
            assert run.failed == 0, (name, run.failures)
            assert run.attempted == (2 if trace else 1), (name, run.attempted)
            metrics = run.metrics()
            expected = set(PER_LAYER) if trace else set(bench.END_TO_END)
            assert set(metrics) == expected, (name, set(metrics) ^ expected)
            if trace:
                layers = run.ops[1]["layers"]
                accounted = sum(layers[f"{layer}.self_s"] for layer in ("plant", "scp", "lp",
                                                                        "verify", "bounds"))
                accounted += layers["pipeline.other.s"]
                assert abs(accounted - run.ops[1]["wall_s"]) < 0.05, (name, accounted)
            print(f"ok   {name} trace={int(trace)}")


def _cli_run(workload, tmp: str) -> tuple[str, int]:
    from safesynth import cli

    config = os.path.join(tmp, f"{workload.kind}.json")
    write_config(workload, 0, config)
    out_dir = os.path.join(tmp, f"{workload.kind}-out")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(cli_argv(workload, config, out_dir))
    return out_dir, code


def negative_cases(tmp: str) -> None:
    import checks

    for name in ("posterior-full", "prior-full"):
        workload = TINY[name]
        out_dir, code = _cli_run(workload, tmp)
        with open(os.path.join(checks.find_run_dir(out_dir), "report.json")) as fh:
            report = json.load(fh)
        assert checks.check_cli_run(workload, out_dir, code, 0, report) == [], name

        moved = json.loads(json.dumps(report))
        moved["margin_objective"] += 1e-6
        moved["certificate"]["objective"] += 1e-6
        assert checks.check_cli_run(workload, out_dir, code, 0, moved), f"{name}: K* + 1e-6"

        flipped = dict(report, verdict="inconclusive" if report["verdict"] == "certified"
                       else "certified")
        assert checks.check_cli_run(workload, out_dir, code, 0, flipped), f"{name}: verdict"
        print(f"ok   {name} rejects a moved K* and a flipped verdict")

    from safesynth.pipeline import load_config
    from safesynth.scp import solve_lp
    from workloads import small_lp_batch

    workload = TINY["small-lp"]
    path = os.path.join(tmp, "small-lp.json")
    write_config(workload, 0, path)
    config = load_config(path)
    seeds = small_lp_seeds(workload, 0)
    objectives = []
    for variants in small_lp_batch(config, seeds):
        objectives.append([["optimal", solve_lp(v, config.tolerances).objective]
                           for v in variants])
    assert checks.check_small_lp(config, seeds, objectives) == []
    objectives[0][3][1] += 1e-6
    assert checks.check_small_lp(config, seeds, objectives), "small-lp: objective + 1e-6"
    print("ok   small-lp rejects an objective moved by 1e-6")


def main() -> int:
    os.makedirs(bench.WORK_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="smoke-", dir=bench.WORK_ROOT)
    try:
        run_paths(tmp)
        negative_cases(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
