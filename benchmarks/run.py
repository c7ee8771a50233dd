"""safesynth benchmark: config to report.json, peak memory and small-LP solves.

    python3 benchmarks/run.py --workload posterior-full --seed 0 --seconds 45 --trace 0
    python3 benchmarks/run.py --workload all     # the four workloads in turn

Run from the root of a source checkout; safesynth is imported from ``src/``.
Workloads are listed in ``workloads.py`` and ``BENCHMARK.json``.  The loop is
closed: one operation at a time, each in a fresh worker process, for
``--seconds`` seconds (at least one operation; two with tracing).  Outputs are
checked outside the timed region: the first operation in full
(``checks.py``), every later one, which has the same inputs, by reproducing
the first one's output exactly.  A failed check counts the operation failed.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones: ``setup_s`` (worker start until safesynth
is imported, the configuration validated and the plant made) and ``wall_s``
(one operation), each the fastest of the run, and ``peak_rss_mb`` (the
worker's peak resident set), the median.  Times are minima because other
tenants of a shared host only ever add time: on a 2-vCPU VM the same
operation runs at two speeds some 1.6x apart, in phases of seconds to
minutes, so a run's median jumps between the two while its fastest repeat
stays put.  Medians are printed beside them.  With ``--trace 1`` traced and untraced operations
alternate; the metrics are the per-layer ones from the traced operations
(see ``tracing.py``), and ``trace.overhead_s`` is the traced median wall time
less the untraced one.  Everything else, including the error rate, the
small-LP solve percentiles and the environment record, goes to the lines
before it and to ``.bench_work/results/``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(min(BLAS_THREADS, os.cpu_count() or 1))

import envinfo  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS, cli_argv, small_lp_seeds, write_config  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = os.path.join(ROOT, ".bench_work")
MIN_SETUP_SAMPLES = 12    # set-up-only workers make up what the operations lack
WORKER_TIMEOUT_S = 60
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class Run:
    """One benchmark run of one workload: inputs, workers, checks, metrics."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool, work_dir: str):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work_dir = work_dir
        os.makedirs(work_dir, exist_ok=True)
        self.config_path = os.path.join(work_dir, "config.json")
        write_config(workload, seed, self.config_path)
        self.setups: list[float] = []
        self.ops: list[dict] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.reference = None     # output of the first operation that passed the checks
        self.spans_path = os.path.join(work_dir, "spans.jsonl")

    # -- workers -------------------------------------------------------------
    def _spawn(self, job: dict, tag: str) -> dict | None:
        job_path = os.path.join(self.work_dir, f"{tag}.job.json")
        result_path = os.path.join(self.work_dir, f"{tag}.result.json")
        job.update(config=self.config_path, kind=self.workload.kind)
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        env = dict(os.environ, PYTHONPATH=SRC)
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py"), job_path, result_path],
            env=env, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            code = "timeout"
        finally:
            # plant processes the worker may have left behind share its session
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if code != 0:
            self.failures.append(f"{tag}: worker exited with {code}")
            return None
        with open(result_path) as fh:
            result = json.load(fh)
        result["setup_s"] = result["ready"] - spawned
        return result

    def setup_probe(self, tag: str) -> None:
        result = self._spawn({"setup_only": True}, tag)
        if result is not None:
            self.setups.append(result["setup_s"])

    def operation(self, index: int, traced: bool) -> None:
        self.attempted += 1
        tag = f"op{index}"
        out_dir = os.path.join(self.work_dir, tag)
        job = {"run_id": f"{self.workload.name}-s{self.seed}-{tag}"}
        if self.workload.kind == "small-lp":
            job["seeds"] = small_lp_seeds(self.workload, self.seed)
        else:
            job["argv"] = cli_argv(self.workload, self.config_path, out_dir)
            job["log"] = os.path.join(self.work_dir, f"{tag}.log")
        if traced:
            job["trace"] = os.path.join(self.work_dir, f"{tag}.spans.jsonl")
        result = self._spawn(job, tag)
        if result is None:
            return
        result.update(tag=tag, traced=traced)
        self.setups.append(result["setup_s"])
        try:
            problems = self.check(result, out_dir)
        except Exception as exc:  # a check that cannot run fails the operation
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        result["problems"] = problems
        if problems:
            self.failures += [f"{tag}: {p}" for p in problems]
        if traced:
            with open(job["trace"]) as src, open(self.spans_path, "a") as dst:
                shutil.copyfileobj(src, dst)
        shutil.rmtree(out_dir, ignore_errors=True)  # datasets are large
        result.pop("objectives", None)
        self.ops.append(result)

    def check(self, result: dict, out_dir: str) -> list[str]:
        """Full checks until one operation passes them; later operations, which
        have the same inputs, must then reproduce its output exactly."""
        import checks

        if self.workload.kind == "small-lp":
            output = result["objectives"]
        else:
            output = checks.cli_output(out_dir, result["exit"])
        if self.reference is not None:
            if output == self.reference:
                return []
            return ["output differs from the fully checked first operation"]
        if self.workload.kind == "small-lp":
            from safesynth.pipeline import load_config

            problems = checks.check_small_lp(load_config(self.config_path),
                                             small_lp_seeds(self.workload, self.seed), output)
        else:
            problems = checks.check_cli_run(self.workload, out_dir, result["exit"], self.seed)
        if not problems:
            self.reference = output
        return problems

    def execute(self) -> None:
        self.setup_probe("warmup")  # compiles bytecode on a fresh checkout
        self.setups.clear()
        deadline = time.monotonic() + self.seconds
        index = 0
        while index < (2 if self.trace else 1) or time.monotonic() < deadline:
            self.operation(index, traced=self.trace and index % 2 == 1)
            index += 1
        for i in range(MIN_SETUP_SAMPLES - len(self.setups)):
            self.setup_probe(f"setup{i}")

    # -- results -------------------------------------------------------------
    @property
    def failed(self) -> int:
        return self.attempted - sum(1 for op in self.ops if not op["problems"])

    def metrics(self) -> dict:
        plain = [op for op in self.ops if not op["traced"]]
        if not self.trace:
            values = {
                "setup_s": min(self.setups),
                "wall_s": min(op["wall_s"] for op in plain),
                "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in plain),
            }
            return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        from tracing import PER_LAYER

        traced = [op for op in self.ops if op["traced"]]
        values = {name: statistics.median(op["layers"][name] for op in traced)
                  for name in PER_LAYER if name.split(".")[0] != "trace"}
        values["trace.wall_s"] = statistics.median(op["wall_s"] for op in traced)
        values["trace.overhead_s"] = (
            values["trace.wall_s"] - statistics.median(op["wall_s"] for op in plain)
        )
        return {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in values.items()}

    def small_lp_figures(self) -> dict:
        plain = [op for op in self.ops if not op["traced"]]
        from tracing import nearest_rank

        solve_ms = sorted(ms for op in plain for ms in op["solve_ms"])
        if not solve_ms:
            return {}
        return {
            "lp_solves_per_s": (len(solve_ms), "1/s",
                                len(solve_ms) / sum(op["wall_s"] for op in plain)),
            "lp_solve_ms_p50": (len(solve_ms), "ms", nearest_rank(solve_ms, 0.50)),
            "lp_solve_ms_p99": (len(solve_ms), "ms", nearest_rank(solve_ms, 0.99)),
        }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all four in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "safesynth", "cli.py")):
        print(f"safesynth sources not found under {SRC}", file=sys.stderr)
        return 3
    sys.path.insert(0, SRC)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max([run_workload(name, args) for name in names])


def run_workload(workload: str, args) -> int:
    env_start = envinfo.environment(ROOT, BLAS_THREADS)
    name = f"{workload}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
    run = Run(WORKLOADS[workload], args.seed, args.seconds, bool(args.trace), work_dir)
    try:
        run.execute()
        if not any(not op["traced"] for op in run.ops) or (
                run.trace and not any(op["traced"] for op in run.ops)):
            for failure in run.failures:
                print(f"failure: {failure}", file=sys.stderr)
            print("no operation completed; nothing to report", file=sys.stderr)
            return 1
        metrics = run.metrics()
        result = {"correct": run.failed == 0, "attempted": run.attempted,
                  "failed": run.failed, "metrics": metrics}
        record = {
            "workload": workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "result": result, "setup_samples": run.setups,
            "operations": run.ops, "failures": run.failures,
            "environment": {"start": env_start, "end": envinfo.environment(ROOT, BLAS_THREADS)},
        }
        if workload == "small-lp" and not args.trace:
            record["small_lp"] = run.small_lp_figures()
        results_dir = os.path.join(WORK_ROOT, "results")
        os.makedirs(results_dir, exist_ok=True)
        record_path = os.path.join(results_dir, f"{name}.json")
        with open(record_path, "w") as fh:
            json.dump(record, fh, indent=1)
        if args.trace:
            shutil.copyfile(run.spans_path, os.path.join(results_dir, f"{name}.spans.jsonl"))
        report(record, run)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def report(record: dict, run: Run) -> None:
    """Human-readable lines: every metric with unit and sample count."""
    env = record["environment"]["start"]
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"load average at end: {record['environment']['end']['loadavg']}")
    for failure in run.failures:
        print(f"failure: {failure}")
    plain = sum(1 for op in run.ops if not op["traced"])
    traced = len(run.ops) - plain
    attempted = run.attempted
    print(f"{'metric':<32} {'value':>16} {'unit':<8} samples")
    counts = {"setup_s": len(run.setups), "wall_s": plain, "peak_rss_mb": plain}
    for key, m in record["result"]["metrics"].items():
        n = counts.get(key, traced)
        print(f"{key:<32} {m['value']:>16.6g} {m['unit']:<8} {n}")
    if not run.trace:
        medians = {"setup_s": run.setups, "wall_s": [op["wall_s"] for op in run.ops]}
        for key, values in medians.items():
            print(f"{key + ' median':<32} {statistics.median(values):>16.6g} {'s':<8} {len(values)}")
    print(f"{'error_rate':<32} {run.failed / attempted:>16.6g} {'fraction':<8} {attempted}")
    layers = ("plant", "scp", "lp", "verify", "bounds")
    for op in run.ops:
        if op["traced"]:
            m = op["layers"]
            print(f"self time, {op['tag']}: "
                  + ", ".join(f"{layer} {m[f'{layer}.self_s']:.4f}" for layer in layers)
                  + f", other {m['pipeline.other.s']:.4f}; sum "
                  f"{sum(m[f'{layer}.self_s'] for layer in layers) + m['pipeline.other.s']:.4f}"
                  f" s of traced wall {op['wall_s']:.4f} s")
    for key, (n, unit, value) in record.get("small_lp", {}).items():
        print(f"{key:<32} {value:>16.6g} {unit:<8} {n}")


if __name__ == "__main__":
    sys.exit(main())
