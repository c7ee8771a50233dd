"""One benchmark operation in a fresh process.

    python3 benchmarks/worker.py <job.json> <result.json>

The job names the workload and its generated inputs.  The worker imports
safesynth, validates the configuration and makes the plant (set-up), then,
unless the job is set-up only, runs one operation: a full CLI run from the
configuration to ``report.json``, or one batch of small programs.  With a
trace path it wraps the public functions first and writes the spans there.
The result holds the monotonic time at which set-up finished (the parent
knows when it spawned the process), the operation's wall time and this
process's peak resident set.
"""

import contextlib
import json
import sys
import time


def _setup(job):
    from safesynth import cli, pipeline, plant  # noqa: F401  (imports are set-up)

    config = pipeline.load_config(job["config"])
    plant.make_plant(config.plant_spec).close()
    return config


@contextlib.contextmanager
def _closing_plants():
    """Close every plant made during the block, so plant processes end here."""
    import safesynth

    made = []
    original = safesynth.plant.make_plant

    def tracking(spec):
        made.append(original(spec))
        return made[-1]

    modules = [m for name, m in sys.modules.items()
               if name.startswith("safesynth") and getattr(m, "make_plant", None) is original]
    for m in modules:
        m.make_plant = tracking
    try:
        yield
    finally:
        for m in modules:
            m.make_plant = original
        for p in made:
            p.close()


def _cli_op(job, log):
    from safesynth import cli

    with _closing_plants(), contextlib.redirect_stdout(log):
        t0 = time.perf_counter()
        code = cli.main(job["argv"])
        wall = time.perf_counter() - t0
    return wall, {"exit": code}


def _small_lp_batch(job, config):
    from safesynth.scp import solve_lp
    from workloads import small_lp_batch

    solve_ms, objectives = [], []
    for variants in small_lp_batch(config, job["seeds"]):
        row = []
        for variant in variants:
            t = time.perf_counter()
            solution = solve_lp(variant, config.tolerances)
            solve_ms.append(1e3 * (time.perf_counter() - t))
            row.append([solution.status.value, solution.objective])
        objectives.append(row)
    return {"solve_ms": solve_ms, "objectives": objectives}


def _small_lp_op(job, config, tracer):
    t0 = time.perf_counter()
    if tracer is None:
        extra = _small_lp_batch(job, config)
    else:
        extra = tracer.span("bench.batch", _small_lp_batch, job, config)
    return time.perf_counter() - t0, extra


def main(argv) -> int:
    job_path, result_path = argv
    with open(job_path) as fh:
        job = json.load(fh)
    config = _setup(job)
    result = {"ready": time.monotonic()}
    if not job.get("setup_only"):
        tracer = None
        if job.get("trace"):
            from tracing import Tracer

            tracer = Tracer(job["run_id"])
            tracer.install()
        if job["kind"] == "small-lp":
            wall, extra = _small_lp_op(job, config, tracer)
        else:
            with open(job["log"], "w") as log:
                wall, extra = _cli_op(job, log)
        if tracer is not None:
            from tracing import layer_metrics

            tracer.uninstall()
            tracer.write_jsonl(job["trace"])
            result["layers"] = layer_metrics(tracer.spans, tracer.counts)
        from tracing import hwm_mb

        result.update(extra, wall_s=wall, peak_rss_mb=hwm_mb())
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
