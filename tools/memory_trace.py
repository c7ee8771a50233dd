"""Print the peak memory after each stage of the benchmark's two runs, for comparing two trees.

Usage (from the root of a source checkout):

    python3 tools/memory_trace.py

Each case runs `safesynth.cli.main` on the bundled configuration
(`configs/room-temp.json`, 140,000/70,000 samples) in a fresh child
process on one BLAS thread, with a temporary `--out` directory:

    synthesize         synthesize --config BUNDLED
    prior-synthesize   prior-synthesize --config BUNDLED --eps 7.492e-6

and prints one JSON line with its exit code and two figures per stage, each
the peak so far when the stage ends: `hwm_mb.<stage>`, the child's VmHWM
(the peak resident set of its own address space, in MiB, from
/proc/self/status), and `traced_mb.<stage>`, the peak of the memory that
Python's allocators handed out (NumPy's arrays included) as `tracemalloc`
counts it, in MiB, from a second fresh child of the same case that runs
under `tracemalloc`.  The stages are `collect`, `assemble`, `solve`,
`validate` and `bounds` when each ends (as `pipeline._stage` times them),
`static_blocks` when `scp.static_blocks` returns inside assembly, and
`main` when `cli.main` returns.  A stage the run never enters (`validate`
and `bounds` of the prior run) reads null.  The stages are wrapped from
outside `src/`, so the same script runs against any tree:

    python3 tools/memory_trace.py > A.jsonl
    (cd OTHER_TREE && python3 tools/memory_trace.py) > B.jsonl
    diff A.jsonl B.jsonl

A stage's figure is the peak so far, so it never falls from one stage to
the next; the stage where it rises is where the run's peak is made.  VmHWM
also counts the interpreter, the loaded libraries and freed heap that was
not returned, and the same code has read up to 0.5 MB apart in two
checkouts; the traced figure counts only live allocations, and read the
same to 0.1 MB in two checkouts at different paths.
"""

import contextlib
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CASES = {
    "synthesize": ["synthesize"],
    "prior-synthesize": ["prior-synthesize", "--eps", "7.492e-6"],
}
STAGES = ("collect", "static_blocks", "assemble", "solve", "validate", "bounds", "main")


def hwm_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


def trace_case(name: str, figure: str) -> dict:
    """Run one case in this process, recording `figure` ("hwm_mb" or
    "traced_mb") as each stage ends."""
    if figure == "traced_mb":
        tracemalloc.start()
    peak_mb = {"hwm_mb": hwm_mb,
               "traced_mb": lambda: tracemalloc.get_traced_memory()[1] / 2 ** 20}[figure]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from safesynth import cli, pipeline, scp

    marks = dict.fromkeys(STAGES)
    stage, static_blocks = pipeline._stage, scp.static_blocks

    @contextlib.contextmanager
    def marked_stage(timings, stage_name):
        with stage(timings, stage_name):
            yield
        if stage_name in marks:
            marks[stage_name] = peak_mb()

    def marked_static_blocks(*args, **kwargs):
        blocks = static_blocks(*args, **kwargs)
        marks["static_blocks"] = peak_mb()
        return blocks

    pipeline._stage, scp.static_blocks = marked_stage, marked_static_blocks
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(sys.stderr):
        code = cli.main([*CASES[name], "--config", pipeline.bundled_room_config_path(),
                         "--out", out])
    marks["main"] = peak_mb()
    return {"exit": code,
            **{f"{figure}.{k}": None if v is None else round(v, 1) for k, v in marks.items()}}


def main(argv: list) -> int:
    if argv[:1] == ["--child"]:
        print(json.dumps(trace_case(*argv[1:3])), flush=True)
        return 0
    if argv:
        print("usage: python3 tools/memory_trace.py", file=sys.stderr)
        return 3
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for name in CASES:
        line = {"case": name}
        for figure in ("hwm_mb", "traced_mb"):
            run = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--child", name, figure],
                env=env, stdout=subprocess.PIPE, text=True, check=True, timeout=600)
            child = json.loads(run.stdout)
            if line.setdefault("exit", child["exit"]) != child["exit"]:
                raise RuntimeError(f"{name}: exit {child['exit']} under tracemalloc, "
                                   f"{line['exit']} without")
            line.update((k, v) for k, v in child.items() if k != "exit")
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
