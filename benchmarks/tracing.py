"""Spans and counters around safesynth's public functions, from outside the package.

`Tracer.install()` replaces each traced function, in every loaded safesynth
module that holds a reference to it, with a wrapper that records a span
(name, start, end, parent, run id) and, after the span has ended, the counts
that belong to that call.  Spans stay in memory until `write_jsonl`.  Nothing
inside ``src/`` is edited; `uninstall` restores the original functions.

Layer of a span is the part of its name before the first dot.  A span's self
time is its duration minus the durations of its direct children, so the self
times of all spans add up to the root span: the untraced remainder of the
``cli`` and ``pipeline`` layers (and of the benchmark's own batch loop) is
reported as ``pipeline.other.s``.
"""

import json
import math
import os
import resource
import sys
import time
from collections import defaultdict

# span name -> (module, attribute)
TRACED = {
    "cli.main": ("safesynth.cli", "main"),
    "pipeline.synthesize": ("safesynth.pipeline", "synthesize"),
    "pipeline.prior_synthesize": ("safesynth.pipeline", "prior_synthesize"),
    "plant.collect": ("safesynth.plant", "collect"),
    "plant.save_dataset": ("safesynth.plant", "save_dataset"),
    "scp.build_problem": ("safesynth.scp", "build_problem"),
    "scp.static_blocks": ("safesynth.scp", "static_blocks"),
    "scp.g3_rows": ("safesynth.scp", "g3_rows"),
    "scp.solve_lp": ("safesynth.scp", "solve_lp"),
    "scp.count_active_g3": ("safesynth.scp", "count_active_g3"),
    "lp.solve_dense_lp": ("safesynth.lp", "solve_dense_lp"),
    "verify.violation_frequency": ("safesynth.verify", "violation_frequency"),
    "bounds.solve_kappa": ("safesynth.bounds", "solve_kappa"),
    "bounds.posterior_g": ("safesynth.bounds", "posterior_g"),
}

LAYERS = ("plant", "scp", "lp", "verify", "bounds")
OTHER_LAYERS = ("cli", "pipeline", "bench")
ROW_FAMILIES = ("structural", "g1", "g2", "g3", "g4")
HWM_AFTER = {
    "plant.collect": "collect",
    "scp.build_problem": "build_problem",
    "scp.solve_lp": "solve_lp",
    "scp.count_active_g3": "count_active_g3",
}

# name -> (unit, better); every traced run reports all of them, 0 where a
# layer is not reached on that workload
PER_LAYER = {
    "plant.collect.s": ("s", "lower"),
    "plant.collect.samples": ("count", "lower"),
    "plant.collect.us_per_sample": ("us", "lower"),
    "plant.save_dataset.s": ("s", "lower"),
    "plant.save_dataset.bytes": ("B", "lower"),
    "scp.build_problem.s": ("s", "lower"),
    "scp.static_blocks.s": ("s", "lower"),
    "scp.g3_rows.s": ("s", "lower"),
    **{f"scp.rows.{f}": ("count", "lower") for f in ROW_FAMILIES},
    "scp.G_bytes": ("B", "lower"),
    "scp.solve_lp.s": ("s", "lower"),
    "scp.solve_lp.calls": ("count", "lower"),
    "scp.solve_lp.ms_p50": ("ms", "lower"),
    "scp.solve_lp.ms_p99": ("ms", "lower"),
    "scp.count_active_g3.s": ("s", "lower"),
    "lp.solve_dense_lp.calls": ("count", "lower"),
    "lp.iterations": ("count", "lower"),
    "lp.degenerate_steps": ("count", "lower"),
    "lp.rows_priced": ("count", "lower"),
    "lp.ms_per_iteration": ("ms", "lower"),
    "verify.violation_frequency.s": ("s", "lower"),
    "verify.records": ("count", "lower"),
    "verify.record_yield": ("ratio", "higher"),
    "bounds.solve_kappa.s": ("s", "lower"),
    "bounds.posterior_g.calls": ("count", "lower"),
    "bounds.posterior_g.ms": ("ms", "lower"),
    "cli.main.s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "pipeline.other.s": ("s", "lower"),
    **{f"mem.hwm_mb.{k}": ("MB", "lower") for k in HWM_AFTER.values()},
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def hwm_mb() -> float:
    """Peak resident set of this process so far, in MiB.

    Linux carries ru_maxrss over fork and exec, so a worker would report its
    parent's peak if that were larger; VmHWM belongs to this process's own
    address space."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------
    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        record = {"id": sid, "name": name, "parent": parent, "run": self.run_id,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(sid)
        try:
            result = fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
        self._count(name, args, kwargs, result)
        return result

    def _count(self, name, args, kwargs, result):
        c = self.counts
        if name == "plant.collect":
            c["plant.collect.samples"] += len(result)
        elif name == "plant.save_dataset":
            path = args[1] if len(args) > 1 else kwargs["path"]
            c["plant.save_dataset.bytes"] += os.path.getsize(path)
        elif name == "scp.build_problem":
            from safesynth.scp import RowTag

            for tag in RowTag:
                c[f"scp.rows.{tag.label}"] += int((result.tags == tag).sum())
            c["scp.G_bytes"] += result.G.nbytes
        elif name == "lp.solve_dense_lp":
            G = args[1] if len(args) > 1 else kwargs["G"]
            c["lp.iterations"] += result.iterations
            c["lp.degenerate_steps"] += result.degenerate_steps
            c["lp.rows_priced"] += result.iterations * len(G)
        elif name == "verify.violation_frequency":
            violations, records = result
            c["verify.records"] += len(records)
            c["verify.violations"] += violations
        if name in HWM_AFTER:
            c[f"mem.hwm_mb.{HWM_AFTER[name]}"] = hwm_mb()

    # -- patching ------------------------------------------------------------
    def install(self) -> None:
        for name, (module_name, attr) in TRACED.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            for mod_name, module in list(sys.modules.items()):
                if not mod_name.startswith("safesynth") or module is None:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    # -- output --------------------------------------------------------------
    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def nearest_rank(ordered: list[float], q: float) -> float:
    """The q-quantile of sorted values by the nearest-rank rule."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def self_times(spans: list[dict]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - child[s["id"]] for s in spans]


def layer_metrics(spans: list[dict], counts: dict) -> dict[str, float]:
    """The per-layer metrics of one traced operation; the caller adds the
    ``trace.*`` entries, which need the untraced runs."""
    total = defaultdict(float)
    calls = defaultdict(int)
    layer_self = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        total[s["name"]] += s["end"] - s["start"]
        calls[s["name"]] += 1
        layer_self[s["name"].split(".")[0]] += own
    out = {name: 0.0 for name in PER_LAYER}
    out.update({k: float(v) for k, v in counts.items() if k in out})
    for name in ("plant.collect", "plant.save_dataset", "scp.build_problem",
                 "scp.static_blocks", "scp.g3_rows", "scp.solve_lp", "scp.count_active_g3",
                 "verify.violation_frequency", "bounds.solve_kappa", "cli.main"):
        out[f"{name}.s"] = total[name]
    samples = counts.get("plant.collect.samples", 0)
    out["plant.collect.us_per_sample"] = 1e6 * total["plant.collect"] / samples if samples else 0.0
    out["scp.solve_lp.calls"] = float(calls["scp.solve_lp"])
    solve_ms = sorted(1e3 * (s["end"] - s["start"]) for s in spans if s["name"] == "scp.solve_lp")
    if solve_ms:
        out["scp.solve_lp.ms_p50"] = nearest_rank(solve_ms, 0.50)
        out["scp.solve_lp.ms_p99"] = nearest_rank(solve_ms, 0.99)
    out["lp.solve_dense_lp.calls"] = float(calls["lp.solve_dense_lp"])
    iterations = counts.get("lp.iterations", 0)
    out["lp.ms_per_iteration"] = (
        1e3 * total["lp.solve_dense_lp"] / iterations if iterations else 0.0
    )
    records = counts.get("verify.records", 0)
    out["verify.record_yield"] = counts.get("verify.violations", 0) / records if records else 0.0
    out["bounds.posterior_g.calls"] = float(calls["bounds.posterior_g"])
    out["bounds.posterior_g.ms"] = 1e3 * total["bounds.posterior_g"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    out["pipeline.other.s"] = sum(layer_self[layer] for layer in OTHER_LAYERS)
    return out
