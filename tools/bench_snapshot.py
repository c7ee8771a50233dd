"""Copy a workload's seed-0 benchmark records into a committed trajectory file.

Usage (from the root of a source checkout, after both benchmark runs):

    python3 benchmarks/run.py --workload posterior-full --seed 0 --trace 0
    python3 benchmarks/run.py --workload posterior-full --seed 0 --trace 1
    python3 tools/bench_snapshot.py posterior-full

It reads `.bench_work/results/<workload>-seed0-trace0.json` and
`-trace1.json` and writes `BENCH_<workload>.json` at the root of the
checkout as `{"trace0": <record>, "trace1": <record>}`, so a performance
claim can cite the untraced and traced records it rests on.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, ".bench_work", "results")


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 3
    workload = argv[0]
    snapshot = {}
    for trace in (0, 1):
        path = os.path.join(RESULTS, f"{workload}-seed0-trace{trace}.json")
        try:
            with open(path) as fh:
                snapshot[f"trace{trace}"] = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"cannot read benchmark record {path}: {exc}", file=sys.stderr)
            return 3
    out = os.path.join(ROOT, f"BENCH_{workload}.json")
    with open(out, "w") as fh:
        json.dump(snapshot, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
