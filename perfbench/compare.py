"""Compare two sets of benchmark runs recorded with run.py --out.

Usage: python3 perfbench/compare.py BASE.jsonl NEW.jsonl

For every workload and trace mode present in both files, prints each
metric's median over the runs on each side and the relative change.  An
end-to-end metric that got worse by more than its bound in BENCHMARK.json
is marked WORSE.  Runs made on different kernel backends, Python versions
or CPU counts are flagged, because their times do not compare.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ENV_KEYS = ("backend", "QTCHAR_PURE_PYTHON", "python", "nproc")


def load(path: str) -> list:
    with open(path, encoding="utf-8") as fp:
        return [json.loads(line) for line in fp if line.strip()]


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(sys.argv[1]), load(sys.argv[2])
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    rules = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    for key in ENV_KEYS:
        seen = {str(r["env"][key]) for r in base + new}
        if len(seen) > 1:
            print(f"WARNING: runs differ in {key}: {', '.join(sorted(seen))}; times do not compare")

    groups = sorted({(r["workload"], r["trace"]) for r in base} & {(r["workload"], r["trace"]) for r in new})
    for workload, trace in groups:
        sides = [[r for r in runs if (r["workload"], r["trace"]) == (workload, trace)] for runs in (base, new)]
        print(f"{workload} trace={trace}  runs {len(sides[0])} vs {len(sides[1])}")
        for name, rule in rules.items():
            vals = [[r["result"]["metrics"][name]["value"] for r in side if name in r["result"]["metrics"]] for side in sides]
            if not all(vals):
                continue
            b, n = statistics.median(vals[0]), statistics.median(vals[1])
            change = (n - b) / b if b else 0.0
            worse = change if rule["better"] == "lower" else -change
            mark = "WORSE" if "bound" in rule and worse > rule["bound"] else ""
            print(f"  {name:<36} {b:>14.6g} {n:>14.6g} {change:>+8.1%} {rule['unit']} {mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
