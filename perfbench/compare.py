"""Compare two sets of benchmark runs, metric by metric.

Each input is a file of ``run.py`` result lines (one run per line, as
``run.py ... | tail -n 1`` prints them), runs of one workload on one
commit.  For every metric this prints both medians, the base's spread
(interquartile distance over its median), the change, and a verdict:

* ``better`` / ``worse``: the change won / lost at least 9 of 10 run
  pairs (lines are paired in order) and the medians differ by more than
  the base's spread;
* ``same``: the medians differ by less than the base's spread;
* ``unresolved``: anything else.

    python3 perfbench/compare.py base-sweep-cache.jsonl head-sweep-cache.jsonl
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def higher_is_better() -> set[str]:
    doc = json.loads(BENCHMARK.read_text())
    return {m["name"] for m in doc["end_to_end"] + doc["per_layer"]
            if m["better"] == "higher"}


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line)["metrics"] for line in fh if line.strip()]


def spread(values: list[float]) -> float:
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def verdict(base: list[float], head: list[float], higher: bool) -> str:
    sign = -1.0 if higher else 1.0
    mb, mh = statistics.median(base), statistics.median(head)
    if mb == mh:
        return "same"
    change = (mh - mb) / abs(mb) if mb else float("inf")
    if abs(change) <= spread(base):
        return "same"
    pairs = list(zip(base, head))
    wins = sum(sign * (h - b) < 0 for b, h in pairs)
    losses = sum(sign * (h - b) > 0 for b, h in pairs)
    if wins >= 0.9 * len(pairs):
        return "better"
    if losses >= 0.9 * len(pairs):
        return "worse"
    return "unresolved"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = load(argv[0]), load(argv[1])
    higher = higher_is_better()
    print(f"{'metric':34s} {'base':>12s} {'head':>12s} {'spread':>7s} "
          f"{'change':>8s}  verdict   (runs: {len(base)} vs {len(head)})")
    for name in base[0]:
        b = [run[name]["value"] for run in base]
        h = [run[name]["value"] for run in head if name in run]
        if not h:
            continue
        mb, mh = statistics.median(b), statistics.median(h)
        change = (mh - mb) / abs(mb) if mb else 0.0
        print(f"{name:34s} {mb:12.6g} {mh:12.6g} {spread(b):7.3f} "
              f"{change:+8.1%}  {verdict(b, h, name in higher)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
