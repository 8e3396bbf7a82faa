"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file is a copy of ``perfbench/out/results.jsonl`` from one set of
runs (for example the parent commit and a change).  For every workload
it prints the median and quartiles of each end-to-end metric over the
untraced runs of each set and the change of the medians against the
bound in ``BENCHMARK.json``.  For every (workload, seed) traced in both
sets it requires the work counts to be exactly equal: a different count
means the workload changed, not the speed.  Report digests that differ
between the sets are listed but are not failures.

Exits 1 if a median is worse than its bound or a work count differs.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main(base_path, new_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    base, new = load(base_path), load(new_path)
    bad = 0
    for workload in sorted({r["workload"] for r in base + new}):
        print(f"{workload}")
        for name, m in spec.items():
            sides = []
            for runs in (base, new):
                vals = [r["metrics"][name] for r in runs
                        if r["workload"] == workload and r["trace"] == 0]
                sides.append(vals)
            if not all(sides):
                print(f"  {name:<14} not measured in both sets")
                continue
            (b1, b2, b3), (n1, n2, n3) = (quartiles(v) for v in sides)
            worse = (n2 - b2) / b2 if m["better"] == "lower" else (b2 - n2) / b2
            verdict = "WORSE than bound" if worse > m["bound"] else "within bound"
            bad += worse > m["bound"]
            print(f"  {name:<14} base {b2:.6g} [{b1:.6g}, {b3:.6g}] n={len(sides[0])}  "
                  f"new {n2:.6g} [{n1:.6g}, {n3:.6g}] n={len(sides[1])}  "
                  f"worse by {worse:+.1%} (bound {m['bound']:.0%}): {verdict}")
    traced = {}
    for label, runs in (("base", base), ("new", new)):
        for r in runs:
            if r["trace"] == 1:
                traced.setdefault((r["workload"], r["seed"]), {})[label] = r
    for (workload, seed), pair in sorted(traced.items()):
        if len(pair) < 2:
            continue
        b, n = pair["base"], pair["new"]
        moved = {k: (v, n["work_counts"].get(k)) for k, v in b["work_counts"].items()
                 if n["work_counts"].get(k) != v}
        bad += bool(moved)
        print(f"{workload} seed {seed}: work counts "
              + ("equal" if not moved else f"CHANGED {moved}"))
        digests = sorted({
            f"{name} (config seed {cs})"
            for cs, files in b["digests"].items() if cs in n["digests"]
            for name, h in files.items() if n["digests"][cs].get(name) != h
        })
        if digests:
            print(f"{workload} seed {seed}: report bytes changed: {', '.join(digests)}")
    return 1 if bad else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
