"""Regenerate ``perfbench/reference.json`` from the code in ``src/``.

    python3 perfbench/make_reference.py

Runs every workload once, untraced, at each of the ``INSTANCE_SETS``
config seeds, two calls at a time, and records what the checks compare
against: per-instance ``fc_utility`` and ``feasible`` for ``joint-large``
and the report digests of every workload.  Regenerate it only when a
change is meant to alter outputs, and say so where the change is
described; a benchmark run flags every report whose digest differs.
"""

from __future__ import annotations

import json
import os
import shutil
from concurrent.futures import ThreadPoolExecutor

import run


def one(workload, config_seed):
    work = os.path.join(run.OUT, f"reference-{workload}-{config_seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(run.WORKLOADS[workload]["config"](config_seed), fh)
    call = run.run_call(workload, config_path, work, traced=False)
    if call["exit_code"] != 0:
        raise run.BenchError(f"{workload} set {config_seed} exited {call['exit_code']}")
    entry = {"digests": run.report_digests(workload, work)}
    if workload == "joint-large":
        entry["rows"] = run.optimize_rows(work)
    shutil.rmtree(work)
    return workload, config_seed, entry


def main():
    jobs = [(w, s) for w in run.WORKLOADS for s in range(run.INSTANCE_SETS)]
    out = {"instance_sets": run.INSTANCE_SETS, "workloads": {w: {} for w in run.WORKLOADS}}
    with ThreadPoolExecutor(max_workers=2) as pool:
        for workload, seed, entry in pool.map(lambda j: one(*j), jobs):
            out["workloads"][workload][str(seed)] = entry
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
