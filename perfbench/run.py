"""cogalloc benchmark: one CLI subcommand per workload, fresh interpreter per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/cogalloc`` must exist).
Each workload writes a config generated from ``--seed`` and runs one
``cogalloc`` subcommand with ``--jobs 1`` in a fresh ``python3`` process
(``perfbench/child.py``), over and over until ``--seconds`` have passed,
so every call pays cold ``lru_cache`` tables as a CLI user does.  Every
call's reports are checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics over the untraced calls.
``--trace 1`` alternates traced and untraced calls and reports the
per-layer metrics of the traced ones, plus the tracing overhead.
Each run also appends a full record (environment, work counts, report
digests) to ``perfbench/out/results.jsonl``; ``perfbench/compare.py``
compares two such files.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

#: Config seeds (instance sets) are taken modulo INSTANCE_SETS:
#: ``reference.json`` holds the outputs of every set, generated by
#: ``perfbench/make_reference.py``.  A run with seed s starts at set
#: ``s * SETS_PER_RUN % INSTANCE_SETS``.
INSTANCE_SETS = 64
SETS_PER_RUN = 8
#: A call that takes longer than this is killed and the run fails.
CALL_TIMEOUT_S = 120.0
REL_TOL = 1e-9
TIME_TOL = 1e-12

#: Frame timing written into every config, so the checker knows T'(L).
SYSTEM = {
    "frame_duration": 1e-3,
    "tau2": 10e-6,
    "tau5": 10e-6,
    "tau_r_prime": 5e-6,
    "n_samples": 40,
    "sample_interval": 1.0 / 6e6,
}


def _config(sweep, values, count, trials, seed, **extra):
    experiment = {"sweep": sweep, **({"values": values} if values else {})}
    experiment.update(extra.pop("experiment", {}))
    return {
        "system": dict(SYSTEM),
        "users": {"count": count, "buffer_bits": 1000},
        "experiment": experiment,
        "trials": trials,
        "seed": seed,
        **extra,
    }


# Why each workload exists is in perfbench/README.md and BENCHMARK.json.
WORKLOADS = {
    # Identical prices, so the CLI itself exits 4 on a relative gap > 1e-9.
    "oracle-exact": {
        "command": "compare-oracle",
        "unit": "instance",
        "config": lambda s: _config("m", [7, 9], 7, 4, s),
    },
    "joint-large": {
        "command": "optimize",
        "unit": "instance",
        "config": lambda s: _config("m", [20, 40], 20, 4, s),
    },
    # Traffic scale 0.002 s: a batch every few 1 ms frames, so the
    # optimizer runs on many frames (the shipped 7.0 s delivers none).
    "sim-traffic": {
        "command": "simulate",
        "unit": "frame",
        "config": lambda s: _config(
            "none", None, 5, 10, s,
            experiment={"n_frames": 200},
            traffic={"scale": 0.002},
        ),
    },
}

END_TO_END_UNITS = {"units_per_s": "units/s", "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, crashed call)."""


# ---------------------------------------------------------------------------
# Running one call
# ---------------------------------------------------------------------------


def run_call(workload, config_path, out_dir, traced):
    """Run one CLI call in a fresh interpreter; returns the child's record."""
    spec = WORKLOADS[workload]
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(out_dir, "call.json")
    argv = [
        sys.executable, os.path.join(HERE, "child.py"), "", result_path,
        "1" if traced else "0", "--", spec["command"], "--config", config_path,
        "--jobs", "1", "--out", out_dir,
    ]
    with open(os.path.join(out_dir, "stderr.txt"), "wb") as err:
        argv[2] = repr(time.perf_counter())
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err)
        try:
            proc.wait(timeout=CALL_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not os.path.exists(result_path):
        with open(os.path.join(out_dir, "stderr.txt"), encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"{spec['command']} call failed (code {proc.returncode}):\n{tail}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Output checks: (attempted units, failed units, report digests)
# ---------------------------------------------------------------------------


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[1], rows[2:]  # header, data (row 0 is the schema tag)


#: Report files of each workload, with the columns left out of their
#: digests because they hold wall times, not results.
REPORTS = {
    "oracle-exact": {"compare_oracle.csv": ("joint_wall_time", "oracle_wall_time")},
    "joint-large": {"optimize.csv": (), "optimize_mean.csv": ()},
    "sim-traffic": {"simulate.csv": (), "simulate_mean.csv": (), "trace_sweep0.jsonl": ()},
}


def report_digests(workload, out_dir):
    """sha256 of each report that exists, over its deterministic columns."""
    out = {}
    for name, drop in REPORTS[workload].items():
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            continue
        with open(path, "rb") as fh:
            data = fh.read()
        if drop:
            lines = data.decode("utf-8").splitlines()
            header = next(csv.reader([lines[1]]))
            keep = [i for i, col in enumerate(header) if col not in drop]
            data = "\n".join(
                lines[:1] + [",".join(r[i] for i in keep) for r in csv.reader(lines[1:])]
            ).encode("utf-8")
        out[name] = hashlib.sha256(data).hexdigest()
    return out


def _close(a, b):
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) or a == b


def check_oracle_exact(cfg, out_dir, exit_code, reference):
    expected = len(cfg["experiment"]["values"]) * cfg["trials"]
    path = os.path.join(out_dir, "compare_oracle.csv")
    if exit_code != 0 or not os.path.exists(path):
        return expected, expected
    header, rows = _csv_rows(path)
    col = {name: i for i, name in enumerate(header)}
    failed = max(0, expected - len(rows))
    for row in rows:
        joint = float(row[col["joint_utility"]])
        oracle = float(row[col["oracle_utility"]])
        gap = oracle - joint
        rel = gap / oracle if oracle > 0 else gap
        failed += not (math.isfinite(rel) and abs(rel) <= REL_TOL)
    return expected, failed


def optimize_rows(out_dir):
    """(sweep_value, trial, fc_utility, feasible) per instance of optimize.csv."""
    header, rows = _csv_rows(os.path.join(out_dir, "optimize.csv"))
    col = {name: i for i, name in enumerate(header)}
    return [
        [r[col["sweep_value"]], int(r[col["trial"]]), float(r[col["fc_utility"]]),
         r[col["feasible"]] == "1"]
        for r in rows
    ]


def check_joint_large(cfg, out_dir, exit_code, reference):
    expected = len(cfg["experiment"]["values"]) * cfg["trials"]
    if exit_code != 0 or not os.path.exists(os.path.join(out_dir, "optimize.csv")):
        return expected, expected
    want = {(v, t): (u, f) for v, t, u, f in reference["rows"]}
    failed = 0
    seen = set()
    for value, trial, utility, feasible in optimize_rows(out_dir):
        ref = want.get((value, trial))
        seen.add((value, trial))
        failed += ref is None or not (_close(utility, ref[0]) and feasible == ref[1])
    failed += len(set(want) - seen)
    return expected, min(failed, expected)


def check_sim_traffic(cfg, out_dir, exit_code, reference):
    n_frames = cfg["experiment"]["n_frames"]
    trials = cfg["trials"]
    expected = n_frames * trials
    csv_path = os.path.join(out_dir, "simulate.csv")
    trace_path = os.path.join(out_dir, "trace_sweep0.jsonl")
    if exit_code != 0 or not (os.path.exists(csv_path) and os.path.exists(trace_path)):
        return expected, expected

    def t_prime(n_selected):
        s = SYSTEM
        return (s["frame_duration"] - s["tau2"] - s["n_samples"] * s["sample_interval"]
                - s["tau5"] - n_selected * s["tau_r_prime"])

    # Trial 0's per-frame trace.
    with open(trace_path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh][1:]
    trace_failed = max(0, n_frames - len(records))
    drained = None
    for rec in records:
        bits, bufs, times = rec["bits_out"], rec["buffers"], rec["times"]
        drained = [0] * len(bits) if drained is None else drained
        ok = (
            len(bits) == len(bufs) == len(drained)
            and all(0 <= b <= q for b, q in zip(bits, bufs))
            and all(t >= 0.0 for t in times)
            and sum(times) <= t_prime(len(rec["selected"])) + TIME_TOL
        )
        trace_failed += not ok
        drained = [d + b for d, b in zip(drained, bits)]

    initial_bits = cfg.get("traffic", {}).get("initial_bits", 10)
    header, rows = _csv_rows(csv_path)
    delay_cols = [i for i, name in enumerate(header) if name.startswith("mean_delay_su")]
    failed = max(0, trials - len(rows)) * n_frames
    for row in rows:
        trial = int(row[1])
        delays = [float(row[i]) for i in delay_cols]
        finite = [d for d in delays if math.isfinite(d)]
        mean_delay, jain = float(row[2]), float(row[3])
        ok = all(d > 0.0 for d in finite) and (
            not finite
            or (math.isfinite(mean_delay) and math.isfinite(jain)
                and 1.0 / len(delays) - 1e-12 <= jain <= 1.0 + 1e-12)
        )
        if trial == 0 and drained is not None:
            # FIFO: a user that drained its initial batch completed a batch.
            ok = ok and all(
                math.isfinite(d) for d, out in zip(delays, drained) if out >= initial_bits > 0
            )
        if not ok:
            failed += n_frames
        elif trial == 0:
            failed += trace_failed
    return expected, min(failed, expected)


CHECKS = {
    "oracle-exact": check_oracle_exact,
    "joint-large": check_joint_large,
    "sim-traffic": check_sim_traffic,
}


# ---------------------------------------------------------------------------
# Per-layer metrics from one traced call
# ---------------------------------------------------------------------------

ABSENT = -1  # value of every metric of a function or cache the program no longer has


def _pct(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(call):
    """Per-layer metrics (name -> (value, unit)) of one traced call."""
    tr = call["trace"]
    present = set(tr["present"])
    calls = {}
    for parent, child, n in tr["parent_calls"]:
        calls[child] = calls.get(child, 0) + n
    edge = {(p, c): n for p, c, n in tr["parent_calls"]}
    out = {}

    def fn_metrics(name, *kinds):
        gone = name not in present
        durs = tr["durations"].get(name, [])
        for kind in kinds:
            if gone:
                value = ABSENT
            elif kind == "calls":
                value = calls.get(name, 0)
            elif kind == "self_s":
                value = tr["self_s"].get(name, 0.0)
            else:
                value = _pct(durs, 0.5 if kind == "p50_us" else 0.95) * 1e6
            out[f"{name}.{kind}"] = (value, {"calls": "count", "self_s": "s"}.get(kind, "us"))

    def cache_metrics(prefix, ratio=True):
        got = tr["caches"].get(prefix)
        hits, misses = got if got is not None else (ABSENT, ABSENT)
        out[f"{prefix}.hits"] = (hits, "count")
        out[f"{prefix}.misses"] = (misses, "count")
        if ratio:
            total = hits + misses
            value = ABSENT if got is None else (hits / total if total else 0.0)
            out[f"{prefix}.hit_ratio"] = (value, "ratio")

    fn_metrics("allocator.select_and_allocate", "calls", "p50_us", "p95_us", "self_s")
    fn_metrics("allocator.greedy_topup", "calls", "self_s")
    out["allocator.numpy_warnings"] = (call["numpy_warnings"], "count")
    fn_metrics("optimizer.joint_optimize", "calls", "p50_us", "p95_us", "self_s")
    out["optimizer.grid_points"] = (
        edge.get(("optimizer.joint_optimize", "allocator.select_and_allocate"), 0), "count")
    fn_metrics("optimizer.exhaustive_oracle", "calls", "p50_us", "self_s")
    fn_metrics("economics.effective_rate", "calls", "self_s")
    fn_metrics("economics.rate_idle", "calls")
    fn_metrics("economics.rate_interfered", "calls", "self_s")
    cache_metrics("economics.rate_cache")
    fn_metrics("sensing.global_pd", "calls", "self_s")
    fn_metrics("sensing.global_pfa", "calls")
    fn_metrics("sensing.min_active_users", "calls", "self_s")
    cache_metrics("sensing.tail_cache")
    cache_metrics("sensing.local_pd_cache", ratio=False)
    fn_metrics("simkit.step_frame", "calls", "p50_us", "p95_us", "self_s")
    out["simkit.frames_optimized"] = (
        edge.get(("simkit.step_frame", "optimizer.joint_optimize"), 0), "count")
    for kind in ("arrived", "completed", "dropped"):
        out[f"simkit.batches_{kind}"] = (tr["counts"][f"batches_{kind}"], "count")
    out["cli.load_config.s"] = (call["load_config_s"], "s")
    out["cli.self_s"] = (tr["self_s"]["cli.cmd"], "s")
    return out


#: Per-layer counts that must repeat exactly for one (workload, seed); a
#: change means the workload changed, not the speed.
WORK_COUNTS = (
    "optimizer.joint_optimize.calls",
    "optimizer.grid_points",
    "optimizer.exhaustive_oracle.calls",
    "economics.effective_rate.calls",
    "sensing.tail_cache.misses",
    "simkit.step_frame.calls",
    "simkit.frames_optimized",
    "simkit.batches_arrived",
    "simkit.batches_completed",
    "simkit.batches_dropped",
    "allocator.numpy_warnings",
)


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def environment(workload, seed, first_set):
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), model
            )
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "workload": workload,
        "seed": seed,
        "first_config_seed": first_set,
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _median_q(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "cogalloc", "cli.py")):
        raise BenchError(f"no cogalloc sources under {os.path.join(ROOT, 'src')}")
    workload = args.workload
    spec = WORKLOADS[workload]
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)["workloads"][workload]

    work = os.path.join(OUT, f"{workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    configs = {}

    def config_for(config_seed):
        if config_seed not in configs:
            path = os.path.join(work, f"config{config_seed}.json")
            configs[config_seed] = (spec["config"](config_seed), path)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(configs[config_seed][0], fh, indent=1)
        return configs[config_seed]

    # Untraced runs give each call the next instance set, so a run spans
    # several sets and seeds differ less in work than one set would.
    # Traced runs repeat one set: its counts must repeat.
    first_set = args.seed * SETS_PER_RUN % INSTANCE_SETS
    env = environment(workload, args.seed, first_set)
    plain, traced = [], []
    attempted = failed = 0
    digests = {}  # config seed -> report digests of its first call
    unstable = set()
    start = time.perf_counter()
    i = 0
    while True:
        # Trace 1 alternates traced and untraced calls, traced first.
        is_traced = bool(args.trace) and i % 2 == 0
        config_seed = first_set if args.trace else (first_set + i) % INSTANCE_SETS
        cfg, config_path = config_for(config_seed)
        call_dir = os.path.join(work, f"call{i}")
        call = run_call(workload, config_path, call_dir, is_traced)
        a, f = CHECKS[workload](cfg, call_dir, call["exit_code"], reference[str(config_seed)])
        attempted, failed = attempted + a, failed + f
        got = report_digests(workload, call_dir)
        unstable.update(k for k, v in digests.setdefault(config_seed, got).items() if got.get(k) != v)
        (traced if is_traced else plain).append(call)
        shutil.rmtree(call_dir)
        i += 1
        if time.perf_counter() - start >= args.seconds and (plain and (traced or not args.trace)):
            break
    window = time.perf_counter() - start
    env["config_seeds"] = sorted(configs)

    changed = sorted({
        name for cs, d in digests.items() for name, h in d.items()
        if reference[str(cs)]["digests"].get(name) != h
    })
    record = {
        "workload": workload, "seed": args.seed, "trace": args.trace,
        "calls": len(plain) + len(traced), "window_s": window, "env": env,
        "attempted": attempted, "failed": failed,
        "digests": {str(k): v for k, v in digests.items()},
        "reports_changed_vs_reference": changed,
        "reports_differing_between_calls": sorted(unstable),
    }

    unit = spec["unit"]
    plain_wall = [c["wall_s"] for c in plain]
    if args.trace:
        per_call = [layer_metrics(c) for c in traced]
        metrics = {}
        for name, (first, u) in per_call[0].items():
            # Counts repeat exactly (a drift is flagged below); times are medians.
            value = first if u == "count" else statistics.median(m[name][0] for m in per_call)
            metrics[name] = (value, u)
        overhead = statistics.median(c["wall_s"] for c in traced) / statistics.median(plain_wall) - 1.0
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        metrics["trace.samples"] = (len(traced), "count")
        counts = {k: per_call[0][k][0] for k in WORK_COUNTS}
        drift = sorted(k for m in per_call for k in WORK_COUNTS if m[k][0] != counts[k])
        record.update(work_counts=counts, work_counts_differing_between_calls=drift)
        env["trace_overhead_frac"] = overhead
    else:
        units = attempted // (len(plain) + len(traced))
        series = {
            "units_per_s": [units / c["run_s"] for c in plain],
            "wall_s": plain_wall,
            "setup_s": [c["setup_s"] for c in plain],
            "peak_rss_mb": [c["peak_rss_mb"] for c in plain],
        }
        metrics = {}
        for name, values in series.items():
            med, q1, q3 = _median_q(values)
            metrics[name] = (med, END_TO_END_UNITS[name])
            record.setdefault("quartiles", {})[name] = [q1, q3]
        # Throughput is work over total run time, not a median of per-call
        # rates: the host alternates between fast and slow spells of
        # seconds, and a median jumps between the two when a run holds
        # about as many calls of each.
        metrics["units_per_s"] = (
            units * len(plain) / sum(c["run_s"] for c in plain), END_TO_END_UNITS["units_per_s"])
        record["per_call"] = series
        env["trace_overhead_frac"] = None  # measured by --trace 1 runs only
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}

    print(f"perfbench {workload} seed={args.seed} (config seeds {env['config_seeds']}) "
          f"trace={args.trace}: {len(plain)} untraced + {len(traced)} traced calls "
          f"in {window:.1f} s")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, u) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {u}")
    print(f"  {'failed_frac':<44} {failed / attempted:>14.6g} "
          f"({failed} of {attempted} {unit}s failed an output check)")
    print(f"  reports: {', '.join(REPORTS[workload])}; changed vs reference: "
          f"{', '.join(changed) or 'none'}; "
          f"differing between calls: {', '.join(sorted(unstable)) or 'none'}")
    if args.trace:
        gone = [n for n, (v, _) in metrics.items() if v == ABSENT]
        print(f"  absent from the program: {', '.join(gone) or 'none'}")
        if record["work_counts_differing_between_calls"]:
            print("  WARNING: work counts differ between calls: "
                  + ", ".join(record["work_counts_differing_between_calls"]))

    with open(os.path.join(OUT, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    shutil.rmtree(work)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
