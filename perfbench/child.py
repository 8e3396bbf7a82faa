"""One CLI invocation in a fresh interpreter, timed from the outside.

    python3 perfbench/child.py SPAWN_T RESULT_JSON TRACE(0|1) -- <cogalloc argv>

``SPAWN_T`` is the parent's ``time.perf_counter()`` just before it started
this process (CLOCK_MONOTONIC, shared by processes on Linux), so set-up
time includes interpreter start-up.  The child imports ``cogalloc.cli``
from ``src/`` of the checkout, runs ``cli.main(argv)`` and writes its
timings (and, when traced, the per-layer spans and counters) to
``RESULT_JSON``.

Tracing replaces each traced public function in every cogalloc module
that holds a reference to it, because callers import with
``from .x import y`` and look the name up in their own module.  The
``lru_cache`` tables are never wrapped: their ``cache_info()`` is read
before and after the command.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import warnings

SPAWN_T = float(sys.argv[1])
RESULT_PATH = sys.argv[2]
TRACED = sys.argv[3] == "1"
CLI_ARGV = sys.argv[sys.argv.index("--") + 1 :]

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from cogalloc import cli  # noqa: E402  (timed as part of set-up)

# (layer = module defining it, public function)
TRACED_FUNCTIONS = (
    ("optimizer", "joint_optimize"),
    ("optimizer", "exhaustive_oracle"),
    ("allocator", "select_and_allocate"),
    ("allocator", "greedy_topup"),
    ("economics", "effective_rate"),
    ("economics", "rate_idle"),
    ("economics", "rate_interfered"),
    ("sensing", "global_pd"),
    ("sensing", "global_pfa"),
    ("sensing", "min_active_users"),
    ("simkit", "run_episode"),
    ("simkit", "step_frame"),
)

# Spans whose per-call durations are kept for percentiles; the others
# keep only call counts and self time, to bound the tracer's memory.
KEEP_DURATIONS = {
    "optimizer.joint_optimize",
    "optimizer.exhaustive_oracle",
    "allocator.select_and_allocate",
    "simkit.step_frame",
    "cli.cmd",
}

# (metric prefix, module, cached function); read, never patched.
CACHES = (
    ("sensing.tail_cache", "sensing", "_binom_tail"),
    ("sensing.local_pd_cache", "sensing", "local_pd"),
    ("economics.rate_cache", "economics", "_rate_interfered_cached"),
)


class Tracer:
    """In-memory spans: call counts per (caller, callee), self time, and
    per-call durations for the names in KEEP_DURATIONS.

    Self time is a span's duration minus the durations of its direct
    child spans.
    """

    def __init__(self):
        self.stack = []  # [name, start, time covered by child spans]
        self.durations = {}
        self.self_time = {}
        self.parent_calls = {}  # (caller span or None, callee) -> calls

    def wrap(self, name, fn):
        stack = self.stack
        self_time = self.self_time
        parent_calls = self.parent_calls
        durations = self.durations.setdefault(name, []) if name in KEEP_DURATIONS else None
        self_time[name] = 0.0
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                if durations is not None:
                    durations.append(dur)
                self_time[name] += dur - frame[2]
                parent = stack[-1] if stack else None
                key = (parent[0] if parent else None, name)
                parent_calls[key] = parent_calls.get(key, 0) + 1
                if parent:
                    parent[2] += dur

        traced.__wrapped__ = fn
        return traced


def _modules():
    import cogalloc

    return {
        name: getattr(cogalloc, name)
        for name in ("cli", "optimizer", "allocator", "economics", "sensing", "simkit")
    } | {"cogalloc": cogalloc}


def install(tracer, command):
    """Patch every reference to each traced function and count batches.

    Returns the names of the traced functions the program has and the
    batch counters, filled while the command runs.
    """
    mods = _modules()
    present = []
    for layer, fname in TRACED_FUNCTIONS:
        original = getattr(mods[layer], fname, None)
        if original is None:
            continue
        present.append(f"{layer}.{fname}")
        wrapper = tracer.wrap(f"{layer}.{fname}", original)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
    cli._COMMANDS[command] = tracer.wrap("cli.cmd", cli._COMMANDS[command])
    # Batches arrived: every non-empty batch a buffer receives, t=0 included.
    counts = {"batches_arrived": 0, "batches_completed": 0, "batches_dropped": 0}
    add_batch = mods["simkit"].BufferState.add_batch

    def counted_add_batch(self, arrival_time, bits):
        if bits > 0:
            counts["batches_arrived"] += 1
        return add_batch(self, arrival_time, bits)

    mods["simkit"].BufferState.add_batch = counted_add_batch
    # Completed/dropped batches come from the episode statistics.
    run_episode = cli.run_episode

    def counted_run_episode(*args, **kwargs):
        stats, traces = run_episode(*args, **kwargs)
        counts["batches_completed"] += sum(stats.completed_batches)
        counts["batches_dropped"] += sum(stats.dropped_batches)
        return stats, traces

    cli.run_episode = counted_run_episode
    return present, counts


def cache_snapshot():
    mods = _modules()
    out = {}
    for prefix, home, fname in CACHES:
        fn = getattr(mods[home], fname, None)
        info = getattr(fn, "cache_info", None)
        out[prefix] = None if info is None else list(info()[:2])
    return out


def main():
    command = CLI_ARGV[0]
    loaded = {}
    load_config = cli.load_config

    def timed_load_config(path):
        t0 = time.perf_counter()
        cfg = load_config(path)
        loaded["t"] = time.perf_counter()
        loaded["load_config_s"] = loaded["t"] - t0
        return cfg

    cli.load_config = timed_load_config
    tracer = present = counts = None
    if TRACED:
        tracer = Tracer()
        present, counts = install(tracer, command)
        caches_before = cache_snapshot()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        code = cli.main(CLI_ARGV)
    end = time.perf_counter()
    result = {
        "exit_code": code,
        "setup_s": loaded["t"] - SPAWN_T,
        "run_s": end - loaded["t"],
        "wall_s": end - SPAWN_T,
        "load_config_s": loaded["load_config_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy_warnings": sum(issubclass(w.category, RuntimeWarning) for w in caught),
    }
    if TRACED:
        caches_after = cache_snapshot()
        result["trace"] = {
            "present": present,
            "durations": tracer.durations,
            "self_s": tracer.self_time,
            "parent_calls": [[p, c, n] for (p, c), n in tracer.parent_calls.items()],
            "counts": counts,
            "caches": {
                k: None
                if caches_after[k] is None
                else [a - b for a, b in zip(caches_after[k], caches_before[k])]
                for k in caches_after
            },
        }
    with open(RESULT_PATH, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
