"""In-process A/B timing of two cogalloc checkouts, fresh interpreter per sample.

    python3 tools/ab_inprocess.py A_ROOT B_ROOT --mode cli --workload sim-traffic \
        --sets 24 25 --pairs 30
    python3 tools/ab_inprocess.py A_ROOT B_ROOT --mode lone --workload oracle-exact --m 5
    python3 tools/ab_inprocess.py A_ROOT B_ROOT --mode chunks --workload sim-traffic
    python3 tools/ab_inprocess.py A_ROOT B_ROOT --mode startup --workload joint-large \
        --pairs 30

A_ROOT and B_ROOT are source checkouts (each with ``src/cogalloc``); A
is the reference side of every ratio (B / A). Configs are those
perfbench generates: ``WORKLOADS`` is read from ``perfbench/run.py`` of
this checkout, and ``--sets`` are its config seeds (instance sets; a
perfbench run with seed s starts at set ``s * 8 % 64``). Each pair runs
one sample of each side, each in its own fresh interpreter with only
that side's ``src`` on the path, and the side that runs first
alternates from pair to pair. Sets are taken in turn, one per pair.

Modes (the seconds each sample reports):

* ``cli``: one ``cli.main`` call of the workload's subcommand with
  ``--jobs 1``, timed after ``import numpy.random`` and
  ``import cogalloc.cli``. Every report byte of the two sides must be
  equal, except the ``*_wall_time`` columns of ``compare_oracle.csv``.
* ``lone``: a warm ``joint_optimize`` on each instance of sweep point
  0 of the config, with the user count set to ``--m``: one untimed call
  per instance, then ``--repeats`` timed passes; the sample is the
  median pass over the number of instances (seconds per call).
* ``chunks``: the ``simulate`` work of ``--jobs`` >= trials without the
  process pool: each trial of sweep point 0 as its own chunk
  (``cli._sweep_chunk``), the sample one pass over all of them.
* ``startup``: a fresh interpreter from spawn until ``cli.load_config``
  returns inside ``cli.main`` of the workload's subcommand and config
  (nothing is preloaded; the command stops there). The spawn instant is
  the parent's ``time.perf_counter()`` just before it starts the child
  (CLOCK_MONOTONIC, shared by processes on Linux), as in perfbench's
  ``setup_s``.

In ``lone`` and ``chunks`` the two sides' results must have equal
``repr``, and in ``startup`` equal effective configs. The last line
printed is one JSON object with the medians, quartiles and per-pair
ratios.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _workloads() -> dict:
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


# ---------------------------------------------------------------------------
# One sample, in a fresh interpreter
# ---------------------------------------------------------------------------


class _Loaded(Exception):
    """Raised when ``cli.load_config`` returns, to stop a ``startup`` sample."""


def _startup(args) -> None:
    sys.path.insert(0, args.src)
    from cogalloc import cli

    load_config = cli.load_config

    def timed_load_config(path):
        cfg = load_config(path)
        raise _Loaded(time.perf_counter() - args.spawn, cfg)

    cli.load_config = timed_load_config
    try:
        cli.main([args.command, "--config", args.config, "--jobs", "1", "--out", args.out])
    except _Loaded as loaded:
        seconds, cfg = loaded.args
    else:
        raise SystemExit("cli.main returned before load_config did")
    effective = json.dumps(cfg.effective, sort_keys=True)
    print(json.dumps({"seconds": seconds, "result": effective}))


def _child(args) -> None:
    if args.mode == "startup":
        _startup(args)
        return
    import numpy.random  # noqa: F401  (outside every timed span)

    sys.path.insert(0, args.src)
    from cogalloc import cli

    if args.mode == "cli":
        argv = [args.command, "--config", args.config, "--jobs", "1", "--out", args.out]
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
        print(json.dumps({"seconds": seconds, "result": code}))
        return

    cfg = cli.load_config(args.config)
    system, users = cli._apply_sweep(cfg, cfg.sweep_values[0])
    if args.mode == "lone":
        from cogalloc.optimizer import joint_optimize

        instances = [
            cli._instance(cfg, 0, trial, system, users) for trial in range(cfg.trials)
        ]
        outcomes = [joint_optimize(sus, system, grid) for sus, grid in instances]
        passes = []
        for _ in range(args.repeats):
            start = time.perf_counter()
            for sus, grid in instances:
                joint_optimize(sus, system, grid)
            passes.append((time.perf_counter() - start) / len(instances))
        result = [(o.best_design, o.best_allocation) for o in outcomes]
        print(json.dumps({"seconds": statistics.median(passes), "result": repr(result)}))
        return

    start = time.perf_counter()
    results = [
        cli._sweep_chunk((cli._simulate_task, cfg, 0, range(trial, trial + 1)))
        for trial in range(cfg.trials)
    ]
    seconds = time.perf_counter() - start
    print(json.dumps({"seconds": seconds, "result": repr(results)}))


# ---------------------------------------------------------------------------
# The pairs
# ---------------------------------------------------------------------------


def _reports(out_dir: str) -> dict:
    # Every report file's bytes, the wall-time columns' cells blanked.
    got = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), newline="", encoding="utf-8") as fh:
            text = fh.read()
        if name.endswith(".csv"):
            # Row 0 is the schema tag, row 1 the header.
            rows = list(csv.reader(text.splitlines()))
            header = rows[1] if len(rows) > 1 else []
            masked = {i for i, h in enumerate(header) if h.endswith("_wall_time")}
            body = [["" if i in masked else c for i, c in enumerate(r)] for r in rows[2:]]
            text = rows[:2] + body
        got[name] = text
    return got


def _sample(args, root: str, config: str, work: str) -> tuple:
    out = os.path.join(work, "out")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    argv = [
        sys.executable, os.path.abspath(__file__), "--child", "--src",
        os.path.join(root, "src"), "--mode", args.mode, "--workload", args.workload,
        "--command", args.command, "--config", config, "--out", out,
        "--repeats", str(args.repeats),
    ]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv += ["--spawn", repr(time.perf_counter())]
    done = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"sample failed in {root}:\n{done.stderr[-2000:]}")
    got = json.loads(done.stdout.strip().splitlines()[-1])
    reports = _reports(out) if args.mode == "cli" else None
    return got["seconds"], got["result"], reports


def _quartiles(values) -> list:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 6), round(q2, 6), round(q3, 6)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a_root", nargs="?")
    ap.add_argument("b_root", nargs="?")
    ap.add_argument("--mode", choices=("cli", "lone", "chunks", "startup"), default="cli")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--sets", type=int, nargs="+", default=[24])
    ap.add_argument("--pairs", type=int, default=20)
    ap.add_argument("--m", type=int, default=None, help="lone: users per instance")
    ap.add_argument("--repeats", type=int, default=20, help="lone: timed passes")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--src", help=argparse.SUPPRESS)
    ap.add_argument("--config", help=argparse.SUPPRESS)
    ap.add_argument("--out", help=argparse.SUPPRESS)
    ap.add_argument("--command", help=argparse.SUPPRESS)
    ap.add_argument("--spawn", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        _child(args)
        return 0
    if args.b_root is None:
        ap.error("two checkouts are needed: A_ROOT B_ROOT")

    spec = _workloads()[args.workload]
    args.command = spec["command"]
    roots = (os.path.abspath(args.a_root), os.path.abspath(args.b_root))
    seconds = ([], [])
    with tempfile.TemporaryDirectory(prefix="ab_inprocess_") as work:
        configs = []
        for s in args.sets:
            cfg = spec["config"](s)
            if args.m is not None:
                cfg["experiment"] = {"sweep": "m", "values": [args.m]}
                cfg["users"]["count"] = args.m
            path = os.path.join(work, f"config{s}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            configs.append(path)
        sides = [os.path.join(work, "a"), os.path.join(work, "b")]
        for side in sides:
            os.makedirs(side)
        for pair in range(args.pairs):
            config = configs[pair % len(configs)]
            got = [None, None]
            for side in ((0, 1) if pair % 2 == 0 else (1, 0)):
                got[side] = _sample(args, roots[side], config, sides[side])
            if got[0][1:] != got[1][1:]:
                raise SystemExit(f"pair {pair}: the two sides' outputs differ ({config})")
            for side in (0, 1):
                seconds[side].append(got[side][0])
            print(f"pair {pair:3d}  a {got[0][0]:.6f} s  b {got[1][0]:.6f} s  "
                  f"b/a {got[1][0] / got[0][0]:.3f}", flush=True)
    ratios = [b / a for a, b in zip(*seconds)]
    summary = {
        "mode": args.mode, "workload": args.workload, "sets": args.sets, "m": args.m,
        "pairs": args.pairs, "a": roots[0], "b": roots[1],
        "a_quartiles_s": _quartiles(seconds[0]), "b_quartiles_s": _quartiles(seconds[1]),
        "median_pair_ratio": round(statistics.median(ratios), 4),
        "b_faster_in": sum(r < 1.0 for r in ratios),
        "pair_ratios": [round(r, 4) for r in ratios],
        "outputs_equal": True,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
