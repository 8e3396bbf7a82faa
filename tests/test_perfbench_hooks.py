"""perfbench's traced mode still finds the names it patches.

``perfbench/child.py`` with trace on wraps ``cli._COMMANDS``,
``cli.run_episode``, ``cli.load_config`` and
``simkit.BufferState.add_batch`` before it runs the command. Renaming
or deleting one of them breaks every traced benchmark call; these tests
run the child on tiny configs and fail first.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"

#: Tiny configs of the simulate and compare-oracle workloads.
CONFIGS = {
    "simulate": {
        "users": {"count": 3},
        "experiment": {"sweep": "none", "n_frames": 5},
        "traffic": {"scale": 0.002},
        "trials": 2,
        "seed": 1,
    },
    "compare-oracle": {
        "users": {"count": 4},
        "experiment": {"sweep": "m", "values": [3, 4]},
        "trials": 2,
        "seed": 1,
    },
}


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_traced_child_runs(tmp_path, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIGS[command]))
    result = tmp_path / "call.json"
    argv = [
        sys.executable, str(CHILD), repr(time.perf_counter()), str(result), "1", "--",
        command, "--config", str(config), "--jobs", "1", "--out", str(tmp_path / "out"),
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(result.read_text())
    assert record["exit_code"] == 0
    trace = record["trace"]
    assert "optimizer.joint_optimize" in trace["present"]
    assert trace["self_s"]["cli.cmd"] > 0.0
    if command == "simulate":
        assert trace["counts"]["batches_arrived"] > 0
