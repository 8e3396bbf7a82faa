"""The demos stay runnable: every name they import from cogalloc exists,
and the quick ones run to completion."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

#: Demos that finish in about a second; demo_delay_simulation.py runs
#: for tens of seconds and is only import-checked.
QUICK = (
    "demo_hessian_probe.py",
    "demo_joint_vs_oracle.py",
    "demo_selection_and_allocation.py",
    "demo_sensing_statistics.py",
)


def _cogalloc_imports(path: Path) -> list:
    # (module, name) for every ``from cogalloc[.x] import name`` in the file.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module
        and node.module.split(".")[0] == "cogalloc"
        for alias in node.names
    ]


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("demo_*.py")))
def test_demo_imports_exist(demo):
    imports = _cogalloc_imports(DEMOS / demo)
    assert imports, f"{demo} imports nothing from cogalloc"
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, f"{demo} imports names cogalloc lacks: {missing}"


@pytest.mark.parametrize("demo", QUICK)
def test_quick_demo_runs(demo, tmp_path, src_env):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=src_env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
