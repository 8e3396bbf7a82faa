"""The demos stay runnable: every name they import from cogalloc exists,
every call to such a name fits its signature, and the quick ones run to
completion and print what ``tests/expected/<demo>.txt`` holds."""

import ast
import importlib
import inspect
import re
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
EXPECTED = Path(__file__).resolve().parent / "expected"

#: Demos that finish in about a second; demo_delay_simulation.py runs
#: for tens of seconds and is only import-checked.
QUICK = (
    "demo_hessian_probe.py",
    "demo_joint_vs_oracle.py",
    "demo_selection_and_allocation.py",
    "demo_sensing_statistics.py",
)

#: The wall-clock seconds demo_joint_vs_oracle.py prints, which differ
#: from run to run; the expected output holds them masked.
_SECONDS = re.compile(r"(joint|exhaustive) \d+\.\d+ s")


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


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("demo_*.py")))
def test_demo_calls_fit_signatures(demo):
    # Each call to an imported cogalloc name is bound, by its positional
    # count and keyword names alone, to that name's signature; nothing in
    # the demo runs, so the slow demo is checked too. Calls that unpack
    # * or ** arguments cannot be counted and are left out.
    path = DEMOS / demo
    names = {
        name: getattr(importlib.import_module(module), name)
        for module, name in _cogalloc_imports(path)
    }
    calls, stale = 0, []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in names
        ):
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
            k.arg is None for k in node.keywords
        ):
            continue
        calls += 1
        try:
            inspect.signature(names[node.func.id]).bind(
                *node.args, **{k.arg: k.value for k in node.keywords}
            )
        except TypeError as exc:
            stale.append(f"line {node.lineno}: {node.func.id}: {exc}")
    assert calls, f"{demo} calls nothing it imports from cogalloc"
    assert not stale, f"{demo} calls that do not fit: {stale}"


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
    printed = _SECONDS.sub(r"\1 <seconds> s", proc.stdout)
    expected = (EXPECTED / demo).with_suffix(".txt").read_text(encoding="utf-8")
    assert printed == expected
