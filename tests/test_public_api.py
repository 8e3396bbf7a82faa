"""The public surface is what the library, the demos and the acceptance
gate call.

Every name in ``cogalloc.__all__`` must import from the package. It, and
every public top-level ``def``/``class`` of a module in ``src/cogalloc``,
must be referenced in code (an ``ast.Name`` or ``ast.Attribute``, outside its own
``def``/``class``) by a library module other than ``__init__``, by a demo,
or by ``tests/test_acceptance.py``. Docstrings, comments and import rows
are not references, so a name that only unit tests call fails here and
belongs in ``tests/helpers.py`` or nowhere.
"""

import ast
from pathlib import Path

import pytest

import cogalloc

ROOT = Path(__file__).resolve().parent.parent
CALLERS = sorted(
    [p for p in (ROOT / "src" / "cogalloc").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "demos").glob("*.py"))
    + [ROOT / "tests" / "test_acceptance.py"]
)


class _References(ast.NodeVisitor):
    """Names referenced in code, each outside the def/class of that name."""

    def __init__(self):
        self.names = set()
        self.enclosing = []

    def _scope(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scope

    def _refer(self, name):
        if name not in self.enclosing:
            self.names.add(name)

    def visit_Name(self, node):
        self._refer(node.id)

    def visit_Attribute(self, node):
        self._refer(node.attr)
        self.generic_visit(node)


def _referenced() -> set:
    refs = _References()
    for path in CALLERS:
        refs.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    return refs.names


def _defined() -> set:
    # Every public top-level def/class of the library's modules.
    names = set()
    for path in (ROOT / "src" / "cogalloc").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names.update(
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
        )
    return names


REFERENCED = _referenced()
DEFINED = _defined()


def test_callers_found():
    names = {p.name for p in CALLERS}
    assert {"cli.py", "simkit.py", "test_acceptance.py"} <= names
    assert any(p.parent.name == "demos" for p in CALLERS)
    assert {"run_episodes", "BufferState", "UserTable", "main"} <= DEFINED


@pytest.mark.parametrize("name", sorted(cogalloc.__all__))
def test_name_imports(name):
    namespace = {}
    exec(f"from cogalloc import {name}", namespace)
    assert namespace[name] is getattr(cogalloc, name)


@pytest.mark.parametrize("name", sorted(set(cogalloc.__all__) | DEFINED))
def test_name_has_a_caller(name):
    assert name in REFERENCED, (
        f"{name} is exported or defined public but no library module, demo "
        "or acceptance test refers to it"
    )
