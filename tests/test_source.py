"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sepcert"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names a module imports but never references (``__future__`` aside).

    A name counts as referenced when it occurs as an identifier anywhere in
    the module, including inside string annotations."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_unused_import_check_flags_dead_names():
    src = ("from __future__ import annotations\n"
           "import numpy as np\nimport os.path\nfrom a import b, c as d\n"
           "def f(x: 'b') -> int:\n    return np.zeros(1)\n")
    assert unused_imports(src) == ["d (line 4)", "os (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unused_parameters(source: str) -> list:
    """Parameters that a function never references in its body, as
    ``qualname.parameter (line N)``.  Dunder protocol methods, whose
    signatures the protocol fixes, and a method's ``self`` or ``cls`` are
    skipped."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    a = child.args
                    params = a.posonlyargs + a.args + a.kwonlyargs + [
                        p for p in (a.vararg, a.kwarg) if p is not None]
                    if isinstance(node, ast.ClassDef) and params \
                            and params[0].arg in ("self", "cls"):
                        params = params[1:]
                    used = {n.id for stmt in child.body for n in ast.walk(stmt)
                            if isinstance(n, ast.Name)}
                    found.extend(f"{name}.{p.arg} (line {child.lineno})"
                                 for p in params if p.arg not in used)
                visit(child, f"{name}.")

    visit(ast.parse(source), "")
    return found


# ``problem`` is no longer read, but perfbench/workloads.py and
# cli.cmd_certify pass it; dropping it waits for a change that may edit the
# benchmark (FOUND in CHANGES.md, ROADMAP item 6).
ALLOWED_UNUSED_PARAMETERS = {"extract_witness.problem"}


def test_unused_parameter_check_flags_dead_names():
    src = ("def f(a, b, *args, c=1, **kw):\n"
           "    def g(d):\n        return a + c\n    return kw\n"
           "class K:\n    def __eq__(self, other):\n        return True\n"
           "    def m(self, e):\n        return 1\n")
    assert unused_parameters(src) == ["f.b (line 1)", "f.args (line 1)",
                                      "f.g.d (line 2)", "K.m.e (line 8)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    found = unused_parameters(path.read_text(encoding="utf-8"))
    assert [f for f in found if f.split()[0] not in ALLOWED_UNUSED_PARAMETERS] == []
