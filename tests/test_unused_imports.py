"""Every name a module of the engine imports is used in that module.

The package `__init__.py` is exempt: its imports are the re-exports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rinehart"


def imported_names(tree):
    """(bound name, line) for each import in the module, nested ones included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    """Names read anywhere in the module, including inside string annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def unused_imports(source: str):
    tree = ast.parse(source)
    used = used_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in used]


def test_engine_modules_have_no_unused_imports():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        bad = unused_imports(path.read_text(encoding="utf-8"))
        if bad:
            found[path.name] = bad
    assert found == {}


def test_checker_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import json\n"
              "from .linalg import Matrix, rank\n"
              "def f(m: 'Matrix'):\n"
              "    return json.dumps(m)\n")
    assert unused_imports(source) == [("rank", 3)]
