"""Every name a module of the engine imports is used in that module, every
module-level private function or class is referenced somewhere in the engine
outside its own definition, and the CLI loads every module.

The package `__init__.py` is exempt from the import check: its imports are
the re-exports.
"""

import ast
import json
import subprocess
import sys
from collections import defaultdict
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


def referenced_names(node):
    """The names node refers to: a read name, an attribute or an imported name."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.ImportFrom):
        yield from (alias.name for alias in node.names)


def private_orphans(sources: dict):
    """(module, name) of each module-level _private function or class that no
    node of the given sources refers to outside the definition itself."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    refs = defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            for name in referenced_names(node):
                refs[name].append(node)
    out = []
    for mod, tree in trees.items():
        for d in tree.body:
            if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and d.name.startswith("_") and not d.name.startswith("__"):
                inside = {id(n) for n in ast.walk(d)}
                if all(id(n) in inside for n in refs[d.name]):
                    out.append((mod, d.name))
    return out


def test_engine_private_definitions_are_referenced():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert private_orphans(sources) == []


def test_checker_flags_a_private_orphan():
    sources = {"a.py": ("def _used():\n"
                        "    return 1\n"
                        "def _orphan():\n"
                        "    return _orphan()\n"
                        "class _Imported:\n"
                        "    pass\n"),
               "b.py": ("from .a import _Imported\n"
                        "x = _used()\n")}
    assert private_orphans(sources) == [("a.py", "_orphan")]


def test_the_cli_loads_every_engine_module():
    # a module that the CLI never imports is reached only by tests and demos
    code = (f"import json, sys; sys.path.insert(0, {str(SRC.parent)!r}); import rinehart.cli; "
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('rinehart.'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert json.loads(out) == sorted(f"rinehart.{p.stem}" for p in SRC.glob("*.py")
                                     if p.stem not in ("__init__", "__main__"))
