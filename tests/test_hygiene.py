"""Source hygiene: every name a package module imports is used there or
exported, and every name the benchmark's tracer wraps exists."""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import avasskit

PACKAGE = Path(avasskit.__file__).parent
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _unused_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return imported - used


def test_every_import_is_used_or_exported():
    unused = {}
    for path in sorted(PACKAGE.glob("*.py")):
        names = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            unused[path.name] = sorted(names)
    assert unused == {}


def test_benchmark_tracer_installs_and_uninstalls():
    # perfbench/tracer.py wraps package functions and methods by name from
    # outside the package; a renamed or deleted name must fail here, not only
    # in a traced benchmark run.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    tr = tracer.Tracer()
    try:
        tr.install()
        wrapped = list(tr._restore)
    finally:
        tr.uninstall()
    assert wrapped
    assert all(owner.__dict__[attr] is original for owner, attr, original in wrapped)
