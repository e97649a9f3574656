"""Source hygiene: every name a package module imports is used there or
exported, every exported name exists, every private def is used, no
function passes a literal pattern to ``re``, only ``semiset._minimal``
writes into an object's ``__dict__``, every name the benchmark's
tracer wraps exists, and every committed benchmark record agrees with its
own runs."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import statistics
from collections import Counter
from pathlib import Path

import avasskit

PACKAGE = Path(avasskit.__file__).parent
ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


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


def test_every_exported_name_exists():
    # a name listed in __all__ that the module no longer defines breaks
    # ``from avasskit.<module> import *`` and every caller of that name
    missing = {}
    for path in sorted(PACKAGE.glob("*.py")):
        name = "avasskit" if path.stem == "__init__" else f"avasskit.{path.stem}"
        module = importlib.import_module(name)
        names = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        if names:
            missing[path.name] = names
    assert missing == {}


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


def _referenced(node: ast.AST) -> str | None:
    """The name a Name or Attribute node refers to."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def test_every_private_def_is_used():
    # a private function, method or class that nothing else in the package
    # references is dead code; references from its own body do not count
    uses: Counter[str | None] = Counter()
    own: Counter[str] = Counter()
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            uses[_referenced(node)] += 1
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.endswith("__")):
                defs[node.name] = f"{path.name}:{node.lineno}"
                own[node.name] += sum(_referenced(sub) == node.name for sub in ast.walk(node))
    assert len(defs) > 1
    assert sorted(where for name, where in defs.items() if uses[name] <= own[name]) == []


_RE_CALLS = {"match", "search", "fullmatch", "findall", "finditer", "sub", "subn",
             "split", "compile"}


def _literal_pattern_calls(tree: ast.Module) -> list[int]:
    """Lines inside functions that call ``re.<fn>`` with a literal pattern."""
    lines = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(func):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
                    and node.func.attr in _RE_CALLS):
                continue
            args = node.args[:1] + [k.value for k in node.keywords if k.arg == "pattern"]
            if any(isinstance(a, (ast.Constant, ast.JoinedStr)) for a in args):
                lines.append(node.lineno)
    return sorted(set(lines))


def test_no_function_compiles_a_literal_pattern_per_call():
    # a literal pattern passed to re.match & co. inside a function is looked
    # up in re's cache (or compiled) on every call; it belongs in a
    # module-level compiled pattern
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = _literal_pattern_calls(ast.parse(path.read_text(encoding="utf-8")))
        if lines:
            found[path.name] = lines
    assert found == {}


def test_literal_pattern_check_sees_each_form():
    src = (
        "import re\n"
        "P = re.compile(r'x')\n"
        "def f(s, label):\n"
        "    re.match(r'^a$', s)\n"
        "    re.search(rf'{label}=', s)\n"
        "    re.sub(pattern='b', repl='', string=s)\n"
        "    P.match(s)\n"
        "    re.match(P, s)\n"
    )
    assert _literal_pattern_calls(ast.parse(src)) == [4, 5, 6]


_DICT_MUTATORS = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__",
                  "__delitem__"}


def _is_instance_dict(node: ast.AST) -> bool:
    """``x.__dict__`` or ``vars(x)``."""
    return ((isinstance(node, ast.Attribute) and node.attr == "__dict__")
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "vars"))


def _writes_instance_dict(node: ast.AST) -> bool:
    if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
        targets = node.targets if isinstance(node, (ast.Assign, ast.Delete)) else [node.target]
        return any(_is_instance_dict(t) or (isinstance(t, ast.Subscript)
                                            and _is_instance_dict(t.value))
                   for t in targets)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        f = node.func
        return ((f.attr in _DICT_MUTATORS and _is_instance_dict(f.value))
                or (f.attr in ("__setattr__", "__delattr__")
                    and isinstance(f.value, ast.Name) and f.value.id == "object"))
    return False


def _instance_dict_writers(tree: ast.Module) -> list[str]:
    """Functions (or ``<module>``) that write into an object's ``__dict__`` past its setters."""
    owner = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                owner[node] = func.name  # ast.walk meets outer functions first
    return sorted({owner.get(node, "<module>") for node in ast.walk(tree)
                   if _writes_instance_dict(node)})


def test_only_minimal_writes_into_a_set_dict():
    # _minimal marks the sets it builds as minimal and stores their masks;
    # a set marked by any other code could be handed back by normalized()
    # without being minimal, which would change what prestar prints.  The
    # __post_init__ hooks normalize fields of their own frozen dataclasses.
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        names = _instance_dict_writers(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            found[path.name] = names
    own_fields = ["__post_init__"]
    assert found == {"generators.py": own_fields, "machine.py": own_fields,
                     "omega.py": own_fields, "presburger.py": own_fields,
                     "semiset.py": ["_minimal"]}


def test_instance_dict_check_sees_each_form():
    src = (
        "def a(s): s.__dict__['x'] = 1\n"
        "def b(s): s.__dict__.update(x=1)\n"
        "def c(s): vars(s)['x'] = 1\n"
        "def d(s): object.__setattr__(s, 'x', 1)\n"
        "def e(s): s.__dict__ = {}\n"
        "def f(s): return s.__dict__.get('x'), vars(s), s.x\n"
        "def g(s):\n"
        "    def inner(): del s.__dict__['x']\n"
        "    return inner\n"
    )
    assert _instance_dict_writers(ast.parse(src)) == ["a", "b", "c", "d", "e", "inner"]


def _change_wins(better: str, parent_runs: list[float], change_runs: list[float]) -> int:
    """Pairs, zipped in run order, in which the change beats the parent."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent_runs, change_runs))


def test_benchmark_records_agree_with_their_runs():
    # a median or a win count in BENCH_<n>.json that its own parent_runs and
    # change_runs do not give is a hand-edited claim
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    wrong = []
    for path in paths:
        record = json.loads(path.read_text(encoding="utf-8"))
        for workload, entry in record["workloads"].items():
            for name, m in entry["metrics"].items():
                parent, change = m["parent_runs"], m["change_runs"]
                if (len(parent) != len(change)
                        or statistics.median(parent) != m["parent"]["median"]
                        or statistics.median(change) != m["change"]["median"]
                        or _change_wins(m["better"], parent, change) != m["change_wins"]):
                    wrong.append(f"{path.name} {workload}/{name}")
        holdout = record.get("holdout")
        if holdout is not None:
            better = record["workloads"][holdout["workload"]]["metrics"][holdout["metric"]]["better"]
            if _change_wins(better, holdout["parent_runs"],
                            holdout["change_runs"]) != holdout["change_wins"]:
                wrong.append(f"{path.name} holdout")
    assert wrong == []
