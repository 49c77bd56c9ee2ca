"""Source hygiene of src/detlaw: no unused imports, few bare asserts, no
function without a caller.

A bare ``assert`` vanishes under ``python -O``; checked claims should raise
a typed error instead, so the count may only go down.
"""

import ast
import json
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "detlaw"
MAX_BARE_ASSERTS = 0

# Functions kept with no caller in src/detlaw, each with its reason.
NO_CALLER_ALLOWED = {
    "universal_det": "det of the universal adapted matrix; the symbolic check "
                     "det o rho_univ = D_E is to call it (ROADMAP item 10)",
    "law_with_group_source": "the one law reader: the CLI tests re-parse a "
                             "printed pseudorep law with it",
}


def _trees():
    return [(path.name, ast.parse(path.read_text(), filename=str(path)))
            for path in sorted(SRC.glob("*.py"))]


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    # __init__.py imports only to re-export
    found = [f"{name}:{line} {imp}" for name, tree in _trees() if name != "__init__.py"
             for line, imp in _unused_imports(tree)]
    assert found == []


def test_bare_asserts_capped():
    asserts = [f"{name}:{node.lineno}" for name, tree in _trees()
               for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert len(asserts) <= MAX_BARE_ASSERTS, asserts


def _names(node):
    """How often each name occurs under node as a Name or an Attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_function_has_a_caller():
    # a def or class counts as called when its name occurs outside its own
    # body, when __init__.py exports it, or when the benchmark traces it
    trees = dict(_trees())
    names = sum(map(_names, trees.values()), Counter())
    exported = {alias.asname or alias.name for node in ast.walk(trees["__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text())["layers"]
    traced = {part for layer in layers for f in layer["functions"] for part in f.split(".")}
    kept = exported | traced | NO_CALLER_ALLOWED.keys()
    uncalled = [f"{name}:{node.lineno} {node.name}" for name, tree in trees.items()
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not (node.name.startswith("__") and node.name.endswith("__"))
                and node.name not in kept
                and names[node.name] == _names(node)[node.name]]
    assert uncalled == []
