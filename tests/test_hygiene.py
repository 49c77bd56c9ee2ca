"""Source hygiene of src/detlaw: no unused imports, few bare asserts.

A bare ``assert`` vanishes under ``python -O``; checked claims should raise
a typed error instead, so the count may only go down.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "detlaw"
MAX_BARE_ASSERTS = 0


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
