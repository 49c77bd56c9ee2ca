"""Source hygiene of src/detlaw: no unused imports, no import inside a
function, few bare asserts, no function without a caller.

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

# Functions kept with no caller in src/detlaw, each with its reason, by
# module and qualified name.  Being exported is not a caller: the public
# names below are used by the tests and the acceptance battery only.
NO_CALLER_ALLOWED = {
    "algebras.group_algebra": "public constructor of F[G]; the package calls GroupAlgebra "
                              "directly, the algebra and pseudo tests call it",
    "cohomology.assemble_extension": "public: the extension [[rho1, c], [0, rho2]] of a "
                                     "cocycle, which the cohomology tests build and check",
    "cohomology.ext_representatives": "public: one cocycle per class of Ext^1, enumerated "
                                      "by the cohomology tests",
    "gma.gma_full": "public: M_d(F) as a one-block GMA, the first case of the GMA tests "
                    "and acceptance criterion 5",
    "moduli.invariants_separate_laws": "public: acceptance criterion 10, whether trace "
                                       "words separate the laws of a report",
    "moduli.degeneration_lands_in_closed_orbit": "public: the degeneration check that "
                                                 "the moduli tests run on each "
                                                 "non-closed orbit",
    "pseudo.det_law": "public: the determinant law of M_d(F), the reference law of the "
                      "pseudo, gma and acceptance tests",
    "pseudo.is_cayley_hamilton": "public: the Cayley-Hamilton predicate of acceptance "
                                 "criterion 2 and the pseudo tests",
    "pseudo.nilpotency_index": "public: the kernel nilpotency of acceptance criterion 3",
    "reps.trivial_rep": "public: the trivial representation that the reps, cohomology and "
                        "ordinary tests build",
    "gma.AdaptedScheme.universal_det": "det of the universal adapted matrix; the symbolic "
                                       "check det o rho_univ = D_E is to call it (ROADMAP item 10)",
    "serialize.law_with_group_source": "the one law reader: the CLI tests re-parse a "
                                       "printed pseudorep law with it",
    "gma.trace_form": "Tr_E from the GMA data alone: the reference that test_gma and "
                      "acceptance criterion 5 compare Lambda_1 of the canonical "
                      "determinant against",
    "pseudo._kernel_member": "the membership test of ker(D)'s definition, the tests' "
                             "oracle for kernel; perfbench/tracer.py patches it by name "
                             "to count kernel lines, so it moves into the tests with "
                             "ROADMAP item 3's benchmark change, like "
                             "moduli._orbits_direct",
}

# Names that more than one def in src/detlaw carries and that are called
# through a receiver whose class the source does not show, each with its
# reason.  A call x.name on such a receiver counts for every method of that
# name; for any other shared name only calls through self or the class count.
SHARED_NAMES_ALLOWED = {
    "add": "FieldDesc and FinAlgebra: called as F.add and A.add on a field or "
           "algebra held in a variable",
    "sub": "FieldDesc and FinAlgebra: called as F.sub and A.sub likewise",
    "mul": "FieldDesc and FinAlgebra: called as F.mul and A.mul likewise",
    "evaluate": "MPoly and PseudoRep: a polynomial is evaluated as L.evaluate(point)",
    "inverse": "FiniteGroup and Mat: called as group.inverse(h) and g.inverse()",
    "is_homogeneous": "MPoly and PseudoRep: the law's check calls self.poly.is_homogeneous",
    "multiplication_maps": "FinAlgebra and its GroupAlgebra override: called on an "
                           "algebra of either class",
    "reduce": "Ideal and AdaptedScheme: called as ideal.reduce and sch.reduce",
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
    # __init__.py imports errors only to bind it as a package attribute
    found = [f"{name}:{line} {imp}" for name, tree in _trees() if name != "__init__.py"
             for line, imp in _unused_imports(tree)]
    assert found == []


def test_no_function_level_imports():
    # every import sits at the top of its module, where a reader finds a
    # module's dependencies in one place
    found = [f"{name}:{node.lineno}" for name, tree in _trees()
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             and node not in tree.body]
    assert found == []


def test_bare_asserts_capped():
    asserts = [f"{name}:{node.lineno}" for name, tree in _trees()
               for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert len(asserts) <= MAX_BARE_ASSERTS, asserts


def _defs(module, tree):
    """(qualified name, node) of each def and class under tree, and per
    class its bases and the names it defines.  A method is module.Class.name;
    any other def, nested ones too, is module.name."""
    defs, classes = [], {}

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{module}.{owner}.{child.name}" if owner
                             else f"{module}.{child.name}", child))
            if isinstance(child, ast.ClassDef):
                classes[child.name] = (module, [b.id for b in child.bases
                                                if isinstance(b, ast.Name)],
                                       {n.name for n in child.body
                                        if isinstance(n, ast.FunctionDef)})
            walk(child, child.name if isinstance(child, ast.ClassDef) else None)

    walk(tree, None)
    return defs, classes


def _references(tree, classes):
    """(key, node) of each Name and Attribute under tree.  A Name is
    ("name", id); self.x and cls.x in a method of C, and C.x for a class C of
    src/detlaw, are ("def", qualified name of the x that C or a base
    defines); any other attribute is ("attr", x)."""
    def owner(cls, attr):
        module, bases, names = classes[cls]
        if attr in names:
            return f"{module}.{cls}.{attr}"
        return next(filter(None, (owner(b, attr) for b in bases if b in classes)), None)

    out = []

    def walk(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                out.append((("name", child.id), child))
            elif isinstance(child, ast.Attribute):
                base = child.value.id if isinstance(child.value, ast.Name) else None
                receiver = cls if base in ("self", "cls") else base
                qual = owner(receiver, child.attr) if receiver in classes else None
                out.append((("def", qual) if qual else ("attr", child.attr), child))
            walk(child, child.name if isinstance(child, ast.ClassDef) else cls)

    walk(tree, None)
    return out


def test_every_function_has_a_caller():
    # a def or class counts as called when something outside its own body
    # names it, or when the benchmark traces it; an export alone does not.
    # A method whose name another def shares is named only by self.x or
    # Class.x calls that resolve to it, or, for SHARED_NAMES_ALLOWED, by
    # x.name on any receiver
    trees = dict(_trees())
    defs, classes = [], {}
    for name, tree in trees.items():
        more, found = _defs(name[:-len(".py")], tree)
        defs += more
        classes.update(found)
    refs = [ref for tree in trees.values() for ref in _references(tree, classes)]
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text())["layers"]
    traced = {f for layer in layers for f in layer["functions"]}
    kept = traced | NO_CALLER_ALLOWED.keys()
    shared = {n for n, count in Counter(qual.rsplit(".", 1)[1] for qual, _ in defs).items()
              if count > 1}
    assert sorted(SHARED_NAMES_ALLOWED.keys() - shared) == []

    def names_it(key, qual, is_method):
        short = qual.rsplit(".", 1)[1]
        if short not in shared:
            return key[1] == short or key[0] == "def" and key[1].endswith("." + short)
        if is_method:
            return key == ("def", qual) or key == ("attr", short) and short in SHARED_NAMES_ALLOWED
        return key == ("name", short)

    uncalled = []
    for qual, node in defs:
        if node.name.startswith("__") and node.name.endswith("__") or qual in kept:
            continue
        inside = {id(n) for n in ast.walk(node)}
        is_method = qual.count(".") == 2
        if not any(names_it(key, qual, is_method) for key, n in refs if id(n) not in inside):
            uncalled.append(f"{qual}:{node.lineno}")
    assert uncalled == []
