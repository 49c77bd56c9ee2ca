"""JSON encodings with stable ordering.

All integers are emitted as decimal strings so golden files never depend on
a reader's integer width.  Polynomial terms are listed in descending
graded-lex order, matching MPoly.sorted_terms.
"""

from . import algebras, fields, groups, linalg, poly, pseudo, reps
from .errors import SchemaError


def field_to_json(field):
    return {"p": str(field.p), "k": str(field.k)}


def field_from_json(obj):
    try:
        return fields.make_field(int(obj["p"]), int(obj["k"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad field spec {obj!r}") from exc


def poly_to_json(poly):
    return {
        "field": field_to_json(poly.field),
        "vars": list(poly.vars),
        "terms": [[[str(e) for e in exps], str(c)]
                  for exps, c in poly.sorted_terms()],
    }


def _code(field, text):
    """A field code read from JSON; anything outside 0..q-1 is a SchemaError."""
    c = int(text)
    if not 0 <= c < field.q:
        raise SchemaError(f"code {c} outside 0..{field.q - 1}")
    return c


def poly_from_json(obj):
    try:
        F = field_from_json(obj["field"])
        names = tuple(obj["vars"])
        pairs = [(tuple(int(e) for e in exps), _code(F, c))
                 for exps, c in obj["terms"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad polynomial: {exc}") from exc
    return poly.MPoly.from_terms(F, names, pairs)


def mat_to_json(m):
    codes, c = list(map(str, m.data)), m.ncols
    return [codes[i * c:(i + 1) * c] for i in range(m.nrows)]


def rep_to_json(rep):
    return {
        "field": field_to_json(rep.field),
        "dim": str(rep.dim),
        "images": [mat_to_json(m) for m in rep.images],
    }


def pseudorep_to_json(D):
    return {"degree": str(D.d), "poly": poly_to_json(D.poly)}


def pseudorep_from_json(source, obj):
    try:
        d = int(obj["degree"])
        poly = poly_from_json(obj["poly"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad law: {exc}") from exc
    return pseudo.PseudoRep(source, d, poly, check=True)


_GROUP_MAKERS = {
    "cyclic": lambda a: groups.cyclic(int(a[0])),
    "dihedral": lambda a: groups.dihedral(int(a[0])),
    "symmetric": lambda a: groups.symmetric(int(a[0])),
    "semidirect_cyclic_squared": lambda a: groups.semidirect_cyclic_squared(
        int(a[0]), int(a[1]), int(a[2])),
}


def group_from_json(obj):
    try:
        if "table" in obj:
            table = [[int(x) for x in row] for row in obj["table"]]
            gens = ([int(g) for g in obj["generators"]]
                    if "generators" in obj else None)
            group = groups.FiniteGroup(table, generators=gens,
                                       name=obj.get("name"))
        elif "type" in obj:
            kind = obj["type"]
            if kind == "product":
                parts = [group_from_json(p) for p in obj["factors"]]
                group = parts[0]
                for p in parts[1:]:
                    group = groups.direct_product(group, p)
            else:
                maker = _GROUP_MAKERS.get(kind)
                if maker is None:
                    raise SchemaError(f"unknown group type {kind!r}")
                group = maker(obj.get("args", []))
        else:
            raise SchemaError("group needs a table or a type")
        if "inertia" in obj:
            group = groups.with_inertia(group, [int(g) for g in obj["inertia"]])
        return group
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise SchemaError(f"bad group spec: {exc}") from exc


class Instance:
    """A parsed instance file: a group, a field, and optional extras."""

    def __init__(self, group, field, d=None, characters=None):
        self.group = group
        self.field = field
        self.d = d
        self.characters = characters or {}


def instance_from_json(obj):
    if not isinstance(obj, dict):
        raise SchemaError("instance file must hold a JSON object")
    if "group" not in obj or "field" not in obj:
        raise SchemaError("instance needs 'group' and 'field'")
    group = group_from_json(obj["group"])
    field = field_from_json(obj["field"])
    try:
        d = int(obj["d"]) if "d" in obj else None
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad degree {obj['d']!r}") from exc
    if d is not None and d < 1:
        raise SchemaError(f"degree must be at least 1, got {d}")
    if not isinstance(obj.get("characters", {}), dict):
        raise SchemaError("'characters' must map names to value lists")
    chars = {}
    for name, values in obj.get("characters", {}).items():
        try:
            codes = [int(v) for v in values]
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"character {name!r} has a non-integer value") from exc
        bad = [v for v in codes if not 0 <= v < field.q]
        if bad:
            raise SchemaError(f"character {name!r} has code {bad[0]} "
                              f"outside 0..{field.q - 1}")
        if len(codes) != group.order:
            raise SchemaError(f"character {name!r} has {len(codes)} values "
                              f"for a group of order {group.order}")
        images = [linalg.Mat.from_rows(field, [[v]]) for v in codes]
        chars[name] = reps.Representation(group, field, 1, images)
    return Instance(group, field, d=d, characters=chars)


def law_with_group_source(group, field, obj):
    """Parse a law whose source is the group algebra of the given group."""
    return pseudorep_from_json(algebras.GroupAlgebra(group, field), obj)
