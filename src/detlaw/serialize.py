"""JSON encodings with stable ordering.

All integers are emitted as decimal strings so golden files never depend on
a reader's integer width.  Polynomial terms are listed in descending
graded-lex order, matching MPoly.sorted_terms.
"""

from .errors import SchemaError
from .fields import make_field
from .groups import (FiniteGroup, cyclic, dihedral, direct_product,
                     semidirect_cyclic_squared, symmetric, with_inertia)
from .linalg import Mat
from .poly import MPoly
from .pseudo import PseudoRep
from .reps import Representation


def field_to_json(field):
    return {"p": str(field.p), "k": str(field.k)}


def field_from_json(obj):
    try:
        return make_field(int(obj["p"]), int(obj["k"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad field spec {obj!r}") from exc


def poly_to_json(poly):
    return {
        "field": field_to_json(poly.field),
        "vars": list(poly.vars),
        "terms": [[[str(e) for e in exps], str(c)]
                  for exps, c in poly.sorted_terms()],
    }


def poly_from_json(obj):
    try:
        F = field_from_json(obj["field"])
        names = tuple(obj["vars"])
        pairs = [(tuple(int(e) for e in exps), F.coerce(int(c)))
                 for exps, c in obj["terms"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad polynomial: {exc}") from exc
    return MPoly.from_terms(F, names, pairs)


def mat_to_json(m):
    return [[str(x) for x in row] for row in m.rows()]


def mat_from_json(field, rows):
    try:
        data = [[int(x) for x in row] for row in rows]
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad matrix: {exc}") from exc
    return Mat.from_rows(field, data)


def rep_to_json(rep):
    return {
        "field": field_to_json(rep.field),
        "dim": str(rep.dim),
        "images": [mat_to_json(m) for m in rep.images],
    }


def rep_from_json(source, obj):
    try:
        F = field_from_json(obj["field"])
        dim = int(obj["dim"])
        images = [mat_from_json(F, rows) for rows in obj["images"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad representation: {exc}") from exc
    return Representation(source, F, dim, images)


def pseudorep_to_json(D):
    return {"degree": str(D.d), "poly": poly_to_json(D.poly)}


def pseudorep_from_json(source, obj):
    try:
        d = int(obj["degree"])
        poly = poly_from_json(obj["poly"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"bad law: {exc}") from exc
    return PseudoRep(source, d, poly, check=True)


def group_to_json(group):
    out = {
        "name": group.name,
        "table": [[str(x) for x in row] for row in group.table],
        "generators": [str(g) for g in group.generators],
    }
    if group.inertia is not None:
        out["inertia"] = [str(g) for g in sorted(group.inertia)]
    return out


_GROUP_MAKERS = {
    "cyclic": lambda a: cyclic(int(a[0])),
    "dihedral": lambda a: dihedral(int(a[0])),
    "symmetric": lambda a: symmetric(int(a[0])),
    "semidirect_cyclic_squared": lambda a: semidirect_cyclic_squared(
        int(a[0]), int(a[1]), int(a[2])),
}


def group_from_json(obj):
    try:
        if "table" in obj:
            table = [[int(x) for x in row] for row in obj["table"]]
            gens = ([int(g) for g in obj["generators"]]
                    if "generators" in obj else None)
            group = FiniteGroup(table, generators=gens,
                                name=obj.get("name"))
        elif "type" in obj:
            kind = obj["type"]
            if kind == "product":
                parts = [group_from_json(p) for p in obj["factors"]]
                group = parts[0]
                for p in parts[1:]:
                    group = direct_product(group, p)
            else:
                maker = _GROUP_MAKERS.get(kind)
                if maker is None:
                    raise SchemaError(f"unknown group type {kind!r}")
                group = maker(obj.get("args", []))
        else:
            raise SchemaError("group needs a table or a type")
        if "inertia" in obj:
            group = with_inertia(group, [int(g) for g in obj["inertia"]])
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
        if len(codes) != group.order:
            raise SchemaError(f"character {name!r} has {len(codes)} values "
                              f"for a group of order {group.order}")
        images = [Mat.from_rows(field, [[v]]) for v in codes]
        chars[name] = Representation(group, field, 1, images)
    return Instance(group, field, d=d, characters=chars)


def law_with_group_source(group, field, obj):
    """Parse a law whose source is the group algebra of the given group."""
    from .algebras import GroupAlgebra

    return pseudorep_from_json(GroupAlgebra(group, field), obj)
