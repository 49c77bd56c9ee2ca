import json
import os
import subprocess
import sys

import pytest

import detlaw
from detlaw.errors import SchemaError
from detlaw.fields import make_field
from detlaw.groups import symmetric
from detlaw.poly import MPoly
from detlaw.pseudo import PseudoRep
from detlaw.reps import characters, direct_sum
from detlaw.serialize import (field_from_json, field_to_json, group_from_json,
                              instance_from_json, law_with_group_source,
                              poly_from_json, poly_to_json, pseudorep_to_json)

F5 = make_field(5)
F25 = make_field(5, 2)


def test_field_round_trip():
    for F in (F5, F25):
        assert field_from_json(field_to_json(F)) == F


def test_poly_round_trip():
    xs = ("x", "y")
    p = (MPoly.var(F25, xs, "x", coeff=7) + MPoly.var(F25, xs, "y")) ** 2 + 3
    obj = json.loads(json.dumps(poly_to_json(p)))
    assert poly_from_json(obj) == p


def test_poly_json_is_deterministic():
    xs = ("x", "y")
    p = MPoly.var(F5, xs, "y") + MPoly.var(F5, xs, "x") * 2 + 1
    assert json.dumps(poly_to_json(p), sort_keys=True) == \
        json.dumps(poly_to_json(p), sort_keys=True)


def test_pseudorep_round_trip():
    S3 = symmetric(3)
    cs = characters(S3, F5)
    D = PseudoRep.induce(direct_sum(cs[0], cs[1]))
    obj = json.loads(json.dumps(pseudorep_to_json(D)))
    again = law_with_group_source(S3, F5, obj)
    assert again.equals(D)


def test_pseudorep_from_json_checks_axioms():
    S3 = symmetric(3)
    cs = characters(S3, F5)
    D = PseudoRep.induce(direct_sum(cs[0], cs[1]))
    obj = pseudorep_to_json(D)
    obj["terms_broken"] = True
    # drop one term: no longer multiplicative
    obj["poly"]["terms"] = obj["poly"]["terms"][1:]
    with pytest.raises(SchemaError):
        law_with_group_source(S3, F5, obj)


def test_pseudorep_from_json_checks_axioms_under_optimize():
    # assert statements vanish under python -O; the axiom check must not
    script = """
import sys
from detlaw.errors import SchemaError
from detlaw.fields import make_field
from detlaw.groups import symmetric
from detlaw.pseudo import PseudoRep
from detlaw.reps import characters, direct_sum
from detlaw.serialize import law_with_group_source, pseudorep_to_json
assert False, "assert statements are live"
F5 = make_field(5)
S3 = symmetric(3)
cs = characters(S3, F5)
obj = pseudorep_to_json(PseudoRep.induce(direct_sum(cs[0], cs[1])))
obj["poly"]["terms"] = obj["poly"]["terms"][1:]
try:
    law_with_group_source(S3, F5, obj)
except SchemaError:
    sys.exit(0)
sys.exit(1)
"""
    src = os.path.dirname(os.path.dirname(detlaw.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_group_round_trip_table():
    S3 = symmetric(3)
    obj = {"name": S3.name, "table": [[str(x) for x in row] for row in S3.table],
           "generators": [str(g) for g in S3.generators]}
    again = group_from_json(obj)
    assert again.table == S3.table


def test_group_from_type_spec():
    g = group_from_json({"type": "dihedral", "args": ["4"]})
    assert g.order == 8
    g = group_from_json({"type": "product",
                         "factors": [{"type": "cyclic", "args": ["2"]},
                                     {"type": "cyclic", "args": ["3"]}]})
    assert g.order == 6


def test_instance_with_characters_and_inertia():
    obj = {
        "field": {"p": "3", "k": "1"},
        "group": {"type": "symmetric", "args": ["3"],
                  "inertia": ["0", "3", "4"]},
        "characters": {"triv": ["1"] * 6},
    }
    inst = instance_from_json(obj)
    assert inst.group.inertia == frozenset([0, 3, 4])
    assert inst.characters["triv"].check()


def test_out_of_range_codes_are_rejected():
    F7 = make_field(7)
    poly = {"field": field_to_json(F7), "vars": ["x0"], "terms": [[["1"], "9"]]}
    with pytest.raises(SchemaError):
        poly_from_json(poly)
    poly["terms"] = [[["1"], "-1"]]
    with pytest.raises(SchemaError):
        poly_from_json(poly)
    poly["terms"] = [[["1"], "6"]]
    assert poly_from_json(poly).terms == {(1,): 6}


def test_schema_errors():
    with pytest.raises(SchemaError):
        field_from_json({"p": "four"})
    with pytest.raises(SchemaError):
        group_from_json({"type": "monster"})
    with pytest.raises(SchemaError):
        instance_from_json([1, 2, 3])
    with pytest.raises(SchemaError):
        instance_from_json({"field": {"p": "3", "k": "1"},
                            "group": {"type": "cyclic", "args": ["2"]},
                            "characters": {"bad": ["1"]}})
