import json
import os

import pytest

from detlaw.cli import main

HERE = os.path.dirname(__file__)


def _inst(name):
    return os.path.join(HERE, "instances", name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_selftest(capsys):
    code, out = run(capsys, "selftest")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_orbits_c3_f7(capsys):
    code, out = run(capsys, "orbits", _inst("c3_f7.json"), "--d", "2")
    assert code == 0
    report = json.loads(out)
    assert report["law_count"] == "6"
    # all integers are decimal strings
    assert all(isinstance(o["size"], str) for o in report["orbits"])


def test_ext1_cp_f3(capsys):
    code, out = run(capsys, "ext1", _inst("c3_f3.json"),
                    "--v1", "triv", "--v2", "triv")
    assert code == 0
    assert json.loads(out)["dim"] == "1"


def test_pseudorep_round_trips(capsys):
    code, out = run(capsys, "pseudorep", _inst("s3_f3.json"))
    assert code == 0
    report = json.loads(out)
    assert report["multiplicative"] is True and report["unital"] is True

    from detlaw.serialize import instance_from_json, law_with_group_source
    with open(_inst("s3_f3.json")) as fh:
        inst = instance_from_json(json.load(fh))
    D = law_with_group_source(inst.group, inst.field, report["law"])
    assert D.check_axioms()


def test_stratify(capsys):
    code, out = run(capsys, "stratify", _inst("s3_f3.json"),
                    "--v1", "c1", "--v2", "triv")
    assert code == 0
    report = json.loads(out)
    types = [s["type"] for s in report["strata"]]
    assert types == ["ext_up", "semisimple", "ext_down"]
    assert report["total"] == "3"


def test_ordinary_single_branch(capsys):
    code, out = run(capsys, "ordinary", _inst("d5_f5.json"))
    assert code == 0
    report = json.loads(out)
    assert report["single_branch"] is True
    assert report["ordinary_points"] == "5"
    assert report["other_points"] == "4"


def test_gma_det(capsys):
    code, out = run(capsys, "gma-det", _inst("s3_f3.json"))
    assert code == 0
    report = json.loads(out)
    assert report["start_invariant"] is True
    assert report["equals_induced_law"] is True


def test_deterministic_output(capsys):
    _code, out1 = run(capsys, "adapted-points", _inst("s3_f3.json"))
    _code, out2 = run(capsys, "adapted-points", _inst("s3_f3.json"))
    assert out1 == out2


def test_schema_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"group": {"type": "cyclic", "args": ["3"]}}')
    code, out = run(capsys, "orbits", str(bad), "--d", "2")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "SchemaError"


def test_missing_file_exit_code(capsys):
    code, out = run(capsys, "orbits", "/nonexistent.json", "--d", "2")
    assert code == 2


def test_unknown_character_exit_code(capsys):
    code, out = run(capsys, "ext1", _inst("c3_f3.json"), "--v1", "zeta")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "SchemaError"


def test_summary_output_mode(capsys):
    code, out = run(capsys, "kernel", _inst("s3_f3.json"),
                    "--output", "summary")
    assert code == 0
    assert "dimension" in out


def test_summary_prints_unit_coefficients_bare_over_extension_fields(capsys):
    code, out = run(capsys, "pseudorep", _inst("s3_f3.json"), "--field", "5^2",
                    "--output", "summary")
    assert code == 0
    assert out.startswith("law of c1+triv: x0^2 + [2,0]*x0*x3 + ")
    assert "[1,0]" not in out


@pytest.mark.parametrize("instance, argv, code", [
    ({"group": {"type": "cyclic", "args": ["3"]}, "field": {"p": "7", "k": "1"},
      "d": "x"}, ["orbits"], "SchemaError"),
    ({"group": {"type": "cyclic", "args": ["2"]}, "field": {"p": "3", "k": "1"},
      "characters": {"sgn": ["1", "two"]}}, ["ext1", "--v1", "sgn"],
     "SchemaError"),
    ({"group": {"type": "cyclic", "args": ["2"]}, "field": {"p": "3", "k": "1"},
      "characters": []}, ["ext1"], "SchemaError"),
    ({"group": {"type": "symmetric", "args": ["5"]}, "field": {"p": "7", "k": "1"}},
     ["orbits", "--d", "1"], "SizeCapExceeded"),
    ({"group": {"type": "cyclic", "args": ["3"]}, "field": {"p": "7", "k": "1"}},
     ["orbits", "--d", "0"], "SchemaError"),
    ({"group": {"type": "cyclic", "args": ["4"]}, "field": {"p": "7", "k": "2"}},
     ["orbits", "--d", "-1"], "SchemaError"),
    ({"group": {"type": "cyclic", "args": ["3"]}, "field": {"p": "7", "k": "1"},
      "d": "0"}, ["orbits"], "SchemaError"),
], ids=["degree_not_an_int", "character_not_an_int", "characters_not_a_map",
        "symmetric_5", "flag_degree_zero", "flag_degree_negative",
        "degree_zero"])
def test_bad_instance_is_a_structured_error(tmp_path, capsys, instance, argv, code):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance))
    status, out = run(capsys, argv[0], str(path), *argv[1:])
    assert status == 2
    assert json.loads(out)["error"]["code"] == code


def test_ordinary_without_a_second_character(capsys):
    # C3 over F_3 has only the trivial character, so there is no chi
    code, out = run(capsys, "ordinary", _inst("c3_f3.json"))
    assert code == 2
    assert json.loads(out)["error"]["code"] == "SchemaError"
