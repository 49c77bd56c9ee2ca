import contextlib
import copy
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import detlaw.pseudo as pseudo_mod
from detlaw.algebras import Ideal
from detlaw import cli
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


def test_chars_are_named_without_surrounding_spaces(capsys):
    inst = _inst("s3_f3.json")
    code, out = run(capsys, "pseudorep", inst, "--chars", "triv, c1")
    assert code == 0
    assert json.loads(out)["characters"] == ["triv", "c1"]
    assert out == run(capsys, "pseudorep", inst, "--chars", "triv,c1")[1]
    code, out = run(capsys, "pseudorep", inst, "--chars", " triv , c1",
                    "--output", "summary")
    assert code == 0
    assert out.startswith("law of triv+c1: ")


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
    ({"group": {"type": "cyclic", "args": ["3"]}, "field": {"p": "7", "k": "1"},
      "characters": {"x": ["8", "2", "4"]}}, ["pseudorep"], "SchemaError"),
    ({"group": {"type": "cyclic", "args": ["3"]}, "field": {"p": "7", "k": "1"},
      "characters": {"x": ["1", "-1", "1"]}}, ["pseudorep"], "SchemaError"),
    ({"group": {"type": "cyclic", "args": ["0"]}, "field": {"p": "7", "k": "1"}},
     ["orbits", "--d", "1"], "SchemaError"),
    ({"group": {"type": "cyclic", "args": ["100000"]}, "field": {"p": "7", "k": "1"}},
     ["orbits", "--d", "1"], "SizeCapExceeded"),
    ({"group": {"type": "symmetric", "args": ["1"]}, "field": {"p": "3", "k": "1"},
      "d": "100000"}, ["enumerate-reps"], "EnumerationCapExceeded"),
], ids=["degree_not_an_int", "character_not_an_int", "characters_not_a_map",
        "symmetric_5", "flag_degree_zero", "flag_degree_negative",
        "degree_zero", "character_code_past_q", "character_code_negative",
        "cyclic_0", "cyclic_100000", "trivial_group_degree_100000"])
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


def test_invariant_violation_exits_3(capsys, monkeypatch):
    # a failed check of a mathematical claim is not bad input
    monkeypatch.setattr(pseudo_mod, "ch_ideal",
                        lambda D: Ideal(D.source, D.source.basis))
    code, out = run(capsys, "ch-quotient", _inst("s3_f3.json"))
    assert code == 3
    assert json.loads(out)["error"]["code"] == "InvariantViolation"


def test_closed_stdout_leaves_no_traceback():
    # the report (about 90 KB) is larger than a pipe's buffer, so the
    # writer meets the closed read end
    src = os.path.join(HERE, os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from detlaw.cli import main; sys.exit(main())",
         "enumerate-reps", _inst("c3_f7.json")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert b"Traceback" not in err


# --- the JSON writer and the argument parser ---

SUBCOMMANDS = ("enumerate-reps", "pseudorep", "char-poly", "kernel", "ch-quotient",
               "gma-verify", "gma-det", "adapted-points", "orbits", "fiber", "ext1",
               "stratify", "ordinary")
INSTANCES = sorted(n for n in os.listdir(os.path.join(HERE, "instances"))
                   if n.endswith(".json"))


@pytest.mark.parametrize("instance", INSTANCES)
def test_reports_are_the_text_of_json_dumps(capsys, instance):
    ok = 0
    for sub in SUBCOMMANDS:
        extra = ["--d", "2"] if sub in ("enumerate-reps", "orbits") else []
        code, out = run(capsys, sub, _inst(instance), *extra)
        indent = 2 if code == 0 else None  # error objects stay on one line
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=indent) + "\n"
        ok += code == 0
    assert ok >= 9


class _Recorder:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)

    def flush(self):
        pass


def test_a_long_report_is_written_in_batches(monkeypatch):
    out = _Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["enumerate-reps", _inst("c3_f7.json")]) == 0
    text = "".join(out.writes)
    assert len(text) > 80000
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    # several full batches, the partial last one, then the newline
    assert len(out.writes) >= 3 and out.writes[-1] == "\n"
    chunks = list(json.JSONEncoder(sort_keys=True, indent=2).iterencode(json.loads(text)))
    assert len(out.writes) - 1 == -(-len(chunks) // cli.JSON_BATCH)


HELP = {
    "kernel": (
        "usage: detlaw kernel [-h] [--d D] [--field FIELD] [--cap CAP] [--chars CHARS]\n"
        "                     [--v1 V1] [--v2 V2] [--psi PSI] [--chi CHI]\n"
        "                     [--output {json,summary}]\n"
        "                     instance\n"
        "\n"
        "positional arguments:\n"
        "  instance              path to an instance JSON file\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --d D\n"
        "  --field FIELD         override field, e.g. 7 or 5^2\n"
        "  --cap CAP\n"
        "  --chars CHARS         comma-separated character names for the law\n"
        "  --v1 V1\n"
        "  --v2 V2\n"
        "  --psi PSI\n"
        "  --chi CHI\n"
        "  --output {json,summary}\n"),
    "selftest": (
        "usage: detlaw selftest [-h] [--d D] [--field FIELD] [--cap CAP]\n"
        "                       [--chars CHARS] [--v1 V1] [--v2 V2] [--psi PSI]\n"
        "                       [--chi CHI] [--output {json,summary}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --d D\n"
        "  --field FIELD         override field, e.g. 7 or 5^2\n"
        "  --cap CAP\n"
        "  --chars CHARS         comma-separated character names for the law\n"
        "  --v1 V1\n"
        "  --v2 V2\n"
        "  --psi PSI\n"
        "  --chi CHI\n"
        "  --output {json,summary}\n"),
}


@pytest.mark.parametrize("sub", sorted(HELP))
def test_subcommand_help_text(capsys, monkeypatch, sub):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([sub, "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == HELP[sub]


def test_every_subcommand_parses_every_flag():
    flags = ["--d", "3", "--field", "5^2", "--cap", "17", "--chars", "triv,c1",
             "--v1", "a", "--v2", "b", "--psi", "c", "--chi", "e",
             "--output", "summary"]
    set_all = {"d": 3, "field": "5^2", "cap": 17, "chars": "triv,c1", "v1": "a",
               "v2": "b", "psi": "c", "chi": "e", "output": "summary"}
    defaults = {"d": None, "field": None, "cap": 200000, "chars": None, "v1": None,
                "v2": None, "psi": None, "chi": None, "output": "json"}
    parser = cli._build_parser()
    for sub in SUBCOMMANDS + ("selftest",):
        func = getattr(cli, "_cmd_" + sub.replace("-", "_"))
        head = [sub] if sub == "selftest" else [sub, "inst.json"]
        place = {} if sub == "selftest" else {"instance": "inst.json"}
        for argv, want in ((head, defaults), (head + flags, set_all)):
            got = vars(parser.parse_args(argv))
            assert got == {"command": sub, "func": func, **place, **want}


# --- d = 3 output, which no benchmark job runs ---

D3_DIGESTS = {
    "orbits s3_f3.json --d 3":
        "c15181c2084bec39c46b6de27838cb519ed94fd86ae83e8f5568b9c675b2225c",
    "fiber s3_f3.json --chars triv,c1,c1":
        "d5c8a47693ccefdf0536ff96d9566f0fdd277892b1236f43145d4881fae59f3e",
    "orbits s3_f3.json --d 3 --field 2":
        "be43a8340c23d0213169a5061b1f60e6071dac571453316a55e2cd4bc8f46bc7",
    "orbits c3_f7.json --d 3 --field 3":
        "a25f0227005e3c7fafbc241c80c00aa80eb603183ab19f4070f9b22e8a781683",
}


@pytest.mark.parametrize("job", sorted(D3_DIGESTS))
def test_d3_output_is_pinned(capsys, job):
    sub, instance, *flags = job.split()
    code, out = run(capsys, sub, _inst(instance), *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == D3_DIGESTS[job]


@pytest.mark.parametrize("field, orbits, points", [("5", 6, 187552), ("2^2", 3, 20476)],
                         ids=["F5", "F4"])
def test_d3_orbits_over_f4_and_f5(capsys, field, orbits, points):
    # d = 3 descends by classes up to q = 5; the counts are those of the
    # Maschke oracle in test_reps (S3/F_5) and of its pinned F_4 case
    code, out = run(capsys, "orbits", _inst("s3_f3.json"), "--d", "3", "--field", field)
    assert code == 0
    report = json.loads(out)
    assert (len(report["orbits"]), report["total_points"]) == (orbits, str(points))


@pytest.mark.parametrize("argv, d, q", [
    (["c3_f3.json", "--d", "4"], 4, 3),
    (["s3_f3.json", "--d", "3", "--field", "7"], 3, 7),
], ids=["c3_f3-d4", "s3_f3-d3-F7"])
def test_unsupported_orbit_dimension_is_a_cap_error(capsys, argv, d, q):
    code, out = run(capsys, "orbits", _inst(argv[0]), *argv[1:])
    assert code == 2
    assert json.loads(out)["error"] == {
        "code": "EnumerationCapExceeded",
        "message": f"candidate enumeration unsupported for d={d}, q={q}"}


# --- fuzzing: mutated instance files end in a report or a structured error ---

def _load_instance(name):
    with open(_inst(name)) as fh:
        return json.load(fh)


SEEDS = [_load_instance(n) for n in INSTANCES]
# small numbers, strings that are no numbers, wrong types, and group specs
FUZZ_VALUES = ["-1", "0", "1", "2", "100000", "x", "", -1, 2, 2.5, None, True,
               [], {}, ["2"], ["2", "1", "1"], {"p": "2"}, "product",
               "dihedral", "semidirect_cyclic_squared", "symmetric"]
FUZZ_KEYS = ["d", "inertia", "characters", "generators", "table", "type",
             "args", "factors", "k", "p"]


def _paths(obj, path=()):
    """The path of every value inside obj, obj itself first."""
    yield path
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def mutated_instances(draw):
    obj = copy.deepcopy(draw(st.sampled_from(SEEDS)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(obj))))
        value = copy.deepcopy(draw(st.sampled_from(FUZZ_VALUES)))
        if not path:
            obj = value
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        action = draw(st.sampled_from(["set", "drop", "add"]))
        if action == "set":
            parent[path[-1]] = value
        elif action == "drop":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[draw(st.sampled_from(FUZZ_KEYS))] = value
    return obj


@pytest.mark.slow
@pytest.mark.parametrize("sub", SUBCOMMANDS)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(instance=mutated_instances())
def test_mutated_instances_end_in_a_report_or_a_structured_error(
        tmp_path, sub, instance):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([sub, str(path), "--cap", "2000"])
    assert code in (0, 2, 3)
    assert isinstance(json.loads(out.getvalue()), dict)
    assert "Traceback" not in err.getvalue()
