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
from detlaw.serialize import instance_from_json, law_with_group_source

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


@pytest.mark.parametrize("argv", [
    ["kernel", "s3_f3.json", "--chars", ""], ["ext1", "c3_f3.json", "--v1", ""],
    ["ext1", "c3_f3.json", "--v2", ""], ["ordinary", "d5_f5.json", "--psi", ""],
    ["ordinary", "d5_f5.json", "--chi", ""]],
    ids=["chars", "v1", "v2", "psi", "chi"])
def test_an_empty_character_flag_is_an_error(capsys, argv):
    # an empty name is looked up like any other, not read as the flag's absence
    code, out = run(capsys, argv[0], _inst(argv[1]), *argv[2:])
    assert code == 2
    err = json.loads(out)["error"]
    assert err["code"] == "SchemaError"
    assert err["message"].startswith("no character named ''")


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
                        lambda D, bound=None: Ideal(D.source, D.source.basis))
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
    # a write joins at most JSON_BATCH pieces plus one per level of nesting
    # (5 here), and no piece of this report is longer than a matrix row at
    # depth 5, 46 characters: several bounded writes, then the newline
    assert len(out.writes) >= 3 and out.writes[-1] == "\n"
    assert max(map(len, out.writes)) <= (cli.JSON_BATCH + 5) * 46 < len(text)


# strings with quotes, backslashes, control and non-ASCII characters
_JSON_TEXT = st.text(st.sampled_from('a"\\/\n\t\x00\x1f\x7fé \U0001f600') | st.characters(),
                     max_size=6)
_JSON_TREES = st.recursive(
    st.one_of(_JSON_TEXT, st.booleans(), st.none(), st.integers(), st.lists(_JSON_TEXT)),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_JSON_TEXT, kids, max_size=4),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_JSON_TREES)
def test_json_batches_write_the_text_of_json_dumps(report):
    want = json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert "".join(cli._json_batches(report)) == want
    # a batch of one piece flushes after every item
    saved, cli.JSON_BATCH = cli.JSON_BATCH, 1
    try:
        assert "".join(cli._json_batches(report)) == want
    finally:
        cli.JSON_BATCH = saved


USAGE = (
    "usage: detlaw SUBCOMMAND [INSTANCE] [--FLAG VALUE ...]\n"
    "\n"
    "subcommands, each but selftest reading one instance JSON file:\n"
    "  enumerate-reps, pseudorep, char-poly, kernel, ch-quotient, gma-verify,\n"
    "  gma-det, adapted-points, orbits, fiber, ext1, stratify, ordinary, selftest\n"
    "\n"
    "flags, taken by every subcommand, also as --flag=value or a unique prefix:\n"
    "  --d D, --field FIELD     degree and field (e.g. 7 or 5^2) in place of the file's\n"
    "  --cap CAP                search cap (default 200000)\n"
    "  --chars CHARS            comma-separated character names for the law\n"
    "  --v1 V1, --v2 V2         the two characters of ext1 and stratify\n"
    "  --psi PSI, --chi CHI     the two characters of ordinary\n"
    "  --output {json,summary}  report format (default json)\n"
    "  -h, --help               print this text and exit\n")


@pytest.mark.parametrize("argv", [["-h"], ["kernel", "-h"], ["selftest", "--help"]],
                         ids=["detlaw", "kernel", "selftest"])
def test_subcommand_help_text(capsys, argv):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (USAGE, "")
    assert all(sub in USAGE for sub in cli._COMMANDS)


def test_every_subcommand_parses_every_flag(monkeypatch):
    flags = ["--d", "3", "--field", "5^2", "--cap", "17", "--chars", "triv,c1",
             "--v1", "a", "--v2", "b", "--psi", "c", "--chi", "e",
             "--output", "summary"]
    set_all = {"d": 3, "field": "5^2", "cap": 17, "chars": "triv,c1", "v1": "a",
               "v2": "b", "psi": "c", "chi": "e", "output": "summary"}
    defaults = {"d": None, "field": None, "cap": 200000, "chars": None, "v1": None,
                "v2": None, "psi": None, "chi": None, "output": "json"}
    # the --flag=value and unique-prefix forms, and flags before the words
    spelled = [["--output=summary"], ["--out", "summary"], ["--o=summary"]]
    assert sorted(cli._COMMANDS) == sorted(SUBCOMMANDS + ("selftest",))
    # the second pass: POSIXLY_CORRECT once stopped the parse at the first word
    for posix in (False, True):
        if posix:
            monkeypatch.setenv("POSIXLY_CORRECT", "1")
        for sub in SUBCOMMANDS + ("selftest",):
            assert cli._COMMANDS[sub] is getattr(cli, "_cmd_" + sub.replace("-", "_"))
            head = [sub] if sub == "selftest" else [sub, "inst.json"]
            place = {"instance": None if sub == "selftest" else "inst.json"}
            cases = [(head, defaults), (head + flags, set_all), (flags + head, set_all)]
            cases += [(head + form, {**defaults, "output": "summary"}) for form in spelled]
            for argv, want in cases:
                got = vars(cli._parse_args(argv))
                assert got == {"command": sub, **place, **want}


S3_F3 = _inst("s3_f3.json")


@pytest.mark.parametrize("argv", [
    [], ["frobnicate"], ["kernel"], ["kernel", S3_F3, S3_F3], ["selftest", S3_F3],
    ["--bogus", "1"], ["kernel", S3_F3, "--bogus", "1"], ["kernel", S3_F3, "--c", "x"],
    ["kernel", S3_F3, "--chars"], ["orbits", S3_F3, "--d", "two"],
    ["enumerate-reps", S3_F3, "--cap", "1.5"], ["kernel", S3_F3, "--output", "xml"],
    ["kernel", S3_F3, "--output=xml"],
], ids=["empty", "unknown_subcommand", "no_instance", "two_instances",
        "selftest_with_instance", "bogus_flag_alone", "bogus_flag", "ambiguous_prefix",
        "flag_without_value", "d_not_an_int", "cap_not_an_int", "output_choice",
        "output_choice_with_equals"])
def test_argv_errors_are_structured(capfd, argv):
    # the instance file is a good one, so the argv is the only fault
    assert main(argv) == 2
    out, err = capfd.readouterr()
    assert err == ""
    assert len(out.splitlines()) == 1
    assert json.loads(out)["error"]["code"] == "SchemaError"


# --- pinned stdout: the sha256 and exit code of each job ---

def _corpus_jobs():
    """Every subcommand on every instance file, in both output formats, with
    --d 2 where the file has no d and --v1 c1 for stratify where c1 exists."""
    jobs = []
    for name in INSTANCES:
        with open(_inst(name)) as fh:
            obj = json.load(fh)
        extra = [] if "d" in obj else ["--d", "2"]
        has_c1 = "c1" in cli._named_characters(instance_from_json(obj))
        for sub in SUBCOMMANDS:
            flags = extra + (["--v1", "c1"] if sub == "stratify" and has_c1 else [])
            jobs += [" ".join([sub, name, *flags, "--output", fmt])
                     for fmt in ("json", "summary")]
    return jobs


# d = 3 jobs, which no benchmark job runs, then the instance corpus
PINNED = {
    "orbits s3_f3.json --d 3":
        (0, "c15181c2084bec39c46b6de27838cb519ed94fd86ae83e8f5568b9c675b2225c"),
    "fiber s3_f3.json --chars triv,c1,c1":
        (0, "d5c8a47693ccefdf0536ff96d9566f0fdd277892b1236f43145d4881fae59f3e"),
    "orbits s3_f3.json --d 3 --field 2":
        (0, "be43a8340c23d0213169a5061b1f60e6071dac571453316a55e2cd4bc8f46bc7"),
    "orbits c3_f7.json --d 3 --field 3":
        (0, "a25f0227005e3c7fafbc241c80c00aa80eb603183ab19f4070f9b22e8a781683"),
    "enumerate-reps c3_f3.json --d 2 --output json":
        (0, "3d4ea1bff5296363336017e94639e37ff3159a41ec18d451cdeef68bf584230e"),
    "enumerate-reps c3_f3.json --d 2 --output summary":
        (0, "22de9859d4d02c83026cd7b4a4f7bd8925beb2f46d4b9c395fd4763bc704d71c"),
    "pseudorep c3_f3.json --d 2 --output json":
        (0, "623f0f8455ff674d5f48f78a0fc3c10c2de31d9005efd4ed166be21dc77e8b2d"),
    "pseudorep c3_f3.json --d 2 --output summary":
        (0, "0218d24c95a7cc998e08eb5a5e0616cfe3cc657ce5930f7abeacf48e8597cf34"),
    "char-poly c3_f3.json --d 2 --output json":
        (0, "2a870554b262b1c841e49032a791dd649435d096e9c62efcf07f02df71042f3c"),
    "char-poly c3_f3.json --d 2 --output summary":
        (0, "1bab4b56cdebe0b27637f60c33079294ca457085a4052c1b4ec5d8164b9cdf0b"),
    "kernel c3_f3.json --d 2 --output json":
        (0, "3013307b1fd4f1c9f4975e196c9c7c9daa22cb89732fef4bebf942bc7bb9bd94"),
    "kernel c3_f3.json --d 2 --output summary":
        (0, "6334bf3ad2d43a68ced5720bf10bf7f95ce11e4da6d44c53279268e49ed4166c"),
    "ch-quotient c3_f3.json --d 2 --output json":
        (0, "f7789a67e3dad24882a02fdd423f9d9a547ff96613f8e288652ca796d016b059"),
    "ch-quotient c3_f3.json --d 2 --output summary":
        (0, "d18cffce9240d7730f78f1b1dfb7dbbf2d28323cdcabb59da3583ba946eceba7"),
    "gma-verify c3_f3.json --d 2 --output json":
        (0, "b571ff5cbfd68223165dce584e22f76d6643bbd2e46e95134a4f16ac8cc654d0"),
    "gma-verify c3_f3.json --d 2 --output summary":
        (0, "2288ef24f9340e3642774ce803bed93774adf44b9dc3cdbe8eec8689220b2c13"),
    "gma-det c3_f3.json --d 2 --output json":
        (0, "dd9e7983f212d3ac5919aee62ab369957e7719f4d2961aa7a8ef7e00a57921c7"),
    "gma-det c3_f3.json --d 2 --output summary":
        (0, "0337b653b890246f74c6b357948d8b11d5d2a1abbfe12f1ac79a90e05ab9d400"),
    "adapted-points c3_f3.json --d 2 --output json":
        (0, "28f3f1319b96e8f1aebd7b8ea99dde3567091d372e45b544f43f7bcabc192c78"),
    "adapted-points c3_f3.json --d 2 --output summary":
        (0, "678f39a871ff0552f06a12e91af379d9b4a93110a4efbccde3cb796535261a27"),
    "orbits c3_f3.json --d 2 --output json":
        (0, "c2f64de4d3424b2c4def4aef958dc1d35c369be9dffdaa62c2119ff286e87d3e"),
    "orbits c3_f3.json --d 2 --output summary":
        (0, "e5d4909463b8b3342a138331c8b1fd2bbf923ac67e48d41105f435f0a6a4cc05"),
    "fiber c3_f3.json --d 2 --output json":
        (0, "2ae26adcb7bbbc5e6cfc678cb32ab9dbb997c6e8d8a2958c36024a4e72b42f82"),
    "fiber c3_f3.json --d 2 --output summary":
        (0, "5a8ead8bf89448aa8ae3b49ad910682041f710ddb61ac3a9f0f190e16e046ab2"),
    "ext1 c3_f3.json --d 2 --output json":
        (0, "09eea7013281ebbb9222b6f4f2ee059a54de1c3d6b7b18035de5c1ef72912193"),
    "ext1 c3_f3.json --d 2 --output summary":
        (0, "55db6daa1d42b70eb5f448da12d91fa6f174881a24804a4a09ac532afefc9db7"),
    "stratify c3_f3.json --d 2 --output json":
        (2, "8f896eed54f49d07fe38224b67e65704fd34087447a9dde379b2be111dc75dff"),
    "stratify c3_f3.json --d 2 --output summary":
        (2, "8f896eed54f49d07fe38224b67e65704fd34087447a9dde379b2be111dc75dff"),
    "ordinary c3_f3.json --d 2 --output json":
        (2, "f7f99b576b8e65ea334485d809fe55f065b95a48e4e74a5950633208995ffc4a"),
    "ordinary c3_f3.json --d 2 --output summary":
        (2, "f7f99b576b8e65ea334485d809fe55f065b95a48e4e74a5950633208995ffc4a"),
    "enumerate-reps c3_f7.json --output json":
        (0, "92bf97607b4aea1e2ebc4103ca379871c79abe38845b66660d37c2ff64941c33"),
    "enumerate-reps c3_f7.json --output summary":
        (0, "7092c72eeda8aef05509e268a40ddeabbc478ca60db08219dadb1c986a71090d"),
    "pseudorep c3_f7.json --output json":
        (0, "f8aee9d991b76a3b130c4972558273467c899c18d6ff7a9aa725b882270b19b4"),
    "pseudorep c3_f7.json --output summary":
        (0, "5706cd2f3abfdc7c1487b0295efd4495272fc48d5813d9ab19ac149c3e3a1b1e"),
    "char-poly c3_f7.json --output json":
        (0, "03b6531dee4e80198d572ec1d2895ce9f8ce14b958902e41a9b526f8eee9c3a0"),
    "char-poly c3_f7.json --output summary":
        (0, "dc111f68bca067102f0f03c1a82c673e999ad4c6f09022aea7ae37550359b647"),
    "kernel c3_f7.json --output json":
        (0, "3f9f6f4a271583f4e0bd4011a742754ebec0e2d52d3cf3e17e03138e29ccfc8f"),
    "kernel c3_f7.json --output summary":
        (0, "6a5af07bb8c3ffd5d5f91329229fa6307d8a9477339585a120995595042263f7"),
    "ch-quotient c3_f7.json --output json":
        (0, "1a74552dec68389e517dc97028a3905c24e164bdd3ffa9344595f46b5c349d98"),
    "ch-quotient c3_f7.json --output summary":
        (0, "bed8b3f57001f22cd0e2abe8a659bbf59456890623482debd78ec51bcc58e202"),
    "gma-verify c3_f7.json --output json":
        (0, "d450aaf29651d64ce3872b28e766015f433c9105abb865088217751bc9331802"),
    "gma-verify c3_f7.json --output summary":
        (0, "2288ef24f9340e3642774ce803bed93774adf44b9dc3cdbe8eec8689220b2c13"),
    "gma-det c3_f7.json --output json":
        (0, "04e0fd0ed713a220e478fcca8c0bd3813c703a672693f453410830ca82930c73"),
    "gma-det c3_f7.json --output summary":
        (0, "0337b653b890246f74c6b357948d8b11d5d2a1abbfe12f1ac79a90e05ab9d400"),
    "adapted-points c3_f7.json --output json":
        (0, "942607c3e86c25f2905e23962008433002f66b99568bb6802d1be7780da4a632"),
    "adapted-points c3_f7.json --output summary":
        (0, "678f39a871ff0552f06a12e91af379d9b4a93110a4efbccde3cb796535261a27"),
    "orbits c3_f7.json --output json":
        (0, "e0640aa0af5ccae436b22deea66d16949898f24f37933275bf754600229e74b3"),
    "orbits c3_f7.json --output summary":
        (0, "1537e9450ca826b287d5e86c3c733f9ea201cd6d8b925b5e6ca7efafa7a7c0db"),
    "fiber c3_f7.json --output json":
        (0, "c7ac427f29988c4c20184f5fa336f4d19e5927ede4408e8037c3826030211f98"),
    "fiber c3_f7.json --output summary":
        (0, "24378670511d574c173f949ae61c10392e6ff9f9bca478c5a131214328827bf8"),
    "ext1 c3_f7.json --output json":
        (0, "da353a0217271ac9dc8ffa79221b77e56bf5b9ab9580abed36005f37a4aaea10"),
    "ext1 c3_f7.json --output summary":
        (0, "e5bc157af08ffc96654ad0074e187827b2099f4116e07e3a2ce880b62468a758"),
    "stratify c3_f7.json --v1 c1 --output json":
        (0, "33a545238ffd705fa24fe43a1fc0e6f5f50660f33514def74c8cfe5ea33fdc64"),
    "stratify c3_f7.json --v1 c1 --output summary":
        (0, "06f3f0c8bdb59cbc5d0c8ca2651266a5f5bf4ee96df932ed5934365118f4d4af"),
    "ordinary c3_f7.json --output json":
        (2, "c6cec3a7f6207d4199ea66dff24728b421aa375d67d0f06cc006453462573d2d"),
    "ordinary c3_f7.json --output summary":
        (2, "c6cec3a7f6207d4199ea66dff24728b421aa375d67d0f06cc006453462573d2d"),
    "enumerate-reps d5_f5.json --d 2 --output json":
        (0, "914611700d38754c22b7102a0216e8859cc63599c25e2a7db82f227ea1c499b5"),
    "enumerate-reps d5_f5.json --d 2 --output summary":
        (0, "772c3e94418ed66e31a06b9007316e6ff4fb68044d1add77a5cca14cca7fecf3"),
    "pseudorep d5_f5.json --d 2 --output json":
        (0, "73f13e89d8b58e7e95031e3698d11a24fe0ea9eae981abb5acf77cc19fa895c7"),
    "pseudorep d5_f5.json --d 2 --output summary":
        (0, "cfdbb91d50aef94c2166aceb3835b0e52e7b4ef27f34babdc6586a59686c4181"),
    "char-poly d5_f5.json --d 2 --output json":
        (0, "288b121b6729c8c8e9c515578170fa890268af27eeca2682df2eb7247707b5ef"),
    "char-poly d5_f5.json --d 2 --output summary":
        (0, "2db62be66cd5e22284e3ae0aef20e0e0fa4533b56b75168d41a219e65b33ea16"),
    "kernel d5_f5.json --d 2 --output json":
        (0, "88498c2fc41b786d5bda784a9454ac2b0e1c56f9c35fb4d619200969a41a6f50"),
    "kernel d5_f5.json --d 2 --output summary":
        (0, "17317e5e7d90878b1b5a0c3869d0f9d2ca862ba3a508466914a00d39cb412616"),
    "ch-quotient d5_f5.json --d 2 --output json":
        (0, "6e084e6d59a90637712b5feb9161c21a20aa1682d4f43d5a5db7516bbe27b7a4"),
    "ch-quotient d5_f5.json --d 2 --output summary":
        (0, "68899d09336d7347c8d59192c81fa6b167424638e1eadb866b3a823cc0d6bf00"),
    "gma-verify d5_f5.json --d 2 --output json":
        (0, "36ec1d5f3b619f9937b573ba320086b20c47c2a0bece9a6ccf35a7e4d9f585f7"),
    "gma-verify d5_f5.json --d 2 --output summary":
        (0, "2288ef24f9340e3642774ce803bed93774adf44b9dc3cdbe8eec8689220b2c13"),
    "gma-det d5_f5.json --d 2 --output json":
        (0, "a07a56877be784475764641150dbf8c1e849e7371f6187a2328e07367c23737a"),
    "gma-det d5_f5.json --d 2 --output summary":
        (0, "0337b653b890246f74c6b357948d8b11d5d2a1abbfe12f1ac79a90e05ab9d400"),
    "adapted-points d5_f5.json --d 2 --output json":
        (0, "5312619b87b2adf53e53b48f43ab49caa011d52cfeaf784c46adaecc61e965cb"),
    "adapted-points d5_f5.json --d 2 --output summary":
        (0, "e5363ec8db75343ea295d136cd5489867fc587a50a19196021d178f50854ac57"),
    "orbits d5_f5.json --d 2 --output json":
        (0, "3ff407c55e8c7156d9803f0cd26fd50c2cb74e3f18f511cbfddc113c9c6dffe8"),
    "orbits d5_f5.json --d 2 --output summary":
        (0, "18ba7baadb7dcde57388f0e23be28bf6b2b9a04feb6ac0cf9b75a063bdc0409f"),
    "fiber d5_f5.json --d 2 --output json":
        (0, "87a40340dc2f35e6b9bd6c83c608dad456a216660ea3209766efa51a9c41738b"),
    "fiber d5_f5.json --d 2 --output summary":
        (0, "bbfa2068f2fe54e8010af160eeaccf18d1dbf57e749522c786e6e71c52671036"),
    "ext1 d5_f5.json --d 2 --output json":
        (0, "da353a0217271ac9dc8ffa79221b77e56bf5b9ab9580abed36005f37a4aaea10"),
    "ext1 d5_f5.json --d 2 --output summary":
        (0, "e5bc157af08ffc96654ad0074e187827b2099f4116e07e3a2ce880b62468a758"),
    "stratify d5_f5.json --d 2 --v1 c1 --output json":
        (0, "ec4e569f26841566ad92d20b0aad06aabdbe073d45a4aa55b8ec20cdea73223e"),
    "stratify d5_f5.json --d 2 --v1 c1 --output summary":
        (0, "283ae7ab6bd3f81719b2d170f1dcc5bb918211759eb4ef62acd66f7f785afdf9"),
    "ordinary d5_f5.json --d 2 --output json":
        (0, "4225ec3d848d95fd95bf31f751f4efd49765835c0b30416d4e25c92287f7aff4"),
    "ordinary d5_f5.json --d 2 --output summary":
        (0, "01724d5b0627339335d73a0e8152f48366583b3433763541b1ab298f93c57443"),
    "enumerate-reps s3_f3.json --d 2 --output json":
        (0, "7961a66a58ee07af70bef258d065c764d6cf5990d9cf63af222a5af7a26e85d9"),
    "enumerate-reps s3_f3.json --d 2 --output summary":
        (0, "c4dc0ad75850d6b404cfdd9d79af5087b1ba036d7b1ba5910d259ac7ebe4cf4a"),
    "pseudorep s3_f3.json --d 2 --output json":
        (0, "18d49ea1859fa12c6d07c4f31c3d48607db1005e9f513f74ef83d708e2256cf2"),
    "pseudorep s3_f3.json --d 2 --output summary":
        (0, "5163171d4ecd8c9ed1b0e7c89d43c94896334b966f85a18855b71cd5b6f07632"),
    "char-poly s3_f3.json --d 2 --output json":
        (0, "072a6e751f786a1ce7c54815ff1d40f1baaf4d1646211a2968cbee6b3d3f2894"),
    "char-poly s3_f3.json --d 2 --output summary":
        (0, "e9686bb72166de7fc24ccd284a69a6cf1eadf06b4394da7db4174579b8e96476"),
    "kernel s3_f3.json --d 2 --output json":
        (0, "048236a00d98db6dbef9ad9a48ce1a0b4b41447e904d327317825b3945f213a1"),
    "kernel s3_f3.json --d 2 --output summary":
        (0, "9e051666b227f752228d5923de88a2a69f2d6e40bba3028da647fbe2401ab38b"),
    "ch-quotient s3_f3.json --d 2 --output json":
        (0, "483fabc351c73163e8520fc855ac996e00357987145bf3d466bcf868c60a57fd"),
    "ch-quotient s3_f3.json --d 2 --output summary":
        (0, "68899d09336d7347c8d59192c81fa6b167424638e1eadb866b3a823cc0d6bf00"),
    "gma-verify s3_f3.json --d 2 --output json":
        (0, "36ec1d5f3b619f9937b573ba320086b20c47c2a0bece9a6ccf35a7e4d9f585f7"),
    "gma-verify s3_f3.json --d 2 --output summary":
        (0, "2288ef24f9340e3642774ce803bed93774adf44b9dc3cdbe8eec8689220b2c13"),
    "gma-det s3_f3.json --d 2 --output json":
        (0, "1b18b7d4e63ecede69501ee5fca6009bab5f8ba5dae979ad1a9da8354590ac71"),
    "gma-det s3_f3.json --d 2 --output summary":
        (0, "0337b653b890246f74c6b357948d8b11d5d2a1abbfe12f1ac79a90e05ab9d400"),
    "adapted-points s3_f3.json --d 2 --output json":
        (0, "0cc477faef6f3d540575ceddff8fdb4d56a34c3262135e9320576008c1efa4a5"),
    "adapted-points s3_f3.json --d 2 --output summary":
        (0, "8738702fb1629c387a1f52627060cd3e78d975a0c95533f54d7921862b4cf4fb"),
    "orbits s3_f3.json --d 2 --output json":
        (0, "9d9f7dbfd85a9fc772f402d63c102af328e654ac83b694250ed2efd5b1775410"),
    "orbits s3_f3.json --d 2 --output summary":
        (0, "2591cf7ce8fe76a8f2c3ca82261bf65a5554f460cba2b98f940f5be1e5cda75f"),
    "fiber s3_f3.json --d 2 --output json":
        (0, "57f4ef4a8c788b9a8fefe4d64758a8af13ceff601ba217caa6fd2366b4af483d"),
    "fiber s3_f3.json --d 2 --output summary":
        (0, "8b2cc9e4ecbae90186e0e21ada233d4fa51d066f1907b37131d118209460b90d"),
    "ext1 s3_f3.json --d 2 --output json":
        (0, "da353a0217271ac9dc8ffa79221b77e56bf5b9ab9580abed36005f37a4aaea10"),
    "ext1 s3_f3.json --d 2 --output summary":
        (0, "e5bc157af08ffc96654ad0074e187827b2099f4116e07e3a2ce880b62468a758"),
    "stratify s3_f3.json --d 2 --v1 c1 --output json":
        (0, "ec4e569f26841566ad92d20b0aad06aabdbe073d45a4aa55b8ec20cdea73223e"),
    "stratify s3_f3.json --d 2 --v1 c1 --output summary":
        (0, "283ae7ab6bd3f81719b2d170f1dcc5bb918211759eb4ef62acd66f7f785afdf9"),
    "ordinary s3_f3.json --d 2 --output json":
        (0, "0c1199bb233cd6c61509168e046a350cd8b59507fde157dbf70efdecace9be9b"),
    "ordinary s3_f3.json --d 2 --output summary":
        (0, "85546878c4dcb7d8afe92e3efababb768cfb08cee80c9440ef06dfc86658f2e7"),
}
D3_JOBS = sorted(job for job in PINNED if "--output" not in job)


def _assert_pinned(capsys, job):
    sub, instance, *flags = job.split()
    code, out = run(capsys, sub, _inst(instance), *flags)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINNED[job]


@pytest.mark.parametrize("job", D3_JOBS)
def test_d3_output_is_pinned(capsys, job):
    _assert_pinned(capsys, job)


@pytest.mark.parametrize("job", _corpus_jobs())
def test_corpus_output_is_pinned(capsys, job):
    _assert_pinned(capsys, job)


def test_four_character_kernel_on_d5_f5(capsys):
    # ker(D) of triv + c1 + triv + c1 on D5/F_5 has dimension 8: it is the
    # whole trace-form radical, whose 97,656 lines no test need scan
    code, out = run(capsys, "kernel", _inst("d5_f5.json"), "--d", "2",
                    "--chars", "triv,c1,triv,c1")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (
        0, "6759171046ff60d2e20d8ce85f5dc398338f8e02c928d80be7f445ea992177c0")


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
