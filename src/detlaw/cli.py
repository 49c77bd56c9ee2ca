"""Command-line front end.

Reads an instance file (group, field, optional characters and inertia),
dispatches one computation, and prints a JSON report, or a short human
summary with --output summary.  argv is read by one loop over one flag
table, and -h prints the usage.  Errors, a bad argv among them, print a
structured error object and exit with status 2, or 3 when a checked
mathematical claim fails (InvariantViolation); all integers in reports are
decimal strings.  If stdout closes before the output is written, the exit
status is 1.
"""

import json
import os
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from . import (cohomology, fields, gma, groups, moduli, ordinary, pseudo, reps,
               serialize)
from .errors import DetlawError, InvariantViolation, SchemaError


JSON_BATCH = 1024  # pieces of JSON text joined into one write

# each flag's type: int, str or its choices; default None unless in DEFAULTS
FLAGS = {"d": int, "field": str, "cap": int, "chars": str, "v1": str, "v2": str,
         "psi": str, "chi": str, "output": ("json", "summary")}
DEFAULTS = {"cap": 200000, "output": "json"}

USAGE = """\
usage: detlaw SUBCOMMAND [INSTANCE] [--FLAG VALUE ...]

subcommands, each but selftest reading one instance JSON file:
  enumerate-reps, pseudorep, char-poly, kernel, ch-quotient, gma-verify,
  gma-det, adapted-points, orbits, fiber, ext1, stratify, ordinary, selftest

flags, taken by every subcommand, also as --flag=value or a unique prefix:
  --d D, --field FIELD     degree and field (e.g. 7 or 5^2) in place of the file's
  --cap CAP                search cap (default 200000)
  --chars CHARS            comma-separated character names for the law
  --v1 V1, --v2 V2         the two characters of ext1 and stratify
  --psi PSI, --chi CHI     the two characters of ordinary
  --output {json,summary}  report format (default json)
  -h, --help               print this text and exit
"""


def main(argv=None):
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        if args is not None:
            inst = None if args.instance is None else _load(args)
            report = _COMMANDS[args.command](inst, args)
    except DetlawError as exc:
        err = {"error": {"code": type(exc).__name__, "message": str(exc)}}
        lines = [json.dumps(err, sort_keys=True) + "\n"]
        code = 3 if isinstance(exc, InvariantViolation) else 2
    else:
        code = 0
        if args is None:
            lines = [USAGE]
        elif args.output == "summary":
            lines = [line + "\n" for line in report["summary"]]
        else:
            report.pop("summary", None)
            lines = _json_batches(report)
    try:
        for line in lines:
            sys.stdout.write(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so the flush at exit
        # does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _parse_args(argv):
    """The subcommand, its instance path (None for selftest) and every
    flag's value, or None for -h or --help; bad argv raises SchemaError.

    A flag is --name value, --name=value, or either with a unique prefix of
    the name, anywhere among the words."""
    names = (*FLAGS, "help")
    given, words = [], []
    rest = iter(argv)
    for word in rest:
        word = "--help" if word == "-h" else word
        if not word.startswith("--"):
            if word.startswith("-") and word != "-":
                raise SchemaError(f"option {word} not recognized")
            words.append(word)
            continue
        typed, eq, value = word[2:].partition("=")
        found = [typed] if typed in names else [n for n in names if n.startswith(typed)]
        if len(found) != 1:
            raise SchemaError(f"option --{typed} "
                              f"{'not a unique prefix' if found else 'not recognized'}")
        [name] = found
        if name == "help" and eq:
            raise SchemaError("option --help must not have an argument")
        if name != "help" and not eq:
            value = next(rest, None)
            if value is None:
                raise SchemaError(f"option --{name} requires argument")
        given.append((name, value))
    if any(name == "help" for name, _value in given):
        return None
    args = {**dict.fromkeys(FLAGS), **DEFAULTS}
    for name, value in given:
        kind = FLAGS[name]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise SchemaError(f"--{name} takes an integer, got {value!r}") from None
        elif kind is not str and value not in kind:
            raise SchemaError(f"--{name} takes one of {', '.join(kind)}, got {value!r}")
        args[name] = value
    command, *paths = words or [None]
    if command not in _COMMANDS:
        raise SchemaError(f"the subcommand is one of {sorted(_COMMANDS)}, got {command!r}")
    want = 0 if command == "selftest" else 1
    if len(paths) != want:
        raise SchemaError(f"instance paths for {command}: {len(paths)}, need {want}")
    return SimpleNamespace(command=command, instance=paths[0] if want else None, **args)


def _json_batches(report):
    """The text of json.dumps(report, sort_keys=True, indent=2) and a newline,
    in writes of at most JSON_BATCH pieces plus one per level of nesting, so
    the whole text is never held at once.  A piece is a separator, a key, a
    scalar or a list of strings, each encoded in one step by json's C
    encoder.  Dict keys must be strings."""
    encode, parts = encode_basestring_ascii, []

    def flat(obj, pad):  # obj's text if a scalar, empty or a list of strings
        if not obj or not isinstance(obj, (dict, list, tuple)):
            return encode(obj) if isinstance(obj, str) else json.dumps(obj)
        if isinstance(obj, dict) or not isinstance(obj[0], str):
            return None
        try:
            return f"[\n{pad}  " + f",\n{pad}  ".join(map(encode, obj)) + f"\n{pad}]"
        except TypeError:  # not every item is a string
            return None

    def write(obj, pad):
        inner, keyed = pad + "  ", isinstance(obj, dict)
        sep = "{\n" if keyed else "[\n"
        for key in sorted(obj) if keyed else obj:
            parts.append(sep + inner + (encode(key) + ": " if keyed else ""))
            sep, value = ",\n", obj[key] if keyed else key
            if (text := flat(value, inner)) is None:
                yield from write(value, inner)
            else:
                parts.append(text)
            if len(parts) >= JSON_BATCH:
                yield "".join(parts)
                parts.clear()
        parts.append("\n" + pad + ("}" if keyed else "]"))

    if (text := flat(report, "")) is None:
        yield from write(report, "")
    yield "".join(parts) if text is None else text
    yield "\n"


# --- instance plumbing ---

def _load(args):
    try:
        with open(args.instance) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read instance file: {exc}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"instance file is not JSON: {exc}")
    inst = serialize.instance_from_json(obj)
    if args.field:
        inst.field = _parse_field(args.field)
        inst.characters = {}
    if args.d is not None:
        if args.d < 1:
            raise SchemaError(f"--d must be at least 1, got {args.d}")
        inst.d = args.d
    return inst


def _parse_field(text):
    try:
        if "^" in text:
            p, k = text.split("^")
            return serialize.field_from_json({"p": p, "k": k})
        return serialize.field_from_json({"p": text, "k": "1"})
    except ValueError as exc:
        raise SchemaError(f"bad field flag {text!r}") from exc


def _named_characters(inst):
    """Characters by name: file-declared ones, else the enumerated list with
    the trivial character called 'triv' and the rest c1, c2, ..."""
    if inst.characters:
        return dict(inst.characters)
    out = {}
    count = 0
    for c in reps.characters(inst.group, inst.field):
        if all(m[0, 0] == 1 for m in c.images):
            out["triv"] = c
        else:
            count += 1
            out[f"c{count}"] = c
    return out


def _pick_char(table, name):
    if name not in table:
        raise SchemaError(f"no character named {name!r}; have {sorted(table)}")
    return table[name]


def _chars_of(inst, args):
    """The characters named by --chars, by default triv and the first
    other one, with their names."""
    table = _named_characters(inst)
    if args.chars is not None:
        names = [n.strip() for n in args.chars.split(",")]
    else:
        names = sorted(table)[:2]
        if "triv" in table and "triv" not in names:
            names = ["triv", sorted(n for n in table if n != "triv")[0]]
    return [_pick_char(table, n) for n in names], names


def _law_of(inst, args):
    chars, names = _chars_of(inst, args)
    return pseudo.PseudoRep.induce(reps.direct_sum(*chars)), names


def _require_d(inst):
    if inst.d is None:
        raise SchemaError("this command needs --d or a 'd' field")
    return inst.d


# --- subcommands ---

def _cmd_enumerate_reps(inst, args):
    d = _require_d(inst)
    homs = reps.enumerate_reps(inst.group, d, inst.field, cap=args.cap)
    return {
        "count": str(len(homs)),
        "reps": [serialize.rep_to_json(r) for r in homs],
        "summary": [f"{len(homs)} homomorphisms {inst.group.name} -> "
                    f"GL_{d}({inst.field})"],
    }


def _cmd_pseudorep(inst, args):
    D, names = _law_of(inst, args)
    return {
        "characters": names,
        "law": serialize.pseudorep_to_json(D),
        "multiplicative": D.is_multiplicative(),
        "unital": D.is_unital(),
        "summary": [f"law of {'+'.join(names)}: {D.poly}"],
    }


def _cmd_char_poly(inst, args):
    D, names = _law_of(inst, args)
    lambdas = D.lambda_polys()
    return {
        "characters": names,
        "lambda": [serialize.poly_to_json(l) for l in lambdas],
        "summary": [f"Lambda_{i + 1} = {l}" for i, l in enumerate(lambdas)],
    }


def _cmd_kernel(inst, args):
    D, names = _law_of(inst, args)
    ker = pseudo.kernel(D)
    return {
        "characters": names,
        "dim": str(len(ker.basis)),
        "basis": [[str(c) for c in row] for row in ker.basis],
        "summary": [f"ker(D) has dimension {len(ker.basis)}"],
    }


def _cmd_ch_quotient(inst, args):
    D, names = _law_of(inst, args)
    Q, DQ, _project, _lift = pseudo.ch_quotient(D)
    return {
        "characters": names,
        "dim": str(Q.n),
        "law": serialize.pseudorep_to_json(DQ),
        "summary": [f"Cayley-Hamilton quotient has dimension {Q.n}"],
    }


def _build_gma(inst, args):
    chars, names = _chars_of(inst, args)
    data, law, _project = gma.gma_from_characters(inst.group, chars, inst.field)
    return data, law, names


def _cmd_gma_verify(inst, args):
    data, _law, names = _build_gma(inst, args)
    report = gma.verify_gma(data)
    return {
        "characters": names,
        "ok": report.ok,
        "checks": {name: ok for name, (ok, _wit) in report.checks.items()},
        "summary": [f"{name}: {'ok' if ok else 'FAIL'}"
                    for name, (ok, _wit) in sorted(report.checks.items())],
    }


def _cmd_gma_det(inst, args):
    data, law, names = _build_gma(inst, args)
    dmin = gma.canonical_det(data, start="min")
    dmax = gma.canonical_det(data, start="max")
    agree = dmin.poly == dmax.poly
    matches = dmin.equals(law)
    return {
        "characters": names,
        "law": serialize.pseudorep_to_json(dmin),
        "start_invariant": agree,
        "equals_induced_law": matches,
        "summary": [f"canonical det agrees across cycle starts: {agree}; "
                    f"equals the induced law: {matches}"],
    }


def _cmd_adapted_points(inst, args):
    data, _law, names = _build_gma(inst, args)
    scheme = gma.adapted_scheme(data)
    points, _reps = gma.adapted_points(scheme, cap=args.cap)
    orbits = gma.torus_orbits(scheme, points)
    return {
        "characters": names,
        "variables": list(scheme.vars),
        "points": [[str(v) for v in pt] for pt in points],
        "torus_orbits": str(len(orbits)),
        "summary": [f"{len(points)} adapted points in {len(orbits)} "
                    f"torus orbits"],
    }


def _cmd_orbits(inst, _args):
    d = _require_d(inst)
    report = moduli.orbit_partition(inst.group, d, inst.field)
    return {
        "orbits": [{"size": str(o.size), "closed": o.is_closed,
                    "law": str(o.pseudo_index)} for o in report.orbits],
        "law_count": str(len(report.pseudoreps)),
        "total_points": str(report.total_points),
        "summary": [f"{len(report.orbits)} orbits, "
                    f"{len(report.pseudoreps)} laws, "
                    f"{report.total_points} points"],
    }


def _cmd_fiber(inst, args):
    D, names = _law_of(inst, args)
    report = moduli.orbit_partition(inst.group, D.d, inst.field)
    fib = moduli.psi_fiber(report, D)
    return {
        "characters": names,
        "orbits": [str(i) for i in fib.orbit_indices],
        "closed": str(fib.closed_index),
        "summary": [f"fiber has {len(fib.orbit_indices)} orbits; "
                    f"closed orbit is #{fib.closed_index}"],
    }


def _two_chars(inst, args):
    table = _named_characters(inst)
    return tuple(_pick_char(table, "triv" if v is None else v) for v in (args.v1, args.v2))


def _cmd_ext1(inst, args):
    c1, c2 = _two_chars(inst, args)
    space = cohomology.ext1(inst.group, c1, c2)
    return {
        "dim": str(space.dim),
        "cocycle_dim": str(len(space.z_basis)),
        "coboundary_dim": str(len(space.b_basis)),
        "summary": [f"Ext^1 has dimension {space.dim}"],
    }


def _cmd_stratify(inst, args):
    chi, psi = _two_chars(inst, args)
    strat = cohomology.fiber_stratify(inst.group, chi, psi, inst.field)
    up, ss, down = strat.counts()
    return {
        "strata": [
            {"type": "ext_up", "proj_points": str(up)},
            {"type": "semisimple", "proj_points": str(ss)},
            {"type": "ext_down", "proj_points": str(down)},
        ],
        "total": str(strat.total()),
        "summary": [f"strata: {up} + {ss} + {down} = {strat.total()}"],
    }


def _cmd_ordinary(inst, args):
    table = _named_characters(inst)
    psi_name = "triv" if args.psi is None else args.psi
    others = sorted(n for n in table if n != psi_name)
    if args.chi is None and not others:
        raise SchemaError(f"no character other than {psi_name!r} to serve as "
                          f"chi; have {sorted(table)}")
    chi_name = others[0] if args.chi is None else args.chi
    oi = ordinary.OrdinaryInstance(inst.group, _pick_char(table, psi_name),
                                   _pick_char(table, chi_name))
    J = ordinary.ordinary_ideal(oi)
    good, bad = ordinary.certify_points(oi, J, cap=args.cap)
    return {
        "psi": psi_name,
        "chi": chi_name,
        "single_branch": J.single_branch,
        "generators": [serialize.poly_to_json(g) for g in J.gens],
        "ordinary_points": str(len(good)),
        "other_points": str(len(bad)),
        "summary": [f"{len(good)} ordinary of {len(good) + len(bad)} points; "
                    f"{'single branch' if J.single_branch else 'two branches'}"],
    }


def _cmd_selftest(_inst, _args):
    F3, F5 = fields.make_field(3), fields.make_field(5)
    checks = {}
    C2 = groups.cyclic(2)
    chars2 = reps.characters(C2, F3)
    checks["c2_has_two_characters"] = len(chars2) == 2
    D = pseudo.PseudoRep.induce(reps.direct_sum(chars2[0], chars2[1]))
    checks["law_multiplicative"] = D.is_multiplicative()
    checks["law_unital"] = D.is_unital()
    Q, DQ, _p, _l = pseudo.ch_quotient(D)
    checks["ch_quotient_faithful_dim"] = Q.n == 2
    S3 = groups.symmetric(3)
    cs = reps.characters(S3, F5)
    checks["s3_two_characters_over_f5"] = len(cs) == 2
    checks["ext1_s3_triv_sgn_vanishes"] = cohomology.ext1(S3, cs[0], cs[1]).dim == 0
    if not all(checks.values()):
        raise DetlawError("selftest failed: "
                          + ", ".join(n for n, f in checks.items() if not f))
    return {
        "ok": True,
        "checks": checks,
        "summary": [f"{n}: {'ok' if f else 'FAIL'}" for n, f in checks.items()],
    }


_COMMANDS = {"enumerate-reps": _cmd_enumerate_reps, "pseudorep": _cmd_pseudorep,
             "char-poly": _cmd_char_poly, "kernel": _cmd_kernel, "fiber": _cmd_fiber,
             "ch-quotient": _cmd_ch_quotient, "gma-verify": _cmd_gma_verify,
             "gma-det": _cmd_gma_det, "adapted-points": _cmd_adapted_points,
             "orbits": _cmd_orbits, "ext1": _cmd_ext1, "stratify": _cmd_stratify,
             "ordinary": _cmd_ordinary, "selftest": _cmd_selftest}


if __name__ == "__main__":
    sys.exit(main())
