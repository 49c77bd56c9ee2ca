"""Command-line front end.

Reads an instance file (group, field, optional characters and inertia),
dispatches one computation, and prints a JSON report, or a short human
summary with --output summary.  Domain errors exit with status 2 and a
structured error object; all integers in reports are decimal strings.
"""

import argparse
import json
import sys

from .cohomology import ext1, fiber_stratify
from .errors import DetlawError, SchemaError
from .gma import (adapted_points, adapted_scheme, canonical_det,
                  gma_from_characters, torus_orbits, verify_gma)
from .moduli import orbit_partition, psi_fiber
from .ordinary import OrdinaryInstance, certify_points, ordinary_ideal
from .pseudo import PseudoRep, ch_quotient, kernel
from .reps import characters, direct_sum, enumerate_reps
from .serialize import (field_from_json, instance_from_json, poly_to_json,
                        pseudorep_to_json, rep_to_json)


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except DetlawError as exc:
        err = {"error": {"code": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(err, sort_keys=True))
        return 2
    if args.output == "summary":
        for line in report.get("summary", [json.dumps(report, sort_keys=True)]):
            print(line)
    else:
        report.pop("summary", None)
        print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="detlaw",
        description="exact determinant-law computations over finite fields")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, func, needs_instance=True):
        p = sub.add_parser(name)
        if needs_instance:
            p.add_argument("instance", help="path to an instance JSON file")
        p.add_argument("--d", type=int, default=None)
        p.add_argument("--field", default=None,
                       help="override field, e.g. 7 or 5^2")
        p.add_argument("--cap", type=int, default=200000)
        p.add_argument("--chars", default=None,
                       help="comma-separated character names for the law")
        p.add_argument("--v1", default=None)
        p.add_argument("--v2", default=None)
        p.add_argument("--psi", default=None)
        p.add_argument("--chi", default=None)
        p.add_argument("--output", choices=("json", "summary"), default="json")
        p.set_defaults(func=func)
        return p

    cmd("enumerate-reps", _cmd_enumerate_reps)
    cmd("pseudorep", _cmd_pseudorep)
    cmd("char-poly", _cmd_char_poly)
    cmd("kernel", _cmd_kernel)
    cmd("ch-quotient", _cmd_ch_quotient)
    cmd("gma-verify", _cmd_gma_verify)
    cmd("gma-det", _cmd_gma_det)
    cmd("adapted-points", _cmd_adapted_points)
    cmd("orbits", _cmd_orbits)
    cmd("fiber", _cmd_fiber)
    cmd("ext1", _cmd_ext1)
    cmd("stratify", _cmd_stratify)
    cmd("ordinary", _cmd_ordinary)
    cmd("selftest", _cmd_selftest, needs_instance=False)
    return parser


# --- instance plumbing ---

def _load(args):
    try:
        with open(args.instance) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read instance file: {exc}")
    except json.JSONDecodeError as exc:
        raise SchemaError(f"instance file is not JSON: {exc}")
    inst = instance_from_json(obj)
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
            return field_from_json({"p": p, "k": k})
        return field_from_json({"p": text, "k": "1"})
    except ValueError as exc:
        raise SchemaError(f"bad field flag {text!r}") from exc


def _named_characters(inst):
    """Characters by name: file-declared ones, else the enumerated list with
    the trivial character called 'triv' and the rest c1, c2, ..."""
    if inst.characters:
        return dict(inst.characters)
    out = {}
    count = 0
    for c in characters(inst.group, inst.field):
        if all(m[0, 0] == 1 for m in c.images):
            out["triv"] = c
        else:
            count += 1
            out[f"c{count}"] = c
    return out


def _pick_char(table, name):
    if name not in table:
        raise SchemaError(f"no character named {name!r}; "
                          f"have {sorted(table)}")
    return table[name]


def _chars_of(inst, args):
    """The characters named by --chars, by default triv and the first
    other one, with their names."""
    table = _named_characters(inst)
    if args.chars:
        names = args.chars.split(",")
    else:
        names = sorted(table)[:2]
        if "triv" in table and "triv" not in names:
            names = ["triv", sorted(n for n in table if n != "triv")[0]]
    return [_pick_char(table, n.strip()) for n in names], names


def _law_of(inst, args):
    chars, names = _chars_of(inst, args)
    rho = chars[0]
    for r in chars[1:]:
        rho = direct_sum(rho, r)
    return PseudoRep.induce(rho), names


def _require_d(inst):
    if inst.d is None:
        raise SchemaError("this command needs --d or a 'd' field")
    return inst.d


# --- subcommands ---

def _cmd_enumerate_reps(args):
    inst = _load(args)
    d = _require_d(inst)
    reps = enumerate_reps(inst.group, d, inst.field, cap=args.cap)
    return {
        "count": str(len(reps)),
        "reps": [rep_to_json(r) for r in reps],
        "summary": [f"{len(reps)} homomorphisms {inst.group.name} -> "
                    f"GL_{d}({inst.field})"],
    }


def _cmd_pseudorep(args):
    inst = _load(args)
    D, names = _law_of(inst, args)
    return {
        "characters": names,
        "law": pseudorep_to_json(D),
        "multiplicative": D.is_multiplicative(),
        "unital": D.is_unital(),
        "summary": [f"law of {'+'.join(names)}: {D.poly}"],
    }


def _cmd_char_poly(args):
    inst = _load(args)
    D, names = _law_of(inst, args)
    lambdas = D.lambda_polys()
    return {
        "characters": names,
        "lambda": [poly_to_json(l) for l in lambdas],
        "summary": [f"Lambda_{i + 1} = {l}" for i, l in enumerate(lambdas)],
    }


def _cmd_kernel(args):
    inst = _load(args)
    D, names = _law_of(inst, args)
    ker = kernel(D, cap=args.cap)
    return {
        "characters": names,
        "dim": str(len(ker.basis)),
        "basis": [[str(c) for c in row] for row in ker.basis],
        "summary": [f"ker(D) has dimension {len(ker.basis)}"],
    }


def _cmd_ch_quotient(args):
    inst = _load(args)
    D, names = _law_of(inst, args)
    Q, DQ, _project, _lift = ch_quotient(D)
    return {
        "characters": names,
        "dim": str(Q.n),
        "law": pseudorep_to_json(DQ),
        "summary": [f"Cayley-Hamilton quotient has dimension {Q.n}"],
    }


def _build_gma(inst, args):
    chars, names = _chars_of(inst, args)
    data, law, _project = gma_from_characters(inst.group, chars, inst.field)
    return data, law, names


def _cmd_gma_verify(args):
    inst = _load(args)
    data, _law, names = _build_gma(inst, args)
    report = verify_gma(data)
    return {
        "characters": names,
        "ok": report.ok,
        "checks": {name: ok for name, (ok, _wit) in report.checks.items()},
        "summary": [f"{name}: {'ok' if ok else 'FAIL'}"
                    for name, (ok, _wit) in sorted(report.checks.items())],
    }


def _cmd_gma_det(args):
    inst = _load(args)
    data, law, names = _build_gma(inst, args)
    dmin = canonical_det(data, start="min")
    dmax = canonical_det(data, start="max")
    agree = dmin.poly == dmax.poly
    matches = dmin.equals(law)
    return {
        "characters": names,
        "law": pseudorep_to_json(dmin),
        "start_invariant": agree,
        "equals_induced_law": matches,
        "summary": [f"canonical det agrees across cycle starts: {agree}; "
                    f"equals the induced law: {matches}"],
    }


def _cmd_adapted_points(args):
    inst = _load(args)
    data, _law, names = _build_gma(inst, args)
    scheme = adapted_scheme(data)
    points, _reps = adapted_points(scheme, inst.field, cap=args.cap)
    orbits = torus_orbits(scheme, inst.field, points)
    return {
        "characters": names,
        "variables": list(scheme.vars),
        "points": [[str(v) for v in pt] for pt in points],
        "torus_orbits": str(len(orbits)),
        "summary": [f"{len(points)} adapted points in {len(orbits)} "
                    f"torus orbits"],
    }


def _cmd_orbits(args):
    inst = _load(args)
    d = _require_d(inst)
    report = orbit_partition(inst.group, d, inst.field)
    return {
        "orbits": [{"size": str(o.size), "closed": o.is_closed,
                    "law": str(o.pseudo_index)} for o in report.orbits],
        "law_count": str(len(report.pseudoreps)),
        "total_points": str(report.total_points),
        "summary": [f"{len(report.orbits)} orbits, "
                    f"{len(report.pseudoreps)} laws, "
                    f"{report.total_points} points"],
    }


def _cmd_fiber(args):
    inst = _load(args)
    D, names = _law_of(inst, args)
    report = orbit_partition(inst.group, D.d, inst.field)
    fib = psi_fiber(report, D)
    return {
        "characters": names,
        "orbits": [str(i) for i in fib.orbit_indices],
        "closed": str(fib.closed_index),
        "summary": [f"fiber has {len(fib.orbit_indices)} orbits; "
                    f"closed orbit is #{fib.closed_index}"],
    }


def _two_chars(inst, args):
    table = _named_characters(inst)
    return _pick_char(table, args.v1 or "triv"), _pick_char(table, args.v2 or "triv")


def _cmd_ext1(args):
    inst = _load(args)
    c1, c2 = _two_chars(inst, args)
    space = ext1(inst.group, c1, c2)
    return {
        "dim": str(space.dim),
        "cocycle_dim": str(len(space.z_basis)),
        "coboundary_dim": str(len(space.b_basis)),
        "summary": [f"Ext^1 has dimension {space.dim}"],
    }


def _cmd_stratify(args):
    inst = _load(args)
    chi, psi = _two_chars(inst, args)
    strat = fiber_stratify(inst.group, chi, psi, inst.field)
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


def _cmd_ordinary(args):
    inst = _load(args)
    table = _named_characters(inst)
    psi_name = args.psi or "triv"
    others = sorted(n for n in table if n != psi_name)
    if not args.chi and not others:
        raise SchemaError(f"no character other than {psi_name!r} to serve as "
                          f"chi; have {sorted(table)}")
    chi_name = args.chi or others[0]
    oi = OrdinaryInstance(inst.group, _pick_char(table, psi_name),
                          _pick_char(table, chi_name))
    J = ordinary_ideal(oi)
    good, bad = certify_points(oi, J, cap=args.cap)
    return {
        "psi": psi_name,
        "chi": chi_name,
        "single_branch": J.single_branch,
        "generators": [poly_to_json(g) for g in J.gens],
        "ordinary_points": str(len(good)),
        "other_points": str(len(bad)),
        "summary": [f"{len(good)} ordinary of {len(good) + len(bad)} points; "
                    f"{'single branch' if J.single_branch else 'two branches'}"],
    }


def _cmd_selftest(args):
    from .fields import make_field
    from .groups import cyclic, symmetric

    F3, F5 = make_field(3), make_field(5)
    checks = []

    def check(name, fn):
        checks.append((name, bool(fn())))

    C2 = cyclic(2)
    chars2 = characters(C2, F3)
    check("c2_has_two_characters", lambda: len(chars2) == 2)
    D = PseudoRep.induce(direct_sum(chars2[0], chars2[1]))
    check("law_multiplicative", D.is_multiplicative)
    check("law_unital", D.is_unital)
    Q, DQ, _p, _l = ch_quotient(D)
    check("ch_quotient_faithful_dim", lambda: Q.n == 2)
    S3 = symmetric(3)
    cs = characters(S3, F5)
    check("s3_two_characters_over_f5", lambda: len(cs) == 2)
    check("ext1_s3_triv_sgn_vanishes",
          lambda: ext1(S3, cs[0], cs[1]).dim == 0)
    ok = all(flag for _name, flag in checks)
    if not ok:
        raise DetlawError("selftest failed: "
                          + ", ".join(n for n, f in checks if not f))
    return {
        "ok": True,
        "checks": {n: f for n, f in checks},
        "summary": [f"{n}: {'ok' if f else 'FAIL'}" for n, f in checks],
    }


if __name__ == "__main__":
    sys.exit(main())
