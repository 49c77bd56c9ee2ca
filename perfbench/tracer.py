"""Run the detlaw CLI with its public layer functions wrapped from outside.

Usage (arguments as for the ``detlaw`` executable):

    PERFBENCH_TRACE_OUT=t.json python3 perfbench/tracer.py orbits x.json --d 2

The program itself is not changed: after ``import detlaw`` every function
named in ``TRACED`` is replaced, in every ``detlaw`` module that holds it,
by a wrapper that times it.  Per name the wrapper aggregates in place the
call count, inclusive time (outermost activation only, so recursion is not
counted twice) and self time (inclusive minus the time its wrapped callees
cover).  Functions outside ``HOT`` also record one span per call (name,
parent span, start, end) in memory.  Work counts are read from arguments and
return values in the same wrappers.  Everything is written as JSON to
``$PERFBENCH_TRACE_OUT`` after the CLI returns; stdout is left untouched, so
the job's output stays byte-identical to an untraced run.
"""

import json
import os
import sys
import time
from array import array

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "layers.json")) as _fh:
    LAYERS = json.load(_fh)

# Traced functions as "<module>.<attribute path>", in layer order.
TRACED = [f for layer in LAYERS["layers"] for f in layer["functions"]]
# Hot leaves: aggregated per name only, no span per call.
HOT = set(LAYERS["hot"])
WORK = list(LAYERS["work"])

_perf = time.perf_counter


def _rref_pre(args, kwargs, work):
    rows = args[1]
    if not isinstance(rows, (list, tuple)):
        rows = list(rows)
        args = (args[0], rows) + args[2:]
    work["linalg.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)
    return args


def _enumerate_post(args, kwargs, result, work):
    from detlaw.reps import order_candidates

    group, dim, field = args[:3]
    total = 1
    for g in group.generators:
        total *= len(order_candidates(field, dim, group.element_order(g)))
    work["reps.enumerate_reps.points"] += len(result)
    work["reps.enumerate_reps.candidates"] += total


def _count(key, size):
    """A post hook adding size(result) to the work counter key."""
    def post(args, kwargs, result, work):
        work[key] += size(result)
    return post


# name -> (pre hook, post hook); a pre hook may replace the arguments.
_HOOKS = {
    "linalg.rref": (_rref_pre, None),
    "poly.MPoly.substitute": (None, _count(
        "poly.MPoly.substitute.terms_out", lambda r: len(r.terms))),
    "reps.enumerate_reps": (None, _enumerate_post),
    "moduli.orbit_partition": (None, _count(
        "moduli.orbit_partition.orbits", lambda r: len(r.orbits))),
    "gma.adapted_points": (None, _count(
        "gma.adapted_points.points", lambda r: len(r[0]))),
}


class Tracer:
    def __init__(self):
        self.names = list(TRACED)
        n = len(self.names)
        self.calls = [0] * n
        self.incl = [0.0] * n
        self.self_s = [0.0] * n
        self.active = [0] * n
        self.work = dict.fromkeys(WORK, 0)
        # spans: name index, parent span (-1 at the root), start, end
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_t0 = array("d")
        self.sp_t1 = array("d")
        # open frames: [time covered by wrapped callees, span id]
        self.stack = [[0.0, -1]]

    def wrap(self, i, fn):
        name = self.names[i]
        pre, post = _HOOKS.get(name, (None, None))
        keep_span = name not in HOT
        calls, incl, self_s, active = (self.calls, self.incl, self.self_s,
                                       self.active)
        stack, work = self.stack, self.work
        sp_name, sp_parent = self.sp_name, self.sp_parent
        sp_t0, sp_t1 = self.sp_t0, self.sp_t1

        def wrapper(*args, **kwargs):
            if pre is not None:
                args = pre(args, kwargs, work)
            if keep_span:
                sid = len(sp_name)
                sp_name.append(i)
                sp_parent.append(stack[-1][1])
                sp_t0.append(0.0)
                sp_t1.append(0.0)
            else:
                sid = stack[-1][1]
            frame = [0.0, sid]
            stack.append(frame)
            active[i] += 1
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                dt = t1 - t0
                stack.pop()
                stack[-1][0] += dt
                active[i] -= 1
                calls[i] += 1
                self_s[i] += dt - frame[0]
                if not active[i]:
                    incl[i] += dt
                if keep_span:
                    sp_t0[sid] = t0
                    sp_t1[sid] = t1
            if post is not None:
                post(args, kwargs, result, work)
            return result

        return wrapper

    def install(self):
        import detlaw
        import detlaw.cli
        from detlaw import pseudo

        modules = [m for k, m in sys.modules.items()
                   if k == "detlaw" or k.startswith("detlaw.")]
        for i, name in enumerate(TRACED):
            mod_name, *cls_path, attr = name.split(".")
            owner = sys.modules[f"detlaw.{mod_name}"]
            for part in cls_path:
                owner = getattr(owner, part)
            if cls_path:
                raw = owner.__dict__[attr]
                func = raw.__func__ if isinstance(raw, classmethod) else raw
                new = self.wrap(i, func)
                if isinstance(raw, classmethod):
                    new = classmethod(new)
                # aliases such as MPoly.__rmul__ = __mul__ share the wrapper
                for key, val in list(owner.__dict__.items()):
                    if val is raw:
                        setattr(owner, key, new)
            else:
                orig = getattr(owner, attr)
                new = self.wrap(i, orig)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, key, new)
        # pseudo.kernel tests one projective line per _kernel_member call
        member = pseudo._kernel_member
        work = self.work

        def counted_member(*args, **kwargs):
            work["pseudo.kernel.lines"] += 1
            return member(*args, **kwargs)

        pseudo._kernel_member = counted_member
        return detlaw.cli

    def dump(self, path):
        out = {
            "names": self.names,
            "calls": self.calls,
            "s": self.incl,
            "self_s": self.self_s,
            "work": self.work,
            "spans": {"name": self.sp_name.tolist(),
                      "parent": self.sp_parent.tolist(),
                      "start": self.sp_t0.tolist(),
                      "end": self.sp_t1.tolist()},
        }
        with open(path, "w") as fh:
            json.dump(out, fh)


def main():
    out_path = os.environ["PERFBENCH_TRACE_OUT"]
    tracer = Tracer()
    cli = tracer.install()
    try:
        code = cli.main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        tracer.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
