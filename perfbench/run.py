"""End-to-end benchmark of the detlaw command line.

Run from the root of a detlaw checkout:

    python3 perfbench/run.py --workload orbits --seed 1 --seconds 30 --trace 0

Each job is one ``detlaw <subcommand> <instance> [flags]`` run in a fresh
interpreter, so users' costs are all in it: interpreter start, import, cold
caches, the computation and the JSON output.  One client runs the jobs one at
a time (a closed loop).  Passes over the workload's job list repeat while
another pass, as long as the last one, would end within ``--seconds``; there
is always at least one.  Every job's stdout is checked.

On a shared VM (the baseline's is a 2-core 2.0 GHz Xeon) each CPU slows
down and speeds up again by up to half, for seconds to minutes at a time,
and independently of the other.  So the benchmark pins itself and its jobs to
one CPU, times a fixed pure-Python reference computation in the driver
between every two jobs, and reports each job's time scaled by the
reference's speed around it: seconds on a machine where the reference takes
``REF_S`` (``*_norm_s`` and ``setup_s``).  The raw times are printed too.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics.
With ``--trace 1`` each job of a pass runs twice, untraced and then through
``tracer.py``, and the last line reports the per-layer metrics of the traced
pass and the tracing overhead.  Lines before it are for people.  The exit
code is nonzero if any job fails its output check.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from collections import namedtuple
from statistics import median

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

SETUP_REPEATS = 9
JOB_TIMEOUT_S = 120
BOOT = "import sys; from detlaw.cli import main; sys.exit(main())"
# Nominal seconds of reference_work(), a round figure near its median on the
# 2.0 GHz Xeon VM the baseline was taken on.
REF_S = 0.04


# One finished child process: its timings, the reason its output check
# failed (None if it passed), for a traced job the tracer's record, and the
# mean time of the reference computation just before and just after it.
Job = namedtuple("Job", "key wall cpu rss_kb failure trace ref")


def reference_work():
    """A fixed pure-Python computation shaped like detlaw's hot loops: the
    product of two polynomials held as dicts of exponent tuples, mod p."""
    p = 10007
    a = {(i, j): (7 * i + 3 * j + 1) % p for i in range(18) for j in range(18)}
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in a.items():
            k = (i1 + i2, j1 + j2)
            out[k] = (out.get(k, 0) + c1 * c2) % p
    return len(out)


def reference_s():
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def pin_to_one_cpu():
    """Run this process and every child it starts on one CPU, the one the
    reference computation is timed on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_child(argv, cwd, env, stdout_path, stderr_path):
    """Run argv to completion; returns (exit code, wall s, cpu s, maxrss KB,
    timed out).  The child is reaped with wait4 so its own rusage is read."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _pid, status, ru = os.wait4(proc.pid, 0)
        finally:
            timed_out = not timer.is_alive()
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss,
            timed_out)


def _field_failure(sub, report):
    if sub == "pseudorep" and not (report["multiplicative"] is True
                                   and report["unital"] is True):
        return "law is not multiplicative and unital"
    if sub in ("gma-verify", "selftest") and report["ok"] is not True:
        return "report says not ok"
    if sub == "gma-det" and not (report["start_invariant"] is True
                                 and report["equals_induced_law"] is True):
        return "canonical determinant check failed"
    if sub == "orbits":
        closed = sum(1 for o in report["orbits"] if o["closed"] is True)
        if int(report["law_count"]) != closed:
            return f"law_count {report['law_count']} != {closed} closed orbits"
    return None


def report_failure(job, stdout):
    """Why the report's own verification fields fail, or None.  Summary
    output (--output summary) is not JSON and has no such fields."""
    if "--output" in job["args"]:
        return None
    try:
        return _field_failure(job["args"][0], json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed report: {exc!r}"


def check_output(job, code, timed_out, stdout, stderr, digests):
    """Why the job failed, or None if it passed."""
    if timed_out:
        return f"timed out after {JOB_TIMEOUT_S} s"
    if code != 0:
        return f"exit code {code}"
    if b"Traceback" in stderr:
        return "traceback on stderr"
    want = digests.get(job["key"])
    if want is None:
        return "no recorded digest for this job"
    if hashlib.sha256(stdout).hexdigest() != want:
        return "stdout differs from the recorded digest"
    return report_failure(job, stdout)


class Runner:
    def __init__(self, root, workload, seed, work_dir):
        self.workload = workload
        self.jobs = workloads.jobs_for(workload, seed)
        self.work_dir = work_dir
        self.inst_dir = os.path.join(work_dir, "instances")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("PERFBENCH_TRACE_OUT", None)
        with open(os.path.join(HERE, "digests.json")) as fh:
            self.digests = json.load(fh)
        self.runs = 0
        self.last_ref = reference_s()

    def measure_ref(self):
        """Mean reference time over the interval since the last call."""
        before, self.last_ref = self.last_ref, reference_s()
        return (before + self.last_ref) / 2

    def setup_once(self):
        """Write the instance files and import detlaw.cli cold; returns
        (seconds, reference seconds around it)."""
        t0 = time.perf_counter()
        shutil.rmtree(self.inst_dir, ignore_errors=True)
        workloads.write_instances(self.workload, self.inst_dir)
        proc = subprocess.run([sys.executable, "-c", "import detlaw.cli"],
                              cwd=self.inst_dir, env=self.env,
                              capture_output=True, timeout=JOB_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError("cannot import detlaw.cli: "
                               + proc.stderr.decode(errors="replace")[-500:])
        elapsed = time.perf_counter() - t0
        return elapsed, self.measure_ref()

    def run_job(self, job, traced):
        self.runs += 1
        base = os.path.join(self.work_dir, f"job{self.runs}")
        env = self.env
        if traced:
            env = dict(env, PERFBENCH_TRACE_OUT=base + ".trace.json")
            argv = [sys.executable, os.path.join(HERE, "tracer.py")]
        else:
            argv = [sys.executable, "-c", BOOT]
        code, wall, cpu, rss, timed_out = run_child(
            argv + job["args"], self.inst_dir, env, base + ".out",
            base + ".err")
        ref = self.measure_ref()
        with open(base + ".out", "rb") as fh:
            stdout = fh.read()
        with open(base + ".err", "rb") as fh:
            stderr = fh.read()
        failure = check_output(job, code, timed_out, stdout, stderr,
                               self.digests)
        trace = None
        if traced and failure is None:
            with open(base + ".trace.json") as fh:
                trace = json.load(fh)
        for suffix in (".out", ".err", ".trace.json"):
            if os.path.exists(base + suffix):
                os.remove(base + suffix)
        if failure is not None:
            print(f"FAIL {job['key']}: {failure}", file=sys.stderr)
        return Job(job["key"], wall, cpu, rss, failure, trace, ref)

    def run_pass(self, traced=False):
        """One pass over the job list; returns (untraced jobs, traced jobs).
        With traced, each job runs untraced and then traced, back to back,
        so that a drift in machine speed reaches both alike."""
        if not traced:
            return [self.run_job(job, False) for job in self.jobs], []
        pairs = [(self.run_job(job, False), self.run_job(job, True))
                 for job in self.jobs]
        return [u for u, _t in pairs], [t for _u, t in pairs]


def end_to_end(passes, setups):
    """Times are scaled to the reference speed (see REF_S): per job the
    median over the passes, summed over the job list."""
    jobs = [j for p in passes for j in p]

    def norm_sum(field):
        return sum(median([getattr(p[i], field) * REF_S / p[i].ref
                           for p in passes])
                   for i in range(len(passes[0])))

    return {
        "wall_norm_s": (norm_sum("wall"), "s", len(jobs)),
        "cpu_norm_s": (norm_sum("cpu"), "s", len(jobs)),
        "peak_rss_mb": (max(j.rss_kb for j in jobs) / 1024.0, "MB",
                        len(jobs)),
        "setup_s": (median([t * REF_S / ref for t, ref in setups]), "s",
                    len(setups)),
    }


def printed_only(passes, attempted, failed):
    """Metrics printed for people but kept out of BENCHMARK.json: the raw
    times, which follow the machine's speed (wall_s spread 12 to 35 % over
    ten runs); job_p50_s, one job's time; the reference's own
    time; and fail_ratio, which is 0 on a correct program."""
    jobs = [j for p in passes for j in p]
    return {
        "wall_s": (median([sum(j.wall for j in p) for p in passes]), "s",
                   len(passes)),
        "cpu_s": (median([sum(j.cpu for j in p) for p in passes]), "s",
                  len(passes)),
        "ref_s": (median(j.ref for j in jobs), "s", len(jobs)),
        # each job's median over the passes, then the median over the jobs
        "job_p50_s": (median([median([p[i].wall for p in passes])
                              for i in range(len(passes[0]))]), "s",
                      len(passes) * len(passes[0])),
        "fail_ratio": (failed / attempted, "1", attempted),
    }


def _layer_values(traced_pass):
    """Per-layer metrics of one traced pass, summed over its jobs:
    name -> (value, unit)."""
    traces = [j.trace for j in traced_pass]
    out = {}
    for i, name in enumerate(traces[0]["names"]):
        out[f"{name}.calls"] = (sum(t["calls"][i] for t in traces), "count")
        out[f"{name}.s"] = (sum(t["s"][i] for t in traces), "s")
        out[f"{name}.self_s"] = (sum(t["self_s"][i] for t in traces), "s")
    for key in traces[0]["work"]:
        out[key] = (sum(t["work"][key] for t in traces), "count")
    points = out["reps.enumerate_reps.points"][0]
    cand = out["reps.enumerate_reps.candidates"][0]
    out["reps.enumerate_reps.points_per_candidate"] = (
        points / cand if cand else 0.0, "1")
    out["uncovered_s"] = (sum(j.wall for j in traced_pass)
                          - out["cli.main.s"][0], "s")
    return out


def per_layer(untraced, traced):
    values = [_layer_values(p) for p in traced]
    out = {key: (median([v[key][0] for v in values]), unit, len(values))
           for key, (_value, unit) in values[0].items()}
    overhead = (median([sum(j.wall for j in p) for p in traced])
                - median([sum(j.wall for j in p) for p in untraced]))
    out["trace_overhead_s"] = (overhead, "s", len(traced))
    return out


def print_job_trees(traced_pass):
    """Per job: wall time, uncovered time and the span tree two levels
    below cli.main, children of one name merged, shown if >= 1 % of the job."""
    for job in traced_pass:
        t = job.trace
        names, spans = t["names"], t["spans"]
        main = t["s"][names.index("cli.main")]
        print(f"  {job.key}: {job.wall:.3f} s, uncovered "
              f"{job.wall - main:.3f} s")
        children = {}
        for sid, parent in enumerate(spans["parent"]):
            children.setdefault(parent, []).append(sid)

        def show(parents, depth):
            merged = {}
            for p in parents:
                for sid in children.get(p, []):
                    name = names[spans["name"][sid]]
                    dur = spans["end"][sid] - spans["start"][sid]
                    entry = merged.setdefault(name, [0, 0.0, []])
                    entry[0] += 1
                    entry[1] += dur
                    entry[2].append(sid)
            for name, (n, dur, sids) in sorted(merged.items(),
                                               key=lambda kv: -kv[1][1]):
                if dur >= 0.01 * job.wall:
                    print(f"  {'  ' * depth}{name} x{n}: {dur:.3f} s")
                    if depth < 2:
                        show(sids, depth + 1)

        show(children.get(-1, []), 1)


def print_metrics(workload, metrics):
    for name, (value, unit, n) in metrics.items():
        print(f"{workload} {name} = {value:.6g} {unit} (n={n})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "detlaw", "cli.py")):
        print("run.py must be run from the root of a detlaw checkout "
              "(no src/detlaw/cli.py here)", file=sys.stderr)
        return 2
    work_dir = os.path.join(root, ".perfbench_work",
                            f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    pin_to_one_cpu()
    try:
        runner = Runner(root, args.workload, args.seed, work_dir)
        setups = [runner.setup_once() for _ in range(SETUP_REPEATS)]
        untraced, traced = [], []
        t0 = time.perf_counter()
        while True:
            start = time.perf_counter()
            plain, with_trace = runner.run_pass(traced=bool(args.trace))
            untraced.append(plain)
            if with_trace:
                traced.append(with_trace)
            end = time.perf_counter()
            if end - t0 + (end - start) > args.seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass

    jobs = [j for p in untraced + traced for j in p]
    failed = sum(1 for j in jobs if j.failure is not None)
    e2e = end_to_end(untraced, setups)
    print_metrics(args.workload, e2e)
    print_metrics(args.workload, printed_only(untraced, len(jobs), failed))
    if args.trace and not failed:
        print(f"{args.workload} traced pass, per job:")
        print_job_trees(traced[-1])
        metrics = per_layer(untraced, traced)
        print_metrics(args.workload, metrics)
    elif args.trace:
        metrics = {}
    else:
        metrics = e2e
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _n) in metrics.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
