"""Record the sha256 of every benchmark job's stdout in digests.json.

Every job any seed can pick is run once, untraced, from the root of a detlaw
checkout:

    python3 perfbench/record_digests.py

The digests pin the program's outputs at the commit where they were
recorded; run.py fails a job whose stdout differs.  Re-record only when a
change is meant to alter the output, and say so in that change.
"""

import hashlib
import json
import os
import sys
import tempfile

from run import BOOT, HERE, report_failure, run_child
import workloads


def main():
    root = os.getcwd()
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    digests = {}
    work = os.path.join(root, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for w in workloads.WORKLOADS:
            workloads.write_instances(w, tmp)
            for job in workloads.all_jobs(w):
                out, err = os.path.join(tmp, "out"), os.path.join(tmp, "err")
                code, wall, _cpu, _rss, _to = run_child(
                    [sys.executable, "-c", BOOT] + job["args"], tmp, env,
                    out, err)
                if code != 0:
                    with open(err) as fh:
                        sys.exit(f"{job['key']} exited {code}:\n{fh.read()}")
                with open(out, "rb") as fh:
                    stdout = fh.read()
                reason = report_failure(job, stdout)
                if reason is not None:
                    sys.exit(f"{job['key']}: {reason}")
                digests[job["key"]] = hashlib.sha256(stdout).hexdigest()
                print(f"{wall:7.2f} s  {job['key']}", flush=True)
    try:
        os.rmdir(work)
    except OSError:  # another run is using it
        pass
    with open(os.path.join(HERE, "digests.json"), "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
