"""Record the reference outputs that run.py checks against.

    python3 perfbench/record.py [WORKLOAD ...]

For the recorded seed, stores per workload the digest of every generated
input file and, per job, its argv, exit code, stdout digest, the digest of
the basis-independent part of its stdout and the digest of the file it
writes.  Run it only when the program's output is meant to change, and say
so in the change that updates reference.json.
"""

import json
import os
import sys
from pathlib import Path

import run
from workloads import WORKLOADS, digest, invariant_text, set_up


def record(rb, workload):
    work = Path("perfbench/out") / workload
    jobs = set_up(rb, workload, run.RECORDED_SEED, work)
    inputs = {p.name: digest(p.read_bytes()) for p in sorted(work.iterdir())}
    entries, state = [], {}
    for job in jobs:
        _, stdout, rc = run.run_job(rb, job)
        if not run.job_ok(job, None, False, stdout, rc, state):
            raise SystemExit(f"{workload}: {job.argv} failed its check")
        entries.append({
            "argv": job.argv, "rc": rc, "stdout": digest(stdout),
            "invariant": digest(invariant_text(job.kind, stdout)),
            "output": (digest(Path(job.output).read_bytes())
                       if job.output else None)})
    return {"inputs": inputs, "jobs": entries}


def main(argv):
    rb = run.load_program()
    if rb is None:
        raise SystemExit("error: no rotabaxter sources under src/")
    os.chdir(run.ROOT)
    data = {"recorded_seed": run.RECORDED_SEED, "workloads": {}}
    if run.REFERENCE.is_file():
        data = json.loads(run.REFERENCE.read_text())
    data["environment"] = run.environment(rb)
    for workload in argv or sorted(WORKLOADS):
        data["workloads"][workload] = record(rb, workload)
        print(f"recorded {workload}: "
              f"{len(data['workloads'][workload]['jobs'])} jobs")
    run.REFERENCE.write_text(dumps(data))


def dumps(data):
    """JSON with one job per line, so that a changed job shows as one line."""
    def one(value):
        return json.dumps(value, sort_keys=True)

    workloads = []
    for name, entry in sorted(data["workloads"].items()):
        jobs = ",\n".join("   " + one(job) for job in entry["jobs"])
        workloads.append(f'  {one(name)}: {{\n'
                         f'   "inputs": {one(entry["inputs"])},\n'
                         f'   "jobs": [\n{jobs}\n   ]}}')
    return ('{\n'
            f' "environment": {one(data["environment"])},\n'
            f' "recorded_seed": {data["recorded_seed"]},\n'
            ' "workloads": {\n' + ",\n".join(workloads) + "\n }\n}\n")


if __name__ == "__main__":
    main(sys.argv[1:])
