"""rotabaxter benchmark: drive the public CLI in-process on a seeded workload.

    python3 perfbench/run.py --workload small-sweep --seed 0 --seconds 15 \
        --trace 0

One client, closed loop, no threads: each job is ``rotabaxter.cli.main(argv)``
with stdout captured, and the next job starts when the previous one has
returned and been checked.  The loop makes whole passes over the workload's
job list, in a fixed order, until ``--seconds`` have passed.  Each job is
followed by calibration slices (see ``Calibrator``); the bounded timing
metric is in units of the run's mean slice time, which cancels the drift of
a shared host's speed, and the raw figures are printed beside it.

With ``--trace 1`` the run instead runs every job of the list once untraced
and once traced, alternating which goes first, and reports per-layer
metrics (see tracer.py); a whole pass ignores ``--seconds`` so that the
counts repeat exactly.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric by name with its unit, and the environment.
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import COUNTS, LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, digest, invariant_text, set_up  # noqa: E402

REFERENCE = HERE / "reference.json"
RECORDED_SEED = 0
SETUP_REPEATS = 3
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10
CALIBRATION_SHARE = 0.1


def load_program():
    """Import rotabaxter from the checkout's src, or None when it is absent."""
    src = ROOT / "src"
    if not (src / "rotabaxter" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(src))
    from rotabaxter import algebra, cli, fileformat, linalg, samples
    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        return None
    return SimpleNamespace(algebra=algebra, cli=cli, fileformat=fileformat,
                           linalg=linalg, samples=samples)


def environment(rb):
    q = type(rb.linalg.Q(0))
    return {"python": platform.python_version(),
            "scalar": f"{q.__module__}.{q.__qualname__}",
            "nproc": os.cpu_count()}


def run_job(rb, job):
    """Run one job; (seconds, stdout, exit code or None if it raised)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = rb.cli.main(list(job.argv))
        except (Exception, SystemExit):
            rc = None
        dt = perf_counter() - t0
    return dt, out.getvalue(), rc


def job_ok(job, ref, exact, stdout, rc, state):
    """Exit code 0, the job's own check, and agreement with the reference:
    byte-identical for the recorded seed, basis-independent part otherwise."""
    if rc != 0:
        return False
    try:
        if job.check is not None and not job.check(stdout, state):
            return False
    except (ValueError, KeyError, IndexError, TypeError, OSError):
        return False
    if ref is None:
        return True
    if digest(invariant_text(job.kind, stdout)) != ref["invariant"]:
        return False
    if exact:
        if digest(stdout) != ref["stdout"]:
            return False
        if job.output is not None and \
                digest(Path(job.output).read_bytes()) != ref["output"]:
            return False
    return True


def tail(times):
    """(percentile, seconds) of the highest listed percentile with at least
    TAIL_MIN_BEYOND samples beyond it, or None when there are too few."""
    n = len(times)
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= TAIL_MIN_BEYOND:
            ordered = sorted(times)
            return p, ordered[min(n - 1, int(n * p / 100))]
    return None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Calibrator:
    """Times slices of exact-rational work of the benchmark's own, which no
    change to the program moves.  A slice reads Fractions scattered over a
    few megabytes, as the program's matrices are, so that it slows down with
    the cache and memory contention of a shared host as well as with its
    clock; their mean time is the calibration unit of a run."""

    def __init__(self):
        self.pool = [Fraction(i, 7 + i % 5) for i in range(1, 60001)]
        self.pos = 0
        self.seconds = 0.0
        self.slices = 0

    def slice(self):
        pool, j = self.pool, self.pos
        t0 = perf_counter()
        acc, seen = Fraction(0), {}
        for i in range(1, 100):
            j = (j + 7919) % len(pool)
            acc += pool[j] * Fraction(3, i % 7 + 1)
            seen[i % 97] = acc
        self.seconds += perf_counter() - t0
        self.slices += 1
        self.pos = j

    def after(self, job_seconds):
        """Slices for CALIBRATION_SHARE of the job just run, at least one."""
        stop = self.seconds + CALIBRATION_SHARE * job_seconds
        self.slice()
        while self.seconds < stop:
            self.slice()

    def unit(self):
        return self.seconds / self.slices


def one_pass(rb, jobs, refs, exact, calibrator):
    """Every job once, in order, each followed by calibration slices;
    (seconds, failures)."""
    times, failed, state = [], 0, {}
    for job, ref in zip(jobs, refs):
        dt, stdout, rc = run_job(rb, job)
        times.append(dt)
        calibrator.after(dt)
        if not job_ok(job, ref, exact, stdout, rc, state):
            failed += 1
    return times, failed


def measure(rb, jobs, refs, exact, seconds):
    """Whole passes until the given seconds have passed, so that every run
    measures the same mix of jobs; (seconds, calibration unit, failures)."""
    calibrator = Calibrator()
    times, failed = [], 0
    start = perf_counter()
    while not times or perf_counter() - start < seconds:
        t, f = one_pass(rb, jobs, refs, exact, calibrator)
        times += t
        failed += f
    return times, calibrator.unit(), failed


def paired_pass(rb, jobs, refs, exact, tracer):
    """Every job once untraced and once traced, alternating which goes
    first; (untraced times, traced times, failures)."""
    plain, traced, failed, state = [], [], 0, {}
    for idx, job in enumerate(jobs):
        for on in ((False, True) if idx % 2 == 0 else (True, False)):
            if on:
                tracer.job = idx
                tracer.install()
            try:
                dt, stdout, rc = run_job(rb, job)
            finally:
                if on:
                    tracer.uninstall()
            (traced if on else plain).append(dt)
            if not job_ok(job, refs[idx], exact, stdout, rc, state):
                failed += 1
    return plain, traced, failed


def layer_metrics(tracer, generate_s, overhead):
    """Self time of every layer group over the traced pass, its counts, the
    inclusive generator time of the traced set-up, and the overhead."""
    selfs = tracer.self_times()
    m = {group + "_s": {"value": selfs.get(group, 0.0), "unit": "s"}
         for group in LAYERS if group != "samples.generate"}
    for name, unit in COUNTS.items():
        m[name] = {"value": tracer.counts.get(name, 0), "unit": unit}
    m["samples.generate_s"] = {"value": generate_s, "unit": "s"}
    m["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=RECORDED_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    rb = load_program()
    if rb is None:
        print("error: no rotabaxter sources under src/ beside perfbench/",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    import_s = perf_counter() - START

    recorded = json.loads(REFERENCE.read_text())["workloads"]
    if args.workload not in recorded:
        print(f"error: {REFERENCE.name} has no entry for {args.workload}",
              file=sys.stderr)
        return 2
    refs = recorded[args.workload]["jobs"]
    inputs = recorded[args.workload]["inputs"]
    exact = args.seed == RECORDED_SEED

    work = Path("perfbench/out") / args.workload
    tracer = Tracer() if args.trace else None
    setups = []
    if tracer is not None:
        tracer.install()
    for _ in range(1 if tracer else SETUP_REPEATS):
        t0 = perf_counter()
        jobs = set_up(rb, args.workload, args.seed, work)
        setups.append(perf_counter() - t0)
    if tracer is not None:
        tracer.uninstall()
    setup_s = import_s + statistics.median(setups)

    if [job.argv for job in jobs] != [ref["argv"] for ref in refs]:
        print(f"error: the job list differs from the one recorded in "
              f"{REFERENCE.name}", file=sys.stderr)
        return 1
    if exact:
        got = {p.name: digest(p.read_bytes()) for p in sorted(work.iterdir())}
        if got != inputs:
            print(f"error: generated inputs for seed {args.seed} differ from "
                  f"the recorded digests in {REFERENCE.name}", file=sys.stderr)
            return 1

    env = environment(rb)
    print(f"workload {args.workload} seed {args.seed} jobs/pass {len(jobs)} "
          f"trace {args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))

    if tracer is None:
        times, cal, failed = measure(rb, jobs, refs, exact, args.seconds)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "jobs_per_kcal": {"value": 1000 * cal * len(times) / sum(times),
                              "unit": "1/kcal"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        extra = [("job_cal.p50", statistics.median(times) / cal, "cal"),
                 ("jobs_per_s", len(times) / sum(times), "1/s"),
                 ("job_s.p50", statistics.median(times), "s"),
                 ("cal", cal, "s"),
                 ("failed_ratio", failed / len(times), "ratio")]
        t = tail(times)
        if t is None:
            print(f"job_s.tail undefined: {len(times)} samples, "
                  f"fewer than {TAIL_MIN_BEYOND} beyond any percentile")
        else:
            extra.append((f"job_s.tail (p{t[0]:g} of {len(times)})", t[1],
                          "s"))
    else:
        generate_s = tracer.inclusive_time("samples.generate")
        tracer.clear()
        plain, traced, failed = paired_pass(rb, jobs, refs, exact, tracer)
        metrics = layer_metrics(tracer, generate_s, sum(traced) / sum(plain))
        times = plain + traced
        tracer.dump(work.parent / f"spans-{args.workload}-{args.seed}.jsonl")
        extra = [("failed_ratio", failed / len(times), "ratio")]

    lines = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    for name, value, unit in lines + extra:
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{name} = {shown} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": len(times),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
