"""Workload inputs, job lists and output checks.

Every workload draws its fixtures from ``samples.random_rrb_pair`` on the
sample seeds 0-99.  The workload seed changes the basis of each of the four
spaces (algebra, module, base, fiber) of every fixture by a signed
permutation; seed 0 keeps every basis as it is, so its inputs are exactly
the ``random_rrb_pair`` fixtures.  Such a change keeps the size, the
nonzero count and the entry magnitudes of every differential, and every
basis-independent answer (cohomology dimensions, axiom verdicts, output
dimensions), so those are checked for every seed.

Permuting a basis reorders pivots, and so changes fill-in.  Over the
hundreds of jobs of small-sweep and classify-roundtrip that averages out.
deep-cohomology has five jobs per pass, so its seed flips signs only: that
leaves the pivot sequence, the fill-in and every intermediate size as they
are, and every seed measures the same work.

classify-roundtrip leaves out the degree-3 round trips of the five fixtures
whose four dimensions are all 3: generating their cocycles takes about half
of its set-up, which runs several times per run, and deep-cohomology
already covers those fixtures.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from random import Random

SAMPLE_SEEDS = range(100)
DEEP_SAMPLES = (14, 16, 49, 63, 65)  # the fixtures whose dimensions are all 3


def digest(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:20]


class Job:
    """One CLI invocation, plus the check its output must pass."""

    __slots__ = ("kind", "argv", "output", "check")

    def __init__(self, argv, output=None, check=None):
        self.kind = argv[0]
        self.argv = argv
        self.output = output
        self.check = check


def invariant_text(kind, stdout):
    """The part of a job's stdout that no change of basis alters."""
    if kind == "derivations":
        return stdout.split("\n", 1)[0]
    if kind == "extract-cocycle":
        return ""
    return stdout


def _signed_permutation(rb, rng, n, seed, permute):
    """Map e_j -> sign_j e_perm(j); the identity for seed 0."""
    perm, signs = list(range(n)), [1] * n
    if seed:
        if permute:
            rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(n)]
    zero = rb.linalg.Q(0)
    rows = [[rb.linalg.Q(signs[j]) if perm[j] == i else zero
             for j in range(n)] for i in range(n)]
    return rb.algebra.LinearMap(n, n, rb.linalg.Matrix.from_rows(rows))


def fixture(rb, sample, seed, permute=True):
    """random_rrb_pair(sample) in the bases the seed picks."""
    x, b = rb.samples.random_rrb_pair(sample)
    rng = Random(f"{seed}:{sample}")
    p, q, u, v = (_signed_permutation(rb, rng, n, seed, permute) for n in
                  (x.algebra.dim, x.module.dim, b.base.dim, b.fiber.dim))
    x2 = rb.samples.transport_rrb(x, p, q)
    return x2, rb.samples.transport_bimodule(b, x2, p, q, u, v)


def _dims(x, b):
    return (x.algebra.dim, x.module.dim, b.base.dim, b.fiber.dim)


def _write_pair(rb, path, x, b, cocycle=None, name=None):
    ff = rb.fileformat
    doc = ff.new_document()
    xn, asp, msp = ff.declare_rrb_algebra(doc, "X", x)
    bn, bsp, fsp = ff.declare_rrb_bimodule(doc, "B", b, xn, asp, msp)
    if cocycle is not None:
        ff.declare_cocycle(doc, name, cocycle, xn, bn, asp, msp, bsp, fsp)
    ff.write_path(doc, path)


def _lines(stdout):
    return stdout.rstrip("\n").split("\n")


# ------------------------------------------------------------ deep-cohomology


def _deep(rb, seed, work):
    jobs = []
    for s in DEEP_SAMPLES:
        x, b = fixture(rb, s, seed, permute=False)
        path = f"{work}/f{s:03d}.json"
        _write_pair(rb, path, x, b)
        jobs.append(Job(["cohomology", path, "--max-degree", "3"],
                        check=_cohomology_dims(3)))
    return jobs


def _cohomology_dims(degree):
    def check(out, state):
        lines = _lines(out)
        return len(lines) == degree + 1 and \
            lines[-1].startswith(f"H^{degree} = ")
    return check


# ---------------------------------------------------------------- small-sweep


def _small(rb, seed, work):
    jobs = []
    for s in SAMPLE_SEEDS:
        x, b = fixture(rb, s, seed)
        if max(_dims(x, b)) > 2:
            continue
        path = f"{work}/f{s:03d}.json"
        _write_pair(rb, path, x, b)
        jobs += [
            Job(["validate", path], check=_validated),
            Job(["cohomology", path, "--max-degree", "3"],
                check=_record_h1(path)),
            Job(["derivations", path], check=_same_h1(path)),
            Job(["hochschild", path, "--max-degree", "3"]),
        ]
    return jobs


def _validated(out, state):
    return _lines(out)[-1] == "validate: pass"


def _record_h1(path):
    def check(out, state):
        lines = _lines(out)
        if len(lines) != 4 or not lines[1].startswith("H^1 = "):
            return False
        state[path] = int(lines[1][len("H^1 = "):])
        return True
    return check


def _same_h1(path):
    def check(out, state):
        head = _lines(out)[0]
        dim = int(head.rsplit("dimension ", 1)[1])
        return state.get(path) == dim
    return check


# --------------------------------------------------------- classify-roundtrip


def _cocycle_matrices(doc, name):
    lin = doc["linear"]
    decl = {d.get("name"): d for d in doc["declare"]}[name]
    return {"alpha": lin[decl["alpha"]]["matrix"],
            "beta": [lin[n]["matrix"] for n in decl["beta"]],
            "gamma": lin[decl["gamma"]]["matrix"]}


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _classify(rb, seed, work):
    jobs = []
    for s in SAMPLE_SEEDS:
        x, b = fixture(rb, s, seed)
        for degree in (2, 3):
            if degree == 3 and min(_dims(x, b)) == 3:
                continue
            c = rb.samples.random_rrb_cocycle(s + 1000 * seed, x, b, degree)
            if c is None or not any(c.vector()):
                continue
            path = f"{work}/c{s:03d}_d{degree}.json"
            name = f"c{degree}"
            _write_pair(rb, path, x, b, c, name)
            want = _cocycle_matrices(_read_json(path), name)
            if degree == 2:
                ext = f"{work}/c{s:03d}_ext.json"
                jobs += [
                    Job(["extend", path, "--cocycle", name, "-o", ext],
                        output=ext),
                    Job(["extract-cocycle", ext, "--section", "canonical",
                         "--format", "json"], check=_extracted(want)),
                ]
            else:
                skel = f"{work}/c{s:03d}_skel.json"
                back = f"{work}/c{s:03d}_back.json"
                jobs += [
                    Job(["triple-to-skeletal", path, "-o", skel],
                        output=skel),
                    Job(["skeletal-to-triple", skel, "-o", back],
                        output=back, check=_read_back(back, want)),
                ]
    return jobs


def _extracted(want):
    def check(out, state):
        return json.loads(out)["cocycle"] == {"degree": 2, **want}
    return check


def _read_back(back, want):
    def check(out, state):
        return _cocycle_matrices(_read_json(back), "triple.cocycle") == want
    return check


WORKLOADS = {
    "deep-cohomology": _deep,
    "small-sweep": _small,
    "classify-roundtrip": _classify,
}


def set_up(rb, workload, seed, work):
    """Write the workload's input files under work; return its jobs."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return WORKLOADS[workload](rb, seed, work.as_posix())
