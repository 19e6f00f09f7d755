"""The job list of each workload, its generated inputs, and its checks.

A job is one ``grpf`` command line.  Families of 2-forms are drawn here,
from the workload seed and the pass number, by this module's own
generator and written as family files; the program sees only the files.
The same (seed, pass) always gives the same files.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
from dataclasses import dataclass

import oracles

PRIME = 10007  # the CLI's default prime

# Operations that fail on every run because of faults in grpf.  They stay in
# the job list and are counted as failed until the program is mended.
KNOWN_FAULTS = {
    "hodge-10-0": "omega_p_class calls math.comb(-1, 0) for k = 0; exit 2",
    "hodge-4-4": "HodgeDiamond.validate demands h00 = 1 in dimension 0; exit 1",
    "hodge-5-6": "HodgeDiamond.validate demands h00 = 1 in dimension 0; exit 1",
    "hodge-5-5": "h1_tangent_y1 reports h1(T) = 0 on an elliptic curve",
}

# Smallest lemma n, re-decided by the oracle's own Bott enumeration up to
# t = 2n; beyond that every Clebsch-Gordan summand is dominant (a2 + t >= 0),
# so only H^0 survives and the check covers every twist.
LEMMA_ORACLE_N = 12


@dataclass(frozen=True)
class Job:
    name: str
    kind: str
    argv: tuple
    n: int
    k: int = 0
    family: str = ""
    points: int = 0


def _grassmannian_jobs():
    jobs = [
        Job(f"collection-S-{n}", "collection",
            ("collection", "verify", "--n", str(n), "--set", "S"), n)
        for n in (10, 11, 15, 16)
    ]
    jobs.append(Job("collection-T-10-5", "collection",
                    ("collection", "verify", "--n", "10", "--set", "T", "--k", "5"), 10, 5))
    jobs += [
        Job(f"lemma-{n}", "lemma", ("lemma", "check", "--n", str(n)), n)
        for n in (LEMMA_ORACLE_N, 16, 20, 24)
    ]
    hodge = [(10, 5), (7, 7), (5, 4), (6, 6), (5, 5), (6, 7), (10, 0), (4, 4),
             (5, 6), (12, 6), (14, 7), (18, 9)]
    jobs += [
        Job(f"hodge-{n}-{k}", "hodge",
            ("hodge", "grass-section", "--n", str(n), "--k", str(k)), n, k)
        for n, k in hodge
    ]
    return jobs


# (n, k, points) of the sampling requests and (n, k) of the builds.
# Sampling families are over Q (the program reduces them mod p); build
# families are over F_p, which keeps slow, allocation-heavy Fraction
# arithmetic, the noisiest on a shared host, out of the symbolic expansion.
_PFAFFIAN_SAMPLES = [(8, 4, 100), (10, 5, 100), (12, 6, 10), (7, 7, 40), (7, 8, 20)]
_PFAFFIAN_BUILDS = [(10, 5), (12, 6), (9, 9)]


def draw_family(rng, n, k, prime):
    """A k x C(n,2) integer family of full rank k mod ``prime`` (so over Q).

    Entries are uniform in [-9, 9]; a rank-deficient draw is redrawn.
    """
    while True:
        matrix = [[rng.randint(-9, 9) for _ in range(math.comb(n, 2))]
                  for _ in range(k)]
        if oracles.rank_mod(matrix, prime) == k:
            return matrix


def _family_jobs(samples, builds, seed, pass_index, work_dir, write):
    jobs = []

    def family(name, n, k, field):
        path = os.path.join(work_dir, f"{name}.json")
        if write:
            rng = random.Random(f"{seed}:{pass_index}:{name}")
            data = {"field": field, "k": k, "matrix": draw_family(rng, n, k, PRIME), "n": n}
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(data, fh, sort_keys=True)
        return path

    for n, k, points in samples:
        name = f"sample-{n}-{k}"
        path = family(name, n, k, "Q")
        sampler_seed = random.Random(f"{seed}:{pass_index}:{name}:seed").randrange(2**31)
        argv = ("pfaffian", "sample", "--in", path, "--prime", str(PRIME),
                "--points", str(points), "--seed", str(sampler_seed))
        jobs.append(Job(name, "sample", argv, n, k, path, points))
    for n, k in builds:
        name = f"build-{n}-{k}"
        path = family(name, n, k, {"p": PRIME})
        jobs.append(Job(name, "build", ("pfaffian", "build", "--in", path), n, k, path))
    return jobs


WORKLOADS = ("grassmannian", "pfaffian")


def build(workload, seed, pass_index, work_dir, write):
    """The jobs of one pass, in the pass's own order; writes inputs if asked."""
    if workload == "grassmannian":
        jobs = _grassmannian_jobs()
    elif workload == "pfaffian":
        jobs = _family_jobs(_PFAFFIAN_SAMPLES, _PFAFFIAN_BUILDS, seed, pass_index, work_dir, write)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(f"order:{seed}:{pass_index}").shuffle(jobs)
    return jobs


def probe(seed, work_dir, write):
    """Small jobs that reach every traced layer, run after a traced pass.

    They make each per-layer figure defined on every workload; they are
    neither timed nor counted as operations.
    """
    jobs = [
        Job("probe-hodge-5-4", "hodge", ("hodge", "grass-section", "--n", "5", "--k", "4"), 5, 4),
        Job("probe-collection-6", "collection", ("collection", "verify", "--n", "6"), 6),
        Job("probe-lemma-6", "lemma", ("lemma", "check", "--n", "6"), 6),
    ]
    jobs += [
        dataclasses.replace(job, name="probe-" + job.name)
        for job in _family_jobs([(6, 3, 5), (5, 5, 3)], [(6, 3), (5, 5)],
                                seed, "probe", work_dir, write)
    ]
    return jobs


def check(job, code, text, cache):
    """Problems with one report; ``cache`` keeps oracle values between passes."""
    if job.kind == "collection":
        window = (oracles.pfaffian_window(job.n, job.k) if job.k
                  else oracles.grassmannian_window(job.n))
        return oracles.check_collection(code, text, job.n, window, cache)
    if job.kind == "lemma":
        t_max = 2 * job.n if job.n == LEMMA_ORACLE_N else None
        return oracles.check_lemma(code, text, job.n,
                                   oracles.grassmannian_window(job.n), t_max, cache)
    if job.kind == "hodge":
        return oracles.check_hodge(code, text, job.n, job.k)
    if job.kind == "build":
        return oracles.check_build(code, text, job.n, job.k)
    with open(job.family, encoding="utf-8") as fh:
        matrix = json.load(fh)["matrix"]
    return oracles.check_sample(code, text, job.n, job.k, matrix, PRIME, job.points)
