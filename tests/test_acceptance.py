"""Acceptance suite: every headline claim at exact tolerance.

Each test prints one `criterion-NN PASS/FAIL` line (visible with
``pytest -s`` or on failure) and enforces its runtime envelope.
"""

import json
import math
import random
import time

import pytest

from grpf.bwb import bott
from grpf.cli import run
from grpf.geometry import ModelParams, orthogonal_rectangle, window_inclusion_closed_form, window_sets
from grpf.modp import pfaffian_mod
from grpf.pfaffian import AMap
from grpf.schur import cauchy_exterior_cotangent, virtual_rank
from grpf.sections import h1_tangent_y1, hodge_diamond_y1
from test_poly_modp import det_mod, random_skew_mod


class Criterion:
    def __init__(self, number, limit_seconds):
        self.number = number
        self.limit = limit_seconds
        self.start = None

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion-{self.number:02d} {status} [{elapsed:.2f}s / limit {self.limit}s]")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget"
            )
        return False


def run_json(capsys, argv):
    code = run(argv + ["--json"])
    return code, json.loads(capsys.readouterr().out)


def test_criterion_01_quintic_hypersurface(capsys):
    with Criterion(1, 1.0):
        code, report = run_json(
            capsys, ["hodge", "hypersurface", "--dim", "4", "--degree", "5"]
        )
        assert code == 0
        assert report["result"]["middle_row"] == [1, 101, 101, 1]


def test_criterion_02_elevenfold_middle_cohomology(capsys):
    with Criterion(2, 60.0):
        code, report = run_json(
            capsys, ["hodge", "grass-section", "--n", "10", "--k", "5"]
        )
        assert code == 0
        dia = hodge_diamond_y1(ModelParams(10, 5)).diamond
        assert dia[7, 4] == 1 and dia[4, 7] == 1
        assert dia[6, 5] == 101 and dia[5, 6] == 101
        assert all(
            dia[p, 11 - p] == 0 for p in range(12) if p not in (4, 5, 6, 7)
        )
        assert report["result"]["middle_row"] == [dia[p, 11 - p] for p in range(12)]


def test_criterion_03_deformation_match():
    with Criterion(3, 60.0):
        res = h1_tangent_y1(ModelParams(10, 5))
        assert res.mode == "exact-generic"
        assert res.h1 == 101


def test_criterion_04_strong_exceptionality(capsys):
    with Criterion(4, 300.0):
        code, report = run_json(
            capsys, ["collection", "verify", "--n", "10", "--set", "S"]
        )
        assert code == 0
        assert report["result"]["passed"] is True
        assert report["result"]["pairs"] == 45 * 45
        code, report = run_json(
            capsys, ["collection", "verify", "--n", "7", "--set", "S"]
        )
        assert code == 0
        assert report["result"]["passed"] is True


@pytest.mark.parametrize("n", [8, 10, 12])
def test_criterion_05_vanishing_for_all_twists(n, capsys):
    with Criterion(5, 120.0):
        code, report = run_json(capsys, ["lemma", "check", "--n", str(n)])
        assert code == 0
        assert report["result"]["all_vanish"] is True
        assert report["result"]["counterexamples"] == []


def test_criterion_06_window_inclusion_grid():
    with Criterion(6, 5.0):
        for n in range(3, 15):
            for k in range(1, math.comb(n, 2) + 1):
                _, _, literal = window_sets(ModelParams(n, k))
                assert literal == window_inclusion_closed_form(n, k)


def test_criterion_07_orthogonal_rectangle():
    with Criterion(7, 1.0):
        rect = orthogonal_rectangle(ModelParams(10, 5))
        assert len(rect) == 20
        assert rect == {(l, m) for l in range(4) for m in range(5)}


@pytest.mark.parametrize("n,k", [(10, 5), (7, 7), (8, 4)])
def test_criterion_08_pfaffian_sampling(n, k, tmp_path, capsys):
    with Criterion(8, 120.0):
        am = AMap.random(n, k, seed=42, p=10007)
        path = tmp_path / "a.json"
        am.save(path)
        code, report = run_json(
            capsys,
            ["pfaffian", "sample", "--in", str(path), "--prime", "10007",
             "--points", "200", "--seed", "42"],
        )
        assert code == 0
        res = report["result"]
        assert res["found"] >= 100
        expected_kernel = 2 if n % 2 == 0 else 3
        smooth = [q for q in res["points"] if q["smooth_at"]]
        assert all(q["kernel_dim"] == expected_kernel for q in smooth)
        assert res["smooth_fraction"] >= 0.95


def test_criterion_09_pfaffian_degree(tmp_path, capsys):
    with Criterion(9, 30.0):
        am = AMap.random(10, 5, seed=42, p=10007)
        path = tmp_path / "a.json"
        am.save(path)
        code, report = run_json(capsys, ["pfaffian", "build", "--in", str(path)])
        assert code == 0
        assert report["result"]["pfaffian"]["degree"] == 5


def test_criterion_10_property_suites():
    with Criterion(10, 300.0):
        # Serre duality on 10^3 random weights
        rng = random.Random(42)
        for _ in range(1000):
            n = rng.randrange(5, 13)
            s = tuple(sorted((rng.randint(-8, 8) for _ in range(2)), reverse=True))
            q = tuple(sorted((rng.randint(-8, 8) for _ in range(n - 2)), reverse=True))
            a = bott(n, s, q)
            b = bott(n, (-s[1] - n, -s[0] - n), tuple(-x for x in reversed(q)))
            assert (a is None) == (b is None)
            if a is not None:
                assert a[0] + b[0] == 2 * (n - 2)
                assert a[1] == b[1]

        # Pf^2 = det on 10^3 random skew matrices over F_p
        rng = random.Random(43)
        p = 10007
        for n in (8, 10, 12):
            for _ in range(334):
                m = random_skew_mod(n, p, rng)
                assert pfaffian_mod(m, p) ** 2 % p == det_mod(m, p)

        # Cauchy rank conservation for n <= 12
        for n in range(3, 13):
            for m in range(0, 2 * (n - 2) + 1):
                kc = cauchy_exterior_cotangent(n, m)
                assert virtual_rank(kc) == math.comb(2 * (n - 2), m)

        # diamond integrity on every computed diamond: the invariants the
        # construction checks, asserted again, and the top-level consistency
        for n, k in ((10, 5), (7, 7), (9, 9), (8, 4), (4, 1), (6, 3)):
            res = hodge_diamond_y1(ModelParams(n, k))
            dia = res.diamond
            d = 2 * (n - 2) - k
            assert sorted(dia) == [(p, q) for p in range(d + 1) for q in range(d + 1)]
            for (p, q), v in dia.items():
                assert v >= 0 and v == dia[q, p] == dia[d - p, d - q]
            assert d == 0 or dia[0, 0] == 1
            assert sum((-1) ** (p + q) * v for (p, q), v in dia.items()) == sum(
                (-1) ** p * res.chi_p[p] for p in range(d + 1)
            )
