"""Tests of the benchmark's own oracles and of its report checks.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import math
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import jobs  # noqa: E402
import oracles  # noqa: E402
from grpf import cli  # noqa: E402


def test_hook_content_dimensions():
    for n in range(2, 12):
        assert oracles.schur_dim((1, 1), n) == math.comb(n, 2)
        assert oracles.schur_dim((3,), n) == math.comb(n + 2, 3)
        assert oracles.schur_dim((), n) == 1
    assert oracles.schur_dim((2, 1), 3) == 8  # adjoint of sl_3
    assert oracles.schur_dim((1, 1, 1), 2) == 0


def test_bott_on_hand_worked_weights_of_gr_2_4():
    assert oracles.bott([0, 0, 0, 0]) == (0, 1)  # H^0(O) = C
    assert oracles.bott([1, 1, 0, 0]) == (0, 6)  # H^0(O(1)) = wedge^2 V*
    assert oracles.bott([1, 0, 0, 0]) == (0, 4)  # H^0(S*) = V*
    assert oracles.bott([1, 0, 0, -1]) == (0, 15)  # tangent bundle: sl_4
    assert oracles.bott([-1, -1, 0, 0]) is None  # (3, 2, 2, 1) repeats
    assert oracles.bott([-3, -3, 0, 0]) is None  # (1, 0, 2, 1) repeats
    assert oracles.bott([-4, -4, 0, 0]) == (4, 1)  # canonical bundle
    assert oracles.bott([-5, -5, 0, 0]) == (4, 6)  # Serre dual of O(1)


def test_schubert_cells_total_binomial():
    assert [oracles.schubert_cells(4, p) for p in range(5)] == [1, 1, 2, 1, 1]
    for n in range(3, 15):
        cells = [oracles.schubert_cells(n, p) for p in range(2 * (n - 2) + 1)]
        assert sum(cells) == math.comb(n, 2)
        assert cells == cells[::-1]


def test_catalan_numbers():
    assert [oracles.catalan(m) for m in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]


def test_hom_and_higher_ext_oracles():
    for n in range(4, 10):
        assert oracles.hom_dim((0, 0), (0, -1), n) == math.comb(n, 2)  # H^0(O(1))
        assert all(oracles.hom_dim(e, e, n) == 1 for e in oracles.grassmannian_window(n))
        assert oracles.higher_ext_free(oracles.grassmannian_window(n), n, 2 * n)
    # O(-20) on Gr(2, 12) has top cohomology, so Ext^20(O, O(-20)) != 0.
    assert not oracles.higher_ext_free([(0, 0), (0, 20)], 12, 0)


def test_windows_and_rank():
    assert len(oracles.grassmannian_window(10)) == 45
    assert len(oracles.grassmannian_window(11)) == 55
    assert len(oracles.pfaffian_window(10, 5)) == 25
    assert oracles.rank_mod([[1, 2], [2, 4]], 7) == 1
    assert oracles.rank_mod([[0, 1], [1, 0]], 7) == 2


def _report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(list(argv) + ["--json"])
    return code, out.getvalue()


def _corrupt(text, edit):
    report = json.loads(text)
    edit(report["result"])
    return json.dumps(report)


def test_collection_check_and_a_changed_hom_entry():
    job = jobs.Job("collection-S-7", "collection", ("collection", "verify", "--n", "7"), 7)
    code, text = _report(job.argv)
    assert jobs.check(job, code, text, {}) == []

    def bump(res):
        res["hom_matrix"][0][1] += 1

    assert jobs.check(job, code, _corrupt(text, bump), {})


def test_lemma_check_reruns_bott():
    job = jobs.Job(f"lemma-{jobs.LEMMA_ORACLE_N}", "lemma",
                   ("lemma", "check", "--n", str(jobs.LEMMA_ORACLE_N)), jobs.LEMMA_ORACLE_N)
    code, text = _report(job.argv)
    assert jobs.check(job, code, text, {}) == []
    assert jobs.check(job, code, _corrupt(text, lambda r: r.update(pairs=1)), {})


def test_hodge_check_and_a_changed_middle_row_entry():
    job = jobs.Job("hodge-10-5", "hodge", ("hodge", "grass-section", "--n", "10", "--k", "5"), 10, 5)
    code, text = _report(job.argv)
    assert jobs.check(job, code, text, {}) == []

    def change(res):
        res["middle_row"][5] = 100
        res["rows"][11][5] = 100

    assert jobs.check(job, code, _corrupt(text, change), {})


def test_known_faults_fail_their_checks():
    for name in jobs.KNOWN_FAULTS:
        _, n, k = name.split("-")
        job = jobs.Job(name, "hodge", ("hodge", "grass-section", "--n", n, "--k", k), int(n), int(k))
        code, text = _report(job.argv)
        assert jobs.check(job, code, text, {}), name


def test_sample_check_and_a_dropped_point(tmp_path):
    (job,) = [j for j in jobs.probe(5, str(tmp_path), True) if j.name == "probe-sample-6-3"]
    code, text = _report(job.argv)
    assert jobs.check(job, code, text, {}) == []

    def drop(res):
        res["points"].pop()

    assert jobs.check(job, code, _corrupt(text, drop), {})

    def wrong_rank(res):
        res["points"][0]["rank"] -= 2
        res["points"][0]["kernel_dim"] += 2

    assert jobs.check(job, code, _corrupt(text, wrong_rank), {})


def test_build_check(tmp_path):
    for job in jobs.probe(5, str(tmp_path), True):
        if job.kind == "build":
            code, text = _report(job.argv)
            assert jobs.check(job, code, text, {}) == []
            assert jobs.check(job, 2, "", {})


def test_families_are_full_rank_and_reproducible(tmp_path):
    first = jobs.build("pfaffian", 3, 0, str(tmp_path / "a"), False)
    os.makedirs(tmp_path / "a")
    os.makedirs(tmp_path / "b")
    jobs.build("pfaffian", 3, 0, str(tmp_path / "a"), True)
    jobs.build("pfaffian", 3, 0, str(tmp_path / "b"), True)
    for job in first:
        a = (tmp_path / "a" / os.path.basename(job.family)).read_text()
        b = (tmp_path / "b" / os.path.basename(job.family)).read_text()
        assert a == b
        matrix = json.loads(a)["matrix"]
        assert oracles.rank_mod(matrix, jobs.PRIME) == job.k
    rng = random.Random(0)
    assert oracles.rank_mod(jobs.draw_family(rng, 6, 15, jobs.PRIME), jobs.PRIME) == 15
