import argparse
import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
from collections import Counter

import pytest

import grpf.bwb as bwb
import grpf.cli as cli
import grpf.geometry as geometry
import grpf.sections as sections
import grpf.weights as weights
from grpf.cli import run
from grpf.geometry import ModelParams, grassmannian_window, pfaffian_window
from grpf.pfaffian import AMap, sample_y2
from grpf.sections import omega_p_class, twisted_ext_vanishing, verify_strong_exceptional
from test_golden_reports import audit_rows

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_json(capsys, argv):
    code = run(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_classify_report(capsys):
    code, report = run_json(capsys, ["classify", "--n", "10", "--k", "5"])
    assert code == 0
    assert report["command"] == "classify"
    assert report["result"]["y1_type"] == "Fano"
    assert report["result"]["dim_y1"] == 11
    assert report["params"] == {"n": 10, "k": 5}


def test_python_dash_m_matches_run(capsys):
    argv = ["classify", "--n", "10", "--k", "5", "--json"]
    assert run(argv) == 0
    expected = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "grpf", *argv], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected.encode()


def test_classify_bad_params_exit_2(capsys):
    code = run(["classify", "--n", "3", "--k", "99"])
    err = capsys.readouterr().err
    assert code == 2
    assert "C(n,2)" in err


def test_usage_error_exit_2(capsys):
    assert run(["classify", "--n", "10"]) == 2  # missing --k
    assert run(["no-such-command"]) == 2
    capsys.readouterr()


def test_unwritable_out_path_exit_2(capsys, tmp_path):
    # a directory, and a file under a directory that does not exist
    for target in (tmp_path, tmp_path / "missing" / "x.json"):
        code = run(["classify", "--n", "10", "--k", "5", "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


def test_bwb_report(capsys):
    code, report = run_json(capsys, ["bwb", "--n", "10", "--s", "1,1"])
    assert code == 0
    assert report["result"] == {
        "outcome": "cohomology",
        "degree": 0,
        "weight": [1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        "dimension": 45,
    }
    code, report = run_json(
        capsys, ["bwb", "--n", "10", "--s", "0,-1", "--q", "0,0,0,0,0,0,0,0"]
    )
    assert code == 0
    assert report["result"] == {"outcome": "vanishes"}


def test_windows_report(capsys):
    code, report = run_json(capsys, ["windows", "--n", "10", "--k", "5"])
    assert code == 0
    res = report["result"]
    assert res["sizes"] == {"grassmannian_side": 45, "pfaffian_side": 25}
    assert res["inclusion"] is True
    assert len(res["orthogonal_rectangle"]) == 20


def test_windows_internal_check_is_integrity_error(monkeypatch, capsys):
    # a disagreement between the two inclusion tests is a bug: exit 1 with
    # a one-line message, not a traceback
    import grpf.geometry

    monkeypatch.setattr(
        grpf.geometry, "window_inclusion_closed_form", lambda n, k: False
    )
    assert run(["windows", "--n", "10", "--k", "5"]) == 1
    assert "integrity error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, where",
    [
        (["lemma", "check", "--n", "8"], "grassmannian_window"),
        (["windows", "--n", "8", "--k", "4"], "grassmannian_window"),
        (["collection", "verify", "--n", "8", "--set", "T", "--k", "4"], "pfaffian_window"),
    ],
)
def test_out_of_memory_exit_2(monkeypatch, capsys, argv, where):
    # an input too large for memory is refused like any other input it
    # cannot serve: one error line and exit 2, not exit 1 and a traceback
    def exhausted(*args):
        raise MemoryError

    for module in (geometry, sections, cli):
        if hasattr(module, where):
            monkeypatch.setattr(module, where, exhausted)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory; the input is too large\n"


def test_hodge_grass_section_edge_cases_exit_0(capsys):
    from grpf.weights import grassmannian_poincare

    code, report = run_json(capsys, ["hodge", "grass-section", "--n", "10", "--k", "0"])
    assert code == 0
    rows = report["result"]["rows"]
    assert [sum(row) for row in rows[::2]] == list(grassmannian_poincare(10))
    assert not any(any(row) for row in rows[1::2])
    for n, k, points in ((4, 4, 2), (5, 6, 5)):
        code, report = run_json(
            capsys, ["hodge", "grass-section", "--n", str(n), "--k", str(k)]
        )
        assert code == 0
        assert report["result"]["rows"] == [[points]]


def test_hodge_hypersurface_human(capsys):
    # the quartic K3 surface: rows by p + q, then the middle row
    code = run(["hodge", "hypersurface", "--dim", "3", "--degree", "4"])
    assert code == 0
    assert capsys.readouterr().out == "1\n0 0\n1 20 1\n0 0\n1\nmiddle row: [1, 20, 1]\n"


def test_hodge_grass_section_report(capsys):
    code, report = run_json(capsys, ["hodge", "grass-section", "--n", "7", "--k", "7"])
    assert code == 0
    assert report["result"]["middle_row"] == [1, 50, 50, 1]
    assert report["result"]["tangent_h1"]["value"] == 50


def test_collection_verify_pass_and_fail(capsys):
    code, report = run_json(capsys, ["collection", "verify", "--n", "7"])
    assert code == 0
    assert report["result"]["passed"] is True
    # an out-of-range Pfaffian-side window fails with a counterexample listed
    code, report = run_json(
        capsys, ["collection", "verify", "--n", "6", "--set", "T", "--k", "9"]
    )
    assert code == 1
    assert report["result"]["ext_failures"]
    # T without k is a usage error
    assert run(["collection", "verify", "--n", "6", "--set", "T"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "0"],
        ["--n", "1"],
        ["--n", "10", "--set", "T", "--k", "-3"],
        ["--n", "10", "--set", "T", "--k", "46"],  # C(10, 2) = 45
    ],
)
def test_collection_verify_bad_params_exit_2(capsys, argv):
    assert run(["collection", "verify"] + argv + ["--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: need ")


def test_lemma_check_report(capsys):
    code, report = run_json(capsys, ["lemma", "check", "--n", "8"])
    assert code == 0
    assert report["result"]["all_vanish"] is True
    assert run(["lemma", "check", "--n", "7"]) == 2
    capsys.readouterr()


def test_json_reports_are_byte_identical(capsys):
    run(["windows", "--n", "8", "--k", "4", "--json"])
    first = capsys.readouterr().out
    run(["windows", "--n", "8", "--k", "4", "--json"])
    second = capsys.readouterr().out
    assert first == second


def test_pfaffian_build_and_sample(tmp_path, capsys):
    am = AMap.random(6, 3, seed=5, p=10007)
    path = tmp_path / "a.json"
    am.save(path)
    code, report = run_json(capsys, ["pfaffian", "build", "--in", str(path)])
    assert code == 0
    assert report["result"]["pfaffian"]["degree"] == 3
    code, report = run_json(
        capsys,
        ["pfaffian", "sample", "--in", str(path), "--prime", "10007",
         "--points", "10", "--seed", "42"],
    )
    assert code == 0
    assert report["result"]["found"] == 10
    for pt in report["result"]["points"]:
        assert pt["rank"] + pt["kernel_dim"] == 6
    # lines are eliminated as power series, their roots split off
    # gcd(f, x^p - x), and each point is decided by its tangent space
    assert report["provenance"] == [
        "series-elimination",
        "gcd-root-splitting",
        "tangent-space-test",
    ]


def test_pfaffian_sample_prime_2_61_minus_1(tmp_path, capsys):
    am = AMap.random(6, 3, seed=5)
    path = tmp_path / "a.json"
    am.save(path)
    code, report = run_json(
        capsys,
        ["pfaffian", "sample", "--in", str(path), "--prime", "2305843009213693951",
         "--points", "5"],
    )
    assert code == 0
    assert report["result"]["found"] == 5


def test_runs_without_numpy(tmp_path):
    script = f"""
import sys
sys.modules["numpy"] = None  # any import of numpy now fails
import grpf
from grpf.cli import run
from grpf.pfaffian import AMap
AMap.random(7, 7, seed=3).save({str(tmp_path / "a.json")!r})
sys.exit(run(["pfaffian", "sample", "--in", {str(tmp_path / "a.json")!r},
              "--points", "5", "--json"]))
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["found"] == 5


def test_pfaffian_sample_pseudoprime_exit_2(tmp_path):
    # 318665857834031151167461 passes Miller-Rabin to bases 2..37; taken for
    # a prime it kept root finding busy for minutes
    psi_12 = 318665857834031151167461
    AMap.random(6, 3, seed=2).save(tmp_path / "a.json")
    (tmp_path / "b.json").write_text(json.dumps(
        {"field": {"p": psi_12}, "k": 1, "matrix": [[1, 0, 0]], "n": 3}))
    script = f"""
import sys
from grpf.cli import run
sys.exit(max(
    run(["pfaffian", "sample", "--in", {str(tmp_path / "a.json")!r},
         "--prime", "{psi_12}"]),
    run(["pfaffian", "build", "--in", {str(tmp_path / "b.json")!r}]),
))
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("need an odd prime") == 2


def test_pfaffian_sample_bad_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(["pfaffian", "sample", "--in", str(path)]) == 2
    path2 = tmp_path / "missing.json"
    assert run(["pfaffian", "build", "--in", str(path2)]) == 2
    capsys.readouterr()


GOOD_Q = {"n": 4, "k": 2, "field": "Q",
          "matrix": [[1, 0, 0, 0, 0, "1/2"], [0, 1, 0, 0, 3, 0]]}
GOOD_P = {"n": 4, "k": 2, "field": {"p": 7},
          "matrix": [[1, 0, 0, 0, 0, 4], [0, 1, 0, 0, 3, 0]]}
# odd n, so the report lists submaximal Pfaffians; entries in three or four variables
ODD_Q = {"n": 5, "k": 3, "field": "Q",
         "matrix": [[1, 0, "-2/3", 0, 5, 0, 0, -4, 0, 1],
                    [0, "7/2", 0, 1, 0, -1, 0, 0, 3, 0],
                    [2, 0, 0, -3, 0, 0, "1/5", 0, 0, -6]]}
ODD_P = {"n": 5, "k": 4, "field": {"p": 7},
         "matrix": [[1, 0, 6, 0, 2, 0, 0, 3, 0, 5],
                    [0, 4, 0, 1, 0, 6, 0, 0, 2, 0],
                    [3, 0, 0, 5, 0, 0, 1, 0, 0, 4],
                    [0, 2, 1, 0, 0, 3, 0, 6, 1, 0]]}
# a Pfaffian that vanishes identically has degree -1 and no terms
ZERO_PF_Q = {"n": 4, "k": 1, "field": "Q", "matrix": [[1, 1, 0, 0, 0, 0]]}
# submaximal Pfaffians of mixed degrees: u1, 0, 0
MIXED_ODD_Q = {"n": 3, "k": 1, "field": "Q", "matrix": [[0, 0, 1]]}


def _with(doc, **changes):
    return {**doc, **changes}


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


def _entry(doc, value):
    return _with(doc, matrix=[[value] + doc["matrix"][0][1:], doc["matrix"][1]])


@pytest.mark.parametrize(
    "doc",
    [
        [GOOD_Q],
        "family",
        _without(GOOD_Q, "field"),
        _without(GOOD_Q, "matrix"),
        _with(GOOD_Q, n=None),
        _entry(GOOD_Q, [1]),
        _with(GOOD_Q, matrix=5),
        _with(GOOD_Q, matrix=[5, 6]),
        _with(GOOD_Q, n=4.7),
        _with(GOOD_Q, k=True),
        _entry(GOOD_Q, 0.1),
        _entry(GOOD_Q, True),
        _entry(GOOD_Q, "0.1"),
        _entry(GOOD_Q, "1/0"),
        _entry(GOOD_P, 2.9),
        _entry(GOOD_P, "1/2"),
        _with(GOOD_P, field={"p": 7.0}),
    ],
    ids=[
        "array", "string", "no-field", "no-matrix", "n-null", "nested-entry",
        "matrix-int", "row-int", "n-float", "k-bool", "q-float-entry",
        "bool-entry", "q-decimal-string", "q-zero-denominator",
        "fp-float-entry", "fp-string-entry", "p-float",
    ],
)
def test_malformed_family_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(doc))
    for sub in ("build", "sample"):
        assert run(["pfaffian", sub, "--in", str(path), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")


@pytest.mark.parametrize("doc", [GOOD_Q, GOOD_P], ids=["Q", "Fp"])
def test_saved_family_round_trips_byte_for_byte(tmp_path, capsys, doc):
    first = tmp_path / "a.json"
    first.write_text(json.dumps(doc, sort_keys=True) + "\n")
    am = AMap.load(first)
    am.save(tmp_path / "b.json")
    assert (tmp_path / "b.json").read_bytes() == first.read_bytes()
    assert run(["pfaffian", "build", "--in", str(first), "--json"]) == 0
    capsys.readouterr()


def _run_family(tmp_path, monkeypatch, capsys, doc, argv):
    """Run a pfaffian command on ``doc`` saved as a.json, from tmp_path with a
    relative --in so that the params of the report do not depend on tmp_path."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.json").write_text(json.dumps(doc))
    sub, *rest = argv
    code = run(["pfaffian", sub, "--in", "a.json", *rest, "--json"])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "doc, argv, digest",
    [
        (GOOD_Q, ["build"],
         "076eec3afd26ebd4a7a533952788714cb0b4761a62d92f1800e3cd65183e0886"),
        (GOOD_Q, ["sample", "--points", "3"],
         "63f171291a0ddc2d1863cac543631218bdc3e8e5704b584051c53e270c2d4a72"),
        (GOOD_P, ["build"],
         "c5ecfde5ef88cceefef733feec01c264569974fe7bb2c4d9a3364919f0f60b11"),
        (GOOD_P, ["sample", "--prime", "7", "--points", "3"],
         "504df6941c1344638e1593600b56a256419d2822264b48291aa80e55e41215ab"),
        (ODD_Q, ["build"],
         "2942a69a4b4a07a0c19203fc953d174029fc952090148948ee2d84132305f113"),
        (ODD_P, ["build"],
         "613d40ed862e4ac63daa17df260989f38ff96fd4fd73edcac3c51cbc356cd57b"),
        (ZERO_PF_Q, ["build"],
         "5b1cd36c1f85c44c9d7efec3345ad445ab982cb23ff0871a6916c2b98010386e"),
        (MIXED_ODD_Q, ["build"],
         "7cffac8161ec56a336a91b58b31b518e429ea3256cc7c2fdd2fe73db690f5c0e"),
    ],
    ids=["Q-build", "Q-sample", "Fp-build", "Fp-sample", "Q-odd-build", "Fp-odd-build",
         "Q-zero-pfaffian-build", "Q-mixed-degrees-build"],
)
def test_pfaffian_reports_frozen(tmp_path, monkeypatch, capsys, doc, argv, digest):
    code, out, err = _run_family(tmp_path, monkeypatch, capsys, doc, argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


PSI_12 = "318665857834031151167461"  # strong pseudoprime to bases 2..37


@pytest.mark.parametrize(
    "doc, argv, err",
    [
        (GOOD_Q, ["sample", "--prime", "12"], "need an odd prime, got 12"),
        (GOOD_Q, ["sample", "--prime", "2"], "need an odd prime, got 2"),
        (GOOD_Q, ["sample", "--prime", PSI_12], f"need an odd prime, got {PSI_12}"),
        (_with(GOOD_Q, matrix=[[1, 0, 0, 0, 0, "1/7"], [0, 1, 0, 0, 3, 0]]),
         ["sample", "--prime", "7"],
         "cannot reduce family mod 7: denominator of 1/7 vanishes mod 7"),
        (_with(GOOD_Q, field={"p": 9}), ["build"], "need an odd prime, got 9"),
        (_with(GOOD_Q, field={"p": 9}), ["sample"], "need an odd prime, got 9"),
        (_with(GOOD_P, field={"p": 9}, matrix=5), ["build"], "need an odd prime, got 9"),
        (_with(GOOD_P, field={"p": 9}, matrix=5), ["sample"], "need an odd prime, got 9"),
    ],
    ids=["prime-12", "prime-2", "prime-psi12", "q-denominator-7",
         "p9-half-build", "p9-half-sample", "p9-matrix-int-build",
         "p9-matrix-int-sample"],
)
def test_pfaffian_errors_frozen(tmp_path, monkeypatch, capsys, doc, argv, err):
    # the prime is checked before the entries, so a bad prime is the first error
    assert _run_family(tmp_path, monkeypatch, capsys, doc, argv) == (2, "", f"error: {err}\n")


def test_out_flag_writes_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = run(["classify", "--n", "8", "--k", "4", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    data = json.loads(target.read_text())
    assert data["result"]["y2_type"] == "CalabiYau"


def test_verify_all_fast(capsys):
    # the engine self-checks run in tier 1, not in verify-all
    code, report = run_json(capsys, ["verify-all"])
    assert code == 0
    assert report["result"]["all_passed"] is True
    names = {item["name"] for item in report["result"]["items"]}
    assert "section-hodge-10-5" in names
    assert names.isdisjoint({
        "window-inclusion-grid",
        "serre-duality-random",
        "bwb-degree-range-random",
        "cauchy-rank-conservation",
        "clebsch-gordan-dimensions",
        "diamond-integrity",
        "pfaffian-square-is-det",
    })


def test_verify_all_full(capsys):
    code, report = run_json(capsys, ["verify-all"])
    assert code == 0
    assert report["params"] == {}
    assert report["result"]["all_passed"] is True
    assert [item["name"] for item in report["result"]["items"]] == [
        "hypersurface-quintic",
        "section-hodge-10-5",
        "tangent-deformations-10-5",
        "collection-n10",
        "collection-n7",
        "lemma-n8",
        "lemma-n10",
        "lemma-n12",
        "orthogonal-rectangle-10-5",
        "pfaffian-degree-10-5",
        "pfaffian-sampling",
    ]


def test_verify_all_has_no_profile_option(capsys):
    assert run(["verify-all", "--profile", "full"]) == 2
    assert "unrecognized arguments: --profile full" in capsys.readouterr().err


def test_grass_section_audit_trail(capsys):
    code, report = run_json(capsys, ["hodge", "grass-section", "--n", "7", "--k", "7"])
    assert code == 0
    audit = report["result"]["audit"]
    assert list(audit) == ["outcomes"]  # the rows follow from (n, k) and the outcomes
    rebuilt = audit_rows(7, 7, audit["outcomes"])
    assert len(rebuilt) == 4  # one list of rows per exterior degree p
    # the rows reproduce each chi^p by signed dimension sums: row [i, j, a]
    # reads outcome (j, p - i, i + a), signed (-1)^i C(k+i-1, i) (-1)^a C(k, a)
    outcomes = {(j, m, t): (degree, dim) for j, m, t, degree, dim in audit["outcomes"]}
    for p, rows in enumerate(rebuilt):
        chi = 0
        for i, j, a in rows:
            degree, dim = outcomes[j, p - i, i + a]
            chi += (-1) ** (i + a + degree) * math.comb(6 + i, i) * math.comb(7, a) * dim
        assert chi == report["result"]["chi_p"][p]
    pages = report["result"]["tangent_h1"]
    assert pages["tangent_page"] == [[0, 0, 48], [7, 9, 1]]
    assert pages["normal_page"] == [[0, 0, 147], [1, 0, 49]]


def test_grass_section_runs_bott_once_per_koszul_term(capsys, monkeypatch):
    # the Koszul pages of T and O(1)^k run the unchecked Bott walk once per
    # term and Koszul twist; the terms of Omega^p take the Cauchy entry at
    # most twice per (Cauchy term j, m), never at t = 0, whose outcome is
    # closed, nor where the term vanishes, and read the rest of each ray by
    # the Weyl ratio: the 133 outcomes of the audit table behind its 293
    # rows, out of 193 x 6 (term, Koszul twist) pairs, each equal to Bott
    # on its key
    runs = []
    outcomes = []
    bott_runs, bott_cauchy = bwb._bott_runs, bwb._bott_cauchy

    def counted_runs(a1, a2, q_runs, n):
        runs.append((a1, a2, n))
        return bott_runs(a1, a2, q_runs, n)

    def counted_cauchy(a1, a2, j, m, n):
        outcomes.append((j, m, -j - a1))
        res = bott_cauchy(a1, a2, j, m, n)
        assert res is not None, (a1, a2, j, m)
        return res

    monkeypatch.setattr(bwb, "_bott_runs", counted_runs)
    monkeypatch.setattr(bwb, "_bott_cauchy", counted_cauchy)
    assert run(["hodge", "grass-section", "--n", "10", "--k", "5", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    params = ModelParams(10, 5)
    omega_terms = sum(len(omega_p_class(params, p)) for p in range(12))
    tangent_terms = len({((1, 0), (0,) * 7 + (-1,)): 1})
    normal_terms = len({((1, 1), (0,) * 8): 5})
    assert (omega_terms, tangent_terms, normal_terms) == (193, 1, 1)
    # each Cauchy outcome runs the walk once; the other runs are the Koszul path's
    assert len(runs) - len(outcomes) == 6 * (1 + 1) == 12
    assert all(t > 0 for _, _, t in outcomes)
    assert max(Counter((j, m) for j, m, _ in outcomes).values()) <= 2
    audit = report["result"]["audit"]
    assert len(audit["outcomes"]) == 133
    for j, m, t, degree, dim in audit["outcomes"]:
        assert bott_cauchy(-j - t, j - m - t, j, m, 10) == (degree, dim), (j, m, t)
    assert sum(len(rows) for rows in audit_rows(10, 5, audit["outcomes"])) == 293


@pytest.mark.parametrize("n, k, classes", [(10, 5, 2), (7, 7, 2), (6, 7, 3)])
def test_grass_section_checks_each_class_once(capsys, monkeypatch, n, k, classes):
    # the classes of T and O(1)^k, and on a curve O for the genus, one term
    # each, are checked once per public call and not again per Koszul
    # twist; the checked single-weight bott is not on the path, and the
    # command does not classify (n, k): it reads dim_y1 and theorem_range
    calls = Counter()

    def counted(name, f):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(weights, "check_weight", counted("check_weight", weights.check_weight))
    for module in (bwb, sections):
        monkeypatch.setattr(module, "check_class", counted("check_class", weights.check_class))
    monkeypatch.setattr(bwb, "bott", counted("bott", bwb.bott))
    for module in (geometry, cli):
        monkeypatch.setattr(module, "classify", counted("classify", geometry.classify))
    argv = ["hodge", "grass-section", "--n", str(n), "--k", str(k), "--json"]
    assert run(argv) == 0
    capsys.readouterr()
    assert calls == {"check_class": classes, "check_weight": classes}


def test_closed_pipe_ends_quietly():
    # a reader that stops early (``| head -c 10``) must not get a traceback
    # or the exit status of a failed verification
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["hodge", "grass-section", "--n", "12", "--k", "6", "--json"]
    with subprocess.Popen([sys.executable, "-m", "grpf", *argv], env=env, bufsize=0,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert len(head) == 10
    assert b"Traceback" not in err, err
    assert code != 1


def test_sample_reports_byte_identical(tmp_path, capsys):
    am = AMap.random(6, 3, seed=5, p=10007)
    path = tmp_path / "a.json"
    am.save(path)
    argv = ["pfaffian", "sample", "--in", str(path), "--prime", "10007",
            "--points", "8", "--seed", "2", "--json"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    assert capsys.readouterr().out == first


def test_verify_all_human_output(capsys):
    # one "PASS name: detail [x.xxs]" line per item of the JSON report,
    # then the verdict line
    code, report = run_json(capsys, ["verify-all"])
    assert code == 0
    assert run(["verify-all"]) == 0
    lines = capsys.readouterr().out.splitlines()
    items = report["result"]["items"]
    assert len(lines) == len(items) + 1
    for line, item in zip(lines, items):
        head = f"PASS {item['name']}: {item['detail']} ["
        assert line.startswith(head), line
        assert re.fullmatch(r"\d+\.\d\ds\]", line[len(head):]), line
    assert lines[-1] == "all passed"


def test_hodge_grass_section_human_output(capsys):
    code, report = run_json(capsys, ["hodge", "grass-section", "--n", "10", "--k", "5"])
    assert code == 0
    assert report["result"]["theorem_range"] is True
    # Lefschetz always applies to a section by the ample O(1), and h^1(T)
    # is exact: the report names the one in its provenance and carries no
    # bounds for the other
    assert "lefschetz_gate" not in report["result"]
    assert "lefschetz-hyperplane" in report["provenance"]
    assert sorted(report["result"]["tangent_h1"]) == [
        "mode", "normal_page", "tangent_page", "value"]
    assert run(["hodge", "grass-section", "--n", "10", "--k", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = report["result"]["rows"]
    assert lines[:-2] == [" ".join(str(v) for v in row) for row in rows]
    assert lines[-2:] == [
        "middle row: [0, 0, 0, 0, 1, 101, 101, 1, 0, 0, 0, 0]",
        "tangent h1: 101 (exact-generic)",
    ]


def test_run_builds_no_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run(["classify", "--n", "10", "--k", "5", "--json"]) == 0
    assert run(["hodge", "hypersurface", "--dim", "4", "--degree", "5"]) == 0
    capsys.readouterr()
    assert built == []


def leaf_parsers(parser):
    """The parsers of the command tree that have no subcommands."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        return [parser]
    return [leaf for child in groups[0].choices.values() for leaf in leaf_parsers(child)]


def test_every_leaf_parser_carries_its_handler():
    leaves = leaf_parsers(cli._PARSER)
    assert len(leaves) == 10
    assert all(callable(leaf.get_default("handler")) for leaf in leaves)
    assert len({leaf.get_default("handler") for leaf in leaves}) == 10


def test_lemma_check_builds_no_summand_list(monkeypatch, capsys):
    # the lemma decides each key in closed form: on a passing window it
    # evaluates no Bott summand and builds no per-call table, which only the
    # collection check builds
    calls = []
    for name in ("_bott_zero_tail", "_rhom_by_key"):
        original = getattr(sections, name)

        def counted(*args, name=name, original=original):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(sections, name, counted)
    assert run(["lemma", "check", "--n", "10", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["all_vanish"] is True
    assert calls == []
    assert run(["collection", "verify", "--n", "6", "--json"]) == 0
    capsys.readouterr()
    assert set(calls) == {"_bott_zero_tail", "_rhom_by_key"}


# The engine's value and the report's result, command by command: classify
# on each type and emptiness of both sides, the passing Grassmannian-side
# window, passing and failing Pfaffian-side windows, a lemma that holds.
ENGINE_REPORTS = {
    "classify --n 3 --k 0": lambda: geometry.classify(ModelParams(3, 0)),
    "classify --n 4 --k 6": lambda: geometry.classify(ModelParams(4, 6)),
    "classify --n 7 --k 5": lambda: geometry.classify(ModelParams(7, 5)),
    "classify --n 9 --k 9": lambda: geometry.classify(ModelParams(9, 9)),
    "collection verify --n 7": lambda: verify_strong_exceptional(7, grassmannian_window(7)),
    "collection verify --n 8 --set T --k 4":
        lambda: verify_strong_exceptional(8, pfaffian_window(8, 4)),
    "collection verify --n 6 --set T --k 9":
        lambda: verify_strong_exceptional(6, pfaffian_window(6, 9)),
    "collection verify --n 9 --set T --k 13":
        lambda: verify_strong_exceptional(9, pfaffian_window(9, 13)),
    "lemma check --n 10": lambda: twisted_ext_vanishing(10),
}


@pytest.mark.parametrize("command", list(ENGINE_REPORTS))
def test_engine_value_is_the_report(capsys, command):
    _, report = run_json(capsys, command.split())
    assert json.loads(json.dumps(ENGINE_REPORTS[command]())) == report["result"]


def test_failing_lemma_value_is_the_report(monkeypatch, capsys):
    # no window with even n fails the lemma: plant a counterexample on the
    # row pair (1, 0) for m - m' <= 1, in the engine and under the command
    pair = sections.pair_twisted_vanishing

    def failing(n, e, f):
        if (e[0], f[0]) == (1, 0) and e[1] - f[1] <= 1:
            return (0, 7, 1, 3)
        return pair(n, e, f)

    monkeypatch.setattr(sections, "pair_twisted_vanishing", failing)
    value = twisted_ext_vanishing(8)
    assert value["counterexamples"] and not value["all_vanish"]
    code, report = run_json(capsys, ["lemma", "check", "--n", "8"])
    assert code == 1
    assert json.loads(json.dumps(value)) == report["result"]


@pytest.mark.parametrize(
    "n, k, seed, field, prime, count",
    [
        (6, 3, 5, 10007, 10007, 10),  # even lines
        (6, 3, 105, None, 101, 100),  # a Q family; one singular point: fraction 0.99
        (7, 7, 5, 10007, 10007, 5),  # odd square
        (7, 8, 5, None, 5, 5),  # odd sliced, a Q family at a small prime
        (7, 5, 3, 5, 5, 40),  # odd trials, exhausted: fraction 13/14 rounded
        (7, 2, 21, 101, 101, 5),  # an empty locus: exhausted
    ],
)
def test_sample_value_is_the_report(tmp_path, capsys, n, k, seed, field, prime, count):
    am = AMap.random(n, k, seed=seed, p=field)
    path = tmp_path / "a.json"
    am.save(path)
    value = vars(sample_y2(am, prime, count, 42))
    _, report = run_json(capsys, ["pfaffian", "sample", "--in", str(path), "--prime", str(prime),
                                  "--points", str(count), "--seed", "42"])
    assert json.loads(json.dumps(value)) == report["result"]
