import json
import os
import pathlib
import subprocess
import sys

from grpf.cli import run
from grpf.pfaffian import AMap

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


def test_classify_bad_params_exit_2(capsys):
    code = run(["classify", "--n", "3", "--k", "99"])
    err = capsys.readouterr().err
    assert code == 2
    assert "C(n,2)" in err


def test_usage_error_exit_2(capsys):
    assert run(["classify", "--n", "10"]) == 2  # missing --k
    assert run(["no-such-command"]) == 2
    capsys.readouterr()


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


def test_hodge_grass_section_edge_cases_exit_0(capsys):
    from grpf.weights import grassmannian_poincare

    code, report = run_json(capsys, ["hodge", "grass-section", "--n", "10", "--k", "0"])
    assert code == 0
    rows = report["result"]["rows"]
    assert [sum(row) for row in rows[::2]] == list(grassmannian_poincare(10).coefficients)
    assert not any(any(row) for row in rows[1::2])
    for n, k, points in ((4, 4, 2), (5, 6, 5)):
        code, report = run_json(
            capsys, ["hodge", "grass-section", "--n", str(n), "--k", str(k)]
        )
        assert code == 0
        assert report["result"]["rows"] == [[points]]


def test_hodge_hypersurface_human(capsys):
    code = run(["hodge", "hypersurface", "--dim", "4", "--degree", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1 101 101 1" in out


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


def test_pfaffian_sample_bad_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(["pfaffian", "sample", "--in", str(path)]) == 2
    path2 = tmp_path / "missing.json"
    assert run(["pfaffian", "build", "--in", str(path2)]) == 2
    capsys.readouterr()


def test_out_flag_writes_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = run(["classify", "--n", "8", "--k", "4", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    data = json.loads(target.read_text())
    assert data["result"]["y2_type"] == "CalabiYau"


def test_verify_all_fast(capsys):
    code, report = run_json(capsys, ["verify-all", "--profile", "fast"])
    assert code == 0
    assert report["result"]["all_passed"] is True
    names = {item["name"] for item in report["result"]["items"]}
    assert "section-hodge-10-5" in names
    assert "pfaffian-sampling" not in names  # slow item skipped in fast profile


def test_grass_section_audit_trail(capsys):
    code, report = run_json(capsys, ["hodge", "grass-section", "--n", "7", "--k", "7"])
    assert code == 0
    audit = report["result"]["audit"]
    assert len(audit) == 4  # one entry per exterior degree p
    # the surviving terms reproduce each chi^p by signed dimension sums
    for p, block in enumerate(audit):
        chi = sum(
            t["multiplicity"] * (-1) ** t["degree"] * t["dimension"]
            for t in block["terms"]
        )
        assert chi == report["result"]["chi_p"][p]
    pages = report["result"]["tangent_h1"]
    assert pages["tangent_page"] == [[0, 0, 48], [7, 9, 1]]
    assert pages["normal_page"] == [[0, 0, 147], [1, 0, 49]]


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
