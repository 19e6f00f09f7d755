"""Frozen ``--json`` reports: exit code and SHA-256 of the report bytes.

The digests in ``golden_reports.json`` were taken before the Bott layer
was reshaped; any refactor must reproduce every report byte for byte.
A ``hodge grass-section`` report leaves out what follows from the rest:
the audit rows, rebuilt from (n, k) and the outcome table by
:func:`audit_rows`, and two fields that never varied, ``lefschetz_gate``
(always true) and ``tangent_h1.bounds`` (always null).  With those put
back (:func:`restore_report`) it binds twice: its bytes under the command
followed by PER_KEY, and under the command itself the bytes with the
audit rebuilt in the earlier format of one row per (term, Koszul twist)
(:func:`old_audit`), so the digests recorded before the audit went per
key still bind.  To pin a new command, add it to COMMANDS and run

    PYTHONPATH=src python3 tests/test_golden_reports.py --write

which adds the digests of commands not yet in the file and rewrites
none: if an existing digest would change, it exits 1 and names the key,
so a refactor cannot re-pin a report by accident.  A deliberate change
of a report means deleting its keys from the file by hand, then running
``--write`` and recording the changed commands in CHANGES.md.
"""
import contextlib
import hashlib
import io
import json
import math
import pathlib
import re
import sys

import pytest

from grpf.cli import run

GOLDEN = pathlib.Path(__file__).with_name("golden_reports.json")

COMMANDS = [
    "classify --n 10 --k 5",
    "windows --n 10 --k 5",
    "bwb --n 10 --s 1,1",
    "bwb --n 10 --s 1,0 --q 0,0,0,0,0,0,0,-1",
    "hodge grass-section --n 10 --k 5",
    "hodge hypersurface --dim 4 --degree 5",
    "collection verify --n 10 --set S",
    "collection verify --n 10 --set T --k 5",
    "lemma check --n 10",
    "collection verify --n 16",
    "lemma check --n 24",
    "hodge grass-section --n 12 --k 6",
    "collection verify --n 6 --set T --k 9",
    "hodge grass-section --n 5 --k 5",
    "hodge grass-section --n 7 --k 7",
    "hodge grass-section --n 10 --k 0",
    "lemma check --n 40",
    "collection verify --n 24 --set S",
    "hodge grass-section --n 22 --k 11",
    "hodge grass-section --n 30 --k 15",
    "hodge grass-section --n 11 --k 2",
    "hodge grass-section --n 9 --k 9",
    "hodge grass-section --n 3 --k 0",
    "hodge grass-section --n 4 --k 2",
    "bwb --n 8 --s=-1,-4 --q 3,3,1,1,0,-2",
    "bwb --n 8 --s 2,-3 --q 3,3,1,1,0,-2",
    "bwb --n 8 --s=-12,-13 --q 3,3,1,1,0,-2",
    "lemma check --n 100",
    "lemma check --n 200",
    "windows --n 9 --k 7",
    "collection verify --n 11",
    "collection verify --n 15 --set S",
    "hodge hypersurface --dim 2 --degree 3",
    "hodge hypersurface --dim 3 --degree 4",
    "hodge hypersurface --dim 5 --degree 3",
    "hodge hypersurface --dim 4 --degree 1",
    "hodge grass-section --n 4 --k 4",
    "hodge grass-section --n 6 --k 8",
    "collection verify --n 40 --set S",
    "collection verify --n 12 --set T --k 20",
    "collection verify --n 9 --set T --k 13",
    "hodge grass-section --n 14 --k 20",
    "hodge grass-section --n 20 --k 0",
    "hodge grass-section --n 16 --k 1",
    "collection verify --n 6",
    "collection verify --n 6 --set T --k 3",
]


HODGE = [c for c in COMMANDS if c.startswith("hodge grass-section")]
PER_KEY = " (audit per key)"


def audit_rows(n, k, outcomes):
    """Per exterior degree p, the rows [i, j, a] behind chi^p, rebuilt from the outcomes.

    For each Koszul twist a = 0..k and each term (i, j) of Omega^p in the
    order of :func:`grpf.sections.omega_p_class` (i + j descending, then j
    ascending), there is a row [i, j, a] exactly when (j, p - i, i + a) is
    an outcome; the row reads that outcome.
    """
    keys = {(j, m, t) for j, m, t, _, _ in outcomes}
    return [
        [[i, j, a]
         for a in range(k + 1)
         for diag in range(p, -1, -1)
         for j in range(min(diag, p - diag) + 1)
         for i in [diag - j]
         if (j, p - i, i + a) in keys]
        for p in range(2 * (n - 2) - k + 1)
    ]


def restore_report(report):
    """Put back in place the fields a Hodge report leaves out because they follow from the rest."""
    n, k = report["params"]["n"], report["params"]["k"]
    result = report["result"]
    result["audit"]["rows"] = audit_rows(n, k, result["audit"]["outcomes"])
    result["lefschetz_gate"] = True
    result["tangent_h1"]["bounds"] = None
    return report


def old_audit(report):
    """The audit of the earlier Hodge report format, rebuilt from a restored per-key one.

    Row [i, j, a] of exterior degree p reads outcome (j, m, t), m = p - i
    and t = i + a: Cauchy term j of Wedge^m Omega_Gr, s-block
    (-j - t, j - m - t) and q-block (2^j, 1^(m-2j), 0^(n-2-m+j)), signed
    (-1)^i C(k+i-1, i) (-1)^a C(k, a); for k = 0 only i = a = 0 occurs.
    """
    n, k = report["params"]["n"], report["params"]["k"]
    audit = report["result"]["audit"]
    outcomes = {(j, m, t): (degree, dim) for j, m, t, degree, dim in audit["outcomes"]}
    old = []
    for p, rows in enumerate(audit["rows"]):
        terms = []
        for i, j, a in rows:
            m, t = p - i, i + a
            degree, dim = outcomes[j, m, t]
            terms.append({
                "s_weight": [-j - t, j - m - t],
                "q_weight": [2] * j + [1] * (m - 2 * j) + [0] * (n - 2 - m + j),
                "multiplicity": (-1) ** (i + a) * math.comb(k + i - 1, i) * math.comb(k, a)
                if k else 1,
                "twist": -a,
                "degree": degree,
                "dimension": dim,
            })
        old.append({"p": p, "terms": terms})
    return old


def _digest(code, text):
    return {"exit": code, "sha256": hashlib.sha256(text.encode()).hexdigest()}


def report_digests(command):
    """Golden key -> exit code and SHA-256 of the ``--json`` output of one command line.

    A Hodge report gives two keys: the command with PER_KEY for the bytes
    of the report restored by :func:`restore_report`, and the command for
    those bytes with the audit rebuilt by :func:`old_audit`.
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(command.split() + ["--json"])
    text = buf.getvalue()
    if command not in HODGE:
        return {command: _digest(code, text)}
    report = restore_report(json.loads(text))
    per_key = json.dumps(report, sort_keys=True) + "\n"
    report["result"]["audit"] = old_audit(report)
    return {
        command: _digest(code, json.dumps(report, sort_keys=True) + "\n"),
        command + PER_KEY: _digest(code, per_key),
    }


def assert_matches(golden, command):
    digests = report_digests(command)
    assert digests == {key: golden[key] for key in digests}, command


@pytest.mark.parametrize("command", COMMANDS)
def test_report_matches_golden(command):
    assert_matches(json.loads(GOLDEN.read_text(encoding="utf-8")), command)


def test_reports_in_one_process_in_reverse_order():
    # the CLI keeps one parser for every run: no run, failed or not, may
    # leave anything behind for the next (the plain collection verify
    # comes right after one with --set T --k 3)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    small = [
        c for c in reversed(COMMANDS) if all(int(n) <= 16 for n in re.findall(r"--n (\d+)", c))
    ]
    assert small[:2] == ["collection verify --n 6 --set T --k 3", "collection verify --n 6"]
    for i, command in enumerate(small):
        if i == len(small) // 2:
            assert report_digests("classify --n 10")["classify --n 10"]["exit"] == 2  # no --k
        assert_matches(golden, command)


def test_golden_file_covers_exactly_the_commands():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(COMMANDS + [c + PER_KEY for c in HODGE])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_reports.py --write")
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    table = {}
    for command in COMMANDS:
        table.update(report_digests(command))
    changed = sorted(key for key in golden.keys() & table.keys() if golden[key] != table[key])
    if changed:
        sys.exit("digest would change, not rewritten: " + "; ".join(changed))
    table.update(golden)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
