"""Frozen ``--json`` reports: exit code and SHA-256 of the report bytes.

The digests in ``golden_reports.json`` were taken before the Bott layer
was reshaped; any refactor must reproduce every report byte for byte.
After a deliberate change of a report, regenerate them with

    PYTHONPATH=src python3 tests/test_golden_reports.py --write

and record the changed commands in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
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
    "collection verify --n 6",
    "collection verify --n 6 --set T --k 3",
]


def report_digest(command):
    """Exit code and SHA-256 of the ``--json`` output of one command line."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(command.split() + ["--json"])
    return {"exit": code, "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}


@pytest.mark.parametrize("command", COMMANDS)
def test_report_matches_golden(command):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert report_digest(command) == golden[command]


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
            assert report_digest("classify --n 10")["exit"] == 2  # missing --k
        assert report_digest(command) == golden[command], command


def test_golden_file_covers_exactly_the_commands():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(COMMANDS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_reports.py --write")
    table = {command: report_digest(command) for command in COMMANDS}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
