"""Golden CLI transcripts (tests/golden.py): each argv recorded in
data/cli_golden.json must reproduce its exit code, stdout and stderr
byte for byte, on its first run and on a second in the same process,
which answers from the CLI's answer cache wherever the argv is kept.
argparse's own text is compared with what argparse writes on the
running interpreter, and on 3.11, where it was recorded, with the record.
"""

import json
import sys

import pytest

import golden
from golden import CASES, RECORDED_ON, argparse_answer, capture, expected


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_golden(case):
    wanted = expected(case)
    for _ in range(2):
        got = capture(case["argv"])
        for want in wanted:
            assert got == want


def test_golden_in_reverse_order():
    # the parser is built once per process: no state may leak between calls
    for case in CASES + CASES[::-1]:
        got = capture(case["argv"])
        for want in expected(case):
            assert got == want


def test_usage_errors_are_compared_with_argparse():
    usage = [c for c in CASES if c["stderr"].startswith("usage:")]
    assert [c["argv"][0] for c in usage] == ["bogus", "canon"]
    for case in usage:
        live = argparse_answer(case["argv"])
        assert live["code"] == 1 and live["stdout"] == ""
        assert "error: argument" in live["stderr"]
        wanted = expected(case)
        assert wanted[0] == live
        assert len(wanted) == 1 + (sys.version_info[:2] == RECORDED_ON)


def test_write_names_each_transcript_it_changes(tmp_path, monkeypatch, capsys):
    # a stale transcript and an entry holding its argv alone are rewritten
    # and named; a second write changes nothing and says so
    stale = dict(CASES[0], stdout="stale\n")
    fresh = {"argv": ["hn", "gl4: 3:0"]}
    monkeypatch.setattr(golden, "DATA", tmp_path / "golden.json")
    monkeypatch.setattr(golden, "CASES", [stale, CASES[1], fresh])
    assert golden.main(["--write"]) == 0
    assert capsys.readouterr().out == (
        f"changed: {stale['argv']}\nchanged: {fresh['argv']}\n"
        "2 golden transcripts changed\n")
    written = json.loads(golden.DATA.read_text())
    assert written == [capture(c["argv"]) for c in (stale, CASES[1], fresh)]
    assert written[0] == CASES[0] and written[2]["code"] == 2
    monkeypatch.setattr(golden, "CASES", written)
    assert golden.main(["--write"]) == 0
    assert capsys.readouterr().out == "0 golden transcripts changed\n"
