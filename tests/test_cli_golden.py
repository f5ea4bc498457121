"""Golden CLI transcripts (tests/golden.py): each argv recorded in
data/cli_golden.json must reproduce its exit code, stdout and stderr
byte for byte, on its first run and on a second in the same process,
which answers from the CLI's answer cache wherever the argv is kept.
argparse's own text is compared with what argparse writes on the
running interpreter, and on 3.11, where it was recorded, with the record.
"""

import sys

import pytest

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
