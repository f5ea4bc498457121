"""Golden CLI transcripts: each argv recorded in data/cli_golden.json must
reproduce its exit code, stdout and stderr byte for byte, on its first
run and on a second in the same process, which answers from the CLI's
answer cache wherever the argv is kept.

After an intended change of output, rewrite the transcripts with
``PYTHONPATH=src python tests/test_cli_golden.py`` and review the diff.
Usage errors carry argparse's own text, recorded under Python 3.11.
"""

import contextlib
import io
import json
import pathlib

import pytest

from hnbundles.cli import run_command

DATA = pathlib.Path(__file__).parent / "data" / "cli_golden.json"
CASES = json.loads(DATA.read_text())


def capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(list(argv))
    return {"argv": list(argv), "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_golden(case):
    assert capture(case["argv"]) == case
    assert capture(case["argv"]) == case


def test_golden_in_reverse_order():
    # the parser is built once per process: no state may leak between calls
    for case in CASES + CASES[::-1]:
        assert capture(case["argv"]) == case


if __name__ == "__main__":
    DATA.write_text(json.dumps([capture(c["argv"]) for c in CASES], indent=1) + "\n")
