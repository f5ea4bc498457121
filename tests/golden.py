"""Golden CLI transcripts, with no dependency outside the stdlib and the
package: each argv recorded in data/cli_golden.json must reproduce its
exit code, stdout and stderr byte for byte, on its first run and on a
second in the same process, which answers from the CLI's answer cache
wherever the argv is kept.

A transcript of argparse's own text, a usage error or help, starts with
"usage:".  That text depends on the Python version (3.13.13 lists an
invalid choice's options without quotes, where 3.11 quotes them), so
run_command's answer there must equal what build_parser().parse_args
writes on the running interpreter, and on 3.11, where the transcripts
were recorded, the record too.  Every other transcript is compared with
its record on every version.

Replay every transcript (exit 1 naming the first argv that mismatches),
or rewrite them after an intended change of output, which prints each
argv whose transcript changed and their count.  A new transcript is an
entry holding its "argv" alone, which the rewrite fills in:

    PYTHONPATH=src python -O tests/golden.py
    PYTHONPATH=src python tests/golden.py --write

tests/test_cli_golden.py runs the same replay under pytest.
"""

import contextlib
import io
import json
import pathlib
import sys

from hnbundles.cli import build_parser, run_command

DATA = pathlib.Path(__file__).parent / "data" / "cli_golden.json"
CASES = json.loads(DATA.read_text())
RECORDED_ON = (3, 11)


def capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(list(argv))
    return {"argv": list(argv), "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def argparse_answer(argv):
    """What build_parser().parse_args(argv) writes on this interpreter,
    with the exit code run_command gives it: 1 for a usage error, 0 for
    help."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            build_parser().parse_args(list(argv))
            code = None
        except SystemExit as exc:
            code = 1 if exc.code else 0
    return {"argv": list(argv), "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def expected(case):
    """The answers run_command must equal on case's argv here: the record,
    or for argparse's own text the text argparse writes here, and on 3.11
    the record as well."""
    if not (case["stdout"].startswith("usage:")
            or case["stderr"].startswith("usage:")):
        return [case]
    live = argparse_answer(case["argv"])
    return [live, case] if sys.version_info[:2] == RECORDED_ON else [live]


def matches(case):
    got = capture(case["argv"])
    return all(got == want for want in expected(case))


def replay():
    """The argv of the first mismatch, or None: each transcript on a cold
    answer cache, a miss and then a hit, then every transcript once in
    order and once in reverse on one cache, as test_cli_golden.py does."""
    for case in CASES:
        run_command.cache_clear()
        if not (matches(case) and matches(case)):
            return case["argv"]
    run_command.cache_clear()
    for case in CASES + CASES[::-1]:
        if not matches(case):
            return case["argv"]
    return None


def write():
    """Rewrite every transcript from its argv, printing one line per argv
    whose transcript changed, then how many changed."""
    cases = [capture(c["argv"]) for c in CASES]
    changed = [new["argv"] for old, new in zip(CASES, cases) if new != old]
    for argv in changed:
        print(f"changed: {argv}")
    print(f"{len(changed)} golden transcripts changed")
    DATA.write_text(json.dumps(cases, indent=1) + "\n")


def main(args):
    if args == ["--write"]:
        write()
        return 0
    if args:
        print("usage: golden.py [--write]", file=sys.stderr)
        return 2
    argv = replay()
    if argv is not None:
        print(f"golden mismatch: {argv}", file=sys.stderr)
        return 1
    print(f"{len(CASES)} golden transcripts match")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
