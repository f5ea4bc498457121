"""README's CLI examples, run as written: every `hnbundles ...` line of
its sh blocks exits 0 through run_command, in a fresh directory, since
the strata example writes its DOT file there.  A line that ends in a
`# {...}` comment must print a JSON document holding those keys and
values."""

import contextlib
import io
import json
import pathlib
import re
import shlex

import pytest

from hnbundles.cli import run_command

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def cli_examples(text):
    """(argv, expected) for each `hnbundles` line of the sh blocks, where
    expected is the dict of a trailing `# {...}` comment, else None."""
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M):
        for line in block.splitlines():
            if not line.startswith("hnbundles "):
                continue
            command, _, comment = line.partition("#")
            comment = comment.strip()
            expected = json.loads(comment) if comment.startswith("{") else None
            examples.append((shlex.split(command)[1:], expected))
    return examples


EXAMPLES = cli_examples(README.read_text())


def test_the_readme_lists_its_examples():
    assert cli_examples("```sh\npip install x\nhnbundles a \"b c\"  # d\n"
                        "hnbundles e  # {\"f\": 1}\n```\nhnbundles g\n") == [
        (["a", "b c"], None), (["e"], {"f": 1})]
    # the nine examples of the CLI section, one per line
    assert len(EXAMPLES) >= 9


@pytest.mark.parametrize("argv, expected", EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_readme_example_runs(argv, expected, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    assert code == 0, err.getvalue()
    if expected is not None:
        doc = json.loads(out.getvalue())
        assert {key: doc.get(key) for key in expected} == expected
