"""README's CLI examples, run as written: every `hnbundles ...` line of
its sh blocks exits 0 through run_command, in a fresh directory, since
the strata example writes its DOT file there.  A line that ends in a
`# {...}` comment must print a JSON document holding those keys and
values.  README's guards and caches tables are checked against the
code: each guard's limit and message, and each cache's bound; and each
name its removed-names list gives is gone from the package."""

import contextlib
import dataclasses
import importlib
import io
import json
import pathlib
import pkgutil
import re
import shlex

import pytest

import hnbundles
from hnbundles.bundle import Atom, PlainBundle
from hnbundles.canon import ad_degree_max_oracle
from hnbundles.cli import run_command
from hnbundles.errors import TooLarge
from hnbundles.oracles import hn_uniqueness_oracle, hull_membership_lp_oracle
from hnbundles.rootsys import GroupFamily, weyl_orbit
from hnbundles.strata import enumerate_strata
from test_caches import MODULE_CACHES

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


def readme_table(text, heading):
    """The body rows of the first table under `## heading`, as lists of
    cells; a pipe escaped as \\| stays in its cell."""
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    return [[cell.strip().replace("\\|", "|")
             for cell in re.split(r"(?<!\\)\|", row)[1:-1]] for row in rows[2:]]


def leading_int(cell):
    return int(re.match(r"[\d,]+", cell).group().replace(",", ""))


def code(cell):
    """The text of the first `code` span of a cell."""
    return re.search(r"`([^`]*)`", cell).group(1)


GL11_POINT = (1, 1) + (0,) * 7 + (-1, -1)

# the smallest refused input of each guard that CI runs, and for the
# oracle's work guard also its 64-bit lane refusal, which raises the same
# message
GUARD_TRIGGERS = {
    "rootsys.WEYL_ORBIT_GUARD": [
        lambda: weyl_orbit(GroupFamily("gl", 2000), (1,) + (0,) * 1999)],
    "canon.ORACLE_WORK_GUARD": [
        lambda: ad_degree_max_oracle(GroupFamily("gl", 7), (6, 5, 4, 3, 2, 1, 0)),
        lambda: ad_degree_max_oracle(GroupFamily("gl", 3),
                                     (1537228672809129302, 0, 0))],
    "oracles.HULL_ORBIT_GUARD": [
        lambda: hull_membership_lp_oracle(GroupFamily("gl", 11), GL11_POINT,
                                          GL11_POINT)],
    "oracles.ORACLE_ATOM_GUARD": [
        lambda: hn_uniqueness_oracle(
            PlainBundle(tuple(Atom(d, 1) for d in range(9))))],
    "strata.ENUM_DIM_GUARD": [lambda: enumerate_strata(GroupFamily("gl", 5), 1)],
    "strata.ENUM_BOUND_GUARD": [lambda: enumerate_strata(GroupFamily("gl", 1), 5)],
}


def test_guards_table_matches_the_code():
    rows = readme_table(README.read_text(), "Guards")
    names = [code(name) for name, *_ in rows]
    # every guard constant of the package has its row, once
    constants = sorted(f"{info.name}.{const}"
                       for info in pkgutil.iter_modules(hnbundles.__path__)
                       for const in vars(importlib.import_module(
                           f"hnbundles.{info.name}"))
                       if const.endswith("_GUARD"))
    assert sorted(names) == constants == sorted(GUARD_TRIGGERS)
    for name, (_, _, limit, message) in zip(names, rows):
        module, const = name.split(".")
        value = getattr(importlib.import_module(f"hnbundles.{module}"), const)
        assert leading_int(limit) == value, name
        for trigger in GUARD_TRIGGERS[name]:
            with pytest.raises(TooLarge) as err:
                trigger()
            assert str(err.value) == code(message), name


def test_caches_table_matches_the_code():
    rows = readme_table(README.read_text(), "Caches")
    assert {f"hnbundles.{code(name)}": leading_int(bound)
            for name, _, bound, *_ in rows} == MODULE_CACHES


def removed_names(text):
    """The backticked names of each line of the removed-names list, left of
    the colon that says where they went."""
    section = text.split("\n## Names removed from the package\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return [name for line in section.splitlines() if line.startswith("- ")
            for name in re.findall(r"`([^`]*)`", line.rpartition(": ")[0])]


def resolves(name):
    """Whether a `module.name` or `Class.attr` resolves under hnbundles, a
    dataclass field without a default included."""
    head, _, attr = name.partition(".")
    try:
        owner = importlib.import_module(f"hnbundles.{head}")
    except ModuleNotFoundError:
        owner = getattr(hnbundles, head, None)
    if owner is None:
        return False
    fields = dataclasses.fields(owner) if dataclasses.is_dataclass(owner) else ()
    return hasattr(owner, attr) or attr in {f.name for f in fields}


def test_removed_names_are_gone():
    names = removed_names(README.read_text())
    assert {"bundle.adjoint_bundle", "bundle.adjoint_gl", "intlin",
            "SlBundle.underlying", "ad_parabolic_roots"} <= set(names)
    assert resolves("bundle.adjoint") and resolves("SlBundle.atoms")
    assert resolves("GroupFamily.torus_dim") and not resolves("bundle.nothing")
    for name in names:
        if "." in name:
            assert not resolves(name), name
        else:
            assert name not in hnbundles.__all__, name
