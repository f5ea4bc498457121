"""README's CLI examples, run as written: every `hnbundles ...` line of
its sh blocks exits 0 through run_command, in a fresh directory, since
the strata example writes its DOT file there, and every command has one.
A line that ends in a `# {...}` comment must print a JSON document
holding those keys and values.  README's Library section lists each
package export once, under the module that defines it.  README's guards
and caches tables are checked against the code: each guard's limit and
message, and each cache's bound; and each name its removed-names list
gives is gone from the package.  Only the title and one paragraph come
before the first section."""

import contextlib
import dataclasses
import importlib
import inspect
import io
import json
import pathlib
import pkgutil
import re
import shlex

import pytest

import hnbundles
from hnbundles import errors
from hnbundles.bundle import Atom, PlainBundle
from hnbundles.canon import ad_degree_max_oracle
from hnbundles.cli import _COMMANDS, run_command
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


def test_every_command_has_an_example():
    # a top-level flag such as --pretty may come before the command
    commands = {next(t for t in argv if not t.startswith("-"))
                for argv, _ in EXAMPLES}
    assert commands >= set(_COMMANDS)


def test_only_the_title_and_one_paragraph_precede_the_sections():
    head = README.read_text().split("\n## ", 1)[0]
    blocks = [b for b in head.split("\n\n") if b.strip()]
    assert len(blocks) == 2, blocks
    title, paragraph = blocks
    assert title.startswith("# ") and "\n" not in title.strip()
    assert not paragraph.startswith(("#", "-", "`", "|")), paragraph


def section(text, heading):
    """The text under `## heading`, up to the next `## ` heading."""
    assert f"\n## {heading}\n" in text, f"no section {heading}"
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def library_entries(text):
    """(module, name) for each bullet of the Library section: the name
    that leads it, under the last `### `hnbundles.module`` heading."""
    entries, module = [], None
    for line in section(text, "Library").splitlines():
        if line.startswith("### "):
            module = re.fullmatch(r"### `hnbundles\.(\w+)`", line).group(1)
        elif line.startswith("- "):
            entries.append((module, re.match(r"- `(\w+)", line).group(1)))
    return entries


def test_the_library_lists_every_export_once():
    assert library_entries("# t\n\n## Library\n\n### `hnbundles.m`\n\n"
                           "- `f(a)`: x `g`\n- `C`: y\n\n## Next\n- `h`\n") == [
        ("m", "f"), ("m", "C")]
    entries = library_entries(README.read_text())
    exports = [name for name in hnbundles.__all__
               if not inspect.ismodule(getattr(hnbundles, name))]
    assert sorted(name for _, name in entries) == sorted(exports)
    for module, name in entries:
        defined = importlib.import_module(f"hnbundles.{module}")
        assert getattr(defined, name) is getattr(hnbundles, name), name
        assert getattr(defined, name).__module__ == defined.__name__, name


def test_the_library_lists_every_error_class():
    line = next(line for line in section(README.read_text(), "Library")
                .splitlines() if line.startswith("- `HnBundleError`"))
    listed = re.findall(r"`(\w+)`", line.partition(": ")[2])
    classes = [name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.HnBundleError)
               and obj is not errors.HnBundleError]
    assert sorted(listed) == sorted(classes)


def readme_table(text, heading):
    """The body rows of the first table under `## heading`, as lists of
    cells; a pipe escaped as \\| stays in its cell."""
    rows = [line for line in section(text, heading).splitlines()
            if line.startswith("|")]
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
    # a weak table's bound is the objects alive, which MODULE_CACHES gives
    # as None
    rows = readme_table(README.read_text(), "Caches")
    assert {f"hnbundles.{code(name)}": None if bound.endswith(" alive")
            else leading_int(bound) for name, _, bound, *_ in rows} == MODULE_CACHES


def removed_names(text):
    """The backticked names of each line of the removed-names list, left of
    the colon that says where they went."""
    return [name for line in section(text, "Names removed from the package")
            .splitlines() if line.startswith("- ")
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
