import argparse
import collections
import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import threading
import types

import pytest
from hypothesis import given, settings, strategies as st

import golden
import hnbundles.cli
import hnbundles.oracles
import oracles
from hnbundles.bundle import (Atom, PlainBundle, SlBundle, SpBundle,
                              bundle_from_degrees, vertical_degree)
from hnbundles.cli import (SpecError, parse_bundle_spec, run_command,
                           serialize_bundle_spec)
from hnbundles.errors import (InvariantBreach, NotDegreeZero, NotInKernelLattice,
                              UnsupportedRank)
from hnbundles.hnfilt import Filtration
from hnbundles.rootsys import GroupFamily
from hnbundles.strata import enumerate_strata, to_dot


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_examples():
    spec = parse_bundle_spec("gl4: 3:1, 1:2, -2:1")
    assert isinstance(spec.bundle, PlainBundle) and spec.bundle.rank == 4
    sp = parse_bundle_spec("sp4: 2:1 | z=2")
    assert isinstance(sp.bundle, SpBundle)
    assert sp.bundle.positive == (Atom(2, 1),) and sp.bundle.zero_rank == 2
    so = parse_bundle_spec("so4: deg=1,0")
    assert so.bundle == bundle_from_degrees(GroupFamily("so", 4), (1, 0))
    assert so.degrees == (1, 0)
    sl = parse_bundle_spec("sl2: 1:1, -1:1")
    assert isinstance(sl.bundle, SlBundle)


def test_parse_keeps_the_bundle_of_a_degree_spec():
    spec = parse_bundle_spec("sl3: deg=1,0,-1")
    assert spec.bundle == bundle_from_degrees(GroupFamily("sl", 3), (1, 0, -1))
    assert isinstance(spec.bundle, SlBundle) and spec.degrees == (1, 0, -1)
    assert serialize_bundle_spec(spec) == "sl3: deg=1,0,-1"


def test_parse_errors():
    # SpecError for the spec's own rules: its grammar, no '|' tail on GL
    # or SL, and the declared rank; the model's error, unwrapped, for
    # every other rule
    for bad, error in [
            ("xx3: 1:1", SpecError), ("gl4 3:1", SpecError),
            ("gl4: 3:x", SpecError),
            ("gl4: 3:0", ValueError),                # Atom: rank >= 1
            ("gl4: 3:1 | z=2", SpecError),           # zero block only for sp/so
            ("gl2: 1:1,1:1 | z=0", SpecError),       # not even an empty one
            ("sl2: 1:1,-1:1 | z=0", SpecError),
            ("sp3: 1:1", UnsupportedRank),           # GroupFamily: odd Sp rank
            ("sp4: -1:1 | z=2", ValueError),         # the positive part
            ("sl2: 1:1, 0:1", NotDegreeZero),        # SlBundle: degree 0
            ("gl4: 1:1", SpecError),                 # rank mismatch
            ("gl3: deg=1,2", NotInKernelLattice),    # as_cocharacter: length
            ("sl3: deg=1,1,1", NotInKernelLattice),  # as_cocharacter: trace
            ("sp2: | z=0", SpecError), ("so3:", SpecError),  # no atom, no zero block
            ("gl2: | z=2", SpecError)]:
        with pytest.raises(error) as info:
            parse_bundle_spec(bad)
        assert type(info.value) is error, (bad, info.value)


def test_the_model_rules_a_spec_before_its_rank():
    # SL's degree rule is the model's, met as the bundle is built, before
    # the spec's rank is compared; so is an odd Sp total rank
    with pytest.raises(NotDegreeZero):
        parse_bundle_spec("sl4: 1:1")
    with pytest.raises(UnsupportedRank, match="Sp bundle rank must be even"):
        parse_bundle_spec("sp6: 1:1 | z=1")
    # the body's grammar is read before any of its values
    with pytest.raises(SpecError, match="got 'x'"):
        parse_bundle_spec("gl4: 3:0, x")
    with pytest.raises(SpecError, match="rule zero-block"):
        parse_bundle_spec("gl4: 3:0 | z=2")


# each invalid cocharacter, as (family, rank, degrees): a spec's deg= list
# and canon's --deg refuse it with one exit code and one message
INVALID_COCHARACTERS = [("gl", 3, "1,2"), ("sl", 3, "1,1,1"), ("so", 2, "1")]


@pytest.mark.parametrize("kind, rank, deg", INVALID_COCHARACTERS)
def test_a_spec_and_a_flag_refuse_a_cocharacter_alike(capsys, kind, rank, deg):
    answers = [run(capsys, "semistable", f"{kind}{rank}: deg={deg}"),
               run(capsys, "canon", f"--family={kind}", f"--rank={rank}",
                   f"--deg={deg}")]
    assert [(code, out) for code, out, _ in answers] == [(2, ""), (2, "")]
    spec, flag = (err.partition("validation error: ") for _, _, err in answers)
    assert spec[0] == flag[0] == "" and spec[2] == flag[2] != ""


def test_parse_serialize_round_trip():
    for text in ["gl4: 3:1, 1:2, -2:1", "sp4: 2:1 | z=2", "sp4: 2:1,1:1",
                 "so5: 1:2 | z=1", "so4: deg=1,0", "sl3: deg=2,-1,-1",
                 "sl2: 1:1, -1:1", "sp2: | z=2", "so3: |z=3"]:
        spec = parse_bundle_spec(text)
        assert parse_bundle_spec(serialize_bundle_spec(spec)) == spec
    # a zero block alone is echoed with one space after the colon
    assert serialize_bundle_spec(parse_bundle_spec("sp2:|z=2")) == "sp2: | z=2"


def _csv(values):
    return ",".join(str(x) for x in values)


@st.composite
def valid_specs(draw):
    """Bundle-spec text that parses: atoms, or a torus-split degree vector."""
    kind = draw(st.sampled_from(["gl", "sl", "sp", "so"]))
    small = st.integers(-4, 4)
    if draw(st.booleans()):
        r = draw(st.integers(1, 8) if kind in ("gl", "sl") else
                 st.sampled_from([2, 4, 6, 8]) if kind == "sp" else
                 st.integers(3, 8))
        dim = r if kind in ("gl", "sl") else r // 2
        deg = draw(st.lists(small, min_size=dim, max_size=dim))
        if kind == "sl":
            deg[-1] -= sum(deg)
        return f"{kind}{r}: deg={_csv(deg)}"
    if kind in ("gl", "sl"):
        atoms = draw(st.lists(st.tuples(small, st.integers(1, 3)),
                              min_size=1, max_size=4))
        if kind == "sl":
            atoms.append((-sum(d for d, _ in atoms), 1))
        r = sum(k for _, k in atoms)
        return f"{kind}{r}: " + ",".join(f"{d}:{k}" for d, k in atoms)
    # the positive part may be empty when a zero block follows
    zero = draw(st.integers(0, 2)) * (2 if kind == "sp" else 1)
    atoms = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 2)),
                          min_size=0 if zero else 1, max_size=3))
    r = 2 * sum(k for _, k in atoms) + zero
    if kind == "so" and r < 3:
        zero, r = zero + 3 - r, 3
    text = f"{kind}{r}: " + ",".join(f"{d}:{k}" for d, k in atoms)
    return text + (f" | z={zero}" if zero else "")


@settings(max_examples=150, deadline=None)
@given(valid_specs())
def test_parse_serialize_round_trip_property(text):
    spec = parse_bundle_spec(text)
    assert parse_bundle_spec(serialize_bundle_spec(spec)) == spec


def test_bundle_from_degrees():
    b = bundle_from_degrees(GroupFamily("gl", 3), (2, 1, 0))
    assert b.atoms == (Atom(2, 1), Atom(1, 1), Atom(0, 1))
    sp = bundle_from_degrees(GroupFamily("sp", 4), (2, 0))
    assert sp.positive == (Atom(2, 1),) and sp.zero_rank == 2
    so = bundle_from_degrees(GroupFamily("so", 5), (1, -1))
    assert so.positive == (Atom(1, 1), Atom(1, 1)) and so.zero_rank == 1


def test_hn_command(capsys):
    code, out, _ = run(capsys, "hn", "gl4: 3:1,1:2,-2:1")
    assert code == 0
    doc = json.loads(out)
    assert doc["blocks"] == [[[3, 1]], [[1, 2]], [[-2, 1]]]
    assert doc["type"] == ["3", "1/2", "1/2", "-2"]
    code2, out2, _ = run(capsys, "hn", "sp4: 2:1 | z=2")
    doc2 = json.loads(out2)
    assert code2 == 0 and doc2["middle_rank"] == 2
    assert doc2["full_blocks"] == [[[2, 1]], [[0, 2]], [[-2, 1]]]


def test_hn_builds_one_filtration(capsys, monkeypatch):
    # the type is read off the filtration the command prints
    calls = []

    def counted(build):
        def wrapper(b):
            calls.append(b)
            return build(b)
        return wrapper

    for name in ("hn_filtration", "hn_filtration_isotropic"):
        for module in (hnbundles.cli, hnbundles.canon):
            monkeypatch.setattr(module, name, counted(getattr(module, name)))
    for spec in ("gl4: 3:1,1:2,-2:1", "sl2: deg=1,-1", "sp4: 2:1 | z=2",
                 "so8: deg=3,-1,2,0"):
        calls.clear()
        code, _, err = run(capsys, "hn", spec)
        assert code == 0 and len(calls) == 1, (spec, err)


def test_semistable_command(capsys):
    code, out, _ = run(capsys, "semistable", "gl4: 1:2, 1:2")
    assert code == 0 and json.loads(out)["semistable"] is True
    code2, out2, _ = run(capsys, "semistable", "gl2: 1:1, 0:1")
    assert code2 == 0 and json.loads(out2)["semistable"] is False


def test_pi1_command(capsys):
    code, out, _ = run(capsys, "pi1", "--family", "so", "--rank", "7")
    assert code == 0
    doc = json.loads(out)
    assert (doc["der"], doc["pi1"], doc["ab"]) == ("Z/2", "Z/2", "1")
    code2, out2, _ = run(capsys, "pi1", "--family", "gl", "--rank", "4",
                         "--levi", "a2,3")
    doc2 = json.loads(out2)
    assert code2 == 0 and doc2["pi1"] == "Z x Z"


def test_pi1_builds_no_root_list(capsys, monkeypatch):
    # SL(100000) has about 10^10 roots: pi1 must read the parabolic index
    def refused(family):
        raise AssertionError(f"pi1 listed the roots of {family}")

    # the root table lives in the test oracles alone
    for name in ("all_roots", "positive_roots", "simple_roots"):
        monkeypatch.setattr(oracles, name, refused)
    argv = ["pi1", "--family", "sl", "--rank", "100000"]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert (json.loads(out)["der"], json.loads(out)["pi1"]) == ("1", "1")
    code, out, err = run(capsys, *argv, "--levi", "a1,2")
    assert code == 0, err
    assert json.loads(out)["pi1"] == "Z"


def test_unknown_levi_name_message_is_short(capsys):
    code, out, err = run(capsys, "pi1", "--family", "sl", "--rank", "100000",
                         "--levi", "bogus")
    assert code == 1 and not out and len(err.encode()) < 1024
    assert "choose from the 99999 names 'a1,2' to 'a99999,100000'" in err


def test_levi_names_are_read_in_closed_form(capsys, monkeypatch):
    # each name is read off its digits and checked by one root_name call:
    # SL(10^9) builds no table of its 999,999,999 names, and a fourth call
    # stops one before it takes the memory
    read = []
    root_name = hnbundles.cli.root_name

    def counted(family, i):
        read.append(i)
        if len(read) > 3:
            raise AssertionError(f"a table of the names of {family}")
        return root_name(family, i)

    monkeypatch.setattr(hnbundles.cli, "root_name", counted)
    sl = ["pi1", "--family=sl", "--rank=1000000000", "--levi"]
    code, out, err = run(capsys, *sl, "a1,2", "a5,6", "a999999999,1000000000")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["levi"] == ["a1,2", "a5,6", "a999999999,1000000000"]
    assert doc["pi1"] == "Z x Z x Z" and read == [0, 4, 999999998]
    monkeypatch.setattr(hnbundles.cli, "root_name", root_name)
    # a name is its root's own text: no zero, leading zero, other digits,
    # index past the last root, or last-root name of another type; an index
    # longer than the family's count is refused unread
    for name in ("a0,1", "a01,2", "a1,3", "a\u0661,\u0662", "a1000000000,1000000001",
                 "a999999999", "2a999999999", "a" + "9" * 5000 + ",1"):
        code, out, err = run(capsys, *sl, name)
        assert code == 1 and not out, name
        assert err.startswith(f"parse error: unknown simple root name {name!r}")
    # off type A the last root has its own name, and only it
    for kind, rank, name, bad in (("so", 7, "a3", "a3,4"), ("sp", 6, "2a3", "a3"),
                                  ("so", 8, "a3+a4", "a4,5")):
        argv = ["pi1", f"--family={kind}", f"--rank={rank}", "--levi"]
        code, out, err = run(capsys, *argv, name)
        assert code == 0 and json.loads(out)["levi"] == [name], err
        assert run(capsys, *argv, bad)[0] == 1


def test_canon_command(capsys):
    code, out, _ = run(capsys, "canon", "--family", "sp", "--rank", "4",
                       "--deg", "2,1", "--oracle")
    assert code == 0
    doc = json.loads(out)
    assert doc["index"] == ["a1,2", "2a2"]
    assert doc["levi_semistable"] is True
    assert all(d.lstrip("-").isdigit() or "/" in d for d in doc["char_degrees"])
    assert doc["oracle_attained"] is True


def test_vdeg_command(capsys):
    code, out, _ = run(capsys, "vdeg", "--family", "gl",
                       "--E", "2,4", "--F", "3,2")
    assert code == 0 and json.loads(out)["vertical_degree"] == -8


def test_vdeg_refuses_an_sl_bundle_of_nonzero_degree(capsys):
    with pytest.raises(NotDegreeZero):
        vertical_degree(GroupFamily("sl", 4), (2, 4), (3, 2))
    # the same ambient data the spec parser refuses, on a miss and a hit
    argv = ["vdeg", "--family", "sl", "--E", "2,4", "--F", "3,2"]
    refused = (2, "", "validation error: SL vertical degree needs ambient "
                      "degree 0\n")
    assert [run(capsys, *argv) for _ in range(2)] == [refused] * 2
    assert run_command.cache_info()[:2] == (1, 1)
    assert run(capsys, "vdeg", "--family", "sl", "--E", "0,4",
               "--F", "3,2")[0] == 0


def test_gl_and_sl_specs_take_no_zero_block(capsys):
    # README's grammar gives a zero block only to sp/so, so an empty one
    # is refused as a larger one is
    for spec in ("gl2: 1:1,1:1 | z=0", "sl2: 1:1,-1:1 | z=0", "gl4: 3:1 | z=2"):
        assert run(capsys, "hn", spec) == (
            1, "", "parse error: rule zero-block: only sp/so take a zero block\n")
    assert run(capsys, "hn", "sp4: 1:2 | z=0")[0] == 0


def test_strata_command(capsys, tmp_path):
    target = tmp_path / "poset.dot"
    code, out, _ = run(capsys, "strata", "--family", "gl", "--rank", "2",
                       "--bound", "1", "--fix-type", "0", "--dot", str(target))
    assert code == 0
    doc = json.loads(out)
    assert [lab["mu"] for lab in doc["labels"]] == [["1", "-1"], ["0", "0"]]
    text = target.read_text()
    assert text.startswith("digraph strata {") and "->" in text
    # the underlying bundle of every SL, Sp and SO type has degree 0
    for family in ("sl3", "sp4", "so5"):
        argv = ("strata", f"--family={family[:2]}", f"--rank={family[2:]}",
                "--bound=1")
        every = json.loads(run(capsys, *argv)[1])["labels"]
        assert json.loads(run(capsys, *argv, "--fix-type=0")[1])["labels"] == every
        assert json.loads(run(capsys, *argv, "--fix-type=5")[1])["labels"] == []


def test_unwritable_dot_path_is_a_validation_error(capsys, tmp_path):
    target = tmp_path / "missing" / "poset.dot"
    code, out, err = run(capsys, "strata", "--family", "gl", "--rank", "2",
                         "--bound", "1", "--dot", str(target))
    assert code == 2 and out == ""
    assert err.startswith("validation error: ") and err.count("\n") == 1
    assert str(target) in err and not target.exists()


def test_strata_renders_dot_only_under_dot(capsys, monkeypatch, tmp_path):
    argv = ["strata", "--family=gl", "--rank=3", "--bound=1"]
    golden = next(case for case in GOLDEN if case["argv"] == argv)

    def no_dot(poset):
        raise AssertionError("to_dot called without --dot")

    monkeypatch.setattr(hnbundles.cli, "to_dot", no_dot)
    assert run(capsys, *argv) == (0, golden["stdout"], "")
    monkeypatch.undo()
    target = tmp_path / "poset.dot"
    code, out, err = run(capsys, *argv, f"--dot={target}")
    assert (code, err) == (0, "")
    assert json.loads(out) == {**json.loads(golden["stdout"]),
                               "dot_path": str(target)}
    assert target.read_text() == to_dot(
        enumerate_strata(GroupFamily("gl", 3), 1))


def test_check_command(capsys):
    for suite in ("hn", "canon", "lattice"):
        code, out, _ = run(capsys, "check", "--suite", suite,
                           "--seed", "1", "--cases", "15")
        assert code == 0 and json.loads(out)["passed"] == 15
    # every hull case yields a check, whether or not nu is dominant
    code, out, _ = run(capsys, "check", "--suite", "hull",
                       "--seed", "1", "--cases", "30")
    assert code == 0 and json.loads(out)["passed"] == 30


CANON_FAILURE = re.compile(
    r"^internal invariant breach: check canon failed at seed 1, case 0 "
    r"\((gl3|sp4|so5), input \(-?\d+(, -?\d+)*\)\): the canonical reduction "
    r"has adjoint degree -1000, the oracle maximum is -?\d+\n$")


def test_check_failure_names_the_case(capsys, monkeypatch):
    monkeypatch.setattr(hnbundles.oracles, "ad_degree", lambda *args: -1000)
    code, out, err = run(capsys, "check", "--suite", "canon",
                         "--seed", "1", "--cases", "3")
    assert code == 3 and out == ""
    assert CANON_FAILURE.match(err), err


def _run_optimized(script):
    """Run a script under python -O, which strips assert statements."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-O", "-c", script], env=env,
                           capture_output=True, text=True, timeout=120)


def test_check_failure_survives_optimize():
    # python -O strips assert statements; the suites must still fail
    script = ("import sys, hnbundles.cli as cli, hnbundles.oracles as oracles\n"
              "oracles.ad_degree = lambda *args: -1000\n"
              "sys.exit(cli.run_command(['check', '--suite', 'canon',"
              " '--seed', '1', '--cases', '3']))\n")
    proc = _run_optimized(script)
    assert proc.returncode == 3 and proc.stdout == ""
    assert CANON_FAILURE.match(proc.stderr), proc.stderr



def test_check_offers_the_oracle_suites():
    # cli names the suites without loading them, in argparse's help order
    options = hnbundles.cli._COMMANDS["check"][2]
    assert list(options["--suite"]["choices"]) == sorted(
        hnbundles.oracles._SUITES)


def test_the_oracles_load_on_first_use():
    proc = _run_optimized(
        "import contextlib, io, sys\n"
        "import hnbundles, hnbundles.cli\n"
        "loaded = ['hnbundles.oracles' in sys.modules]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = hnbundles.cli.run_command(\n"
        "        ['check', '--suite', 'hn', '--cases', '1'])\n"
        "loaded.append('hnbundles.oracles' in sys.modules)\n"
        "from hnbundles import hn_uniqueness_oracle\n"
        "home = sys.modules['hnbundles.oracles'].hn_uniqueness_oracle\n"
        "print(code, loaded, hn_uniqueness_oracle is home)\n")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "0 [False, True] True\n", "")

def test_sl_bundle_refuses_a_nonzero_degree_under_optimize():
    # the check is an explicit raise, which python -O keeps
    script = ("import sys\n"
              "from hnbundles.bundle import Atom, SlBundle\n"
              "from hnbundles.errors import NotDegreeZero\n"
              "try:\n"
              "    SlBundle((Atom(1, 1), Atom(0, 1)))\n"
              "except NotDegreeZero as exc:\n"
              "    sys.exit(str(exc) != 'SL bundle must have total degree 0')\n"
              "sys.exit(2)\n")
    proc = _run_optimized(script)
    assert proc.returncode == 0, proc.stderr


def test_sl_trace_refusal_survives_optimize():
    # as_cocharacter refuses an SL point of nonzero trace by an explicit
    # raise, which python -O keeps, at each torus-split entry point
    script = ("import sys\n"
              "from hnbundles.bundle import bundle_from_degrees\n"
              "from hnbundles.canon import (ad_degree_max_oracle,\n"
              "    canonical_reduction, check_bh)\n"
              "from hnbundles.errors import NotInKernelLattice\n"
              "from hnbundles.lattice import (levi_topological_type,\n"
              "    obstruction_class, topological_type)\n"
              "from hnbundles.parabolic import ParabolicIndex\n"
              "from hnbundles.rootsys import GroupFamily\n"
              "sl3, a = GroupFamily('sl', 3), (1, 1, 1)\n"
              "red = canonical_reduction(sl3, (1, 0, -1))\n"
              "calls = [canonical_reduction, ad_degree_max_oracle,\n"
              "         bundle_from_degrees, obstruction_class, topological_type,\n"
              "         lambda f, a: check_bh(f, a, red),\n"
              "         lambda f, a: levi_topological_type(\n"
              "             f, ParabolicIndex(f, frozenset()), a)]\n"
              "for call in calls:\n"
              "    try:\n"
              "        call(sl3, a)\n"
              "    except NotInKernelLattice as exc:\n"
              "        if str(exc) != 'SL cocharacters have trace zero':\n"
              "            sys.exit(str(exc))\n"
              "    else:\n"
              "        sys.exit('admitted (1, 1, 1)')\n")
    proc = _run_optimized(script)
    assert proc.returncode == 0, proc.stderr


def test_hull_check_compares_the_lp_oracle(capsys, monkeypatch):
    monkeypatch.setattr(hnbundles.oracles, "hull_membership", lambda *args: None)
    code, out, err = run(capsys, "check", "--suite", "hull",
                         "--seed", "1", "--cases", "3")
    assert code == 3 and out == ""
    assert re.match(r"^internal invariant breach: check hull failed at seed 1, "
                    r"case \d+ \((gl3|sp4|so5|so6), input mu=.*, nu=.*\): "
                    r"hull membership is "
                    r"None, the LP oracle says (True|False)\n$", err), err


# the hn suite's first case at seed 1, with the blocks of every HN
# filtration put in increasing slope order
HN_CASE_RAISES = ("internal invariant breach: check hn failed at seed 1, "
                  "case 0 (gl2, input 'gl2: 1:1,-1:1'): HN slopes (-1, 1) "
                  "are not strictly decreasing\n")


def test_a_check_case_that_raises_names_the_case(capsys, monkeypatch):
    # a suite draws its own input, so a library error in a case is a
    # fault: exit 3, naming the case, where validation errors exit 2
    real = hnbundles.hnfilt._group_by_slope
    monkeypatch.setattr(hnbundles.hnfilt, "_group_by_slope",
                        lambda atoms: real(atoms)[::-1])
    assert run(capsys, "check", "--suite=hn", "--seed=1", "--cases=5") == (
        3, "", HN_CASE_RAISES)


# a check that fails names its case and the spec it drew, rendered only
# then: a GL case, and an Sp one at case 1 of seed 5, after a case 0 whose
# Sp draw had no atoms and was not built
HN_CHECK_FAILS = {
    "hn_uniqueness_oracle": (lambda b: False, 7, "case 0 (gl4, input "
                             "'gl4: 2:1,-2:2,-3:1'): the HN filtration is not "
                             "the unique one"),
    "extend_with_perps": (lambda f: Filtration(()), 5, "case 1 (sp2, input "
                          "'sp2: 3:1'): the isotropic HN filtration completed "
                          "by perps differs from the HN filtration of the "
                          "underlying bundle"),
}


@pytest.mark.parametrize("name", HN_CHECK_FAILS)
def test_a_failing_hn_check_names_its_drawn_spec(capsys, monkeypatch, name):
    fake, seed, where = HN_CHECK_FAILS[name]
    monkeypatch.setattr(hnbundles.oracles, name, fake)
    assert run(capsys, "check", "--suite=hn", f"--seed={seed}", "--cases=5") == (
        3, "", f"internal invariant breach: check hn failed at seed {seed}, "
        f"{where}\n")


def test_a_check_case_that_raises_before_its_draw(capsys, monkeypatch):
    def refuse(*args):
        raise ValueError("no bundle")

    monkeypatch.setattr(hnbundles.oracles, "PlainBundle", refuse)
    assert run(capsys, "check", "--suite=hn", "--seed=1", "--cases=5") == (
        3, "", "internal invariant breach: check hn failed at seed 1, "
        "case 0: no bundle\n")

    def stray(*args):
        raise TypeError("not a library error")

    # any other exception is a bug in the suite, and propagates
    monkeypatch.setattr(hnbundles.oracles, "PlainBundle", stray)
    with pytest.raises(TypeError):
        run_command(["check", "--suite=hn", "--seed=1", "--cases=5"])


def test_a_check_case_that_raises_survives_optimize():
    proc = _run_optimized(
        "import sys, hnbundles.cli, hnbundles.hnfilt as hnfilt\n"
        "real = hnfilt._group_by_slope\n"
        "hnfilt._group_by_slope = lambda atoms: real(atoms)[::-1]\n"
        "sys.exit(hnbundles.cli.run_command(['check', '--suite=hn',"
        " '--seed=1', '--cases=5']))\n")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        3, "", HN_CASE_RAISES)


def _lattice_breach(what):
    """A Weyl translate of a, for lattice case 0 at seed 1, that is not
    dominant and is none of a, b and a + b (obstruction_class is called
    on those three, then on every translate), and the message of a check
    on what failing there."""
    calls = []
    real = hnbundles.oracles.obstruction_class

    def spy(family, v):
        calls.append((family, tuple(v)))
        return real(family, v)

    hnbundles.oracles.obstruction_class = spy
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_command(["check", "--suite=lattice", "--seed=1",
                                "--cases=1"]) == 0
    finally:
        hnbundles.oracles.obstruction_class = real
    family = calls[0][0]
    a, b, _ = setup = [v for _, v in calls[:3]]
    translate = next(v for _, v in calls[3:]
                     if v not in setup and not oracles.is_dominant(family, v))
    return translate, (
        f"internal invariant breach: check lattice failed at seed 1, case 0 "
        f"({family.kind}{family.r}, input a={a}, b={b}): {what} of a "
        f"differs at its Weyl translate {translate}\n")


@pytest.mark.parametrize("name, what", [
    ("topological_type", "the topological type"),
    ("obstruction_class", "the obstruction class")])
def test_lattice_check_names_the_failing_translate(capsys, monkeypatch,
                                                   name, what):
    # the suite yields a translate's checks only when they fail; a failure
    # must still name the suite, seed, case, family, input and translate
    translate, want = _lattice_breach(what)
    real = getattr(hnbundles.oracles, name)
    monkeypatch.setattr(hnbundles.oracles, name, lambda family, v: (
        "wrong" if tuple(v) == translate else real(family, v)))
    code, out, err = run(capsys, "check", "--suite", "lattice",
                         "--seed", "1", "--cases", "3")
    assert code == 3 and out == "" and err == want, err


def test_lattice_check_failure_survives_optimize():
    translate, want = _lattice_breach("the topological type")
    proc = _run_optimized(
        "import sys, hnbundles.cli as cli, hnbundles.oracles as oracles\n"
        "real = oracles.topological_type\n"
        "oracles.topological_type = lambda family, v: (\n"
        f"    'wrong' if tuple(v) == {translate!r} else real(family, v))\n"
        "sys.exit(cli.run_command(['check', '--suite', 'lattice',"
        " '--seed', '1', '--cases', '3']))\n")
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == want, proc.stderr


# input checks, each with the exception it must raise also under python -O
OPTIMIZED_INPUT_CHECKS = """\
from hnbundles.canon import HNType
from hnbundles.parabolic import (ParabolicIndex, character_generators,
                                 is_dominant_character)
from hnbundles.rootsys import GroupFamily
from hnbundles.strata import hull_membership, stratum_label
gl3, sp4 = GroupFamily("gl", 3), GroupFamily("sp", 4)
calls = [
    lambda: HNType(gl3, (1, 0)),
    lambda: HNType(gl3, (0, 1, 0)),
    lambda: stratum_label(gl3, (1, 0)),
    lambda: hull_membership(gl3, (2, 0, -2), (1, -1)),
    lambda: hull_membership(gl3, (2, 0, -2), (1, 0, 0, -1)),
    lambda: hull_membership(gl3, (2, 0), (1, 0, -1)),
    lambda: is_dominant_character(gl3, ParabolicIndex(gl3, frozenset({0})),
                                  (1,)),
    lambda: is_dominant_character(gl3, ParabolicIndex(sp4, frozenset({0})),
                                  (1, -1, 0)),
    lambda: character_generators(gl3, ParabolicIndex(sp4, frozenset({0}))),
]
for call in calls:
    try:
        call()
        print("no error")
    except Exception as exc:
        print(type(exc).__name__)
"""


def test_input_checks_survive_optimize():
    proc = _run_optimized(OPTIMIZED_INPUT_CHECKS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ValueError"] * 7 + ["FamilyMismatch"] * 2


CONSTRUCTOR_CHECKS = """\
from hnbundles.bundle import Atom, PlainBundle
from hnbundles.canon import ad_degree
from hnbundles.hnfilt import Filtration, IsotropicFiltration
from hnbundles.lattice import FinAbGroup
from hnbundles.parabolic import ParabolicIndex
from hnbundles.rootsys import GroupFamily
low, high = PlainBundle((Atom(0, 1),)), PlainBundle((Atom(3, 1),))
gl3 = GroupFamily("gl", 3)
calls = [
    lambda: Filtration((low, high)),
    lambda: IsotropicFiltration((high, low), ()),
    lambda: FinAbGroup(0, (3, 2)),
    lambda: FinAbGroup(True, ()),
    # a string is no list of invariant factors, though it would describe as 1
    lambda: FinAbGroup(0, ""),
    # True and 1.0 equal 1, but are no ints
    lambda: Atom(True, 1),
    lambda: ParabolicIndex(gl3, {1.0}),
]
for call in calls:
    try:
        call()
        print("no error")
    except Exception as exc:
        print(type(exc).__name__)
# each rule a parabolic index member can break names itself
for members in ({1.0}, {True}, {3}):
    try:
        ParabolicIndex(gl3, members)
    except ValueError as exc:
        print(exc)
print(ad_degree(gl3, ParabolicIndex(gl3, {0}), (1, 0, 0)))
# a list of invariant factors is kept as a tuple, so the group hashes
z2 = FinAbGroup(0, [2])
print(z2 == FinAbGroup(0, (2,)), hash(z2) == hash(FinAbGroup(0, (2,))), z2.torsion)
"""


def test_constructor_checks_survive_optimize():
    proc = _run_optimized(CONSTRUCTOR_CHECKS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["ValueError"] * 7 + [
        "parabolic index members must be ints, got 1.0",
        "parabolic index members must be ints, got True",
        "parabolic index out of range", "2", "True True (2,)"]


def test_parser_is_built_once(capsys, monkeypatch):
    builds = []

    # the parser subclasses argparse's, and each subparser is of its class
    class Counted(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            builds.append(kwargs["prog"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(hnbundles.cli, "argparse", types.SimpleNamespace(
        ArgumentParser=Counted, HelpFormatter=argparse.HelpFormatter))
    hnbundles.cli.build_parser.cache_clear()
    argvs = [["pi1", "--family", "gl", "--rank", "3"], ["bogus"],
             ["semistable", "so4: deg=1,0"], ["hn", "gl4: what"],
             ["canon", "--family", "gl", "--rank", "2", "--deg", "1,2"],
             ["pi1", "--family", "gl", "--rank", "3"]]
    commands = ["hn", "semistable", "pi1", "canon", "vdeg", "strata", "check"]
    try:
        assert [run(capsys, *argv)[0] for argv in argvs] == [0, 1, 0, 1, 0, 0]
        assert builds == ["hnbundles"] + [f"hnbundles {c}" for c in commands]
        # one parser for every call, with a subcommand per table entry
        parser = hnbundles.cli.build_parser()
        assert hnbundles.cli.build_parser() is parser
        assert list(hnbundles.cli._COMMANDS) == commands
        assert len(builds) == 1 + len(commands)
    finally:
        hnbundles.cli.build_parser.cache_clear()
    # built on the first run_command, not on import
    proc = _run_optimized("import hnbundles.cli as cli\n"
                          "print(cli.build_parser.cache_info().currsize)\n")
    assert proc.stdout.split() == ["0"], proc.stderr


def breach(*args):
    raise InvariantBreach("routes disagree")


def test_only_invariant_breach_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(hnbundles.cli, "vertical_degree", breach)
    code, out, err = run(capsys, "vdeg", "--family", "gl",
                         "--E", "2,4", "--F", "3,2")
    assert code == 3 and out == ""
    assert err == "internal invariant breach: routes disagree\n"

    def stray(*args):
        raise AssertionError("not an invariant breach")

    monkeypatch.setattr(hnbundles.cli, "vertical_degree", stray)
    with pytest.raises(AssertionError):
        run_command(["vdeg", "--family", "gl", "--E", "2,4", "--F", "3,2"])


def test_byte_determinism(capsys):
    def fresh(*argv):
        # an empty answer cache, so that each run computes its answer
        run_command.cache_clear()
        return run(capsys, *argv)[1]

    runs = [fresh("canon", "--family", "so", "--rank", "5", "--deg", "2,1")
            for _ in range(2)]
    assert runs[0] == runs[1]
    runs2 = [fresh("strata", "--family", "sp", "--rank", "4", "--bound", "1")
             for _ in range(2)]
    assert runs2[0] == runs2[1]


def counted_answers(monkeypatch):
    """The argvs run_command computes an answer for, from now on."""
    computed = []
    answer = hnbundles.cli._answer

    def counted(args):
        computed.append(args.cmd)
        return answer(args)

    monkeypatch.setattr(hnbundles.cli, "_answer", counted)
    return computed


@pytest.mark.parametrize("argv, code", [
    (["pi1", "--family=gl", "--rank=3", "--levi", "a1,2"], 0),
    (["--pretty", "canon", "--family", "sp", "--rank", "4", "--deg", "2,1"], 0),
    (["hn", "gl4: 3:x"], 1),
    (["pi1", "--family=sp", "--rank=3"], 2)], ids=repr)
def test_a_repeated_argv_runs_once(capsys, monkeypatch, argv, code):
    computed = counted_answers(monkeypatch)
    miss = run(capsys, *argv)
    assert miss[0] == code and (miss[1] or miss[2])
    assert run(capsys, *argv) == miss
    assert len(computed) == 1 and run_command.cache_info()[:2] == (1, 1)
    # the key is the argv as passed: the same options spelt otherwise miss
    respelt = [word for a in argv for word in
               (a.split("=") if a.startswith("--") else [a])]
    if respelt != argv:
        assert run(capsys, *respelt) == miss and len(computed) == 2


def test_argvs_that_are_never_kept_rerun(capsys, monkeypatch, tmp_path):
    computed = counted_answers(monkeypatch)
    # a check suite runs its checks on every call: a failure patched in
    # after a pass exits 3
    check = ["check", "--suite=canon", "--seed=1", "--cases=3"]
    assert run(capsys, *check)[0] == 0
    monkeypatch.setattr(hnbundles.oracles, "ad_degree", lambda *args: -1000)
    assert run(capsys, *check)[0] == 3
    # an exit-3 answer shows on every call, and is gone once mended
    vdeg = ["vdeg", "--family=gl", "--E=2,4", "--F=3,2"]
    closed_form = hnbundles.cli.vertical_degree
    monkeypatch.setattr(hnbundles.cli, "vertical_degree", breach)
    assert [run(capsys, *vdeg)[0] for _ in range(2)] == [3, 3]
    monkeypatch.setattr(hnbundles.cli, "vertical_degree", closed_form)
    assert run(capsys, *vdeg)[0] == 0
    # --dot writes its file on every call
    dot = tmp_path / "p.dot"
    strata = ["strata", "--family=gl", "--rank=2", "--bound=1", f"--dot={dot}"]
    first = run(capsys, *strata)
    dot.unlink()
    assert run(capsys, *strata) == first and first[0] == 0 and dot.exists()
    assert computed == ["check", "check", "vdeg", "vdeg", "vdeg",
                        "strata", "strata"]
    # of all these answers, only the mended vdeg one is kept
    assert list(hnbundles.cli._ANSWERS.answers) == [tuple(vdeg)]
    # argparse reads a usage error, help, or an argv the option table
    # declines once, and a repeat is a hit with the same answer
    builds = []
    parser = hnbundles.cli.build_parser

    def counted():
        builds.append(1)
        return parser()

    monkeypatch.setattr(hnbundles.cli, "build_parser", counted)
    repeated = ["pi1", "--family=gl", "--rank=2", "--rank=3"]
    argvs = ((["bogus"], 1), (["pi1", "-h"], 0), (repeated, 0))
    for argv, code in argvs:
        hits = run_command.cache_info().hits
        runs = [run(capsys, *argv) for _ in range(2)]
        assert runs[0] == runs[1] and runs[0][0] == code
        assert run_command.cache_info().hits == hits + 1
    assert len(builds) == 3 and computed[-2:] == ["strata", "pi1"]
    assert list(hnbundles.cli._ANSWERS.answers) == \
        [tuple(vdeg)] + [tuple(argv) for argv, _ in argvs]


USAGE_ARGVS = [["bogus"], ["pi1", "-h"]]


@pytest.mark.parametrize("width", ["40", "200"])
def test_usage_answers_are_the_same_at_every_terminal_width(monkeypatch, width):
    # the usage-error transcripts and pi1 -h are argparse's text at 80
    # columns whatever COLUMNS says, on a miss and on a hit
    usage = [case for case in golden.CASES if case["stderr"].startswith("usage:")]
    argvs = [case["argv"] for case in usage] + [["pi1", "-h"]]
    monkeypatch.setenv("COLUMNS", "80")
    at_80 = [golden.capture(argv) for argv in argvs]
    assert all(answer["stdout"] + answer["stderr"] for answer in at_80)
    run_command.cache_clear()
    monkeypatch.setenv("COLUMNS", width)
    for argv, answer in zip(argvs, at_80):
        assert [golden.capture(argv) for _ in range(2)] == [answer] * 2
        assert golden.argparse_answer(argv) == answer
    for case in usage:
        assert golden.matches(case)
    assert all(len(answer) == 3 for answer in hnbundles.cli._ANSWERS.answers.values())


def test_the_parser_writes_as_argparse_outside_run_command(capsys):
    with pytest.raises(SystemExit) as exc:
        hnbundles.cli.build_parser().parse_args(["bogus"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.startswith("usage: hnbundles ") and "invalid choice: 'bogus'" in err


def test_answer_cache_keeps_its_budget(capsys, monkeypatch):
    argvs = [["pi1", f"--family={kind}", f"--rank={r}"]
             for kind, r in (("gl", 2), ("sl", 3), ("sp", 4), ("so", 5))]
    size = {}
    for argv in argvs:
        code, out, _ = run(capsys, *argv)
        size[tuple(argv)] = len("".join(argv)) + len(out)
    assert run_command.cache_info().currsize == sum(size.values())
    # a budget of the first three: the fourth evicts the least recently
    # used, which the hit on the first leaves to be the second
    run_command.cache_clear()
    held = lambda: run_command.cache_info().currsize  # noqa: E731
    limit = sum(size[tuple(a)] for a in argvs[:3])
    monkeypatch.setattr(hnbundles.cli, "ANSWER_CACHE_LIMIT", limit)
    for argv in argvs[:3] + argvs[:1]:
        run(capsys, *argv)
    assert held() == limit and run_command.cache_info().hits == 1
    run(capsys, *argvs[3])
    kept = list(hnbundles.cli._ANSWERS.answers)
    assert tuple(argvs[1]) not in kept and tuple(argvs[0]) in kept
    assert held() == sum(size[k] for k in kept) <= limit
    # an answer over the budget is printed, and neither kept nor evicting
    limit = size[tuple(argvs[0])]
    monkeypatch.setattr(hnbundles.cli, "ANSWER_CACHE_LIMIT", limit)
    run_command.cache_clear()
    run(capsys, *argvs[0])
    strata = ["strata", "--family=gl", "--rank=2", "--bound=1"]
    first = run(capsys, *strata)
    assert first[0] == 0 and len(first[1]) > limit
    assert run(capsys, *strata) == first
    assert list(hnbundles.cli._ANSWERS.answers) == [tuple(argvs[0])]
    assert run_command.cache_info() == (0, 3, limit, limit)


def test_answer_cache_counts_hold_under_threads(monkeypatch):
    # usage errors and help, which argparse answers, among plain answers
    usage = USAGE_ARGVS + [["canon", "--family=gl", "--rank=2", "--deg", "-1,2"]]
    plain = [["pi1", "--family=gl", f"--rank={r}"] for r in range(2, 10)]
    argvs = plain[:3] + usage[:1] + plain[3:6] + usage[1:2] + plain[6:] + usage[2:]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        for argv in argvs:
            run_command(argv)
    single = {tuple(a): hnbundles.cli._ANSWERS.answers[tuple(a)] for a in usage}
    # a budget of half the answers, so that threads evict as they put
    limit = run_command.cache_info().currsize // 2
    monkeypatch.setattr(hnbundles.cli, "ANSWER_CACHE_LIMIT", limit)
    run_command.cache_clear()

    # the threads start each pass together, so that they miss, compute
    # and put the same argv at once
    barrier, passes = threading.Barrier(4, timeout=10), 200

    def work():
        for _ in range(passes):
            barrier.wait()
            for argv in argvs:
                run_command(argv)

    threads = [threading.Thread(target=work) for _ in range(4)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    hits, misses, _, held = run_command.cache_info()
    assert hits + misses == 4 * passes * len(argvs)
    answers = hnbundles.cli._ANSWERS.answers
    assert held == sum(hnbundles.cli._size(k, a) for k, a in answers.items())
    assert 0 < held <= limit
    # each thread captured only its own argparse text
    kept = [k for k in single if k in answers]
    assert kept and all(answers[k] == single[k] for k in kept)


def test_answer_cache_holds_at_most_its_budget(capsys):
    # three strata answers of 98,000 characters each pass the budget, so
    # the third evicts the first
    argvs = [["strata", "--family=gl", "--rank=4", "--bound=4"],
             ["strata", "--family", "gl", "--rank=4", "--bound=4"],
             ["strata", "--family=gl", "--rank", "4", "--bound=4"]]
    outs = []
    for argv in argvs:
        code, out, _ = run(capsys, *argv)
        outs.append(out)
        assert code == 0 and len(out) > 90000
        assert run_command.cache_info().currsize <= hnbundles.cli.ANSWER_CACHE_LIMIT
    assert list(hnbundles.cli._ANSWERS.answers) == [tuple(a) for a in argvs[1:]]
    assert [run(capsys, *argv)[1] for argv in argvs] == outs


def test_pretty_flag(capsys):
    code, out, _ = run(capsys, "--pretty", "pi1", "--family", "gl", "--rank", "3")
    assert code == 0
    assert "pi1" in out and "{" not in out.splitlines()[0]


def test_exit_codes(capsys):
    assert run(capsys, "hn", "gl4: what")[0] == 1       # parse error
    assert run(capsys, "nosuch")[0] == 1                # usage error
    code, _, err = run(capsys, "vdeg", "--family", "gl",
                       "--E", "2,4", "--F", "3,4")
    assert code == 2 and "validation" in err            # invalid flag ranks
    code2, _, _ = run(capsys, "canon", "--family", "so", "--rank", "2",
                      "--deg", "1")
    assert code2 == 2                                   # unsupported rank
    code3, _, err3 = run(capsys, "canon", "--family", "gl", "--rank", "3",
                         "--deg", "1,2")
    assert code3 == 2 and "validation error:" in err3   # wrong-length degrees
    for e, f, option in (("2", "1,1", "--E"), ("2,4", "1", "--F")):
        code4, _, err4 = run(capsys, "vdeg", "--family", "gl", "--E", e, "--F", f)
        assert code4 == 2 and f"validation error: {option} " in err4
    code5, out5, err5 = run(capsys, "strata", "--family", "gl", "--rank", "2",
                            "--bound=-1")
    # enumerate_strata refuses a negative bound; the CLI has no check of its own
    assert (code5, out5, err5) == (
        2, "", "validation error: bound must be nonnegative, got -1\n")
    code6, out6, err6 = run(capsys, "check", "--suite", "canon", "--cases=-2")
    assert code6 == 2 and out6 == "" and "validation error: --cases" in err6


@pytest.mark.parametrize("argv", [
    ("pi1", "--family=so", "--rank=2"),
    ("canon", "--family=so", "--rank=2", "--deg=1"),
    ("strata", "--family=so", "--rank=2", "--bound=1"),
    ("vdeg", "--family=so", "--E=0,2", "--F=1,1"),
    ("hn", "so2: 1:1"),
    ("semistable", "so2: 1:1")], ids=lambda argv: argv[0])
def test_every_command_refuses_the_so2_family(capsys, argv):
    assert run(capsys, *argv) == \
        (2, "", "validation error: SO(2) has no usable root system\n")


# bounded argv strategies: rank <= 8, --bound <= 2, --cases <= 3, no --dot
SMALL = st.integers(-3, 3)
KIND = st.sampled_from(["gl", "sl", "sp", "so"] * 3 + ["xx"])
ROOT_NAMES = st.sampled_from(["a1,2", "a2,3", "a3,4", "2a2", "2a3", "a3",
                              "a3+a4", "a9,10", "zz"])


@st.composite
def vectors(draw, dim):
    """Mostly dim entries, sometimes a wrong length; as comma text."""
    size = draw(st.sampled_from([dim, dim, dim, max(dim - 1, 0), dim + 1]))
    return _csv(draw(st.lists(SMALL, min_size=size, max_size=size)))


@st.composite
def family_argvs(draw, command):
    kind, r = draw(KIND), draw(st.integers(0, 4 if command == "strata" else 8))
    argv = (command, f"--family={kind}", f"--rank={r}")
    if command == "pi1":
        names = draw(st.lists(ROOT_NAMES, max_size=3))
        return argv + (("--levi",) + tuple(names) if names else ())
    if command == "canon":
        dim = r if kind in ("gl", "sl") else r // 2
        oracle = draw(st.sampled_from([(), ("--oracle",)]))
        return argv + (f"--deg={draw(vectors(dim))}",) + oracle
    fix = draw(st.sampled_from([(), ("--fix-type=0",), ("--fix-type=2",)]))
    return argv + (f"--bound={draw(st.integers(-1, 2))}",) + fix


@st.composite
def vdeg_argvs(draw):
    """--E degree,rank and --F degree,rank, sometimes of the wrong length;
    Sp/SO need E of degree 0."""
    r = draw(st.integers(0, 8))
    e = [draw(st.sampled_from([0, 0, -1, 2])), r]
    f = [draw(SMALL), draw(st.integers(0, r))]
    e, f = (v[:draw(st.sampled_from([2, 2, 2, 1]))] for v in (e, f))
    return ("vdeg", f"--family={draw(KIND)}", f"--E={_csv(e)}", f"--F={_csv(f)}")


SPEC_TEXT = st.one_of(
    valid_specs(),
    st.builds(lambda k, r, body: f"{k}{r}: {body}", KIND, st.integers(0, 8),
              st.one_of(vectors(3).map("deg={}".format),
                        st.lists(st.tuples(SMALL, st.integers(0, 3)), max_size=4)
                        .map(lambda a: ",".join(f"{d}:{k}" for d, k in a)),
                        st.builds("{}:{} | z={}".format, SMALL, SMALL, SMALL))),
    st.text(alphabet="gls01234:,=|-z ", max_size=12))

ARGVS = st.one_of(
    st.tuples(st.sampled_from(["hn", "semistable"]), SPEC_TEXT),
    family_argvs("pi1"), family_argvs("canon"), family_argvs("strata"),
    vdeg_argvs(),
    st.tuples(st.just("check"),
              st.sampled_from(["hn", "canon", "hull", "lattice", "nope"])
              .map("--suite={}".format),
              st.integers(0, 99).map("--seed={}".format),
              st.integers(-1, 3).map("--cases={}".format)),
    st.lists(st.sampled_from(["pi1", "--family", "gl", "--rank", "3", "-x",
                              "--pretty", "bogus"]), max_size=4).map(tuple))


@settings(max_examples=300, deadline=None)
@given(ARGVS, st.booleans())
def test_every_argv_exits_with_a_message(argv, pretty):
    argv = ["--pretty", *argv] if pretty else list(argv)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    if code:
        assert err.getvalue().strip() and not out.getvalue(), argv
    else:
        assert out.getvalue(), argv


# the main parser, the reference for the option-table route of run_command
GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "cli_golden.json").read_text())
GOLDEN_ARGVS = [case["argv"] for case in GOLDEN]


def _parse_outcome(parse, argv):
    """(vars of the Namespace, or the exit code), stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _direct(argv):
    """run_command's route: the option table where it reads argv, and
    argparse for any other."""
    args = hnbundles.cli._read(argv)
    return hnbundles.cli.build_parser().parse_args(argv) if args is None else args


def _assert_routes_agree(argv):
    reference = hnbundles.cli.build_parser().parse_args
    assert _parse_outcome(_direct, argv) == \
        _parse_outcome(reference, argv), argv


def _variants(argv):
    """argv, --pretty or -h after its command, abbreviated and unknown
    options, and a "--" before the command's strings."""
    head, tail = argv[:1], argv[1:]
    abbreviated = [re.sub(r"^--(family|rank|bound|suite|cases|oracle)",
                          lambda m: m.group(0)[:5], a) for a in argv]
    yield from (argv, argv + ["--pretty"], head + ["--pretty"] + tail,
                head + ["-h"], head + ["-h"] + tail, argv + ["--help"],
                abbreviated, head + ["--"] + tail, argv + ["--"],
                argv + ["--bogus"], argv + ["--bogus=1"], argv + ["-x"],
                argv + ["extra"], argv + ["--=x"], head + ["--", "--=x"],
                ["--pretty"] + argv)


@pytest.mark.parametrize("argv", GOLDEN_ARGVS, ids=" ".join)
def test_direct_route_equals_the_main_parser(argv):
    for variant in _variants(argv):
        _assert_routes_agree(variant)


@pytest.mark.parametrize("argv", [[], ["--pretty"], ["-h"], ["--help"],
                                  ["--pretty", "-h"], ["--pret", "hn", "gl1: 0:1"],
                                  ["bogus"], ["bogus", "-h"], ["--"], ["--", "hn"],
                                  ["--=x"], ["hn"], ["hn", "--"], ["-x", "hn"],
                                  # argvs the option table declines
                                  ["pi1", "--family=gl", "--rank=4", "--rank=2"],
                                  ["pi1", "--family=gl", "--rank=2", "--levi=a1,2"],
                                  ["canon", "--family=gl", "--rank=2",
                                   "--deg=1,0", "--oracle=1"],
                                  ["canon", "--family=gl", "--rank=2", "--deg", ""],
                                  ["canon", "--family=gl", "--rank=2", "--deg", "-1 2"],
                                  ["strata", "--family=gl", "--rank=2", "--bound=1",
                                   "--fix_type=0"],
                                  ["--pretty", "--pretty", "pi1", "--family=gl",
                                   "--rank=3"],
                                  ["hn", ""],
                                  # and two it reads: an empty --dot=, and an
                                  # int of any Unicode digit
                                  ["strata", "--family=gl", "--rank=2",
                                   "--bound=1", "--dot="],
                                  ["pi1", "--family=gl", "--rank=\u0663"]],
                         ids=repr)
def test_direct_route_equals_the_main_parser_off_the_golden_set(argv):
    _assert_routes_agree(argv)


ARGV_TOKENS = st.sampled_from(
    ["hn", "canon", "strata", "check", "pi1", "vdeg", "semistable", "bogus",
     "gl2: 1:1,0:1", "--family=gl", "--family", "gl", "--fam=sp", "--rank",
     "2", "--rank=4", "--rank=2", "--deg=1,0", "--deg", "-1,0", "--oracle",
     "--orac", "--bound=1", "--levi", "a1,2", "--E=2,4", "--F=3,2",
     "--suite=hn", "--cases=2", "--pretty", "--pre", "-h", "--help", "--he",
     "--", "-", "--=", "--=x", "-x", "--bogus", "-1", "--fix-type=0", "--dot",
     "--levi=a1,2", "--oracle=1", "", "-1 2", "--rank=\u0663", "--fix_type=0",
     "--dot="])


@settings(max_examples=300, deadline=None)
@given(st.lists(ARGV_TOKENS, max_size=7))
def test_direct_route_equals_the_main_parser_on_any_argv(argv):
    _assert_routes_agree(argv)


# ARGVS are mostly well-formed, so most of them take the option table's route
@settings(max_examples=300, deadline=None)
@given(ARGVS, st.booleans())
def test_direct_route_equals_the_main_parser_on_command_argvs(argv, pretty):
    _assert_routes_agree(["--pretty", *argv] if pretty else list(argv))


def test_well_formed_argvs_never_build_argparse():
    # every golden argv that exits 0, in a fresh process
    ok = [case["argv"] for case in GOLDEN if case["code"] == 0]
    proc = _run_optimized(
        "import contextlib, io, sys\n"
        "import hnbundles.cli as cli\n"
        f"for argv in {ok!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        if cli.run_command(argv):\n"
        "            sys.exit(f'exit on {argv}')\n"
        "print(cli.build_parser.cache_info().currsize)\n")
    assert proc.stdout.split() == ["0"], proc.stderr


JSON_LEAVES = (st.none() | st.booleans() | st.integers()
               | st.integers(-(10**60), 10**60) | st.text()
               | st.text(alphabet=st.characters(max_codepoint=0x1F)))
# the types a document holds: str, int, bool, None, and dicts with str
# keys and lists of them
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_json_writer_equals_json_dumps(value):
    assert hnbundles.cli._json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [(1, 2), 1.5, collections.OrderedDict(a=1),
                                   [{"a": (1,)}]], ids=repr)
def test_json_writer_refuses_other_types(value):
    with pytest.raises(TypeError, match="a document holds no"):
        hnbundles.cli._json(value)
