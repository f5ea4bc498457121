import argparse
import collections
import contextlib
import importlib
import io
import json
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import types

import pytest
from hypothesis import given, settings, strategies as st

import hnbundles.cli
from hnbundles.bundle import (Atom, PlainBundle, SlBundle, SpBundle,
                              bundle_from_degrees)
from hnbundles.cli import (SpecError, parse_bundle_spec, run_command,
                           serialize_bundle_spec)
from hnbundles.rootsys import GroupFamily


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
    assert so.bundle is None and so.degrees == (1, 0)
    sl = parse_bundle_spec("sl2: 1:1, -1:1")
    assert isinstance(sl.bundle, SlBundle)


def test_parse_errors():
    for bad in ["xx3: 1:1", "gl4 3:1", "gl4: 3:x", "gl4: 3:0",
                "gl4: 3:1 | z=2",          # zero block only for sp/so
                "sp3: 1:1",                # odd symplectic rank
                "sp4: -1:1 | z=2",         # nonpositive slope
                "sl2: 1:1, 0:1",           # nonzero total degree
                "gl4: 1:1",                # rank mismatch
                "gl3: deg=1,2",            # degree-list length
                "sl3: deg=1,1,1"]:
        with pytest.raises((SpecError, Exception)):
            parse_bundle_spec(bad)


def test_parse_serialize_round_trip():
    for text in ["gl4: 3:1, 1:2, -2:1", "sp4: 2:1 | z=2", "sp4: 2:1,1:1",
                 "so5: 1:2 | z=1", "so4: deg=1,0", "sl3: deg=2,-1,-1",
                 "sl2: 1:1, -1:1"]:
        spec = parse_bundle_spec(text)
        assert parse_bundle_spec(serialize_bundle_spec(spec)) == spec


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
    atoms = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 2)),
                          min_size=1, max_size=3))
    zero = draw(st.integers(0, 2)) * (2 if kind == "sp" else 1)
    r = 2 * sum(k for _, k in atoms) + zero
    if kind == "so" and r < 3:
        zero, r = zero + 1, r + 1
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

    for info in pkgutil.iter_modules(hnbundles.__path__):
        module = importlib.import_module(f"hnbundles.{info.name}")
        for name in ("all_roots", "positive_roots", "simple_roots"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)
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


def test_check_command(capsys):
    for suite in ("hn", "canon", "lattice"):
        code, out, _ = run(capsys, "check", "--suite", suite,
                           "--seed", "1", "--cases", "15")
        assert code == 0 and json.loads(out)["passed"] == 15
    code, out, _ = run(capsys, "check", "--suite", "hull",
                       "--seed", "1", "--cases", "30")
    assert code == 0 and json.loads(out)["passed"] >= 1


CANON_FAILURE = re.compile(
    r"^internal invariant breach: check canon failed at seed 1, case 0 "
    r"\((gl3|sp4|so5), input \(-?\d+(, -?\d+)*\)\): the canonical reduction "
    r"has adjoint degree -1000, the oracle maximum is -?\d+\n$")


def test_check_failure_names_the_case(capsys, monkeypatch):
    monkeypatch.setattr(hnbundles.cli, "ad_degree", lambda *args: -1000)
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
    script = ("import sys, hnbundles.cli as cli\n"
              "cli.ad_degree = lambda *args: -1000\n"
              "sys.exit(cli.run_command(['check', '--suite', 'canon',"
              " '--seed', '1', '--cases', '3']))\n")
    proc = _run_optimized(script)
    assert proc.returncode == 3 and proc.stdout == ""
    assert CANON_FAILURE.match(proc.stderr), proc.stderr


def test_hull_check_compares_the_lp_oracle(capsys, monkeypatch):
    monkeypatch.setattr(hnbundles.cli, "hull_membership", lambda *args: None)
    code, out, err = run(capsys, "check", "--suite", "hull",
                         "--seed", "1", "--cases", "3")
    assert code == 3 and out == ""
    assert re.match(r"^internal invariant breach: check hull failed at seed 1, "
                    r"case \d+ \(gl3, input mu=.*, nu=.*\): hull membership is "
                    r"None, the LP oracle says (True|False)\n$", err), err


# input checks, each with the exception it must raise also under python -O
OPTIMIZED_INPUT_CHECKS = """\
from hnbundles.canon import HNType
from hnbundles.parabolic import (ParabolicIndex, character_generators,
                                 is_dominant_character)
from hnbundles.rootsys import GroupFamily
from hnbundles.strata import StratumLabel, hull_membership, stratum_label
gl3, sp4 = GroupFamily("gl", 3), GroupFamily("sp", 4)
calls = [
    lambda: HNType(gl3, (1, 0)),
    lambda: HNType(gl3, (0, 1, 0)),
    lambda: stratum_label(gl3, (1, 0)),
    lambda: StratumLabel(gl3, HNType(gl3, (1, 0, 0)),
                         ParabolicIndex(gl3, frozenset())),
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
    assert proc.stdout.split() == ["ValueError"] * 8 + ["FamilyMismatch"] * 2


CONSTRUCTOR_CHECKS = """\
from hnbundles.bundle import Atom, PlainBundle
from hnbundles.canon import ad_degree
from hnbundles.hnfilt import Filtration, IsotropicFiltration
from hnbundles.lattice import FinAbGroup
from hnbundles.parabolic import ParabolicIndex
from hnbundles.rootsys import GroupFamily
low, high = PlainBundle((Atom(0, 1),)), PlainBundle((Atom(3, 1),))
calls = [
    lambda: Filtration((low, high)),
    lambda: IsotropicFiltration((high, low), ()),
    lambda: FinAbGroup(0, (3, 2)),
]
for call in calls:
    try:
        call()
        print("no error")
    except Exception as exc:
        print(type(exc).__name__)
gl3 = GroupFamily("gl", 3)
print(ad_degree(gl3, ParabolicIndex(gl3, {0}), (1, 0, 0)))
"""


def test_constructor_checks_survive_optimize():
    proc = _run_optimized(CONSTRUCTOR_CHECKS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ValueError"] * 3 + ["2"]


def test_parser_is_built_once(capsys, monkeypatch):
    builds = []

    def counted(*args, **kwargs):
        builds.append(kwargs)
        return argparse.ArgumentParser(*args, **kwargs)

    monkeypatch.setattr(hnbundles.cli, "argparse",
                        types.SimpleNamespace(ArgumentParser=counted))
    hnbundles.cli.build_parser.cache_clear()
    argvs = [["pi1", "--family", "gl", "--rank", "3"], ["bogus"],
             ["semistable", "so4: deg=1,0"], ["hn", "gl4: what"],
             ["canon", "--family", "gl", "--rank", "2", "--deg", "1,2"],
             ["pi1", "--family", "gl", "--rank", "3"]]
    try:
        assert [run(capsys, *argv)[0] for argv in argvs] == [0, 1, 0, 1, 0, 0]
        assert len(builds) == 1
        # one parser for every call, with a subcommand per table entry
        parser = hnbundles.cli.build_parser()
        assert hnbundles.cli.build_parser() is parser
        assert sorted(hnbundles.cli._COMMANDS) == [
            "canon", "check", "hn", "pi1", "semistable", "strata", "vdeg"]
        assert len(builds) == 1
    finally:
        hnbundles.cli.build_parser.cache_clear()
    # built on the first run_command, not on import
    proc = _run_optimized("import hnbundles.cli as cli\n"
                          "print(cli.build_parser.cache_info().currsize)\n")
    assert proc.stdout.split() == ["0"], proc.stderr


def test_only_invariant_breach_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(hnbundles.cli, "vertical_degree_composite",
                        lambda *args: 1000)
    code, out, err = run(capsys, "vdeg", "--family", "gl",
                         "--E", "2,4", "--F", "3,2")
    assert code == 3 and out == ""
    assert err == ("internal invariant breach: vertical degree routes "
                   "disagree: -8 != 1000\n")

    def stray(*args):
        raise AssertionError("not an invariant breach")

    monkeypatch.setattr(hnbundles.cli, "vertical_degree", stray)
    with pytest.raises(AssertionError):
        run_command(["vdeg", "--family", "gl", "--E", "2,4", "--F", "3,2"])


def test_byte_determinism(capsys):
    runs = [run(capsys, "canon", "--family", "so", "--rank", "5",
                "--deg", "2,1")[1] for _ in range(2)]
    assert runs[0] == runs[1]
    runs2 = [run(capsys, "strata", "--family", "sp", "--rank", "4",
                 "--bound", "1")[1] for _ in range(2)]
    assert runs2[0] == runs2[1]


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
    assert code5 == 2 and out5 == "" and "validation error: --bound" in err5
    code6, out6, err6 = run(capsys, "check", "--suite", "canon", "--cases=-2")
    assert code6 == 2 and out6 == "" and "validation error: --cases" in err6


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


def _assert_routes_agree(argv):
    reference = hnbundles.cli.build_parser().parse_args
    assert _parse_outcome(hnbundles.cli._parse, argv) == \
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
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(st.text(), children)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_json_writer_equals_json_dumps(value):
    assert hnbundles.cli._json(value) + "\n" == json.dumps(value, indent=2) + "\n"
    # a subclass of a container takes json.dumps's text at its level
    nested = [collections.OrderedDict(a=value, b=[value])]
    assert hnbundles.cli._json(nested) == json.dumps(nested, indent=2)
