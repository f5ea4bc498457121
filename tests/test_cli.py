import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

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
