import ast
from collections import Counter

import pytest

import hnbundles
from rules import ROOT, RULES, paths, sites

FILES = sorted((ROOT / "src" / "hnbundles").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))
# the package's __init__ imports only to re-export
SKIP = {ROOT / "src" / "hnbundles" / "__init__.py"}


def unused_imports(source):
    """Names an import binds that the module never reads.  A name counts
    as read when it appears as a bare name anywhere in the module, the
    base of an attribute access (module.name) included."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # import a.b binds a
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c, d as e\nimport x.y\n"
                          "print(c, x)\n") == [(1, "os"), (2, "e")]


@pytest.mark.parametrize("path", [p for p in FILES if p not in SKIP],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("rule, path", [pytest.param(rule, path, id=f"{rule.id}-{path.name}")
                                        for rule in RULES for path in paths(rule)])
def test_the_tree_keeps_the_rule(rule, path):
    assert {file for file, _ in rule.expected} <= {other.name for other in paths(rule)}
    assert sites(rule, path.read_text(), path.name) == Counter(
        site for site in rule.expected if site[0] == path.name), rule.statement


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.id)
def test_the_rule_finds_its_planted_violation(rule):
    assert sites(rule, rule.planted) == Counter(rule.planted_sites), rule.statement


def test_a_stale_row_fails():
    # a row fails when the code drops an allowed site or a def it scans within
    row = {rule.id: rule for rule in RULES}
    source = (ROOT / "src" / "hnbundles" / "oracles.py").read_text()
    assert sites(row["kind-classes"], source, "oracles.py") == Counter(
        site for site in row["kind-classes"].expected if site[0] == "oracles.py")
    assert not sites(row["kind-classes"], source.replace("SpBundle", "Bundle"))
    with pytest.raises(LookupError):
        sites(row["oracle-independence"], source.replace("_hn_candidates", "_hn"))


# the names math may lend production code: integer functions only
MATH_NAMES = {"comb", "gcd", "lcm"}


def _exponent(node):
    """The exponent of a power (**, **= or pow without a modulus), or None
    for any other node: pow(a, -1, m) is an exact int."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
        return node.right if isinstance(node, ast.BinOp) else node.value
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "pow":
        bound = dict(zip(("base", "exp", "mod"), node.args))
        bound.update((keyword.arg, keyword.value) for keyword in node.keywords)
        return None if "mod" in bound else bound.get("exp")
    return None


def inexact_sites(source):
    """(line, rule) for each construct that could leave exact arithmetic
    or vanish under python -O: true division, a power whose exponent is
    not a nonnegative int literal, a float or complex constant, the names
    float and round, an import from math of anything but MATH_NAMES (the
    whole module included), and an assert."""
    sites = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            sites.add((node.lineno, "division"))
        elif (exponent := _exponent(node)) is not None and not (
                isinstance(exponent, ast.Constant) and type(exponent.value) is int
                and exponent.value >= 0):
            sites.add((node.lineno, "power"))
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            sites.add((node.lineno, "float constant"))
        elif isinstance(node, ast.Name) and node.id in ("float", "round"):
            sites.add((node.lineno, "float name"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math" and any(
                alias.name not in MATH_NAMES for alias in node.names):
            sites.add((node.lineno, "math import"))
        elif isinstance(node, ast.Import) and any(
                alias.name == "math" for alias in node.names):
            sites.add((node.lineno, "math import"))
        elif isinstance(node, ast.Assert):
            sites.add((node.lineno, "assert"))
    return sorted(sites)


@pytest.mark.parametrize("source, site", [
    ("x = a / b\n", (1, "division")),
    ("x = 1\nx /= 2\n", (2, "division")),
    ("x = 2 ** -1\n", (1, "power")),
    ("x = pow(3, -2)\n", (1, "power")),
    ("x = a ** k\n", (1, "power")),
    ("x = 1\nx **= -1\n", (2, "power")),
    ("x = 0.5\n", (1, "float constant")),
    ("x = 1j\n", (1, "float constant")),
    ("x = float(y)\n", (1, "float name")),
    ("x = round(y, 2)\n", (1, "float name")),
    ("from math import gcd, sqrt\n", (1, "math import")),
    ("import math\n", (1, "math import")),
    ("assert x > 0\n", (1, "assert")),
])
def test_the_exactness_scan_finds_a_planted_violation(source, site):
    assert inexact_sites(source) == [site]


def test_the_exactness_scan_passes_exact_code():
    assert inexact_sites("from math import comb, gcd, lcm\n"
                         "from fractions import Fraction\n"
                         "x = Fraction(a, b) + a // b + comb(4, 2)\n"
                         "y = pow(a, -1, m) + 2 ** 18 + 2 ** 21 + pow(2, 3)\n"
                         "if x < 0:\n    raise ValueError('x / y')\n") == []


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "hnbundles").glob("*.py")),
                         ids=lambda p: p.name)
def test_production_stays_exact(path):
    assert inexact_sites(path.read_text()) == []


def unread_public_names(sources, exported):
    """module.name of each public top-level def or class of sources, a dict
    of module name to source, that exported does not hold and that no
    source reads, as a bare name or as an attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [(module, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{module}.{name}" for module, name in defined
                  if name not in exported and name not in read)


def test_the_scan_finds_a_planted_public_helper():
    sources = {"a": ("def exported(): pass\n"
                     "def called(): pass\n"
                     "def reached(): pass\n"
                     "def imported(): pass\n"
                     "def helper(): pass\n"
                     "def _private(): pass\n"
                     "class Holder:\n"
                     "    def method(self): pass\n"),
               "b": ("from .a import called, imported\n"
                     "from . import a\n"
                     "x = called() or a.reached()\n")}
    assert unread_public_names(sources, {"exported"}) == [
        "a.Holder", "a.helper", "a.imported"]


# public names that production neither exports nor reads, each with the
# reader it is kept for
UNREAD_BUT_KEPT = {
    # bench/workloads.py reads it as the GL hull reference
    "strata.gl_dominance",
    # the Levi centre, which the rational HN types of ROADMAP item 5 will
    # read; CI runs it at GL100000 and on the SO200000 fork
    "lattice.levi_topological_type",
}


def test_production_publishes_only_the_package_contract():
    # every production module but oracles: a public helper that only the
    # tests read belongs in tests/oracles.py
    sources = {path.stem: path.read_text()
               for path in sorted((ROOT / "src" / "hnbundles").glob("*.py"))
               if path.name != "oracles.py"}
    assert unread_public_names(sources, set(hnbundles.__all__)) == sorted(
        UNREAD_BUT_KEPT)
