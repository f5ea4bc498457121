import ast
from pathlib import Path

import pytest

import hnbundles

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "hnbundles").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))
# the package's __init__ imports only to re-export
SKIP = {ROOT / "src" / "hnbundles" / "__init__.py"}
# the root table, which the tests keep as the oracle for the closed forms
# read off the Levi blocks, the root lists it is built from, and the
# determinant-line route of the vertical degree, the oracle for its closed
# form
ORACLE_ONLY = {"_root_supports", "_build_supports", "_cached_supports",
               "_root_split", "ROOT_TABLE_GUARD", "vertical_degree_composite",
               "simple_roots", "positive_roots", "all_roots", "is_root",
               "coroot"}


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


def names_used(source):
    """Every name a module binds, reads, imports or reaches as an
    attribute."""
    return names_in(ast.parse(source))


def names_in(tree):
    """names_used of one parsed node and everything under it."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


def test_the_scan_finds_an_oracle_name():
    assert names_used("from x import _root_split as s\n") >= {"_root_split"}
    assert names_used("import p\np._cached_supports(f)\n") >= {"_cached_supports"}
    assert names_used("def _build_supports(f): pass\n") >= {"_build_supports"}
    assert names_used("from .rootsys import positive_roots\n") & ORACLE_ONLY \
        == {"positive_roots"}


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "hnbundles").glob("*.py")),
                         ids=lambda p: p.name)
def test_production_names_no_root_table(path):
    assert names_used(path.read_text()) & ORACLE_ONLY == set()


def parity_sites(source):
    """Lines that take x.r % 2 outside the body of a class GroupFamily,
    the one place that reads the Cartan type off the parity of r."""
    def walk(node):
        if isinstance(node, ast.ClassDef) and node.name == "GroupFamily":
            return
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod) \
                and isinstance(node.left, ast.Attribute) and node.left.attr == "r" \
                and isinstance(node.right, ast.Constant) and node.right.value == 2:
            yield node.lineno
        for child in ast.iter_child_nodes(node):
            yield from walk(child)
    return sorted(walk(ast.parse(source)))


# the family kinds, as rootsys names them
KIND_CONSTANTS = {"GL", "SL", "SP", "SO"}


def kind_sites(source):
    """Lines that read an attribute named kind or import a family kind."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "kind":
            lines.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(
                alias.name in KIND_CONSTANTS for alias in node.names):
            lines.add(node.lineno)
    return sorted(lines)


def test_the_scans_find_a_parity_test_and_a_kind():
    source = ("from .rootsys import A, SO\n"
              "class GroupFamily:\n"
              "    def f(self):\n"
              "        return self.r % 2\n"
              "def g(family, b):\n"
              "    return family.r % 2 == 0 or b.rank % 2 or family.r % 3\n"
              "def h(family):\n"
              "    return family.kind, family.cartan_type\n")
    assert parity_sites(source) == [6]
    assert kind_sites(source) == [1, 8]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "hnbundles").glob("*.py")),
                         ids=lambda p: p.name)
def test_only_group_family_reads_the_parity_of_r(path):
    assert parity_sites(path.read_text()) == []


SO2_REFUSAL = "SO(2) has no usable root system"


def so2_refusal_sites(source):
    """(line, in GroupFamily.__post_init__) for each string constant, an
    f-string's text included, that holds the SO(2) refusal."""
    def walk(node, inside):
        if isinstance(node, ast.ClassDef):
            inside = node.name == "GroupFamily"
        elif isinstance(node, ast.FunctionDef):
            inside = inside and node.name == "__post_init__"
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and SO2_REFUSAL in node.value:
            yield node.lineno, inside
        for child in ast.iter_child_nodes(node):
            yield from walk(child, inside)
    return sorted(walk(ast.parse(source), False))


def test_the_scan_finds_a_planted_so2_refusal():
    source = ("class GroupFamily:\n"
              "    def __post_init__(self):\n"
              "        raise E('SO(2) has no usable root system')\n"
              "    def require(self):\n"
              "        raise E('SO(2) has no usable root system')\n"
              "def f(family):\n"
              "    raise E(f'{family}: SO(2) has no usable root system')\n")
    assert so2_refusal_sites(source) == [(3, True), (5, False), (7, False)]


def test_only_group_family_refuses_so2():
    # the family decides its root system where it is built, so no other
    # function re-checks it
    sites = [(path.name, inside)
             for path in sorted((ROOT / "src" / "hnbundles").glob("*.py"))
             for _, inside in so2_refusal_sites(path.read_text())]
    assert sites == [("rootsys.py", True)]


# the HN quotient rule that Filtration and IsotropicFiltration both keep,
# by its two messages: a second copy of the rule drifts from the first
QUOTIENT_RULE = ("are not strictly decreasing", "HN quotients must be semistable")


def message_count(source, message):
    """String constants of the source that hold message.  The parser joins
    adjacent literals, so a message split across lines counts once."""
    return sum(isinstance(node, ast.Constant) and isinstance(node.value, str)
               and message in node.value for node in ast.walk(ast.parse(source)))


def test_the_scan_counts_a_split_message_once():
    source = ('raise E(f"slopes ({s}) are not "\n'
              '        "strictly decreasing")\n'
              'x = "are not strictly decreasing"\n')
    assert message_count(source, "are not strictly decreasing") == 2


def test_the_hn_quotient_rule_lives_in_one_place():
    sources = {p.name: p.read_text()
               for p in sorted((ROOT / "src" / "hnbundles").glob("*.py"))}
    for message in QUOTIENT_RULE:
        assert [name for name, source in sources.items()
                for _ in range(message_count(source, message))] == ["hnfilt.py"]
    assert not any("_require_decreasing" in s for s in sources.values())


def test_parabolic_reads_no_kind():
    assert kind_sites((ROOT / "src" / "hnbundles" / "parabolic.py").read_text()) == []


def test_the_scan_finds_a_planted_kind_constant():
    source = ("from .rootsys import D, SO as so, GroupFamily\n"
              "from . import rootsys\n"
              "flag = b.kind == rootsys.GL or family.cartan_type == D\n")
    assert names_used(source) & KIND_CONSTANTS == {"SO", "GL"}


def test_hnfilt_reads_the_kind_through_its_family():
    # hn_filtration_isotropic reads the bundle's family and its Cartan type
    # and dimension, so that the family alone decides its root system and
    # refuses SO below rank 3
    source = (ROOT / "src" / "hnbundles" / "hnfilt.py").read_text()
    assert names_used(source) & KIND_CONSTANTS == set()


def family_derivation_sites(source):
    """Lines that call GroupFamily(x.kind, x.rank), or GroupFamily(K,
    x.rank) with K a family kind: a bundle's family, built from the
    bundle."""
    def derives(node):
        if not (isinstance(node, ast.Call) and len(node.args) == 2 and getattr(
                node.func, "id", getattr(node.func, "attr", None)) == "GroupFamily"):
            return False
        kind, rank = node.args
        return getattr(rank, "attr", None) == "rank" and (
            getattr(kind, "attr", None) == "kind" or getattr(kind, "id", None)
            in KIND_CONSTANTS)
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if derives(node))


def test_the_scan_finds_a_planted_family_derivation():
    source = ("def f(b, spec, args):\n"
              "    family = GroupFamily(b.kind, b.rank)\n"
              "    sp = rootsys.GroupFamily(spec.bundle.kind, spec.bundle.rank)\n"
              "    gl = GroupFamily(GL, b.rank)\n"
              "    return GroupFamily(args.family, args.rank), b.family\n")
    assert family_derivation_sites(source) == [2, 3, 4]


def test_only_the_bundle_model_derives_a_bundles_family():
    # the bundle's family property is the one derivation: hn_type, the
    # isotropic HN filtration, the spec echo and the hn suite read it
    counts = {path.name: len(family_derivation_sites(path.read_text()))
              for path in sorted((ROOT / "src" / "hnbundles").glob("*.py"))}
    assert {name: n for name, n in counts.items() if n} == {"bundle.py": 1}


def command_key_sites(source):
    """(line, enclosing function or None) for each "command" key the
    source writes: a dict display's key, a subscript store or a dict()
    keyword."""
    def keys(node):
        if isinstance(node, ast.Dict):
            return [getattr(k, "value", None) for k in node.keys]
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            return [getattr(node.slice, "value", None)]
        if isinstance(node, ast.keyword):
            return [node.arg]
        return []

    def walk(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if "command" in keys(node):
            yield node.lineno, function
        for child in ast.iter_child_nodes(node):
            yield from walk(child, function)
    return sorted(walk(ast.parse(source), None), key=lambda site: site[0])


def test_the_scan_finds_a_planted_command_key():
    source = ("def _cmd_a(args):\n"
              "    return {'command': 'a', 'x': 1}\n"
              "def _cmd_b(args):\n"
              "    doc = {'spec': args.command}\n"
              "    doc['command'] = 'b'\n"
              "    return dict(doc, command='b')\n"
              "def _answer(args):\n"
              "    return {'command': args.cmd, **args.fn(args)}\n")
    assert command_key_sites(source) == [
        (2, "_cmd_a"), (5, "_cmd_b"), (6, "_cmd_b"), (8, "_answer")]


def test_only_the_answer_names_the_command():
    # _answer leads every document with its command's name, so that no
    # _cmd_ function writes it
    source = (ROOT / "src" / "hnbundles" / "cli.py").read_text()
    assert [function for _, function in command_key_sites(source)] == ["_answer"]


# the test oracles of dominance and of the forced index, and the sign fast
# path they check: the simple-root signs, which an HNType keeps, and the
# index a CanonicalReduction reads off them
SIGN_ORACLES = {"is_dominant", "forced_index"}
SIGN_FAST_PATHS = {"_simple_root_signs", "signs", "HNType", "CanonicalReduction",
                   "stratum_label", "canonical_reduction"}


def test_the_scan_finds_a_planted_sign_fast_path():
    source = ("from hnbundles.rootsys import _simple_root_signs as s\n"
              "def is_dominant(family, v):\n"
              "    return -1 not in HNType(family, v).signs\n"
              "def forced_index(family, mu):\n"
              "    return canon.stratum_label(family, mu).index\n")
    assert "_simple_root_signs" in names_used(source)
    found = function_names(source, SIGN_ORACLES)
    assert {name: found[name] & SIGN_FAST_PATHS for name in SIGN_ORACLES} == {
        "is_dominant": {"HNType", "signs"}, "forced_index": {"stratum_label"}}


def test_the_test_oracles_read_no_sign_fast_path():
    # is_dominant and forced_index read simple_root_values, the closed form
    # the comparison of coordinates replaced, so that the fast path they
    # check is not its own oracle
    source = (ROOT / "tests" / "oracles.py").read_text()
    assert "_simple_root_signs" not in names_used(source)
    found = function_names(source, SIGN_ORACLES)
    assert {name: found[name] & SIGN_FAST_PATHS for name in SIGN_ORACLES} == \
        dict.fromkeys(SIGN_ORACLES, set())


# the bundle classes of one kind each: a bundle names its kind, and
# bundle._BUNDLE_OF_KIND maps a kind to its class, so no other module picks
# the class by the kind or the kind by the class
KIND_CLASSES = {"SlBundle", "SpBundle", "SoBundle"}
# __init__ re-exports them, and the hn suite of oracles builds an SpBundle
# as its input
KIND_CLASS_READERS = {"bundle.py", "__init__.py", "oracles.py"}


@pytest.mark.parametrize("path", [p for p in sorted((ROOT / "src" / "hnbundles").glob("*.py"))
                                  if p.name not in KIND_CLASS_READERS],
                         ids=lambda p: p.name)
def test_only_the_bundle_model_names_a_kind_class(path):
    assert names_used(path.read_text()) & KIND_CLASSES == set()


# the names math may lend production code: integer functions only
MATH_NAMES = {"comb", "gcd", "lcm"}


def inexact_sites(source):
    """(line, rule) for each construct that could leave exact arithmetic
    or vanish under python -O: true division, a float or complex
    constant, the names float and round, an import from math of anything
    but MATH_NAMES (the whole module included), and an assert."""
    sites = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            sites.add((node.lineno, "division"))
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
                         "if x < 0:\n    raise ValueError('x / y')\n") == []


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "hnbundles").glob("*.py")),
                         ids=lambda p: p.name)
def test_production_stays_exact(path):
    assert inexact_sites(path.read_text()) == []


def oracle_import_sites(source):
    """(line, enclosing function or None) for each import of the module
    hnbundles.oracles, relative or absolute, importlib's included."""
    def imports_oracles(node):
        if isinstance(node, ast.Import):
            return any(alias.name == "hnbundles.oracles" for alias in node.names)
        if isinstance(node, ast.ImportFrom):
            base = "hnbundles" if node.level else ""
            base = ".".join(filter(None, (base, node.module)))
            return base == "hnbundles.oracles" or base == "hnbundles" and any(
                alias.name == "oracles" for alias in node.names)
        return isinstance(node, ast.Call) and any(
            isinstance(arg, ast.Constant) and arg.value in (
                "hnbundles.oracles", ".oracles") for arg in node.args)

    def walk(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if imports_oracles(node):
            yield node.lineno, function
        for child in ast.iter_child_nodes(node):
            yield from walk(child, function)
    return sorted(walk(ast.parse(source), None), key=lambda site: site[0])


def test_the_scan_finds_a_planted_oracle_import():
    source = ("from .oracles import _SUITES\n"
              "import hnbundles.oracles\n"
              "from . import bundle, oracles as o\n"
              "from hnbundles import bundle\n"
              "def f():\n"
              "    from .oracles import x\n"
              "def _cmd_check(args):\n"
              "    import importlib\n"
              "    importlib.import_module('hnbundles.oracles')\n"
              "class C:\n"
              "    def g(self):\n"
              "        from hnbundles.oracles import y\n"
              "import oracles\n")
    assert oracle_import_sites(source) == [
        (1, None), (2, None), (3, None), (6, "f"), (9, "_cmd_check"),
        (12, "g")]


def test_no_production_module_loads_the_oracles():
    # cli loads them for check alone, and the package for its one oracle
    # export, each on first use
    sites = {path.name: [function for _, function in oracle_import_sites(
                 path.read_text())]
             for path in sorted((ROOT / "src" / "hnbundles").glob("*.py"))
             if path.name != "oracles.py"}
    assert {name: found for name, found in sites.items() if found} == {
        "__init__.py": ["__getattr__"], "cli.py": ["_cmd_check"]}


def function_names(source, functions):
    """names_in of each top-level or nested function of that name, by name."""
    return {node.name: names_in(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name in functions}


# each oracle and the fast-path names it must not reach, so the two
# routes check each other
ORACLE_INDEPENDENCE = {
    "hull_membership_lp_oracle": {"_order_key", "hull_membership"},
    "_phase_one_feasible": {"_order_key", "hull_membership"},
    "_hn_candidates": {"hn_filtration", "_group_by_slope", "PlainBundle",
                       "is_semistable"},
}


def test_the_scan_finds_a_planted_fast_path_name():
    source = ("def hull_membership_lp_oracle(family, mu, nu):\n"
              "    return hull_membership(family, mu, nu)\n"
              "def _phase_one_feasible(columns, target):\n"
              "    return strata._order_key(columns)\n"
              "def _hn_candidates(atoms):\n"
              "    from .hnfilt import _group_by_slope\n"
              "    def walk(left):\n"
              "        return is_semistable(PlainBundle(left))\n"
              "def hn_uniqueness_oracle(b):\n"
              "    return hn_filtration(b)\n")
    found = function_names(source, ORACLE_INDEPENDENCE)
    assert {name: found[name] & fast
            for name, fast in ORACLE_INDEPENDENCE.items()} == {
        "hull_membership_lp_oracle": {"hull_membership"},
        "_phase_one_feasible": {"_order_key"},
        "_hn_candidates": {"_group_by_slope", "PlainBundle", "is_semistable"}}


def test_the_oracles_name_no_fast_path():
    source = (ROOT / "src" / "hnbundles" / "oracles.py").read_text()
    found = function_names(source, ORACLE_INDEPENDENCE)
    assert {name: found[name] & fast
            for name, fast in ORACLE_INDEPENDENCE.items()} == dict.fromkeys(
        ORACLE_INDEPENDENCE, set())


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
