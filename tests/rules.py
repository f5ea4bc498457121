"""The package's design rules as data.  Each row of RULES states a rule,
its planted violation with the sites that source yields, and the sites
of the tree it allows, exactly.  A site is (line, dotted name of the
innermost def or class, a def counting as inside itself, or None); on
the tree the file's name stands for the line.  A row's patterns hold in
each file it scans; within adds patterns inside each def it names, which
must exist.  A row's kind says what its patterns match: name, a name
used (bare, an attribute, a def or class, an import); text, the source
text, comments included; string, a string constant, adjacent literals
joined; import, an import of the module, relative, absolute or by
importlib; key, a dict key written (a display's, a subscript store, a
keyword, setdefault's); shape, an expression of the pattern's shape: _
is any expression, a set display any of its elements, a name that name
used, and a call's keywords bind to positions by the callee's FIELDS.
"""

import ast
from collections import Counter, namedtuple
from functools import cache
from pathlib import Path

from hnbundles.rootsys import GroupFamily

ROOT = Path(__file__).resolve().parent.parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FIELDS = {"GroupFamily": GroupFamily.__match_args__}
Rule = namedtuple("Rule", "id statement kind patterns planted planted_sites expected "
                  "files within", defaults=((), ("src/hnbundles/*.py",), {}))


def walk(node, scope=None):
    """node and each node under it, with its site's def or class."""
    if isinstance(node, DEFS):
        scope = f"{scope}.{node.name}" if scope else node.name
    yield node, scope
    for child in ast.iter_child_nodes(node):
        yield from walk(child, scope)


def _used(node):
    if isinstance(node, (ast.alias, *DEFS)):
        return node.name.split(".")[-1]
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _imports(node, module):
    if isinstance(node, ast.Import):
        return module in [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = ".".join(filter(None, ("hnbundles" if node.level else "", node.module)))
        return module in [base] + [f"{base}.{alias.name}" for alias in node.names]
    return isinstance(node, ast.Call) and any(getattr(arg, "value", None) in (
        module, module.removeprefix("hnbundles")) for arg in node.args)


def _keys(node):
    if isinstance(node, ast.keyword):
        return [ast.Constant(node.arg)]
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
        return [node.slice]
    if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "setdefault":
        return node.args[:1]
    return node.keys if isinstance(node, ast.Dict) else []


@cache
def _shape(pattern):
    return ast.parse(pattern, mode="eval").body


def _fit(pattern, node):
    if isinstance(pattern, ast.Name):
        return pattern.id in ("_", _used(node))
    if isinstance(pattern, ast.Set):
        return any(_fit(option, node) for option in pattern.elts)
    if type(node) is not type(pattern):
        return False
    if isinstance(pattern, ast.Call):
        # the call's arguments in order, its keywords bound to positions
        rest = FIELDS.get(_used(node.func), ())[len(node.args):]
        named = {keyword.arg: keyword.value for keyword in node.keywords}
        return set(named) <= set(rest) and _fit(pattern.func, node.func) and _fit(
            pattern.args, node.args + [named[name] for name in rest if name in named])
    if isinstance(pattern, list):
        return len(pattern) == len(node) and all(map(_fit, pattern, node))
    if not isinstance(pattern, ast.AST):
        return pattern == node
    return all(_fit(value, getattr(node, name))
               for name, value in ast.iter_fields(pattern) if name != "ctx")


# how many of its patterns each kind but text finds at one node
MATCHERS = {
    "name": lambda node, names: _used(node) in names,
    "string": lambda node, texts: isinstance(node, ast.Constant) and isinstance(
        node.value, str) and any(text in node.value for text in texts),
    "import": lambda node, modules: any(_imports(node, module) for module in modules),
    "key": lambda node, keys: sum(getattr(key, "value", None) in keys for key in _keys(node)),
    "shape": lambda node, shapes: any(_fit(_shape(shape), node) for shape in shapes),
}


def sites(rule, source, file=None):
    """The sites of source that rule finds, file for line if given, as a Counter."""
    nodes, found = list(walk(ast.parse(source))), Counter()
    defs = [(node, scope) for node, scope in nodes if isinstance(node, DEFS)]
    if missing := set(rule.within) - {node.name for node, _ in defs}:
        raise LookupError(f"{rule.id}: no def {sorted(missing)}")
    if rule.kind == "text":
        for line, text in enumerate(source.splitlines(), 1):
            if count := sum(map(text.count, rule.patterns)):
                found[file or line, max((scope for node, scope in defs if node.lineno <= line
                                         <= node.end_lineno), key=len, default=None)] += count
        return found
    for node, scope in nodes:
        inside = (rule.within.get(name, ()) for name in (scope or "").split("."))
        if count := MATCHERS[rule.kind](node, sum(inside, rule.patterns)):
            found[file or node.lineno, scope] += count
    return found


def paths(rule):
    """The files of the tree that rule scans."""
    return sorted({path for pattern in rule.files for path in ROOT.glob(pattern)})


RULES = (
    Rule("oracle-only", "production names no root table, root list or determinant-line "
         "degree: the tests keep them as the oracles of the closed forms", "name",
         ("_root_supports", "_build_supports", "_cached_supports", "_root_split",
          "ROOT_TABLE_GUARD", "vertical_degree_composite", "simple_roots",
          "positive_roots", "all_roots", "is_root", "coroot"),
         "from x import _root_split as s\n"
         "import p\n"
         "p._cached_supports(f)\n"
         "def _build_supports(f): pass\n"
         "from .rootsys import positive_roots\n",
         ((1, None), (3, None), (4, "_build_supports"), (5, None))),
    Rule("parity", "only GroupFamily reads the Cartan type off the parity of r",
         "shape", ("_.r % 2",),
         "from .rootsys import A, SO\n"
         "class GroupFamily:\n"
         "    def f(self):\n"
         "        return self.r % 2\n"
         "def g(family, b):\n"
         "    return family.r % 2 == 0 or b.rank % 2 or family.r % 3\n"
         "def h(family):\n"
         "    return family.kind, family.cartan_type\n",
         ((4, "GroupFamily.f"), (6, "g")),
         expected=(("rootsys.py", "GroupFamily.__post_init__"),) * 2),
    Rule("so2", "only GroupFamily.__post_init__ refuses SO(2): a family decides its root "
         "system once, where it is built", "string", ("SO(2) has no usable root system",),
         "class GroupFamily:\n"
         "    def __post_init__(self):\n"
         "        raise E('SO(2) has no usable root system')\n"
         "    def require(self):\n"
         "        raise E('SO(2) has no usable root system')\n"
         "def f(family):\n"
         "    raise E(f'{family}: SO(2) has no usable root system')\n",
         ((3, "GroupFamily.__post_init__"), (5, "GroupFamily.require"), (7, "f")),
         expected=(("rootsys.py", "GroupFamily.__post_init__"),)),
    Rule("quotient-slopes", "only hnfilt._check_quotients, which both filtrations share, "
         "refuses slopes that do not decrease", "string", ("are not strictly decreasing",),
         'raise E(f"slopes ({s}) are not "\n'
         '        "strictly decreasing")\n'
         'x = "are not strictly decreasing"\n', ((1, None), (3, None)),
         expected=(("hnfilt.py", "_check_quotients"),)),
    Rule("quotient-semistable", "only hnfilt._check_quotients refuses an unstable quotient",
         "string", ("HN quotients must be semistable",),
         "def f(q):\n"
         "    raise E(f'{q}: HN quotients must be semistable')\n", ((2, "f"),),
         expected=(("hnfilt.py", "_check_quotients"),)),
    Rule("kinds", "parabolic and hnfilt read no kind and name no family kind: the "
         "isotropic HN filtration reads its family's Cartan type and dimension", "shape",
         ("_.kind", "{GL, SL, SP, SO}"),
         "from .rootsys import D, SO as so, GroupFamily\n"
         "from . import rootsys\n"
         "flag = b.kind == rootsys.GL or family.cartan_type == D\n",
         ((1, None), (3, None), (3, None)),
         files=("src/hnbundles/hnfilt.py", "src/hnbundles/parabolic.py")),
    Rule("family", "only PlainBundle.family derives a bundle's family; hn_type, the "
         "isotropic HN filtration, the spec echo and the hn suite read it", "shape",
         ("GroupFamily({_.kind, GL, SL, SP, SO}, _.rank)",),
         "def f(b, spec, args):\n"
         "    family = GroupFamily(b.kind, b.rank)\n"
         "    sp = rootsys.GroupFamily(spec.bundle.kind, spec.bundle.rank)\n"
         "    gl = GroupFamily(GL, b.rank)\n"
         "    kw = GroupFamily(kind=b.kind, r=b.rank)\n"
         "    mixed = GroupFamily(b.kind, r=b.rank)\n"
         "    return GroupFamily(args.family, args.rank), b.family\n",
         tuple((line, "f") for line in range(2, 7)),
         expected=(("bundle.py", "PlainBundle.family"),)),
    Rule("command", "only cli._answer writes a document's command", "key", ("command",),
         "def _cmd_a(args):\n"
         "    return {'command': 'a', 'x': 1}\n"
         "def _cmd_b(args):\n"
         "    doc = {'spec': args.command}\n"
         "    doc['command'] = 'b'\n"
         "    return dict(doc, command='b')\n"
         "def _answer(args):\n"
         "    return {'command': args.cmd, **args.fn(args)}\n"
         "def _cmd_c(args):\n"
         "    doc.setdefault('command', 'c')\n",
         ((2, "_cmd_a"), (5, "_cmd_b"), (6, "_cmd_b"), (8, "_answer"), (10, "_cmd_c")),
         expected=(("cli.py", "_answer"),)),
    # is_dominant and forced_index read simple_root_values instead, so that
    # the fast path they check is not its own oracle
    Rule("sign-oracles", "the test oracles read no simple-root signs, and the oracles of "
         "dominance and the forced index no sign fast path", "name",
         ("_simple_root_signs",),
         "from hnbundles.rootsys import _simple_root_signs as s\n"
         "def is_dominant(family, v):\n"
         "    return -1 not in HNType(family, v).signs\n"
         "def forced_index(family, mu):\n"
         "    return canon.stratum_label(family, mu).index\n",
         ((1, None), (3, "is_dominant"), (3, "is_dominant"), (5, "forced_index")),
         files=("tests/oracles.py",), within=dict.fromkeys(
             ("is_dominant", "forced_index"), ("_simple_root_signs", "signs", "HNType",
                                              "CanonicalReduction", "stratum_label",
                                              "canonical_reduction"))),
    # bundle._BUNDLE_OF_KIND maps a kind to its class; __init__ re-exports
    # the classes, and the hn suite of oracles builds an SpBundle
    Rule("kind-classes", "only the bundle model picks a bundle class by its kind or "
         "a kind by its class", "name", ("SlBundle", "SpBundle", "SoBundle"),
         "from .bundle import SpBundle\n"
         "def f(kind):\n"
         "    return {'so': bundle.SoBundle}[kind]\n", ((1, None), (3, "f")),
         expected=(("__init__.py", None),) * 3 + (("bundle.py", None),) * 3 + (
             ("bundle.py", "SlBundle"), ("bundle.py", "SoBundle"), ("bundle.py", "SpBundle"),
             ("bundle.py", "adjoint"), ("bundle.py", "adjoint"), ("oracles.py", None),
             ("oracles.py", "_suite_hn"))),
    Rule("oracle-imports", "only check and the package's oracle export load the "
         "oracles, on first use", "import", ("hnbundles.oracles",),
         "from .oracles import _SUITES\n"
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
         "import oracles\n",
         ((1, None), (2, None), (3, None), (6, "f"), (9, "_cmd_check"), (12, "C.g")),
         expected=(("__init__.py", "__getattr__"), ("cli.py", "_cmd_check"))),
    Rule("oracle-independence", "each oracle names none of the fast paths it checks, "
         "so that the two routes check each other", "name", (),
         "def hull_membership_lp_oracle(family, mu, nu):\n"
         "    from .rootsys import _stratum_key as key\n"
         "    return hull_membership(family, mu, nu)\n"
         "def _phase_one_feasible(columns, target):\n"
         "    return strata._order_key(columns)\n"
         "def _hn_candidates(atoms):\n"
         "    from .hnfilt import _group_by_slope\n"
         "    def walk(left):\n"
         "        return is_semistable(PlainBundle(left))\n"
         "def hn_uniqueness_oracle(b):\n"
         "    return hn_filtration(b)\n",
         ((2, "hull_membership_lp_oracle"), (3, "hull_membership_lp_oracle"),
          (5, "_phase_one_feasible"), (7, "_hn_candidates"), (9, "_hn_candidates.walk"),
          (9, "_hn_candidates.walk")),
         files=("src/hnbundles/oracles.py",), within={
             "hull_membership_lp_oracle": ("_order_key", "_stratum_key", "hull_membership"),
             "_phase_one_feasible": ("_order_key", "_stratum_key", "hull_membership"),
             "_hn_candidates": ("hn_filtration", "_group_by_slope", "PlainBundle",
                                "is_semistable")}),
    # with the exactness scan's assert check (inexact_sites), the static
    # half of python -O's contract; CI's Tier-1 run under -O is the dynamic one
    Rule("optimize", "production reads neither __debug__ nor sys.flags.optimize, and "
         "test_production_stays_exact finds no assert: python -O changes nothing", "name",
         ("__debug__", "optimize"),
         "if __debug__:\n"
         "    raise ValueError('checked only without -O')\n"
         "import sys\n"
         "def f():\n"
         "    return sys.flags.optimize\n",
         ((1, None), (5, "f"))),
    Rule("retired", "production names no _require_decreasing, Smith form or LatticeTower",
         "text", ("_require_decreasing", "smith_normal_form", "LatticeTower"),
         "# _require_decreasing\n"
         "from .oracles import smith_normal_form\n"
         "class T:\n"
         "    '''not a LatticeTower'''\n", ((1, None), (2, None), (4, "T"))),
)
