import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "hnbundles").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))
# the package's __init__ imports only to re-export
SKIP = {ROOT / "src" / "hnbundles" / "__init__.py"}
# the root table, which the tests keep as the oracle for the closed forms
# read off the Levi blocks
ORACLE_ONLY = {"_root_supports", "_build_supports", "_cached_supports",
               "_root_split", "ROOT_TABLE_GUARD"}


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
    names = set()
    for node in ast.walk(ast.parse(source)):
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


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "hnbundles").glob("*.py")),
                         ids=lambda p: p.name)
def test_production_names_no_root_table(path):
    assert names_used(path.read_text()) & ORACLE_ONLY == set()
