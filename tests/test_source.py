from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "circuitsmith"
FILES = sorted(
    p for p in PACKAGE.rglob("*") if p.is_file() and "__pycache__" not in p.parts
)


def test_package_has_sources():
    assert any(p.suffix == ".py" for p in FILES)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_source_is_ascii(path):
    path.read_bytes().decode("ascii")


# A process-wide cache would keep every complex it saw alive for the life of
# the process; per-complex state lives on the complex and dies with it.
PROCESS_CACHES = {"cache", "lru_cache"}
ALLOWED_CACHES = {("cli.py", "build_parser")}


def _process_cache_uses(path):
    """(module, where) for every use of a functools process-wide cache."""
    tree = ast.parse(path.read_text())
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if (path.name, node.name) in ALLOWED_CACHES:
                allowed.update(id(d) for d in node.decorator_list)
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            uses += [(path.name, f"import {a.name}") for a in node.names if a.name in PROCESS_CACHES]
        elif isinstance(node, ast.Attribute) and node.attr in PROCESS_CACHES:
            if id(node) not in allowed:
                uses.append((path.name, f"line {node.lineno}"))
    return uses


def test_no_process_wide_caches():
    uses = [u for p in FILES if p.suffix == ".py" for u in _process_cache_uses(p)]
    assert uses == []


def _private_helpers(tree):
    """Names of module-level ``_functions`` and non-dunder ``_methods``."""
    defs = [n for n in tree.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        defs += [n for n in cls.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return {n.name for n in defs if n.name.startswith("_") and not n.name.endswith("__")}


def test_private_helpers_have_callers():
    trees = [ast.parse(p.read_text()) for p in FILES if p.suffix == ".py"]
    named = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    helpers = set().union(*(_private_helpers(tree) for tree in trees))
    assert sorted(helpers - named) == []


# An InternalInvariantError raised where no caller input can break the
# invariant re-proves a theorem of the construction on every call; such
# theorems are asserted by the test suite instead.  Each site kept here
# checks something a caller controls.
INVARIANT_SITES = {
    ("circuits", "SingularSet.__post_init__"),  # a singular set built directly
    ("homology", "induced_boundary_orientation"),  # a given orientation
    ("obstructions", "cw_dimension_bound"),  # the host dimensions passed in
}


def _invariant_sites(path):
    """(module, qualified function) for every ``raise InternalInvariantError``."""
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == "InternalInvariantError":
                    sites.add((path.stem, ".".join(scope)))
            visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return sites


def test_internal_invariant_sites():
    sites = set().union(*(_invariant_sites(p) for p in FILES if p.suffix == ".py"))
    assert sorted(sites) == sorted(INVARIANT_SITES)


def _assert_lines(path):
    """Line numbers of the ``assert`` statements in one source file."""
    return [n.lineno for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Assert)]


def test_no_assert_statements():
    # ``python -O`` strips assert statements, so a check written as one
    # vanishes; the package raises typed errors instead.
    found = {p.name: _assert_lines(p) for p in FILES if p.suffix == ".py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
