from __future__ import annotations

import ast
import importlib
import importlib.util
from collections import Counter
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


# ``Simplex._trusted`` skips validation, so each call site must build its
# tuple from simplices already validated.  A new site needs the same
# argument, written here:
# - facets, faces: a subtuple of a valid simplex's vertices;
# - link: a row of the link table, a coface with the vertices of a face
#   removed;
# - _classified: the vertex tuple of a simplex of the host, either a region
#   member or, at l = 2, s plus a vertex w of its link (s + w is a coface of
#   s in the host), sorted;
# - _proper_cofaces, star: a simplex s merged with a row of its link table,
#   the vertex tuple of a coface of s, sorted (``star`` also keeps s).
ALLOWED_TRUSTED = {
    ("complexes.py", "facets"),
    ("complexes.py", "faces"),
    ("complexes.py", "link"),
    ("complexes.py", "_proper_cofaces"),
    ("complexes.py", "star"),
    ("recognition.py", "_classified"),
}


def _trusted_sites(path):
    """(module, enclosing function) for every reference to ``_trusted``
    outside its own definition."""
    sites = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if getattr(child, "attr", None) == "_trusted" or getattr(child, "id", None) == "_trusted":
                sites.append((path.name, where))
            visit(child, where)

    visit(ast.parse(path.read_text()), "<module>")
    return sites


def test_trusted_construction_sites():
    sites = [site for p in FILES if p.suffix == ".py" for site in _trusted_sites(p)]
    assert set(sites) == ALLOWED_TRUSTED


# Every per-complex table lives in a cached property of ``SimplicialComplex``
# and is freed with the complex.  Incidences are indexed once, in the link
# table; a new table needs its reason written here:
# - dim, sorted_simplices, vertices, maximal_simplices: summaries of the
#   simplex set that every stage reads;
# - _links: the one incidence table; links, stars, subdivision chains,
#   orientation and point classification read it;
# - _point_classes: the memo of point classes, filled by recognition.
ALLOWED_COMPLEX_CACHES = {
    "dim",
    "sorted_simplices",
    "vertices",
    "maximal_simplices",
    "_links",
    "_point_classes",
}


def test_complex_caches():
    tree = ast.parse((PACKAGE / "complexes.py").read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "SimplicialComplex")
    cached = {
        node.name
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and any(getattr(d, "id", getattr(d, "attr", None)) == "cached_property" for d in node.decorator_list)
    }
    assert cached == ALLOWED_COMPLEX_CACHES


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


def test_no_internal_invariant_error():
    # Theorems of the constructions are asserted by the test suite, and every
    # check left in the package is on caller input, so no error class claims
    # a library bug.
    assert [p.name for p in FILES if "InternalInvariantError" in p.read_text()] == []


README = PACKAGE.parent.parent / "README.md"


def _raised_stages(path):
    """Stage literals passed to ``PipelineError`` or to ``pipeline._passed``,
    which raises it, in one file."""
    stages = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(node, ast.Call) and node.args):
            continue
        name = node.func.id if isinstance(node.func, ast.Name) else None
        first = node.args[0]
        if name in ("_passed", "PipelineError") and isinstance(first, ast.Constant):
            stages.add(first.value)
    return stages


def _documented_stages():
    """Stages in the bullet list after "Stages a pipeline can fail at" in the
    README, one line per pipeline: the pipeline, a colon, its stages."""
    bullets = README.read_text().split("Stages a pipeline can fail at", 1)[1].split("\n\n")[1]
    return {stage for line in bullets.splitlines() for stage in line.split(":", 1)[1].split("`")[1::2]}


def test_stage_vocabulary_is_documented():
    raised = set().union(*(_raised_stages(p) for p in FILES if p.suffix == ".py"))
    assert sorted(raised) == sorted(_documented_stages())


def _assert_lines(path):
    """Line numbers of the ``assert`` statements in one source file."""
    return [n.lineno for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Assert)]


def test_no_assert_statements():
    # ``python -O`` strips assert statements, so a check written as one
    # vanishes; the package raises typed errors instead.
    found = {p.name: _assert_lines(p) for p in FILES if p.suffix == ".py"}
    assert {name: lines for name, lines in found.items() if lines} == {}



def _public_names(path, tree):
    """Public top-level defs and classes of one module, and the public
    methods and properties of its public classes, with their nodes; for
    ``__init__.py``, the names it imports."""
    if path.name == "__init__.py":
        return {a.asname or a.name: None for node in tree.body
                if isinstance(node, ast.ImportFrom) for a in node.names}
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    names = {node.name: node for node in tree.body if isinstance(node, defs)}
    for cls in [n for n in names.values() if isinstance(n, ast.ClassDef)]:
        names.update({f"{cls.name}.{n.name}": n for n in cls.body if isinstance(n, defs)})
    return {name: node for name, node in names.items() if "._" not in f".{name}"}


def _references(tree):
    """How often each name is read in a tree.  String constants count too,
    because the bench tracer looks functions up by name."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names[node.value] += 1
    return names


REPO = PACKAGE.parent.parent
CALLERS = [*sorted((REPO / "bench").glob("*.py")), REPO / "tests" / "test_acceptance.py"]


def test_public_names_have_callers():
    # A public name earns its place when the pipeline or the CLI (the package
    # outside the name's own definition and ``__init__.py``), the bench or the
    # acceptance gates use it.  A tool only tests use lives in the tests.
    modules = {p: ast.parse(p.read_text()) for p in FILES if p.suffix == ".py"}
    used = sum((_references(ast.parse(p.read_text())) for p in CALLERS), Counter())
    used += sum((_references(t) for p, t in modules.items() if p.name != "__init__.py"), Counter())
    # A member counts as used when its attribute name is read anywhere, so
    # a name two classes share is kept alive by either one's callers.
    uncalled = []
    for path, tree in modules.items():
        for name, node in _public_names(path, tree).items():
            attr = name.rsplit(".", 1)[-1]
            if used[attr] - (_references(node)[attr] if node else 0) <= 0:
                uncalled.append(f"{path.name}:{name}")
    assert sorted(uncalled) == []


def test_bench_tracer_names_resolve():
    # The traced bench run looks each span's function up by module and
    # attribute; a refactor that drops one fails here, not in that run.
    spec = importlib.util.spec_from_file_location("bench_tracer", REPO / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [(module, attr) for module, attr in tracer.SPANS.values()
               if not hasattr(importlib.import_module(module), attr)]
    assert tracer.SPANS and missing == []
