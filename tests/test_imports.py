"""Every module of the package uses every name it imports, the package
exports exactly what its __init__.py imports, every exception class it
declares is raised somewhere in it, every function and class it defines
has a caller, every one has a caller in the package or the benchmark
unless an allowlist names why it has none, and every private one has a
caller inside the package.

No linter runs on this repository, so these stdlib scans stand in for the
unused-import and unused-definition rules.  The package's __init__.py is
exempt from the first: its imports are the public re-exports, pinned
against __all__ instead.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import arcroots

MODULES = sorted(
    p for p in Path(arcroots.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names if a.name != "*"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_scan_finds_unused_names():
    source = "import os.path\nimport re\nfrom a import b, c as d\nprint(d, re.x)\n"
    assert unused_imports(source) == ["b", "os"]


def test_package_has_modules_to_scan():
    assert {p.name for p in MODULES} >= {"roots.py", "words.py", "explore.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_all_is_exactly_the_reexported_names():
    # a deleted function cannot linger in __all__, nor an import outside it
    tree = ast.parse(Path(arcroots.__file__).read_text())
    imported = [
        a.asname or a.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    ]
    assert len(arcroots.__all__) == len(set(arcroots.__all__))
    assert set(arcroots.__all__) == set(imported)
    assert len(imported) == len(set(imported)) == 53


def bare_constructions(source: str) -> list[int]:
    """Lines of the `object.__new__(...)` calls, which build an instance
    without running its __init__ or __post_init__ validation."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__new__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
    ]


def test_construction_scan_finds_object_new():
    source = "a = object.__new__(R)\nb = R.__new__(R)\nc = object()\n\nd = object.__new__(S)\n"
    assert bare_constructions(source) == [1, 5]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_words_skips_the_reflection_validator(path):
    # words.conjugate proves its output canonical next to the class it
    # builds; no other module may construct an unvalidated instance
    if path.name != "words.py":
        assert bare_constructions(path.read_text()) == []


def arc_uses(source: str) -> list[int]:
    """Lines that name Arc: as a bare name, an attribute or an import."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "Arc":
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "Arc":
            lines.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            lines += [node.lineno for a in node.names if a.name.split(".")[-1] == "Arc"]
    return sorted(lines)


def test_arc_scan_finds_every_use():
    source = (
        "from .arcs import Arc, arc_to_reflection\n"
        "Arcs = arc_to_reflection\n"
        "def f(a: Arc) -> int:\n    return 1\n"
        "g = arcs.Arc\n"
    )
    assert arc_uses(source) == [1, 3, 5]


# the modules that draw, parse or print a curve; every other one passes
# reflections between layers
ARC_MODULES = {"arcs.py", "embedding.py", "explore.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_curve_modules_name_arc(path):
    if path.name not in ARC_MODULES:
        assert arc_uses(path.read_text()) == []


def to_json_definitions(source: str) -> list[int]:
    """Lines of the functions and methods named to_json."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "to_json"
    ]


def test_to_json_scan_finds_every_definition():
    source = (
        "def to_json(x): pass\n"
        "class A:\n    def to_json(self): pass\n"
        "to_json = 1\nprint(a.to_json())\n"
    )
    assert to_json_definitions(source) == [1, 3]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_cli_writes_json(path):
    # cli prints every result from its fields; EmbeddingWitness.to_json
    # stays for the benchmark's digest and keys its heights by ray string
    if path.name != "embedding.py":
        assert to_json_definitions(path.read_text()) == []


def test_every_exported_name_resolves():
    assert [name for name in arcroots.__all__ if not hasattr(arcroots, name)] == []


def raised_names(source: str) -> set[str]:
    """Names raised as `raise Name(...)` or `raise Name`."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                out.add(exc.id)
    return out


def test_raise_scan_finds_raised_names():
    source = "def f():\n    raise A('x')\n    raise B\n    raise c.D()\n    raise\n"
    assert raised_names(source) == {"A", "B"}


def test_every_declared_exception_is_raised():
    # a class no code raises is dead, and callers catching it guard nothing
    errors = Path(arcroots.__file__).parent / "errors.py"
    declared = {
        node.name for node in ast.parse(errors.read_text()).body if isinstance(node, ast.ClassDef)
    }
    raised = set().union(*(raised_names(p.read_text()) for p in MODULES))
    assert "ArcrootsError" in declared and len(declared) > 10
    assert sorted(declared - {"ArcrootsError"} - raised) == []


ROOT = Path(__file__).resolve().parent.parent


def name_uses(tree: ast.AST) -> Counter:
    """How often each name is read, as a bare name or as an attribute.
    Imports and definitions are not uses."""
    uses = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
    return uses


def unused_definitions(modules: list[str], everything: list[str]) -> list[str]:
    """Functions, methods and classes defined in the modules whose name is
    used nowhere in everything except inside their own definition.
    Dunder methods are called implicitly and are skipped.  Names are
    matched without scopes, so a use of any same-named thing counts."""
    uses = sum((name_uses(ast.parse(source)) for source in everything), Counter())
    unused = []
    for source in modules:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if uses[node.name] == name_uses(node)[node.name]:
                unused.append(node.name)
    return sorted(unused)


def test_definition_scan_finds_unused_names():
    module = (
        "class A:\n    def m(self): pass\n    def __eq__(self, o): pass\n"
        "class B: pass\ndef f(): return f()\ndef g(): pass\ndef h(): pass\n"
    )
    caller = "from mod import g\nA().m()\nh\n"
    assert unused_definitions([module], [module, caller]) == ["B", "f", "g"]


def test_every_definition_has_a_caller():
    # "delete code that has no caller": a use in the package, its tests
    # or the benchmark keeps a definition
    package = [p.read_text() for p in Path(arcroots.__file__).parent.glob("*.py")]
    everything = [
        p.read_text() for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")
    ]
    assert len(package) > 5 and len(everything) > len(package)
    assert unused_definitions(package, everything) == []


def test_every_private_definition_has_a_caller_in_the_package():
    # a _-prefixed helper that only the tests or the benchmark call
    # belongs with them, not in the package
    package = [p.read_text() for p in Path(arcroots.__file__).parent.glob("*.py")]
    private = [name for name in unused_definitions(package, package) if name.startswith("_")]
    assert private == []


# Definitions that only the tests call, each with the reason it stays.
NO_PROGRAM_CALLER = {
    "node_path": "test oracle: the geodesic that separates is checked against",
    "reflect": "test oracle: descent and ascent one simple reflection at a time",
    "separates": "test oracle: separating_nodes pair by pair",
    "braid_swap": "paper construction: the Hurwitz move on arc tuples",
    "twin_replace_walk": "paper construction: twinning an arc past a fan",
    "acyclic_representative": "paper construction: descent to the acyclic seed",
    "generator": "public constructor of the simple reflections",
}


def program_uncalled() -> set[str]:
    """Definitions with no caller in the package or the benchmark."""
    package = [p.read_text() for p in Path(arcroots.__file__).parent.glob("*.py")]
    bench = [p.read_text() for p in (ROOT / "perfbench").rglob("*.py")]
    assert len(bench) > 1
    return set(unused_definitions(package, package + bench))


def test_every_unexported_definition_has_a_caller_outside_the_tests():
    """A definition outside __all__ that only its own tests call is a
    feature nobody uses.  Names are matched without scope, so a method
    sharing its name with a live one (Arc.from_json beside
    ExchangeMatrix.from_json, say) escapes this scan."""
    unused = program_uncalled() - set(arcroots.__all__)
    assert sorted(unused - set(NO_PROGRAM_CALLER)) == []


def test_every_exported_definition_has_a_caller_outside_the_tests():
    # exporting a name is no reason to keep it
    unused = program_uncalled()
    assert sorted((unused & set(arcroots.__all__)) - set(NO_PROGRAM_CALLER)) == []
    # an allowlist entry goes when its name gains a caller or leaves
    assert sorted(set(NO_PROGRAM_CALLER) - unused) == []
