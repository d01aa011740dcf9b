"""Every module of the package uses every name it imports, and the
package exports exactly what its __init__.py imports.

No linter runs on this repository, so this stdlib scan stands in for the
unused-import rule.  The package's __init__.py is exempt from it: its
imports are the public re-exports, pinned against __all__ instead.
"""

import ast
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
    assert len(imported) == len(set(imported)) == 59


def test_every_exported_name_resolves():
    assert [name for name in arcroots.__all__ if not hasattr(arcroots, name)] == []
