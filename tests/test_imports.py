"""Every module of the package uses every name it imports.

No linter runs on this repository, so this stdlib scan stands in for the
unused-import rule.  The package's __init__.py is exempt: its imports are
the public re-exports.
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
