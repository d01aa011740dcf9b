"""Every per-seed check in explore.CHECKS is a plain predicate: its
definition is annotated `-> bool` and holds no try statement, so the
check loop in explore() is the one place that turns a raised error into a
violation.

Like tests/test_imports.py, this scans the source with the stdlib ast
module rather than importing the registry, whose values the benchmark's
tracer replaces with wrappers.
"""

import ast
from pathlib import Path

import arcroots

EXPLORE = Path(arcroots.__file__).parent / "explore.py"
# try/except* statements parse as ast.TryStar from Python 3.11 on
TRY_NODES = (ast.Try, getattr(ast, "TryStar", ast.Try))


def check_definitions(source: str) -> dict[str, ast.FunctionDef]:
    """The definitions of the functions the annotated CHECKS dict literal
    names, keyed by registry name."""
    tree = ast.parse(source)
    (registry,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "CHECKS"
    ]
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    return {key.value: functions[value.id] for key, value in zip(registry.keys, registry.values)}


def contract_breaches(source: str) -> list[str]:
    """Registry names whose function is not annotated bool or holds a try."""
    breaches = []
    for name, fn in check_definitions(source).items():
        returns_bool = isinstance(fn.returns, ast.Name) and fn.returns.id == "bool"
        has_try = any(isinstance(node, TRY_NODES) for node in ast.walk(fn))
        if not returns_bool or has_try:
            breaches.append(name)
    return breaches


def test_scan_finds_every_breach():
    source = (
        "def _a(seed) -> bool:\n    return True\n"
        "def _b(seed) -> list[str]:\n    return []\n"
        "def _c(seed):\n    return True\n"
        "def _d(seed) -> bool:\n    try:\n        return f(seed)\n    except E:\n        return False\n"
        "CHECKS: dict = {'a': _a, 'b': _b, 'c': _c, 'd': _d}\n"
    )
    assert list(check_definitions(source)) == ["a", "b", "c", "d"]
    assert contract_breaches(source) == ["b", "c", "d"]


def test_every_check_is_a_plain_predicate():
    from arcroots.explore import CHECKS

    source = EXPLORE.read_text()
    assert list(check_definitions(source)) == list(CHECKS)
    assert contract_breaches(source) == []
