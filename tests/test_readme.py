"""The README's Library tour runs, and every value its comments state is
the value its line computes; every line of its Command line block runs
and exits 0.

A comment states a value when it starts with a Python literal, up to its
end or to a colon: `# (1, 2, 1): each c-vector ...` states (1, 2, 1).  It
belongs to the expression on its own line, or, alone on a line, to the
expression on the line before.
"""

import ast
import json
import logging
import shlex
from pathlib import Path

from arcroots.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def block_after(heading: str, fence: str) -> str:
    """The first fenced block, opened by fence, after the heading."""
    text = README.read_text()
    start = text.index(fence, text.index(heading)) + len(fence)
    return text[start : text.index("```", start)]


def tour_source() -> str:
    return block_after("## Library tour", "```python\n")


def stated_value(comment: str) -> tuple[bool, object]:
    """(True, value) when the comment starts with a literal, else (False, None)."""
    cuts = [len(comment)] + [i for i, ch in enumerate(comment) if ch == ":"]
    for cut in cuts:
        try:
            return True, ast.literal_eval(comment[:cut].strip())
        except (ValueError, SyntaxError):
            continue
    return False, None


def stated_values(source: str) -> dict[int, object]:
    """The stated values by the line number of the expression they belong to."""
    out = {}
    for number, line in enumerate(source.splitlines(), 1):
        code, sep, comment = line.partition("#")
        if not sep:
            continue
        states, value = stated_value(comment)
        if states:
            out[number if code.strip() else number - 1] = value
    return out


def test_stated_value_reads_a_literal_up_to_a_colon():
    assert stated_value(" (1, 2, 1): each c-vector") == (True, (1, 2, 1))
    assert stated_value(" {'found': False, 'path': None}") == (True, {"found": False, "path": None})
    assert stated_value(" True: one bad pair") == (True, True)
    assert stated_value(" the same reflections, rotated") == (False, None)


def test_library_tour_computes_what_its_comments_state():
    source = tour_source()
    want = stated_values(source)
    namespace: dict[str, object] = {}
    got = {}
    for statement in ast.parse(source).body:
        if isinstance(statement, ast.Expr):
            code = compile(ast.Expression(statement.value), str(README), "eval")
            got[statement.end_lineno] = eval(code, namespace)
        else:
            exec(compile(ast.Module([statement], []), str(README), "exec"), namespace)
    assert len(want) == 8
    for line, value in want.items():
        assert line in got, f"the value stated at tour line {line} belongs to no expression"
        assert got[line] == value and type(got[line]) is type(value), (line, got[line])


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    # each line through cli.main, in a directory holding the b3.json the
    # block names
    lines = block_after("## Command line", "```\n").splitlines()
    assert len(lines) == 11 and all(line.startswith("arcroots ") for line in lines)
    (tmp_path / "b3.json").write_text('{"b": [[0, 2, 2], [-2, 0, 2], [-2, -2, 0]]}\n')
    monkeypatch.chdir(tmp_path)
    logger = logging.getLogger("arcroots")
    level = logger.level
    printed = {}
    try:
        for line in lines:
            assert main(shlex.split(line)[1:]) == 0, line
            printed[line] = capsys.readouterr().out
    finally:
        logger.setLevel(level)

    def output(start):
        [line] = [line for line in lines if line.startswith(start)]
        return json.loads(printed[line])

    assert output("arcroots schur --word 1,2,1 ")["embeddable"] is True
    assert output("arcroots --log-level DEBUG schur --word 2,1,3,1,2 ")["search"]["seeds_visited"] == 0
    assert output("arcroots check-tuple ")["is_yseed"] is True
    assert output("arcroots root2refl --root -") == [1, 2, 1]
    assert (tmp_path / "seeds.jsonl").read_text().count("\n") == 766
