"""Fuzzing of the quiver files that the command line reads.

Valid files hold 2-complete acyclic matrices of rank 1 to 9 whose vertex
labels are shuffled, so that loading has to normalize them.  Malformed
files hold the same matrices broken in one way each.  A valid file must
exit 0 and a malformed one must exit 2 with an "error:" line; neither
may end in a traceback, which would escape main() and fail the test.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings, strategies as st

from arcroots.cli import main


@st.composite
def acyclic_rows(draw, min_rank=1, max_rank=9):
    """Rows of a 2-complete acyclic matrix, vertex labels shuffled, with
    the order of its vertices: order[a] -> order[b] for a < b."""
    n = draw(st.integers(min_rank, max_rank))
    order = draw(st.permutations(range(n)))
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            w = draw(st.integers(2, 4))
            rows[order[a]][order[b]] = w
            rows[order[b]][order[a]] = -w
    return rows, order


@st.composite
def malformed_rows(draw):
    """(kind, rows): a valid matrix of rank 2 to 6 broken in one way."""
    kind = draw(
        st.sampled_from(["float", "bool", "string", "ragged", "non-skew", "zero pair", "cyclic"])
    )
    rows, order = draw(acyclic_rows(3 if kind == "cyclic" else 2, 6))
    i, j = draw(st.permutations(range(len(rows))))[:2]
    if kind == "float":
        rows[i][j] = draw(st.sampled_from([float(rows[i][j]), rows[i][j] + 0.5]))
    elif kind == "bool":
        rows[i][j] = draw(st.booleans())
    elif kind == "string":
        rows[i][j] = str(rows[i][j])
    elif kind == "ragged":
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + [0]
    elif kind == "non-skew":
        rows[i][j] = -rows[j][i] + draw(st.sampled_from([-1, 1]))
    elif kind == "zero pair":
        rows[i][j] = rows[j][i] = 0
    else:  # a 3-cycle: reverse the arrow from the first of three vertices to the last
        a, _, c = sorted(draw(st.permutations(range(len(rows))))[:3])
        u, v = order[a], order[c]
        rows[u][v], rows[v][u] = rows[v][u], rows[u][v]
    return kind, rows


def _commands(path, n):
    return [
        ["explore", "--quiver", path, "--depth", "1", "--verify", "all"],
        ["check-tuple", "--quiver", path, "--words", *(str(k) for k in range(1, n + 1))],
        ["root2refl", "--quiver", path, "--root", ",".join(["1"] + ["0"] * (n - 1))],
    ]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _with_file(rows, check):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "quiver.json"
        path.write_text(json.dumps({"b": rows}))
        for argv in _commands(str(path), len(rows)):
            check(argv, *_run(argv))


@settings(max_examples=40, deadline=None)
@given(acyclic_rows())
def test_valid_quiver_files_exit_zero(drawn):
    rows, _ = drawn

    def check(argv, code, out, err):
        assert (code, err) == (0, ""), argv
        reply = json.loads(out)
        if argv[0] == "explore":
            assert reply["violations"] == []
        elif argv[0] == "check-tuple":
            assert reply["is_yseed"] is True

    _with_file(rows, check)


@settings(max_examples=80, deadline=None)
@given(malformed_rows())
def test_malformed_quiver_files_exit_two(drawn):
    kind, rows = drawn

    def check(argv, code, out, err):
        assert (code, out) == (2, ""), (kind, argv)
        assert err.startswith("error:") and err.count("\n") == 1, (kind, err)

    _with_file(rows, check)
