import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arcroots
from arcroots import cli
from arcroots.cli import main
from arcroots.explore import ALL_CHECKS, explore

B3_ROWS = [[0, 2, 2], [-2, 0, 2], [-2, -2, 0]]


@pytest.fixture
def quiver_file(tmp_path):
    path = tmp_path / "b3.json"
    path.write_text(json.dumps({"b": B3_ROWS}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_arc2refl(capsys):
    code, out, _ = run(capsys, "arc2refl", "--crossings", "2", "--endpoint", "3")
    assert code == 0
    assert json.loads(out) == [2, 3, 2]


def test_arc2refl_empty_crossings(capsys):
    code, out, _ = run(capsys, "arc2refl", "--endpoint", "2")
    assert code == 0
    assert json.loads(out) == [2]


def test_arc2refl_drops_a_trailing_crossing_of_the_endpoint_ray(capsys):
    code, out, _ = run(capsys, "arc2refl", "--crossings", "2,1", "--endpoint", "1")
    assert code == 0
    assert json.loads(out) == [2, 1, 2]


def test_refl2arc(capsys):
    code, out, _ = run(capsys, "refl2arc", "--word", "2,3,2")
    assert code == 0
    assert json.loads(out) == {"crossings": [2], "endpoint": 3}


def test_refl2arc_rejects_non_reflection(capsys):
    code, _, err = run(capsys, "refl2arc", "--word", "1,2")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("refl2arc", "--word", "1_2"),
        ("refl2arc", "--word", "\u0661,\u0662,\u0661"),
        ("refl2arc", "--word", "+1"),
        ("arc2refl", "--crossings", "2", "--endpoint", "1_0"),
        ("arc2refl", "--endpoint", "+1"),
        ("arc2refl", "--crossings", "+2", "--endpoint", "1"),
        ("check-tuple", "--arcs", "1", "2", "+3"),
        ("check-tuple", "--arcs", "1", "2", "1:\u0663"),
        ("complete-arc", "--endpoint", "3", "--quiver", "QUIVER", "--depth", "1_0"),
        ("schur", "--word", "1", "--quiver", "QUIVER", "--depth", "\u0661\u0662"),
        ("explore", "--quiver", "QUIVER", "--depth", "+1"),
    ],
    ids=" ".join,
)
def test_non_ascii_or_signed_integers_exit_two(capsys, quiver_file, argv):
    # int() accepts each of these; the command line must not
    try:
        code = main([quiver_file if a == "QUIVER" else a for a in argv])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""


def test_integers_allow_surrounding_space(capsys):
    code, out, _ = run(capsys, "refl2arc", "--word", " 2, 3 ,2 ")
    assert code == 0
    assert json.loads(out) == {"crossings": [2], "endpoint": 3}


def test_root2refl(capsys, quiver_file):
    code, out, _ = run(capsys, "root2refl", "--root", "2,1,0")
    assert code == 0
    assert json.loads(out) == [1, 2, 1]
    code, out, _ = run(capsys, "root2refl", "--root", "2,1,0", "--quiver", quiver_file)
    assert json.loads(out) == [1, 2, 1]


def test_root2refl_rank_mismatch(capsys, quiver_file):
    # the length is checked before the pairing reads the root
    for root in ("1,0", "2,1"):
        code, out, err = run(capsys, "root2refl", "--root", root, "--quiver", quiver_file)
        assert (code, out, err) == (2, "", "error: root length 2 != pairing rank 3\n")


@pytest.mark.parametrize(
    "root,word",
    [("-1,0,0", [1]), ("-2,-1,0", [1, 2, 1]), ("-1", [1]), ("0,-1,0", [2])],
)
def test_root2refl_takes_a_negative_root_after_a_space(capsys, root, word):
    # argparse alone would read a value led by "-1," as an option
    for argv in (["--root", root], [f"--root={root}"]):
        code, out, err = run(capsys, "root2refl", *argv)
        assert (code, json.loads(out), err) == (0, word, "")


def test_root2refl_still_refuses_an_option_as_the_root(capsys, quiver_file):
    with pytest.raises(SystemExit) as exc:
        main(["root2refl", "--root", "--quiver", quiver_file])
    assert exc.value.code == 2
    assert "--root: expected one argument" in capsys.readouterr().err


def test_root2refl_imaginary_root(capsys):
    code, _, err = run(capsys, "root2refl", "--root", "1,1,1")
    assert code == 2
    assert "<u, u>" in err


def test_root2refl_stalled_descent(capsys, tmp_path):
    # <u, u> = 2 under this quiver's pairing, but u is not a real root
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"b": [[0, 3, 2], [-3, 0, 4], [-2, -4, 0]]}))
    code, out, err = run(capsys, "root2refl", "--root", "6,6,37", "--quiver", str(path))
    assert (code, out) == (2, "")
    assert err == "error: descent stalls at (6, 6, -1)\n"


def test_root2refl_empty_root(capsys):
    code, out, err = run(capsys, "root2refl", "--root", "")
    assert (code, out, err) == (2, "", "error: root must be nonempty\n")


def test_schur_positive(capsys, quiver_file):
    code, out, _ = run(capsys, "schur", "--word", "1,2,1", "--quiver", quiver_file)
    assert code == 0
    assert json.loads(out) == {
        "embeddable": True,
        "embedding": {"branches": 1, "search_space": 2},
        "below_coxeter": True,
        "search": {
            "found": True, "path": [1], "seeds_visited": 2, "pruned": 0, "truncated": False,
        },
    }


def test_schur_negative_strict(capsys, quiver_file):
    code, out, _ = run(
        capsys, "schur", "--word", "2,1,3,1,2", "--quiver", quiver_file, "--strict"
    )
    assert code == 1
    # both oracles prove the negative, so the search is not run
    assert json.loads(out) == {
        "embeddable": False,
        "embedding": {"branches": 6, "search_space": 4},
        "below_coxeter": False,
        "search": {
            "found": False, "path": None, "seeds_visited": 0, "pruned": 0, "truncated": False,
        },
    }


def test_schur_searches_when_the_oracles_disagree(capsys, caplog, quiver_file, monkeypatch):
    monkeypatch.setattr("arcroots.cli.below_coxeter", lambda r, n: True)
    code, out, _ = run(capsys, "schur", "--word", "2,1,3,1,2", "--quiver", quiver_file,
                       "--depth", "6")
    assert code == 0
    verdict = json.loads(out)
    assert (verdict["embeddable"], verdict["below_coxeter"]) == (False, True)
    assert verdict["search"] == {
        "found": False, "path": None, "seeds_visited": 162, "pruned": 8, "truncated": True,
    }
    [record] = [rec for rec in caplog.records if rec.name == "arcroots.cli"]
    assert record.levelname == "WARNING"
    assert record.getMessage() == (
        "schur (2, 1, 3, 1, 2): embeddable is False but below_coxeter is True; searching"
    )


def test_schur_word_beyond_rank(capsys, quiver_file):
    code, _, err = run(capsys, "schur", "--word", "4", "--quiver", quiver_file)
    assert code == 2
    assert "rank" in err


def test_check_tuple_generators(capsys):
    code, out, _ = run(capsys, "check-tuple", "--words", "1", "2", "3")
    assert code == 0
    verdict = json.loads(out)
    assert verdict == {
        "bad_pair_count": 0,
        "product_is_coxeter": True,
        "st_pass": True,
        "is_yseed": True,
    }


def test_check_tuple_arc_tokens(capsys):
    code, out, _ = run(capsys, "check-tuple", "--arcs", "1", "2", "3")
    assert code == 0
    assert json.loads(out)["is_yseed"] is True
    code, out, _ = run(capsys, "check-tuple", "--arcs", "2,1:3", "1:2", "1")
    assert code == 0
    assert "bad_pair_count" in json.loads(out)


def test_check_tuple_strict_failure(capsys):
    code, out, _ = run(capsys, "check-tuple", "--words", "1", "1", "--strict")
    assert code == 1
    assert json.loads(out)["is_yseed"] is False


def test_explore_report_and_seed_stream(capsys, quiver_file, tmp_path):
    out_path = tmp_path / "seeds.jsonl"
    code, out, _ = run(
        capsys,
        "explore",
        "--quiver", quiver_file,
        "--depth", "2",
        "--verify", "all",
        "--out", str(out_path),
    )
    assert code == 0
    report = json.loads(out)
    assert report["seeds_visited"] == 10
    assert report["violations"] == []
    assert report["depth"] == 2
    lines = out_path.read_text().splitlines()
    assert len(lines) == 10
    first = json.loads(lines[0])
    assert first["b"] == B3_ROWS
    assert first["c"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert first["path"] == []


def test_explore_unknown_check(capsys, quiver_file):
    code, _, err = run(capsys, "explore", "--quiver", quiver_file, "--depth", "1",
                       "--verify", "bogus")
    assert code == 2
    assert "unknown checks" in err


def test_explore_repeated_check(capsys, quiver_file):
    code, out, err = run(capsys, "explore", "--quiver", quiver_file, "--depth", "2",
                         "--verify", "tree,tree")
    assert code == 2
    assert out == ""
    assert err == "error: repeated checks: tree\n"


@pytest.mark.parametrize("flag", ["", ",", " , "])
def test_explore_verify_must_name_a_check(capsys, quiver_file, flag):
    code, out, err = run(capsys, "explore", "--quiver", quiver_file, "--depth", "1",
                         "--verify", flag)
    assert code == 2
    assert out == ""
    assert err == f"error: --verify must name at least one check, got {flag!r}\n"


@pytest.mark.parametrize(
    "flag, checks",
    [("all", ALL_CHECKS), (" all", ALL_CHECKS), ("all ", ALL_CHECKS), (" st", ("st",))],
)
def test_explore_verify_ignores_surrounding_space(capsys, quiver_file, monkeypatch, flag, checks):
    seen = []

    def recording(matrix, depth, checks, sink=None):
        seen.append(checks)
        return explore(matrix, depth, checks=checks, sink=sink)

    monkeypatch.setattr(cli, "explore", recording)
    code, out, err = run(capsys, "explore", "--quiver", quiver_file, "--depth", "1",
                         "--verify", flag)
    assert (code, err) == (0, "")
    assert seen == [checks]
    assert json.loads(out)["violations"] == []


@pytest.mark.parametrize(
    "argv",
    [["--verify", "nosuch"], ["--verify", "tree,tree"], ["--depth", "-1"]],
    ids=["unknown-check", "repeated-check", "negative-depth"],
)
def test_explore_rejected_input_leaves_the_out_file_alone(capsys, quiver_file, tmp_path, argv):
    # explore checks its input before the first seed reaches the sink,
    # which is what opens the file
    out_path = tmp_path / "seeds.jsonl"
    out_path.write_bytes(b"kept\n")
    argv = ["explore", "--quiver", quiver_file, "--depth", "1", *argv, "--out", str(out_path)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert out_path.read_bytes() == b"kept\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["schur", "--word", "2,1,4,1,2"],
        ["complete-arc", "--crossings", "1", "--endpoint", "4"],
        # not embeddable, so this one was once answered "found": false
        ["complete-arc", "--crossings", "2,1", "--endpoint", "4"],
        ["export-dot", "cayley-fragment", "--path", "4"],
        ["check-tuple", "--words", "1", "2"],
        ["root2refl", "--root", "1,0"],
    ],
    ids=["schur", "complete-arc-1:4", "complete-arc-2,1:4", "export-dot", "check-tuple", "root2refl"],
)
def test_input_beyond_the_rank_is_rejected_at_the_boundary(capsys, quiver_file, argv):
    # B3 has rank 3: a letter, ray or step of 4, or a tuple or root of length 2
    code, out, err = run(capsys, *argv, "--quiver", quiver_file)
    assert code == 2
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["complete-arc", "--crossings", "2,1", "--endpoint", "4"],
        ["schur", "--word", "2,1,4,1,2"],
    ],
    ids=["complete-arc", "schur"],
)
def test_rank_error_names_the_letter_or_ray_and_the_rank(capsys, quiver_file, argv):
    # the user typed a ray or a letter, so the message names no generator
    code, _, err = run(capsys, *argv, "--quiver", quiver_file)
    assert code == 2
    assert err == "error: letter or ray 4 exceeds the rank 3\n"


def test_explore_rejects_non_two_complete(capsys, tmp_path):
    path = tmp_path / "thin.json"
    path.write_text(json.dumps({"b": [[0, 1], [-1, 0]]}))
    code, _, err = run(capsys, "explore", "--quiver", str(path), "--depth", "1")
    assert code == 2
    assert "2-complete" in err


def test_explore_rejects_cyclic(capsys, tmp_path):
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps({"b": [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]}))
    code, _, err = run(capsys, "explore", "--quiver", str(path), "--depth", "1")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["explore", "--depth", "2"],
        ["explore", "--depth", "2", "--verify", "all"],
        ["export-dot", "exchange-tree", "--depth", "1"],
        ["export-dot", "cayley-fragment"],
        ["schur", "--word", "1"],
        ["complete-arc", "--endpoint", "1"],
    ],
    ids=" ".join,
)
def test_quiver_without_vertices_exits_two(capsys, tmp_path, argv):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"b": []}))
    code, out, err = run(capsys, *argv, "--quiver", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: a quiver needs at least one vertex\n"


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("text", [DEEP, '{"b": ' + DEEP + "}"], ids=["list", "b"])
@pytest.mark.parametrize(
    "argv",
    [
        ["explore", "--depth", "1"],
        ["check-tuple", "--words", "1", "2"],
        ["root2refl", "--root", "1,0"],
        ["schur", "--word", "1"],
        ["complete-arc", "--endpoint", "1"],
        ["export-dot", "exchange-tree", "--depth", "1"],
        ["export-dot", "cayley-fragment"],
    ],
    ids=" ".join,
)
def test_deeply_nested_quiver_exits_two(capsys, tmp_path, argv, text):
    # exit 1 would read as a negative verdict under --strict
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run(capsys, *argv, "--quiver", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: JSON nested too deeply\n"


@pytest.mark.parametrize(
    "text,message",
    [
        ('{"b": [[0, 2.9, 2], [-2.9, 0, 2], [-2, -2, 0]]}', "b[1][2] = 2.9"),
        ('{"b": [[0, "2", 2], ["-2", 0, 2], [-2, -2, 0]]}', "b[1][2] = '2'"),
        ('{"b": [[0, true], [-1, 0]]}', "b[1][2] = True"),
        ('{"b": [[0, 2], 5]}', "row 2"),
        ('{"b": 5}', "list of rows"),
        ("{}", '"b" field'),
        ("null", '"b" field'),
        ("[[0, 2], [-2, 0]]", '"b" field'),
        # 3.0 == 3 and true == 1, so the size field needs its own type check
        ('{"n": 3.0, "b": [[0, 2, 2], [-2, 0, 2], [-2, -2, 0]]}', "n = 3.0 is not an integer"),
        ('{"n": true, "b": [[0]]}', "n = True is not an integer"),
        ('{"n": "3", "b": [[0, 2, 2], [-2, 0, 2], [-2, -2, 0]]}', "n = '3' is not an integer"),
    ],
)
def test_malformed_quiver_exits_two(capsys, tmp_path, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "explore", "--quiver", str(path), "--depth", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_nested_quiver_entry_is_quoted_short(capsys, tmp_path):
    # a 900-deep entry loads as JSON; its repr alone is 1,800 characters
    path = tmp_path / "nested.json"
    entry = "[" * 900 + "]" * 900
    path.write_text('{"b": [[0, 2, 2], [-2, 0, ' + entry + "], [-2, -2, 0]]}")
    code, out, err = run(capsys, "explore", "--quiver", str(path), "--depth", "1")
    assert (code, out) == (2, "")
    assert err == "error: b[2][3] = " + "[" * 77 + "... is not an integer\n"


def test_internal_type_error_is_not_reported_as_bad_input(monkeypatch, quiver_file):
    def broken(*args, **kwargs):
        raise TypeError("bug")

    monkeypatch.setattr("arcroots.cli.explore", broken)
    with pytest.raises(TypeError, match="bug"):
        main(["explore", "--quiver", quiver_file, "--depth", "1"])


def test_missing_quiver_file(capsys):
    code, _, err = run(capsys, "explore", "--quiver", "/no/such/file.json", "--depth", "1")
    assert code == 2
    assert err.startswith("error:")


def test_export_dot_tree(capsys, quiver_file):
    code, out, _ = run(capsys, "export-dot", "exchange-tree",
                       "--quiver", quiver_file, "--depth", "2")
    assert code == 0
    body = out.strip().splitlines()[1:-1]
    nodes = [ln for ln in body if "->" not in ln]
    edges = [ln for ln in body if "->" in ln]
    assert len(nodes) == 10
    assert len(edges) == 9
    assert all("[label=" in e for e in edges)


def test_export_dot_tree_needs_depth(capsys, quiver_file):
    code, _, err = run(capsys, "export-dot", "exchange-tree", "--quiver", quiver_file)
    assert code == 2
    assert "--depth" in err


def test_export_dot_cap(capsys, quiver_file):
    code, _, err = run(capsys, "export-dot", "exchange-tree",
                       "--quiver", quiver_file, "--depth", "2", "--cap", "5")
    assert code == 2
    assert "exceeds" in err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["exchange-tree", "--depth", "1", "--path", "1,2"], "--path"),
        (["cayley-fragment", "--depth", "5"], "--depth"),
        (["exchange-tree", "--depth", "1", "--cap", "-3"], "--cap"),
        (["cayley-fragment", "--cap", "0"], "--cap"),
    ],
    ids=["tree-path", "fragment-depth", "cap-negative", "cap-zero"],
)
def test_export_dot_refuses_an_option_it_would_ignore(capsys, quiver_file, argv, flag):
    code, out, err = run(capsys, "export-dot", *argv, "--quiver", quiver_file)
    assert code == 2
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith(f"error: {flag} ")


def test_export_dot_to_file(capsys, quiver_file, tmp_path):
    out_path = tmp_path / "tree.dot"
    code, out, _ = run(capsys, "export-dot", "exchange-tree", "--quiver", quiver_file,
                       "--depth", "1", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert out_path.read_text().startswith("digraph exchange_tree {")


def test_export_dot_cayley_fragment(capsys, quiver_file):
    code, out, _ = run(capsys, "export-dot", "cayley-fragment",
                       "--quiver", quiver_file, "--path", "1")
    assert code == 0
    assert out.count("fillcolor=green") == 2
    assert out.count("color=red") == 1


def test_export_dot_cayley_fragment_bad_path(capsys, quiver_file):
    code, _, err = run(capsys, "export-dot", "cayley-fragment",
                       "--quiver", quiver_file, "--path", "4")
    assert code == 2
    assert "out of range" in err


def test_complete_arc_found(capsys, quiver_file):
    code, out, _ = run(capsys, "complete-arc", "--endpoint", "3",
                       "--quiver", quiver_file, "--depth", "1")
    assert code == 0
    reply = json.loads(out)
    assert reply["found"] is True
    assert reply["seed"]["path"] == []


def test_complete_arc_not_embeddable(capsys, quiver_file):
    code, out, _ = run(capsys, "complete-arc", "--crossings", "2,1", "--endpoint", "3",
                       "--quiver", quiver_file)
    assert code == 0
    reply = json.loads(out)
    assert reply["found"] is False
    code, _, _ = run(capsys, "complete-arc", "--crossings", "2,1", "--endpoint", "3",
                     "--quiver", quiver_file, "--strict")
    assert code == 1


@pytest.mark.parametrize("command", [
    ("schur", "--word", "1"),
    ("complete-arc", "--endpoint", "1"),
])
def test_schur_and_complete_arc_have_no_crossing_cap(capsys, quiver_file, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--quiver", quiver_file, "--cap", "12"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap 12" in capsys.readouterr().err


def test_complete_arc_depth_exhausted(capsys, quiver_file):
    code, out, _ = run(capsys, "complete-arc", "--crossings", "2", "--endpoint", "1",
                       "--quiver", quiver_file, "--depth", "1", "--strict")
    assert code == 1
    assert "depth" in json.loads(out)["reason"]


def test_schur_and_complete_arc_at_depth_zero(capsys, quiver_file):
    code, out, _ = run(capsys, "schur", "--word", "1", "--quiver", quiver_file, "--depth", "0")
    assert code == 0
    assert json.loads(out) == {
        "embeddable": True,
        "embedding": {"branches": 0, "search_space": 1},
        "below_coxeter": True,
        "search": {"found": True, "path": [], "seeds_visited": 1, "pruned": 0, "truncated": False},
    }
    code, out, _ = run(capsys, "complete-arc", "--crossings", "2", "--endpoint", "1",
                       "--quiver", quiver_file, "--depth", "0")
    assert code == 0
    assert json.loads(out) == {"found": False, "reason": "no seed within depth 0; raise the depth"}


@pytest.mark.parametrize("command", [
    ("schur", "--word", "1"),
    ("complete-arc", "--crossings", "2", "--endpoint", "1"),
    # negatives: the depth is checked before any oracle could answer
    ("schur", "--word", "2,1,3,1,2"),
    ("complete-arc", "--crossings", "2,1", "--endpoint", "3"),
])
def test_schur_and_complete_arc_reject_negative_depth(capsys, quiver_file, command):
    code, out, err = run(capsys, *command, "--quiver", quiver_file, "--depth", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: depth -1 must be >= 0\n"


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["schur", "--quiver", "x.json"])
    assert exc.value.code == 2


def _cli_process(*argv):
    # a fresh interpreter, so the handler that main installs on the root
    # logger writes to the real standard error
    src = str(Path(arcroots.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-m", "arcroots.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_log_level_debug_shows_schur_search_work(quiver_file):
    # an embeddable arc whose seed lies deeper than the limit walks to it
    argv = ("complete-arc", "--crossings", "2", "--endpoint", "1", "--quiver", quiver_file,
            "--depth", "1")
    quiet = _cli_process(*argv)
    loud = _cli_process("--log-level", "DEBUG", *argv)
    assert quiet.returncode == loud.returncode == 0
    assert quiet.stdout == loud.stdout
    assert json.loads(loud.stdout)["found"] is False
    assert "schur search" not in quiet.stderr
    assert "DEBUG" not in quiet.stderr
    line = next(ln for ln in loud.stderr.splitlines() if "schur search" in ln)
    assert line.startswith("DEBUG arcroots.explore:")
    assert "seeds visited" in line and "pruned" in line
    assert "live seeds remain at the depth limit" in line

    argv = ("schur", "--word", "2,1,3,1,2", "--quiver", quiver_file, "--depth", "6")
    quiet = _cli_process(*argv)
    loud = _cli_process("--log-level", "DEBUG", *argv)
    assert quiet.returncode == loud.returncode == 0
    assert quiet.stdout == loud.stdout
    assert json.loads(loud.stdout)["search"]["seeds_visited"] == 0
    assert "DEBUG" not in quiet.stderr
    assert "schur search" not in loud.stderr
    skip = (
        "DEBUG arcroots.cli: schur (2, 1, 3, 1, 2): not a real Schur root by embedding"
        " and by absolute order; search not run"
    )
    assert skip in loud.stderr.splitlines()
    probe = (
        "DEBUG arcroots.embedding: no embedding for 2,1:3: search tree of 6 placements,"
        " leaf space 4; 8 gaps scanned, 8 relabelled"
    )
    assert probe in loud.stderr.splitlines()


def test_log_level_rejects_unknown_level(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--log-level", "LOUD", "arc2refl", "--endpoint", "1"])
    assert exc.value.code == 2


# each step runs alone and then in sequence in one process; the pairs
# flip a global option, a flag, and a mutually exclusive group
PARSER_SEQUENCE = [
    ("--log-level", "DEBUG", "schur", "--word", "2,3,2", "--quiver", "QUIVER", "--depth", "3"),
    ("schur", "--word", "2,3,2", "--quiver", "QUIVER", "--depth", "3"),
    ("check-tuple", "--words", "1", "1", "--strict"),
    ("check-tuple", "--words", "1", "1"),
    ("check-tuple", "--words", "1", "2", "3"),
    ("check-tuple", "--arcs", "2,1:3", "1:2", "1"),
    ("check-tuple", "--words", "1", "--arcs", "1"),
    ("arc2refl", "--crossings", "2", "--endpoint", "3"),
]


def test_main_reuses_one_parser(capsys, quiver_file):
    def call(argv):
        try:
            code = main([quiver_file if a == "QUIVER" else a for a in argv])
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out

    alone = []
    for argv in PARSER_SEQUENCE:
        cli.build_parser.cache_clear()
        alone.append(call(argv))
    assert [code for code, _ in alone] == [0, 0, 1, 0, 0, 0, 2, 0]

    parser = cli.build_parser()
    together, levels = [], []
    for argv in PARSER_SEQUENCE:
        together.append(call(argv))
        levels.append(logging.getLogger("arcroots").level)
    assert cli.build_parser() is parser
    assert together == alone
    assert levels[:2] == [logging.DEBUG, logging.WARNING]
