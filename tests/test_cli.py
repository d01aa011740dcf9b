import json

import pytest

from arcroots.cli import main

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


def test_refl2arc(capsys):
    code, out, _ = run(capsys, "refl2arc", "--word", "2,3,2")
    assert code == 0
    assert json.loads(out) == {"crossings": [2], "endpoint": 3}


def test_refl2arc_rejects_non_reflection(capsys):
    code, _, err = run(capsys, "refl2arc", "--word", "1,2")
    assert code == 2
    assert err.startswith("error:")


def test_root2refl(capsys, quiver_file):
    code, out, _ = run(capsys, "root2refl", "--root", "2,1,0")
    assert code == 0
    assert json.loads(out) == [1, 2, 1]
    code, out, _ = run(capsys, "root2refl", "--root", "2,1,0", "--quiver", quiver_file)
    assert json.loads(out) == [1, 2, 1]


def test_root2refl_rank_mismatch(capsys, quiver_file):
    code, _, err = run(capsys, "root2refl", "--root", "1,0", "--quiver", quiver_file)
    assert code == 2
    assert "rank" in err


def test_root2refl_imaginary_root(capsys):
    code, _, err = run(capsys, "root2refl", "--root", "1,1,1")
    assert code == 2
    assert "<u, u>" in err


def test_schur_positive(capsys, quiver_file):
    code, out, _ = run(capsys, "schur", "--word", "1,2,1", "--quiver", quiver_file)
    assert code == 0
    assert json.loads(out) == {"embeddable": True, "search": {"found": True, "path": [1]}}


def test_schur_negative_strict(capsys, quiver_file):
    code, out, _ = run(
        capsys, "schur", "--word", "2,1,3,1,2", "--quiver", quiver_file, "--strict"
    )
    assert code == 1
    assert json.loads(out) == {"embeddable": False, "search": {"found": False, "path": None}}


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
    ],
)
def test_malformed_quiver_exits_two(capsys, tmp_path, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "explore", "--quiver", str(path), "--depth", "1")
    assert code == 2
    assert out == ""
    assert message in err


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


def test_complete_arc_depth_exhausted(capsys, quiver_file):
    code, out, _ = run(capsys, "complete-arc", "--crossings", "2", "--endpoint", "1",
                       "--quiver", quiver_file, "--depth", "1", "--strict")
    assert code == 1
    assert "depth" in json.loads(out)["reason"]


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["schur", "--quiver", "x.json"])
    assert exc.value.code == 2
