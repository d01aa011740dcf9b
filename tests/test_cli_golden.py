"""Golden outputs of the command line.

Each invocation runs in-process on fixed quiver files, and its exit code
and the sha256 of its standard output and standard error are pinned.  B3,
B4 and B9 have every weight 2; w325 has weights 2, 3 and 5 and is not
normalized as written, so its pins fix the map from the file's matrix to
the pairing where |b_ij| != 2.  A change that claims to leave the command line's output
byte-identical must pass this file unchanged.
"""

import hashlib
import json

import pytest

from arcroots.cli import main

QUIVERS = {
    "b3.json": [[0, 2, 2], [-2, 0, 2], [-2, -2, 0]],
    "b4.json": [[0 if i == j else (2 if j > i else -2) for j in range(4)] for i in range(4)],
    "b9.json": [[0 if i == j else (2 if j > i else -2) for j in range(9)] for i in range(9)],
    "w325.json": [[0, 2, 3], [-2, 0, -5], [-3, 5, 0]],
}

EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"  # sha256 of no output

# (id, arguments, exit code, sha256 of stdout, sha256 of stderr)
CASES = [
    (
        "explore-b3-d6",
        "explore --quiver b3.json --depth 6 --verify all",
        0,
        "36da0dc806c12c774072e8590dceb224b4a9b8f6a48e0b4c1b3d069db267e966",
        EMPTY,
    ),
    (
        "explore-b4-d4",
        "explore --quiver b4.json --depth 4 --verify all",
        0,
        "bc7b2d60994a5e1dc92aba09a4d90efb229e5e6c4ed63ac01afe39a9b1351456",
        EMPTY,
    ),
    (
        "schur-found",
        "schur --word 1,2,1 --quiver b3.json",
        0,
        "4f3be0aba84ee43e7b4c92278ffe77dd736d471804c47f901037d92099639849",
        EMPTY,
    ),
    (
        "schur-not-found",
        "schur --word 2,1,3,1,2 --quiver b3.json --depth 6 --strict",
        1,
        "e0cf4a3fd7cdf745ff53e8fe9f3af3cc60a376a73c361fb2f4dee39ffd9413f4",
        EMPTY,
    ),
    (
        "complete-arc-found",
        "complete-arc --crossings 2 --endpoint 1 --quiver b3.json",
        0,
        "74e1bc203d22dd37ee3da990529f39e7419b65a6d7efeee78e390ee075a29b75",
        EMPTY,
    ),
    (
        "complete-arc-not-embeddable",
        "complete-arc --crossings 2,1 --endpoint 3 --quiver b3.json --strict",
        1,
        "6bd860b5f72db8d33a4af30dbfd6e978c8e4a46ca8b0c89cdd8a9879b49d49ea",
        EMPTY,
    ),
    (
        "complete-arc-depth-exhausted",
        "complete-arc --crossings 2 --endpoint 1 --quiver b3.json --depth 1 --strict",
        1,
        "f6e2e04d171264009671856207437ddd7f6caddbff4140a2bfb5142dbe83f29d",
        EMPTY,
    ),
    (
        # arcs of 13 crossings: decided, not refused as too long
        "schur-13-crossings",
        "schur --word 1,2,3,2,1,2,3,2,1,2,3,2,1,2,1,2,3,2,1,2,3,2,1,2,3,2,1 --quiver b3.json"
        " --depth 6",
        0,
        "fe1812394cfff0b7388b16f0a6223d479c2dafb62c15fbd1c7a239c1a3f1434d",
        EMPTY,
    ),
    (
        "complete-arc-13-crossings",
        "complete-arc --crossings 1,2,3,2,1,2,3,2,1,2,3,2,1 --endpoint 2 --quiver b3.json"
        " --depth 6",
        0,
        "cfd640aaf87f8faec7c69646ff154d2c0d09cb73c6399bf48f9f97eb1830ac5c",
        EMPTY,
    ),
    (
        "check-tuple-words",
        "check-tuple --words 1,2,1 1,3,1 1",
        0,
        "d0846715481cec6f8feaf14b5fac4e2756dcdfd0dd4f412c64af01e89734bce9",
        EMPTY,
    ),
    (
        "check-tuple-words-b4",
        "check-tuple --words 1 2 3 4 --quiver b4.json",
        0,
        "b17992c55494c8ac173d04af7d989949b2e31c851b92fa0a7064ce4e5070fa75",
        EMPTY,
    ),
    (
        "check-tuple-arcs",
        "check-tuple --arcs 2,1:3 1:2 1",
        0,
        "c0623da94d6a175eeb1d609c1d9f47056e9f4f19a2024ac3c24d8dd900675ac5",
        EMPTY,
    ),
    (
        "check-tuple-arcs-yseed",
        "check-tuple --arcs 1 2 3 4",
        0,
        "b17992c55494c8ac173d04af7d989949b2e31c851b92fa0a7064ce4e5070fa75",
        EMPTY,
    ),
    (
        # "error: letter or ray 4 exceeds the rank 2", from words.require_rank
        "check-tuple-arcs-wrong-arity",
        "check-tuple --arcs 1 2:4",
        2,
        EMPTY,
        "310c2d0b18a69bec178247d81b510a86c914405588698dddf07b974fce99d298",
    ),
    (
        "check-tuple-strict",
        "check-tuple --words 1 1 --strict",
        1,
        "601e430334d01e9e5074cde3d5a6b4d17972b4b9ee35b8a127ae0bf3d60ab33a",
        EMPTY,
    ),
    (
        # "error: letter or ray 4 exceeds the rank 3", from words.require_rank
        "check-tuple-wrong-arity",
        "check-tuple --words 1 4 3",
        2,
        EMPTY,
        "32b2c974bd055b036d982c88c4bb537c96a0449a1cb6542d8d016c1003788b42",
    ),
    (
        # rank 9: the ordering check decides any rank
        "check-tuple-words-rank-9",
        "check-tuple --words 1 2 3 4 5 6 7 8 9",
        0,
        "b17992c55494c8ac173d04af7d989949b2e31c851b92fa0a7064ce4e5070fa75",
        EMPTY,
    ),
    (
        "explore-rank-9-d1",
        "explore --quiver b9.json --depth 1 --verify all",
        0,
        "f7ff64613bf6b201ccaeffa50e3ef642fe303604ba927816a3d66b65c7eede83",
        EMPTY,
    ),
    (
        "root2refl",
        "root2refl --root 2,1,0",
        0,
        "52233266cc173d515438851ec7b1051ff19531bd8f785747c7d77e6d6dd652bf",
        EMPTY,
    ),
    (
        "root2refl-b4",
        "root2refl --root 0,1,2,0 --quiver b4.json",
        0,
        "2476be22bc589c93fcd8f1869373999058a7301b17ea652ceca7f25436ad08ae",
        EMPTY,
    ),
    (
        "arc2refl",
        "arc2refl --crossings 3,1,2,3 --endpoint 4",
        0,
        "e882a261d9cd7ad1626d3292b6c370dd412407c4f8f6740c39be3a9a0aa3e6d4",
        EMPTY,
    ),
    (
        "refl2arc",
        "refl2arc --word 3,1,2,3,4,3,2,1,3",
        0,
        "204d701e8cafe720f027ae6f9970eb70e090932e99f86712d315e5dbf2fe154f",
        EMPTY,
    ),
    (
        "export-dot-exchange-tree",
        "export-dot exchange-tree --quiver b3.json --depth 3",
        0,
        "07437c3252be3d6efe9ec8d25f12dc870aa2f04adde3f76fc35cb32c117a983b",
        EMPTY,
    ),
    (
        "export-dot-cayley-fragment",
        "export-dot cayley-fragment --quiver b4.json --path 1,2,3",
        0,
        "d7e007a469f2183718da36e635d3ea62a26ced533f627643b732e08805605b56",
        EMPTY,
    ),
    (
        # [3, 1, 3]: the root and the word are read in the normalized
        # labels, where the file's vertices 1, 3, 2 (source to sink)
        # become 1, 2, 3, not in the file's own, where <u, u> = -2 for
        # (1, 0, 2).  Pinned so that a refactor of
        # the pairing cannot move it and a change of frame moves it on
        # purpose (ROADMAP item 11).
        "root2refl-w325",
        "root2refl --root 1,0,2 --quiver w325.json",
        0,
        "7f47dfc72e71c0269fc9ceb609971a03d894a58d573bb1f7a39b1fd5204b29b8",
        EMPTY,
    ),
    (
        # "is_yseed": true
        "check-tuple-words-w325",
        "check-tuple --words 1 2 3 --quiver w325.json",
        0,
        "b17992c55494c8ac173d04af7d989949b2e31c851b92fa0a7064ce4e5070fa75",
        EMPTY,
    ),
    (
        # 10 seeds, max_weight 82, no violations
        "explore-w325-d2",
        "explore --quiver w325.json --depth 2 --verify all",
        0,
        "32ba8e140d9314272e2ed8265a27ae5bcca79eae34b41c3566dc756585278bdb",
        EMPTY,
    ),
    (
        # found at path [2, 1, 2, 1] after 23 seeds
        "schur-w325",
        "schur --word 2,1,2 --quiver w325.json --depth 8",
        0,
        "2e56022bdde46998d232c60851930e6d4055e35cb1de91e62d4cc84445741361",
        EMPTY,
    ),
    (
        "complete-arc-w325",
        "complete-arc --crossings 2 --endpoint 1 --quiver w325.json --depth 8",
        0,
        "b46193f0b9ed0c6108c9a5f5d37ff4bc6ca929005bcf5d3a9f990c179d4c32f3",
        EMPTY,
    ),
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture
def quiver_dir(tmp_path, monkeypatch):
    for name, rows in QUIVERS.items():
        (tmp_path / name).write_text(json.dumps({"b": rows}))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(capsys, args):
    code = main(args.split())
    captured = capsys.readouterr()
    return code, _sha(captured.out), _sha(captured.err)


@pytest.mark.parametrize(
    "args,code,out_sha,err_sha", [c[1:] for c in CASES], ids=[c[0] for c in CASES]
)
def test_cli_output_is_pinned(capsys, quiver_dir, args, code, out_sha, err_sha):
    assert run(capsys, args) == (code, out_sha, err_sha)
