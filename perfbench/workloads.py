"""The benchmark's workloads: inputs made from a seed, one timed pass, and
the output checks run outside the timed region.

Each workload is built in two steps.  The constructor is the set-up: it
generates the inputs (quiver files, reflections, arcs) from the seed.
`run_pass` is the timed region and only calls the program.  `check` judges
one pass's raw outputs afterwards and returns the failures found, as
(operation, message) pairs, and a digest of the outputs, which must not
change from one pass to the next.  `operations` is the number of program
calls in one pass.

The program is reached the way a user reaches it: the CLI in-process
through `arcroots.cli.main` with standard output captured, or the public
API.  Functions are looked up on their module at call time, so a tracer
installed later sees every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

cli = importlib.import_module("arcroots.cli")
embedding = importlib.import_module("arcroots.embedding")
explore_mod = importlib.import_module("arcroots.explore")
quiver = importlib.import_module("arcroots.quiver")
roots = importlib.import_module("arcroots.roots")
arcs_mod = importlib.import_module("arcroots.arcs")
words = importlib.import_module("arcroots.words")

B3 = ((0, 2, 2), (-2, 0, 2), (-2, -2, 0))
B4 = tuple(tuple(0 if i == j else (2 if j > i else -2) for j in range(4)) for i in range(4))

# Rank-3 reflections of word length <= 7 that are not real Schur roots of
# B3 (acceptance criterion 5): both oracles must say no for these ten and
# yes for the other 35.
NEGATIVES = {
    (2, 1, 3, 1, 2), (2, 3, 1, 3, 2), (1, 3, 1, 2, 1, 3, 1), (1, 3, 2, 1, 2, 3, 1),
    (2, 1, 3, 1, 3, 1, 2), (2, 1, 3, 2, 3, 1, 2), (2, 3, 1, 2, 1, 3, 2),
    (2, 3, 1, 3, 1, 3, 2), (3, 1, 2, 3, 2, 1, 3), (3, 1, 3, 2, 3, 1, 3),
}

# sha256 of the (b, c, path) fields of every streamed seed, in stream
# order, for the two fixed acceptance trees; random trees are only
# compared across passes.
TREE_DIGESTS = {
    ("b3", 8): "bd2cc8c5e6a9d9f1ab23f0fab7face1a8b3e2f1d4dfbace7ff7c6c1e1a560f2f",
    ("b4", 5): "ef2bd6b32832608fd5db7b348062a9d8dcc4f7b3d491bb6da67cc0b1047a19f0",
    ("b3", 3): "20f992ea81fe0b52449ed4167ad3d3324c3c76ac149f4743127799cf9d85745d",
    ("b4", 2): "92a612e50c33fedb0f3cfe77ba07ad42dc7d1181e8728f2501ef2a194a5f3cac",
}


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def tree_count(n: int, depth: int) -> int:
    return 1 + n * ((n - 1) ** depth - 1) // (n - 2)


def write_quiver(path: Path, rows) -> str:
    path.write_text(json.dumps({"b": [list(r) for r in rows]}))
    return str(path)


def stream_digest(path: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    lines = 0
    with path.open() as fh:
        for line in fh:
            seed = json.loads(line)
            h.update(json.dumps([seed["b"], seed["c"], seed["path"]]).encode())
            lines += 1
    return h.hexdigest(), lines


@dataclass(frozen=True)
class Tree:
    name: str
    rank: int
    depth: int
    quiver: str
    out: Path


class ExploreVerify:
    """CLI `explore --verify all --out` on the two acceptance trees and two
    seeded random 2-complete acyclic quivers (rank 5 with weights 2..5,
    rank 6 with weights 2..3)."""

    name = "explore_verify"

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        rng = random.Random(seed)
        r5 = quiver.random_acyclic_two_complete(5, rng, 2, 5).rows
        r6 = quiver.random_acyclic_two_complete(6, rng, 2, 3).rows
        depths = (3, 2, 1, 1) if smoke else (8, 5, 4, 3)
        self.trees = [
            Tree(name, len(rows), depth, write_quiver(workdir / f"{name}.json", rows),
                 workdir / f"{name}.jsonl")
            for (name, rows), depth in zip(
                (("b3", B3), ("b4", B4), ("r5", r5), ("r6", r6)), depths
            )
        ]
        self.operations = len(self.trees)

    def counts(self) -> dict:
        return {
            "trees": len(self.trees),
            "seeds": sum(tree_count(t.rank, t.depth) for t in self.trees),
            "seeds_per_tree": {t.name: tree_count(t.rank, t.depth) for t in self.trees},
        }

    def run_pass(self) -> list:
        return [
            run_cli(["explore", "--quiver", t.quiver, "--depth", str(t.depth),
                     "--verify", "all", "--out", str(t.out)])
            for t in self.trees
        ]

    def check(self, raw: list) -> tuple[list[tuple[str, str]], str]:
        failures = []
        digests = []
        for t, (code, text) in zip(self.trees, raw):
            digest, lines = stream_digest(t.out)
            digests.append(digest)
            report = json.loads(text) if code == 0 else {}
            want = tree_count(t.rank, t.depth)
            pinned = TREE_DIGESTS.get((t.name, t.depth), digest)
            problems = [
                (code != 0, f"exit {code}"),
                (report.get("seeds_visited") != want, f"{report.get('seeds_visited')} seeds, want {want}"),
                (report.get("violations") != [], f"violations {report.get('violations')}"),
                (lines != want, f"{lines} streamed lines, want {want}"),
                (digest != pinned, "stream digest differs from the pinned one"),
            ]
            failures += [(t.name, msg) for bad, msg in problems if bad]
        return failures, sha256_text(" ".join(digests))


def rank3_reflections(max_length: int) -> list:
    """Every canonical rank-3 reflection of word length <= max_length."""
    out = []
    level = [()]
    for _ in range(max_length // 2 + 1):
        for p in level:
            for core in (1, 2, 3):
                if not p or p[-1] != core:
                    out.append(words.Reflection(p, core))
        level = [p + (s,) for p in level for s in (1, 2, 3) if not p or p[-1] != s]
    return out


def csv(ints) -> str:
    return ",".join(str(i) for i in ints)


class SchurSweep:
    """Acceptance criterion 5 through the CLI: `schur --depth 14` and
    `complete-arc --depth 14` for every rank-3 reflection of word length
    <= 7 on B3.  The seed only shuffles the query order."""

    name = "schur_sweep"

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        self.depth = 4 if smoke else 14
        self.quiver = write_quiver(workdir / "b3.json", B3)
        self.gram = roots.cartan_companion(quiver.ExchangeMatrix(B3))
        self.reflections = rank3_reflections(3 if smoke else 7)
        random.Random(seed).shuffle(self.reflections)
        self.operations = 2 * len(self.reflections)

    def counts(self) -> dict:
        return {
            "queries": self.operations,
            "reflections": len(self.reflections),
            "expected_negatives": sum(r.word in NEGATIVES for r in self.reflections),
        }

    def run_pass(self) -> list:
        out = []
        for r in self.reflections:
            out.append(run_cli(["schur", "--word", csv(r.word), "--quiver", self.quiver,
                                "--depth", str(self.depth)]))
            out.append(run_cli(["complete-arc", "--crossings", csv(r.prefix),
                                "--endpoint", str(r.core), "--quiver", self.quiver,
                                "--depth", str(self.depth)]))
        return out

    def check(self, raw: list) -> tuple[list[tuple[str, str]], str]:
        failures = []
        for i, r in enumerate(self.reflections):
            (s_code, s_text), (c_code, c_text) = raw[2 * i], raw[2 * i + 1]
            want = r.word not in NEGATIVES
            schur, complete = f"schur {csv(r.word)}", f"complete-arc {csv(r.word)}"
            if s_code != 0:
                failures.append((schur, f"exit {s_code}"))
            else:
                verdict = json.loads(s_text)
                if not verdict["embeddable"] == verdict["search"]["found"] == want:
                    failures.append((schur, f"{verdict}, want {want}"))
            if c_code != 0:
                failures.append((complete, f"exit {c_code}"))
                continue
            completion = json.loads(c_text)
            root = list(roots.reflection_to_root(r, self.gram))
            if completion["found"] != want:
                failures.append((complete, f"found {completion['found']}, want {want}"))
            elif want and root not in completion["seed"]["c"]:
                failures.append((complete, f"seed lacks the c-vector {root}"))
        return failures, sha256_text("".join(text for _, text in raw))


def random_reflection(rng: random.Random, prefix_length: int):
    prefix: list[int] = []
    for _ in range(prefix_length):
        prefix.append(rng.choice([s for s in (1, 2, 3) if not prefix or s != prefix[-1]]))
    core = rng.choice([s for s in (1, 2, 3) if not prefix or s != prefix[-1]])
    return words.Reflection(tuple(prefix), core)


# Exhausting every candidate witness confirms a negative verdict without
# trusting the search; 2^l * prod(m_s!) candidates stays small up to here.
AUDIT_CROSSINGS = 4


class ArcEmbed:
    """`probe_embedding` on the arc of every distinct real Schur root
    reached in B3 (all embeddable), each followed by a seeded random rank-3
    arc of the same crossing length (mostly not embeddable).  The cap is
    the longest arc's crossing count."""

    name = "arc_embed"

    def __init__(self, seed: int, smoke: bool, workdir: Path) -> None:
        start = roots.initial_seed(quiver.ExchangeMatrix(B3))
        schur_roots = {}
        for s in explore_mod.iter_seeds(start, 3 if smoke else 8):
            for c in s.cvectors:
                schur_roots.setdefault(roots.positive_form(c), None)
        rng = random.Random(seed)
        self.arcs = []
        self.positive = []
        for u in schur_roots:
            a = arcs_mod.reflection_to_arc(roots.root_to_reflection(u, start.gram))
            b = arcs_mod.reflection_to_arc(random_reflection(rng, len(a.crossings)))
            self.arcs += [a, b]
            self.positive += [True, False]
        self.cap = max(len(a.crossings) for a in self.arcs)
        self.operations = len(self.arcs)
        self.audited = False

    def counts(self) -> dict:
        return {
            "arcs": len(self.arcs),
            "schur_root_arcs": sum(self.positive),
            "max_crossings": self.cap,
        }

    def run_pass(self) -> list:
        return [embedding.probe_embedding(a, self.cap) for a in self.arcs]

    def check(self, raw: list) -> tuple[list[tuple[str, str]], str]:
        failures = []
        if not self.audited:
            self.audited = True
            failures += self.audit(raw)
        digest = hashlib.sha256()
        for i, (a, known, rep) in enumerate(zip(self.arcs, self.positive, raw)):
            if known and not rep.embeddable:
                failures.append((f"arc {i}", f"{a} is a real Schur root's arc, reported not embeddable"))
            if rep.embeddable and not embedding.witness_is_valid(a, rep.witness):
                failures.append((f"arc {i}", f"{a}: witness fails the re-check"))
            witness = None if rep.witness is None else rep.witness.to_json()
            digest.update(json.dumps([rep.embeddable, witness], sort_keys=True).encode())
        return failures, digest.hexdigest()

    def audit(self, raw: list) -> list[tuple[str, str]]:
        out = []
        for i, (a, rep) in enumerate(zip(self.arcs, raw)):
            if not rep.embeddable and len(a.crossings) <= AUDIT_CROSSINGS:
                if any(embedding.witness_is_valid(a, w) for w in embedding.candidate_witnesses(a)):
                    out.append((f"arc {i}", f"{a} reported not embeddable, but a candidate witness is valid"))
        return out


WORKLOADS = {w.name: w for w in (ExploreVerify, SchurSweep, ArcEmbed)}

