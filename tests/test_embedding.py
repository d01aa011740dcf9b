import hashlib
import json
import logging
import random
import sys
from itertools import product

import pytest
from hypothesis import given, strategies as st

from arcroots.arcs import Arc, reflection_to_arc
from arcroots.embedding import (
    EmbeddingReport,
    EmbeddingWitness,
    _boundary,
    _entry,
    _exit,
    _space_size,
    candidate_witnesses,
    probe_embedding,
    witness_is_valid,
)
from arcroots.errors import CapExceeded
from arcroots.explore import iter_seeds
from arcroots.quiver import ExchangeMatrix
from arcroots.roots import initial_seed, mutate_seed, positive_form


@st.composite
def small_arcs(draw):
    n = draw(st.integers(2, 4))
    length = draw(st.integers(0, 5))
    crossings: list[int] = []
    for _ in range(length):
        options = [c for c in range(1, n + 1) if not crossings or c != crossings[-1]]
        crossings.append(draw(st.sampled_from(options)))
    ends = [e for e in range(1, n + 1) if not crossings or e != crossings[-1]]
    return Arc(tuple(crossings), draw(st.sampled_from(ends)))


def all_arcs(n, max_crossings):
    """Every canonical arc of rank n with at most max_crossings crossings,
    by length, then lexicographically."""
    rays = range(1, n + 1)
    for plen in range(max_crossings + 1):
        for prefix in product(rays, repeat=plen):
            if any(a == b for a, b in zip(prefix, prefix[1:])):
                continue
            for core in rays:
                if prefix and prefix[-1] == core:
                    continue
                yield Arc(prefix, core)


def random_arcs(rng, count, ranks, max_crossings, min_crossings=0):
    for _ in range(count):
        n = rng.choice(ranks)
        crossings: list[int] = []
        for _ in range(rng.randint(min_crossings, max_crossings)):
            crossings.append(rng.choice([c for c in range(1, n + 1) if [c] != crossings[-1:]]))
        ends = [e for e in range(1, n + 1) if [e] != crossings[-1:]]
        yield Arc(tuple(crossings), rng.choice(ends))


def test_displayed_arcs_embed():
    rep = probe_embedding(Arc((2,), 3))
    assert rep.embeddable
    assert rep.witness == EmbeddingWitness(("LR",), ((2, (0,)),))
    rep = probe_embedding(Arc((3, 1, 2, 3), 4))
    assert rep.embeddable
    assert witness_is_valid(Arc((3, 1, 2, 3), 4), rep.witness)


def test_no_crossings_embeds_trivially():
    for endpoint in (1, 2, 5):
        rep = probe_embedding(Arc((), endpoint))
        assert (rep.embeddable, rep.witness) == (True, EmbeddingWitness((), ()))


def test_first_non_embeddable_arc_in_rank_three():
    # discovered by enumerating all 45 reflections of word length <= 7 in
    # (length, lex) order; frozen here as a regression fixture
    assert not probe_embedding(Arc((2, 1), 3)).embeddable
    verdicts = [(a, probe_embedding(a).embeddable) for a in all_arcs(3, 3)]
    assert len(verdicts) == 45
    bad = [a for a, ok in verdicts if not ok]
    assert len(bad) == 10
    assert bad[0] == Arc((2, 1), 3)


def test_negative_reports_exhaust_without_witness():
    rep = probe_embedding(Arc((2, 1), 3))
    assert not rep.embeddable
    assert rep.witness is None
    assert rep.search_space == 4
    assert rep.branches == 6


def test_search_space_counts_sides_and_heights():
    assert probe_embedding(Arc((3, 1, 2, 3), 4)).search_space == 2**4 * 2
    assert sum(1 for _ in candidate_witnesses(Arc((3, 1, 2, 3), 4))) == 2**4 * 2


def test_cap():
    # uncapped by default, so 13 crossings are decided
    long = tuple((1, 2) * 7)[:13]
    assert probe_embedding(Arc(long, 3)).embeddable
    with pytest.raises(CapExceeded):
        probe_embedding(Arc((1, 2, 1), 3), cap=2)
    assert probe_embedding(Arc((1, 2, 1), 3), cap=3)


def test_every_b3_schur_root_arc_embeds_uncapped():
    # every c-vector is a real Schur root, so by the paper's corollary (the
    # Lee-Lee conjecture) its arc embeds, however many crossings it has
    b3 = ExchangeMatrix(((0, 2, 2), (-2, 0, 2), (-2, -2, 0)))
    arcs = {}
    for seed in iter_seeds(initial_seed(b3), 7):
        for c, r in zip(seed.cvectors, seed.reflections):
            arcs.setdefault(positive_form(c), reflection_to_arc(r))
    assert len(arcs) == 311
    assert sum(len(a.crossings) > 12 for a in arcs.values()) == 58
    for a in arcs.values():
        rep = probe_embedding(a)
        assert rep.embeddable and witness_is_valid(a, rep.witness), a


def test_search_results_are_pinned():
    # sha256 of (crossings, endpoint, embeddable, witness, branches) over
    # every canonical rank-3 arc of at most 6 crossings, taken from the
    # recursive search, so the branch order and first witness stay put
    rows = []
    for a in all_arcs(3, 6):
        rep = probe_embedding(a)
        witness = None if rep.witness is None else rep.witness.to_json()
        rows.append([list(a.crossings), a.endpoint, rep.embeddable, witness, rep.branches])
    assert (len(rows), sum(row[2] for row in rows)) == (381, 127)
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == "afe85eed816f5f282b3f23b67c51d7ac86bbac69e71a3bc754027b1f7168e8c8"


def _boundary_positions(n, heights):
    return {t: i for i, t in enumerate(_boundary(n, heights))}


def _interleave(pos, a, b):
    lo, hi = sorted((pos[a[0]], pos[a[1]]))
    return (lo < pos[b[0]] < hi) != (lo < pos[b[1]] < hi)


def _probe_by_clearing(a):
    # oracle: the search before face walks and face labels, where every
    # placement, the last chord to the endpoint included, rebuilds the
    # boundary and tests its chord against every placed chord
    l = len(a.crossings)
    space = _space_size(a)
    if l == 0:
        return EmbeddingReport(True, EmbeddingWitness((), ()), 0, space)
    n = max(a.endpoint, max(a.crossings))
    sides, chords, branches = [], [], 0
    heights = {s: [] for s in set(a.crossings)}

    def clear(chord):
        pos = _boundary_positions(n, heights)
        return not any(_interleave(pos, chord, c) for c in chords)

    stack = [product(("LR", "RL"), range(1))]
    witness = None
    while stack and witness is None:
        j = len(stack) - 1
        slots = heights[a.crossings[j]]
        entering = ("b", 0) if j == 0 else _exit(sides[j - 1], j - 1)
        for side, at in stack[-1]:
            branches += 1
            sides.append(side)
            slots.insert(at, j)
            chord = (entering, _entry(side, j))
            if clear(chord):
                chords.append(chord)
                if j + 1 < l:
                    width = len(heights[a.crossings[j + 1]]) + 1
                    stack.append(product(("LR", "RL"), range(width)))
                    break
                if clear((_exit(side, j), ("p", a.endpoint))):
                    witness = EmbeddingWitness(
                        tuple(sides), tuple(sorted((s, tuple(o)) for s, o in heights.items()))
                    )
                    break
                chords.pop()
            slots.pop(at)
            sides.pop()
        else:
            stack.pop()
            if j:
                chords.pop()
                heights[a.crossings[j - 1]].remove(j - 1)
                sides.pop()
    return EmbeddingReport(witness is not None, witness, branches, space)


@pytest.mark.parametrize(
    "arcs,count,embeddable",
    [
        (lambda: all_arcs(3, 6), 381, 127),
        (lambda: all_arcs(4, 4), 484, 214),
        (lambda: random_arcs(random.Random(12), 1500, (2, 3, 4, 5), 25), 1500, 571),
        # none embeds, so each search exhausts its tree and takes back
        # every crossing it places
        (lambda: random_arcs(random.Random(22), 3600, (3, 4, 5), 40, 26), 3600, 0),
    ],
    ids=[
        "rank-3-to-6-crossings", "rank-4-to-4-crossings", "random-rank-2-to-5",
        "random-long-negatives",
    ],
)
def test_face_walk_matches_clearing_each_placement(arcs, count, embeddable):
    # same verdict, first witness, branches and search space: a slot
    # outside the entering face still counts as a tried placement
    arcs = list(arcs())
    reports = [probe_embedding(a) for a in arcs]
    assert len(arcs) == count
    assert sum(rep.embeddable for rep in reports) == embeddable
    assert reports == [_probe_by_clearing(a) for a in arcs]
    # a search leaves nothing behind for the next one
    assert probe_embedding(arcs[-1]) == reports[-1]


def _longest_cvector_arc(path):
    b3 = ExchangeMatrix(((0, 2, 2), (-2, 0, 2), (-2, -2, 0)))
    seed = initial_seed(b3)
    for k in path:
        seed = mutate_seed(seed, k)
    return max(map(reflection_to_arc, seed.reflections), key=lambda a: len(a.crossings))


@pytest.mark.parametrize(
    "repeats,crossings,branches", [(3, 87, 4437), (4, 378, 97052), (5, 1595, 1478997)]
)
def test_long_cvector_arcs_keep_their_branch_counts(repeats, crossings, branches):
    a = _longest_cvector_arc((2, 1, 3) * repeats + (2,))
    assert len(a.crossings) == crossings
    rep = probe_embedding(a)
    assert rep.embeddable and witness_is_valid(a, rep.witness)
    assert rep.branches == branches


def test_debug_line_reports_the_relabelling(caplog):
    # measured totals of the face-label upkeep, for either verdict
    caplog.set_level(logging.DEBUG, logger="arcroots.embedding")
    probe_embedding(Arc((2, 1), 3))
    probe_embedding(_longest_cvector_arc((2, 1, 3) * 3 + (2,)))
    no, yes = (rec.getMessage() for rec in caplog.records)
    assert no == (
        "no embedding for 2,1:3: search tree of 6 placements, leaf space 4;"
        " 8 gaps scanned, 8 relabelled"
    )
    assert yes.startswith("embedding found for 2,1,2,3,")
    assert yes.endswith("; 3914 gaps scanned, 354 relabelled")


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_long_arc_needs_no_deep_stack():
    # a search that recursed once per crossing would need 56 frames more
    a = _longest_cvector_arc((2, 1, 3) * 3)
    assert len(a.crossings) == 56
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 60)
    try:
        rep = probe_embedding(a)
    finally:
        sys.setrecursionlimit(limit)
    assert rep.embeddable and witness_is_valid(a, rep.witness)


def test_witness_json_pin():
    # the shape the benchmark digests
    w = probe_embedding(Arc((3, 1, 2, 3), 4)).witness
    assert w.to_json() == {
        "sides": ["RL", "LR", "LR", "LR"],
        "heights": {"1": [1], "2": [2], "3": [0, 3]},
    }


def test_rechecker_rejects_malformed_witnesses():
    a = Arc((2,), 3)
    assert not witness_is_valid(a, EmbeddingWitness(("RL",), ((2, (0,)),)))
    assert not witness_is_valid(a, EmbeddingWitness((), ((2, (0,)),)))
    assert not witness_is_valid(a, EmbeddingWitness(("LR",), ()))
    assert not witness_is_valid(a, EmbeddingWitness(("LR",), ((1, (0,)),)))
    assert not witness_is_valid(a, EmbeddingWitness(("XX",), ((2, (0,)),)))


@given(small_arcs())
def test_search_matches_unpruned_enumeration(a):
    rep = probe_embedding(a)
    assert rep.embeddable == any(witness_is_valid(a, c) for c in candidate_witnesses(a))
    if rep.embeddable:
        assert witness_is_valid(a, rep.witness)
