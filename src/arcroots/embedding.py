"""Deciding whether a crossing sequence is realized by an embedded curve.

Cut the disc along every ray.  What is left is simply connected, so each
piece of the curve between consecutive crossings is a chord of the cut
boundary, and the arc embeds exactly when some choice of (a) the side
each crossing enters its ray from and (b) the bottom-to-top order of the
crossings on each ray makes all chords pairwise non-interleaving.
Counterclockwise, the cut boundary reads: the basepoint b, then for each
ray from n down to 1 its right side top to bottom, the puncture, and its
left side bottom to top.

Both choice families are searched by backtracking, one level per
crossing.  The relative circular order of points already on the boundary
never changes when a later crossing is inserted, so a segment can be
rejected as soon as both of its endpoints are placed; the search is
nevertheless exhaustive.  The placed chords never cross, so they cut the
disc into faces, and a new chord is clear exactly when its far end lies
in the face of the point where the curve enters the boundary.  The
search keeps one face label per boundary gap, so every chord is one
label comparison; it runs as one flat loop over a stack of integer
cursors, one per level, and reads the witness off that stack only at
the leaf that succeeds.  probe_embedding's docstring gives the upkeep.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import permutations, product
from math import factorial
from typing import Iterator, Mapping, Sequence

from .arcs import Arc
from .errors import CapExceeded, require_int

log = logging.getLogger(__name__)

Token = tuple[str, int]


@dataclass(frozen=True)
class EmbeddingWitness:
    """Per-crossing side choices plus per-ray crossing orders.

    sides[j] is "LR" when the curve meets crossing j on the left copy of
    its ray and leaves on the right copy, "RL" for the opposite.  heights
    pairs each crossed ray with the 0-based crossing indices on it,
    bottom to top.
    """

    sides: tuple[str, ...]
    heights: tuple[tuple[int, tuple[int, ...]], ...]

    def to_json(self) -> dict:
        return {
            "sides": list(self.sides),
            "heights": {str(ray): list(order) for ray, order in self.heights},
        }


@dataclass(frozen=True)
class EmbeddingReport:
    """Verdict plus the search's work: branches counts the placements tried
    at every level, search_space only the complete (sides, heights) leaves,
    so their ratio is not a pruning fraction."""

    embeddable: bool
    witness: EmbeddingWitness | None
    branches: int
    search_space: int


def _entry(side: str, j: int) -> Token:
    return ("L", j) if side == "LR" else ("R", j)


def _exit(side: str, j: int) -> Token:
    return ("R", j) if side == "LR" else ("L", j)


def _boundary(n: int, heights: Mapping[int, Sequence[int]]) -> list[Token]:
    """Every boundary point in counterclockwise order."""
    tokens: list[Token] = [("b", 0)]
    for s in range(n, 0, -1):
        order = heights.get(s, [])
        tokens.extend(("R", j) for j in reversed(order))
        tokens.append(("p", s))
        tokens.extend(("L", j) for j in order)
    return tokens


def _space_size(a: Arc) -> int:
    size = 2 ** len(a.crossings)
    for s in set(a.crossings):
        size *= factorial(a.crossings.count(s))
    return size


def probe_embedding(a: Arc, cap: int | None = None) -> EmbeddingReport:
    """Exhaustive embeddability decision with search statistics.

    Branches are tried in lexicographic order (sides "LR" before "RL",
    insertion heights bottom first), so the returned witness is the
    first one in that order.  branches counts the placements tried,
    including those whose slot lies outside the entering point's face;
    search_space is the unpruned 2^l * prod(m_s!) product.

    The cut boundary is kept across levels as one face label per gap, in
    _boundary's order; every point's index follows from the cursors and
    a count of points per ray.  Placing crossing j inserts its two
    points, each new gap copying the label of the gap it splits, and one
    loop over the gaps on the side of its chord with fewer indices gives
    those of the entering point's face a fresh label.  The undo entry
    keeps the two point indices, the relabelled gaps and the old label;
    a level back at its placed crossing restores them before trying its
    next option.  A placement is clear exactly when its slot's gap
    carries the entering point's label, and the last chord, to the
    endpoint puncture, when its two ends' gaps do.  Only a leaf that
    succeeds builds the witness, from each level's cursor.

    Uncapped unless cap is given; then more than cap crossings raise
    CapExceeded, and a cap that is not an int at least 0 (a bool, 0.5,
    "3") raises ValueError.  The parameter stays only because the
    benchmark passes it; it goes when the benchmark stops doing so.

    The number of placements is measured, not bounded: at most 26, 140
    and 406 over all rank-3 arcs of 4, 8 and 12 crossings, 141,444 for
    the periodic arc (1,2,3,2)^32 ending at 3, and 97,052 and 1,478,997
    for the longest c-vector arcs (378 and 1,595 crossings) of the B3
    seeds at paths (2,1,3)x4,2 and (2,1,3)x5,2.  So is the relabelling,
    because a take-back can undo a split that is then redone: those two
    arcs took 827 and 3,402 splits, scanning 82,675 and 1,287,349 gaps
    and relabelling 1,703 and 6,817.  The debug log line gives both
    totals for every call.  They take about 0.007 s and 0.11 s of CPU
    with CPython 3.11 on an x86_64 host, nearly all in the option scan.
    """
    crossings = a.crossings
    l = len(crossings)
    if cap is not None and require_int(cap, "cap") < 0:
        raise ValueError(f"cap {cap} must be >= 0")
    if cap is not None and l > cap:
        raise CapExceeded(f"{l} crossings exceed the cap {cap}")
    space = _space_size(a)
    if l == 0:
        return EmbeddingReport(True, EmbeddingWitness((), ()), 0, space)
    n = max(a.endpoint, max(crossings))

    # count[s] is the number of points on ray s; ray s's puncture comes
    # after b, each higher ray's points and puncture, and s's right side,
    # so its index is 1 + n - s + 2 * sum(count[s + 1:]) + count[s]
    count = [0] * (n + 1)
    # labels[i] is the face of the gap just after boundary point i; with
    # no crossing placed the points are b and the punctures, in one face
    labels = [0] * (n + 1)
    undo: list[tuple[int, int, list[int], int]] = []
    branches = scanned = relabelled = fresh = 0

    # Depth first with an explicit stack, one level per placed crossing,
    # so no arc is too long for the interpreter's recursion limit.  Each
    # level is [next option, puncture index p, entering point e, height
    # count h].  Options run through sides, then insertion heights bottom
    # first: option pos <= h is "LR" at height pos, its entry just after
    # point p + pos; any other is "RL" at height pos - h - 1, its entry
    # just after point p + h - pos.
    s = crossings[0]
    stack = [[0, 1 + n - s, 0, 0]]
    witness = None
    while stack:
        j = len(stack) - 1
        if len(undo) > j:
            # back at level j with crossing j placed: take it back
            r, left, moved, face = undo.pop()
            for i in moved:
                labels[i] = face
            del labels[left], labels[r]
            count[crossings[j]] -= 1
        cursor = stack[j]
        start, p, e, h = cursor
        face = labels[e]
        for pos in range(start, 2 * h + 2):
            if labels[p + pos if pos <= h else p + h - pos] == face:
                break
        else:
            # every option at level j failed: back to level j - 1
            branches += 2 * h + 2 - start
            stack.pop()
            continue
        branches += pos + 1 - start
        cursor[0] = pos + 1

        # insert crossing j's points and split the face of e along the
        # chord to its entry; the right point goes before the puncture,
        # shifting it by one, then the left point after it, and e shifts
        # past each one before it
        lr = pos <= h
        at = pos if lr else pos - h - 1
        s = crossings[j]
        count[s] += 1
        r, left = p - at, p + at + 2
        labels.insert(r, labels[r - 1])
        labels.insert(left, labels[left - 1])
        e += e >= r
        e += e >= left
        entry, x = (left, r) if lr else (r, left)
        lo, hi = (e, entry) if e < entry else (entry, e)
        if 2 * (hi - lo) <= len(labels):
            gaps = range(lo, hi)
        else:
            gaps = [*range(hi, len(labels)), *range(lo)]
        fresh += 1
        # one plain loop: before CPython 3.12 a comprehension is a frame
        moved = []
        for i in gaps:
            if labels[i] == face:
                labels[i] = fresh
                moved.append(i)
        undo.append((r, left, moved, face))
        scanned += len(gaps)
        relabelled += len(moved)

        if j + 1 < l:
            s = crossings[j + 1]
            stack.append([0, 1 + n - s + 2 * sum(count[s + 1 :]) + count[s], x, count[s]])
            continue
        t = a.endpoint
        if labels[x] == labels[1 + n - t + 2 * sum(count[t + 1 :]) + count[t]]:
            # replay the placements; a level's cursor is one past its option
            sides = []
            heights: dict[int, list[int]] = {s: [] for s in set(crossings)}
            for j, (c, _, _, h) in enumerate(stack):
                sides.append("LR" if c <= h + 1 else "RL")
                heights[crossings[j]].insert(c - 1 if c <= h + 1 else c - h - 2, j)
            per_ray = tuple(sorted((s, tuple(o)) for s, o in heights.items()))
            witness = EmbeddingWitness(tuple(sides), per_ray)
            break

    log.debug(
        "%s for %s: search tree of %d placements, leaf space %d;"
        " %d gaps scanned, %d relabelled",
        "no embedding" if witness is None else "embedding found", a,
        branches, space, scanned, relabelled,
    )
    return EmbeddingReport(witness is not None, witness, branches, space)


def candidate_witnesses(a: Arc) -> Iterator[EmbeddingWitness]:
    """Every (sides, heights) candidate, unpruned, in lexicographic order.

    The product grows as 2^l * prod(m_s!); meant for audits of small
    arcs, where checking each candidate independently confirms a
    negative verdict without trusting the backtracking search.
    """
    rays = sorted(set(a.crossings))
    per_ray = {s: [j for j, c in enumerate(a.crossings) if c == s] for s in rays}
    for sides in product(("LR", "RL"), repeat=len(a.crossings)):
        for orders in product(*(permutations(per_ray[s]) for s in rays)):
            yield EmbeddingWitness(sides, tuple(zip(rays, orders)))


def witness_is_valid(a: Arc, witness: EmbeddingWitness) -> bool:
    """Re-check a witness by walking the boundary once with a stack.

    The chords of a witnessed embedding must open and close like
    balanced brackets along the circle; this re-derives the verdict
    without the face labels the search keeps.  A malformed witness gives
    False and never raises; a bool or a float is no ray or index.
    """
    l = len(a.crossings)
    sides, entries = witness.sides, witness.heights
    if not (isinstance(sides, tuple) and len(sides) == l and isinstance(entries, tuple)):
        return False
    if any(s not in ("LR", "RL") for s in sides):
        return False
    if not all(isinstance(e, tuple) and len(e) == 2 and isinstance(e[1], tuple) for e in entries):
        return False
    rays = [ray for ray, _ in entries]
    placed = [j for _, order in entries for j in order]
    # ints but no bools, as require_int has it, or True passes as ray 1
    if any(isinstance(x, bool) or not isinstance(x, int) for x in rays + placed):
        return False
    if len(set(rays)) != len(rays) or not set(rays) <= set(a.crossings):
        return False
    if sorted(placed) != list(range(l)):
        return False
    heights = dict(entries)
    for ray, order in heights.items():
        if any(a.crossings[j] != ray for j in order):
            return False

    n = max((a.endpoint, *a.crossings))
    owner: dict[Token, int] = {("b", 0): 0, ("p", a.endpoint): l}
    for j, side in enumerate(sides):
        owner[_entry(side, j)] = j
        owner[_exit(side, j)] = j + 1

    stack: list[int] = []
    open_chords: set[int] = set()
    for token in _boundary(n, heights):
        chord = owner.get(token)
        if chord is None:
            continue
        if chord in open_chords:
            if not stack or stack[-1] != chord:
                return False
            stack.pop()
        else:
            open_chords.add(chord)
            stack.append(chord)
    return not stack
