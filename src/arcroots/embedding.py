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
search keeps one face label per boundary gap across levels.  A new
point copies the label of the gap it lands in, a placed chord splits
one face by relabelling that face's gaps on its side with fewer
indices, and an undo stack restores the labels on a take-back.  Every
chord, the last one to the endpoint puncture included, is then one
label comparison.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import permutations, product
from math import factorial
from typing import Iterator, Mapping, Sequence

from .arcs import Arc
from .errors import CapExceeded

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
    _boundary's order; the points themselves are never listed, because
    every index follows from the heights.  Placing crossing j inserts
    its two points, each new gap copying the label of the gap it splits,
    and its chord splits the face of the entering point in two: the
    gaps of that face on the side of the chord with fewer indices get a
    fresh label.  An undo stack keeps, per placed crossing, the two
    point indices, the relabelled gaps and their old label, so a
    take-back restores the labels and deletes the points.  A placement
    is then clear exactly when its slot's gap carries the entering
    point's label, and the last chord, from the last exit point to the
    endpoint puncture, when those two points' gaps carry the same label.

    Uncapped unless cap is given; then more than cap crossings raise
    CapExceeded.  The parameter stays only because the benchmark passes
    it; it goes when the benchmark stops doing so.

    The number of placements is measured, not bounded: at most 26, 140
    and 406 over all rank-3 arcs of 4, 8 and 12 crossings, 141,444 for
    the periodic arc (1,2,3,2)^32 ending at 3, and 97,052 and 1,478,997
    for the longest c-vector arcs (378 and 1,595 crossings) of the B3
    seeds at paths (2,1,3)x4,2 and (2,1,3)x5,2.  So is the relabelling,
    because a take-back can undo a split that is then redone: those two
    arcs took 827 and 3,402 splits, scanning 82,675 and 1,287,349 gaps
    and relabelling 1,703 and 6,817.  The debug log line gives both
    totals for every call.
    """
    l = len(a.crossings)
    if cap is not None and l > cap:
        raise CapExceeded(f"{l} crossings exceed the cap {cap}")
    space = _space_size(a)
    if l == 0:
        return EmbeddingReport(True, EmbeddingWitness((), ()), 0, space)
    n = max(a.endpoint, max(a.crossings))

    sides: list[str] = []
    heights: dict[int, list[int]] = {s: [] for s in set(a.crossings)}
    # labels[i] is the face of the gap just after boundary point i; with
    # no crossing placed the points are b and the punctures, in one face
    labels = [0] * (n + 1)
    undo: list[tuple[int, int, list[int], int]] = []
    branches = scanned = relabelled = fresh = 0

    def puncture(s: int) -> int:
        """The index of ray s's puncture: b, each higher ray's points and
        puncture, then the right side of ray s come first."""
        above = sum(len(order) for t, order in heights.items() if t > s)
        return 1 + n - s + 2 * above + len(heights.get(s, ()))

    def level(j: int, e: int):
        """Crossing j's options, its ray's puncture index, and the index
        e of the point where the curve enters the boundary before it."""
        s = a.crossings[j]
        return product(("LR", "RL"), range(len(heights[s]) + 1)), puncture(s), e

    def place(j: int, side: str, at: int, p: int, e: int) -> int:
        """Insert crossing j's points at height at and split the face of
        e along the chord to its entry; return the index of its exit."""
        nonlocal scanned, relabelled, fresh
        sides.append(side)
        heights[a.crossings[j]].insert(at, j)
        # the right point goes before the puncture, shifting it by one,
        # then the left point after it; e shifts past each one before it
        r, left = p - at, p + at + 2
        labels.insert(r, labels[r - 1])
        labels.insert(left, labels[left - 1])
        e += e >= r
        e += e >= left
        face = labels[e]
        lo, hi = sorted((e, left if side == "LR" else r))
        if 2 * (hi - lo) <= len(labels):
            gaps = range(lo, hi)
        else:
            gaps = [*range(hi, len(labels)), *range(lo)]
        moved = [i for i in gaps if labels[i] == face]
        fresh += 1
        for i in moved:
            labels[i] = fresh
        undo.append((r, left, moved, face))
        scanned += len(gaps)
        relabelled += len(moved)
        return r if side == "LR" else left

    def take_back(j: int) -> None:
        r, left, moved, face = undo.pop()
        for i in moved:
            labels[i] = face
        del labels[left], labels[r]
        heights[a.crossings[j]].remove(j)
        sides.pop()

    # Depth first with an explicit stack, one level per placed crossing,
    # so no arc is too long for the interpreter's recursion limit.  A
    # level's options run through sides, then insertion heights bottom
    # first.  Inserting at height `at` puts the entry of "LR" just after
    # point p + at and the entry of "RL" just after point p - at - 1.
    stack = [level(0, 0)]
    witness = None
    while stack and witness is None:
        j = len(stack) - 1
        options, p, e = stack[-1]
        face = labels[e]
        for side, at in options:
            branches += 1
            if labels[p + at if side == "LR" else p - at - 1] != face:
                continue
            x = place(j, side, at, p, e)
            if j + 1 < l:
                stack.append(level(j + 1, x))
                break
            if labels[x] == labels[puncture(a.endpoint)]:
                witness = EmbeddingWitness(
                    tuple(sides),
                    tuple(sorted((s, tuple(o)) for s, o in heights.items())),
                )
                break
            take_back(j)
        else:
            # every option at level j failed: take back crossing j - 1
            stack.pop()
            if j:
                take_back(j - 1)

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
    without the face labels the search keeps.
    """
    l = len(a.crossings)
    if len(witness.sides) != l or any(s not in ("LR", "RL") for s in witness.sides):
        return False
    heights = dict(witness.heights)
    placed = [j for order in heights.values() for j in order]
    if sorted(placed) != list(range(l)):
        return False
    for ray, order in heights.items():
        if any(a.crossings[j] != ray for j in order):
            return False

    n = max((a.endpoint, *a.crossings))
    owner: dict[Token, int] = {("b", 0): 0, ("p", a.endpoint): l}
    for j, side in enumerate(witness.sides):
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
