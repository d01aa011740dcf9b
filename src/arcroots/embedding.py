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
in the face of the point where the curve enters the boundary.  Every
chord, the last one to the endpoint puncture included, is decided by one
walk around the boundary per level, so each placement costs one lookup
rather than a test against every placed chord.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain, permutations, product
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

    def height_map(self) -> dict[int, tuple[int, ...]]:
        return {ray: order for ray, order in self.heights}

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


def _face(tokens: list[Token], chords: list[tuple[Token, Token]], start: Token) -> bytearray:
    """One byte per token: 1 when the gap just after it lies in the face
    of start, else 0.

    Walk once around the circle from start, toggling a chord as each of
    its endpoints passes.  The chords never cross, so a chord from start
    to a new point in a gap crosses none of them exactly when no chord is
    open there.
    """
    owner = {t: i for i, chord in enumerate(chords) for t in chord}
    first = tokens.index(start)
    reach = bytearray(len(tokens))
    open_chords: set[int] = set()
    for i in chain(range(first, len(tokens)), range(first)):
        chord = owner.get(tokens[i])
        if chord is not None:
            open_chords ^= {chord}
        reach[i] = not open_chords
    return reach


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

    Each level walks the cut boundary once, from the point where the
    curve enters it, to find that point's face (see _face); each of the
    level's placements is then one lookup.  The last chord is one more
    walk, from the last exit point: neither it nor the endpoint puncture
    is a chord endpoint, so the chord is clear when none is open there.

    Uncapped unless cap is given; then more than cap crossings raise
    CapExceeded.  The parameter stays only because the benchmark passes
    it; it goes when the benchmark stops doing so.

    The number of placements is measured, not bounded: at most 26, 140
    and 406 over all rank-3 arcs of 4, 8 and 12 crossings, 141,444 for
    the periodic arc (1,2,3,2)^32 ending at 3, and 97,052 and 1,478,997
    for the longest c-vector arcs (378 and 1,595 crossings) of the B3
    seeds at paths (2,1,3)x4,2 and (2,1,3)x5,2.
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
    chords: list[tuple[Token, Token]] = []
    branches = 0

    def level(j: int):
        """Crossing j's options, where the curve enters the boundary
        before it, the index of its ray's puncture, and that face."""
        tokens = _boundary(n, heights)
        entering = ("b", 0) if j == 0 else _exit(sides[j - 1], j - 1)
        width = len(heights[a.crossings[j]]) + 1
        return (
            product(("LR", "RL"), range(width)),
            entering,
            tokens.index(("p", a.crossings[j])),
            _face(tokens, chords, entering),
        )

    # Depth first with an explicit stack, one level per placed crossing,
    # so no arc is too long for the interpreter's recursion limit.  A
    # level's options run through sides, then insertion heights bottom
    # first.  Inserting at height `at` puts the entry of "LR" just after
    # token p + at and the entry of "RL" just after token p - at - 1.
    stack = [level(0)]
    witness = None
    while stack and witness is None:
        j = len(stack) - 1
        options, entering, p, face = stack[-1]
        slots = heights[a.crossings[j]]
        for side, at in options:
            branches += 1
            if not face[p + at if side == "LR" else p - at - 1]:
                continue
            sides.append(side)
            slots.insert(at, j)
            chords.append((entering, _entry(side, j)))
            if j + 1 < l:
                stack.append(level(j + 1))
                break
            tokens = _boundary(n, heights)
            if _face(tokens, chords, _exit(side, j))[tokens.index(("p", a.endpoint))]:
                witness = EmbeddingWitness(
                    tuple(sides),
                    tuple(sorted((s, tuple(o)) for s, o in heights.items())),
                )
                break
            chords.pop()
            slots.pop(at)
            sides.pop()
        else:
            # every option at level j failed: take back crossing j - 1
            stack.pop()
            if j:
                chords.pop()
                heights[a.crossings[j - 1]].remove(j - 1)
                sides.pop()

    if witness is None:
        log.debug(
            "no embedding for %s: search tree of %d placements, leaf space %d",
            a, branches, space,
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
    without the face walks the search uses.
    """
    l = len(a.crossings)
    if len(witness.sides) != l or any(s not in ("LR", "RL") for s in witness.sides):
        return False
    heights = witness.height_map()
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
