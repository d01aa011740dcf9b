"""Words and reflections in the universal Coxeter group.

The group on generators s_1..s_n has only the relations s_i^2 = e, so every
element has a unique reduced word and the Cayley graph is an n-regular tree.
Words are tuples of 1-based generator indices; the empty tuple is the
identity.  Reduction is plain stack cancellation of adjacent equal letters,
which is confluent here.

A reflection is a conjugate w s_c w^(-1) of a generator.  Its reduced word
is an odd-length palindrome, stored canonically as (prefix, core) with the
core the middle letter.  Geometrically a reflection is the edge of the
Cayley tree between the vertices prefix and prefix + (core,); its "node"
is the midpoint of that edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import NotAReflection

Word = tuple[int, ...]

IDENTITY: Word = ()


def reduce_word(letters: Iterable[int]) -> Word:
    """Cancel adjacent equal letters until none remain."""
    stack: list[int] = []
    for s in letters:
        s = int(s)
        if s < 1:
            raise ValueError(f"generator index {s} must be >= 1")
        if stack and stack[-1] == s:
            stack.pop()
        else:
            stack.append(s)
    return tuple(stack)


def mul(*words: Iterable[int]) -> Word:
    out: list[int] = []
    for w in words:
        for s in w:
            if out and out[-1] == s:
                out.pop()
            else:
                out.append(s)
    return tuple(out)


def inv(word: Sequence[int]) -> Word:
    # every generator is an involution
    return tuple(reversed(word))


@dataclass(frozen=True)
class Reflection:
    """Canonical form w s_core w^(-1) with w the reduced prefix."""

    prefix: Word
    core: int

    def __post_init__(self) -> None:
        if self.core < 1:
            raise NotAReflection(f"core {self.core} must be >= 1")
        if reduce_word(self.prefix) != tuple(self.prefix):
            raise NotAReflection(f"prefix {self.prefix} is not reduced")
        if self.prefix and self.prefix[-1] == self.core:
            raise NotAReflection("prefix ending in the core is not canonical")

    @property
    def word(self) -> Word:
        return self.prefix + (self.core,) + tuple(reversed(self.prefix))

    def __len__(self) -> int:
        return 2 * len(self.prefix) + 1

    def edge(self) -> tuple[Word, Word]:
        """The two Cayley-tree vertices this reflection's edge joins."""
        return self.prefix, self.prefix + (self.core,)

    def letters(self) -> frozenset[int]:
        return frozenset(self.prefix) | {self.core}


def generator(i: int) -> Reflection:
    return Reflection(IDENTITY, i)


def canonical_reflection(word: Iterable[int]) -> Reflection:
    """Split a reflection word into its canonical (prefix, core) form.

    The input is reduced first; the reduced word must be an odd-length
    palindrome.
    """
    w = reduce_word(word)
    if len(w) % 2 == 0:
        raise NotAReflection(f"{w} has even reduced length")
    half = len(w) // 2
    if w[:half] != tuple(reversed(w[half + 1 :])):
        raise NotAReflection(f"{w} is not a palindrome")
    return Reflection(w[:half], w[half])


def conjugate(r: Reflection, by: Sequence[int]) -> Reflection:
    """The reflection (by) r (by)^(-1)."""
    return canonical_reflection(mul(by, r.word, inv(by)))


def precedes(r: Reflection, other: Reflection) -> bool:
    """Strict order: r < other when walking from the identity to other's
    node crosses r's edge completely.

    Equivalent to: prefix(r) + (core(r),) is an initial segment of
    prefix(other), proper or equal.  Irreflexive by construction since a
    canonical prefix never ends in its own core.
    """
    stem = r.prefix + (r.core,)
    return len(stem) <= len(other.prefix) and other.prefix[: len(stem)] == stem


def comparable(r: Reflection, other: Reflection) -> bool:
    return precedes(r, other) or precedes(other, r)


def vertex_path(u: Word, v: Word) -> tuple[Word, ...]:
    """All vertices on the tree geodesic from u to v, inclusive."""
    common = 0
    for a, b in zip(u, v):
        if a != b:
            break
        common += 1
    down = [u[:i] for i in range(len(u), common - 1, -1)]
    up = [v[:i] for i in range(common + 1, len(v) + 1)]
    return tuple(down) + tuple(up)


def node_path(a: Reflection, b: Reflection) -> tuple[Word, ...]:
    """Vertices strictly between the nodes (edge midpoints) of a and b.

    The walk starts at the endpoint of a's edge nearest to b and ends at
    the endpoint of b's edge nearest to a; equal reflections give ().
    """
    if a == b:
        return ()
    best: tuple[Word, ...] | None = None
    for u in a.edge():
        for v in b.edge():
            p = vertex_path(u, v)
            if best is None or len(p) < len(best):
                best = p
    assert best is not None
    return best


def separates(node: Reflection, a: Reflection, b: Reflection) -> bool:
    """True when the geodesic between the nodes of a and b traverses the
    whole edge of node."""
    walk = node_path(a, b)
    target = set(node.edge())
    return any(
        {walk[i], walk[i + 1]} == target for i in range(len(walk) - 1)
    )


def separating_nodes(reflections: Sequence[Reflection]) -> frozenset[int]:
    """Positions (0-based) of tuple members that separate some other pair."""
    out = set()
    for k, node in enumerate(reflections):
        for i, a in enumerate(reflections):
            if i == k:
                continue
            for j in range(i + 1, len(reflections)):
                if j == k:
                    continue
                if separates(node, a, reflections[j]):
                    out.add(k)
    return frozenset(out)


def in_one_star(reflections: Sequence[Reflection]) -> bool:
    """True when all edges meet at one vertex and their cores are distinct,
    so the edges are distinct rays of a single star."""
    if not reflections:
        return True
    if len({r.core for r in reflections}) != len(reflections):
        return False
    for w in reflections[0].edge():
        if all(w in r.edge() for r in reflections):
            return True
    return False
