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

from .errors import NotAReflection, require_int

Word = tuple[int, ...]

IDENTITY: Word = ()


def mul(*words: Iterable[int]) -> Word:
    out: list[int] = []
    for w in words:
        for s in w:
            if out and out[-1] == s:
                out.pop()
            else:
                out.append(s)
    return tuple(out)


def reduce_word(letters: Iterable[int]) -> Word:
    """Cancel adjacent equal letters until none remain.  A letter that is
    not an int >= 1 raises ValueError; none is coerced."""
    letters = tuple(letters)
    for s in letters:
        if require_int(s, "generator index") < 1:
            raise ValueError(f"generator index {s} must be >= 1")
    return mul(letters)


@dataclass(frozen=True)
class Reflection:
    """Canonical form w s_core w^(-1) with w the reduced prefix."""

    prefix: Word
    core: int

    def __post_init__(self) -> None:
        if require_int(self.core, "core") < 1:
            raise NotAReflection(f"core {self.core} must be >= 1")
        # a list prefix is kept as the tuple it spells, so that equality,
        # hashing and the prefix order never compare a list with a tuple
        prefix = tuple(self.prefix)
        if reduce_word(prefix) != prefix:
            raise NotAReflection(f"prefix {prefix} is not reduced")
        if prefix and prefix[-1] == self.core:
            raise NotAReflection("prefix ending in the core is not canonical")
        object.__setattr__(self, "prefix", prefix)

    @property
    def word(self) -> Word:
        return self.prefix + (self.core,) + tuple(reversed(self.prefix))

    def __len__(self) -> int:
        return 2 * len(self.prefix) + 1

    def edge(self) -> tuple[Word, Word]:
        """The two Cayley-tree vertices this reflection's edge joins."""
        return self.prefix, self.prefix + (self.core,)


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


def conjugate(r: Reflection, *by: Reflection) -> Reflection:
    """The reflection (b_1 .. b_m) r (b_m .. b_1) for by = (b_1, .., b_m).

    Every b_i is an involution, so the right factor is the inverse of the
    left one.  With q the reduced product of the b_i words and r's prefix,
    the conjugate is q s_core q^(-1).  Dropping a trailing core letter
    from q leaves a reduced word that does not end in the core, which is
    exactly the canonical prefix, so the result is built without
    Reflection's re-validation.
    """
    q = mul(*(b.word for b in by), r.prefix)
    if q and q[-1] == r.core:
        q = q[:-1]
    out = object.__new__(Reflection)
    object.__setattr__(out, "prefix", q)
    object.__setattr__(out, "core", r.core)
    return out


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
    whole edge of node.

    Cutting node's edge splits the tree in two, and node precedes exactly
    the other reflections whose nodes lie on the far side of the cut.
    """
    return node != a and node != b and precedes(node, a) != precedes(node, b)


def separating_nodes(reflections: Sequence[Reflection]) -> frozenset[int]:
    """Positions (0-based) of tuple members that separate some other pair:
    by separates, those whose precedes(node, r) takes both values over
    the members r other than node.

    precedes(node, r) is read as r.prefix[:len(stem)] == stem, the stem
    prefix(node) + (core(node),) built once per node; a shorter prefix
    slices short and compares unequal.  No r equal to node has the stem
    as a prefix, so only the members that fail it are compared with node.
    """
    out = []
    for k, node in enumerate(reflections):
        stem = node.prefix + (node.core,)
        size = len(stem)
        follows = [r.prefix[:size] == stem for r in reflections]
        if any(follows) and any(not f and r != node for f, r in zip(follows, reflections)):
            out.append(k)
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


def reflection_length(word: Iterable[int]) -> int:
    """The absolute length l_T: the fewest reflections whose product is word.

    By Dyer (2001) it is the fewest letters to delete from a reduced word
    so that the rest spells e, and here a word spells e exactly when its
    equal letters pair off without crossings.  The word is reduced first.
    f[i][j], the fewest deletions that cancel w[i:j], is the least of
    1 + f[i+1][j] (delete w[i]) and f[i+1][k] + f[k+1][j] (pair w[i] with
    a later w[k] == w[i]), k running over that letter's positions only.
    """
    w = reduce_word(word)
    size = len(w)
    positions: dict[int, list[int]] = {}
    for k, s in enumerate(w):
        positions.setdefault(s, []).append(k)
    f = [[]] * size + [[0] * (size + 1)]
    for i in range(size - 1, -1, -1):
        inner = f[i + 1]
        row = [0] * (i + 1) + [1 + x for x in inner[i + 1 :]]
        for k in positions[w[i]]:
            if k > i:
                paired = [inner[k] + x for x in f[k + 1][k + 1 :]]
                row[k + 1 :] = map(min, row[k + 1 :], paired)
        f[i] = row
    return f[0][size]


def require_rank(r: Reflection, n: int) -> None:
    """Raise ValueError unless every letter of r is in 1..n.  Arcs in the
    n-punctured disc correspond to reflections in s_1..s_n, so a word or
    arc with a letter above n is not an input for a quiver of rank n."""
    top = max(r.prefix + (r.core,))
    if top > require_int(n, "rank"):
        raise ValueError(f"letter or ray {top} exceeds the rank {n}")


def below_coxeter(r: Reflection, n: int) -> bool:
    """Whether r <= c = s_1 s_2 .. s_n in absolute order, that is, whether
    l_T(r c) = n - 1.  For a 2-complete acyclic quiver of rank n in its
    natural numbering these are exactly the reflections of its real Schur
    roots (Igusa-Schiffler 2010, Hubery-Krause 2016).  A letter of r
    outside 1..n raises ValueError."""
    require_rank(r, n)
    return reflection_length(r.word + tuple(range(1, n + 1))) == n - 1
