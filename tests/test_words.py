import random

import pytest
from hypothesis import given, strategies as st

from arcroots.arcs import reflection_to_arc
from arcroots.embedding import probe_embedding
from arcroots.errors import NotAReflection
from arcroots.explore import iter_seeds
from arcroots.quiver import ExchangeMatrix
from arcroots.roots import initial_seed
from arcroots.words import (
    Reflection,
    below_coxeter,
    canonical_reflection,
    comparable,
    conjugate,
    generator,
    in_one_star,
    mul,
    node_path,
    precedes,
    reduce_word,
    reflection_length,
    separates,
    separating_nodes,
    vertex_path,
)

S1 = generator(1)
S2 = generator(2)
S3 = generator(3)
S121 = canonical_reflection((1, 2, 1))
S131 = canonical_reflection((1, 3, 1))
S12321 = canonical_reflection((1, 2, 3, 2, 1))

letters = st.integers(min_value=1, max_value=4)
words = st.lists(letters, max_size=12).map(tuple)


def refl(w, core):
    return canonical_reflection(tuple(w) + (core,) + tuple(reversed(w)))


reflections = st.tuples(words, letters).map(lambda t: refl(*t))


def test_reduce_word():
    assert reduce_word((1, 2, 2, 3)) == (1, 3)
    assert reduce_word((1, 1)) == ()
    assert reduce_word(()) == ()
    assert reduce_word((1, 2, 1, 1, 2, 1)) == ()
    assert reduce_word(iter([3, 1, 1])) == (3,)
    with pytest.raises(ValueError):
        reduce_word((0, 1))


@pytest.mark.parametrize("letters", [[2.9, 1], [True, 2], ["3", 1], [1, 2.0]])
def test_reduce_word_never_coerces(letters):
    with pytest.raises(ValueError, match="generator index"):
        reduce_word(letters)


def test_reflections_never_coerce_letters():
    with pytest.raises(ValueError):
        canonical_reflection((1.5,))
    with pytest.raises(ValueError):
        Reflection((2.0,), 1)
    with pytest.raises(ValueError):
        Reflection((), 1.0)
    with pytest.raises(ValueError):
        Reflection((2,), True)


def test_reflection_keeps_a_list_prefix_as_a_tuple():
    listed, tupled = Reflection([1], 2), Reflection((1,), 2)
    assert listed == tupled and hash(listed) == hash(tupled)
    assert listed.prefix == (1,) and isinstance(listed.prefix, tuple)
    assert precedes(generator(1), listed) is precedes(generator(1), tupled) is True
    others = [generator(1), generator(3), Reflection((1, 2), 3), Reflection([2, 1], 3)]
    for node in others:
        for other in others:
            assert separates(node, listed, other) == separates(node, tupled, other)
            assert separates(node, other, listed) == separates(node, other, tupled)
    with pytest.raises(NotAReflection):
        Reflection([1, 1], 2)


@given(words, words)
def test_mul_matches_reduce_of_concatenation(u, v):
    assert mul(u, v) == reduce_word(u + v)


@given(words)
def test_inverse_cancels(w):
    # every generator is an involution, so the reversed word is the inverse
    assert mul(w, w[::-1]) == ()
    assert mul(w[::-1], w) == ()


def test_canonical_reflection_examples():
    r = canonical_reflection((3, 1, 2, 3, 4, 3, 2, 1, 3))
    assert r.prefix == (3, 1, 2, 3)
    assert r.core == 4
    assert canonical_reflection((2,)) == Reflection((), 2)
    # reduces before splitting
    assert canonical_reflection((1, 1, 2)) == Reflection((), 2)


def test_canonical_reflection_rejects_non_reflections():
    with pytest.raises(NotAReflection):
        canonical_reflection((1, 2))
    with pytest.raises(NotAReflection):
        canonical_reflection((1, 2, 3))


def test_reflection_validation():
    with pytest.raises(NotAReflection):
        Reflection((1,), 1)
    with pytest.raises(NotAReflection):
        Reflection((1, 1, 2), 3)
    with pytest.raises(NotAReflection):
        Reflection((), 0)


def test_reflection_word_and_edge():
    assert S121.word == (1, 2, 1)
    assert len(S121) == 3
    assert S121.edge() == ((1,), (1, 2))
    assert S1.edge() == ((), (1,))


@given(reflections)
def test_reflection_word_round_trip(r):
    assert canonical_reflection(r.word) == r
    assert len(r.word) == 2 * len(r.prefix) + 1


def test_conjugate():
    assert conjugate(S2, S1) == S121
    assert conjugate(S121, S1) == S2
    assert conjugate(S3, S1, S2) == S12321
    assert conjugate(S121) == S121


@given(reflections, st.lists(reflections, max_size=4))
def test_conjugation_round_trip(r, by):
    assert conjugate(conjugate(r, *by), *reversed(by)) == r


def reflections_up_to(n, longest):
    """Every reflection of rank n whose prefix has at most longest letters."""
    out, level = [], [()]
    for _ in range(longest + 1):
        out += [Reflection(p, c) for p in level for c in range(1, n + 1) if not p or p[-1] != c]
        level = [p + (s,) for p in level for s in range(1, n + 1) if not p or p[-1] != s]
    return out


def _conjugate_by_the_full_product(r, *by):
    # the oracle: reduce and re-validate the whole word b_1..b_m r b_m..b_1
    words = [b.word for b in by]
    return canonical_reflection(mul(*words, r.word, *reversed(words)))


def test_trusted_conjugate_agrees_with_canonical_reflection():
    # conjugate skips Reflection's re-validation; the full product is
    # reduced and split from scratch
    refls = reflections_up_to(3, 3)
    assert len(refls) == 45
    for a in refls:
        for b in refls:
            assert conjugate(b, a) == _conjugate_by_the_full_product(b, a), (a, b)


def test_conjugate_by_several_agrees_with_the_full_product():
    rng = random.Random(1818)
    sizes = set()
    for _ in range(1_200):
        n = rng.randint(2, 5)
        r, *by = (_random_reflection(rng, n) for _ in range(rng.randint(1, 5)))
        got = conjugate(r, *by)
        assert got == _conjugate_by_the_full_product(r, *by), (r, by)
        # the result is a well-formed reflection, though nothing validated it
        assert Reflection(got.prefix, got.core) == got
        sizes.add((n, len(by)))
    assert sizes == {(n, m) for n in range(2, 6) for m in range(5)}


def test_conjugation_lengthens_exactly_what_it_does_not_precede():
    # conjugating b by a reflects b's edge across a's: the image is
    # farther from the identity exactly when b's edge lies on the
    # identity's side of a's edge, that is, when a does not precede b
    pairs = 0
    for n, longest in ((3, 3), (4, 2)):
        refls = reflections_up_to(n, longest)
        for a in refls:
            for b in refls:
                if a != b:
                    assert (len(conjugate(b, a)) > len(b)) == (not precedes(a, b)), (a, b)
                    pairs += 1
    assert pairs == 4_632


def test_precedes_examples():
    assert precedes(S1, S121)
    assert not precedes(S121, S1)
    assert not precedes(S2, S121)
    assert not precedes(S121, S2)
    assert precedes(S121, S12321)
    assert not comparable(S121, S131)


@given(reflections)
def test_precedes_is_irreflexive(r):
    assert not precedes(r, r)


@given(reflections, reflections)
def test_precedes_is_antisymmetric(a, b):
    assert not (precedes(a, b) and precedes(b, a))


@given(words, letters, words, letters, words, letters)
def test_precedes_is_transitive_on_chains(w1, c1, mid, c2, top, c3):
    a = refl(w1, c1)
    stem_a = a.prefix + (a.core,)
    b = refl(stem_a + mid, c2)
    if not precedes(a, b):
        return
    stem_b = b.prefix + (b.core,)
    c = refl(stem_b + top, c3)
    if precedes(b, c):
        assert precedes(a, c)


@given(reflections, reflections)
def test_precedes_matches_geodesic_from_identity(a, b):
    # independent form: a < b iff the walk from the identity vertex to the
    # node of b fully traverses the edge of a
    if a == b:
        return
    walk = vertex_path((), b.prefix) + (b.prefix + (b.core,),)
    edge = set(a.edge())
    on_walk = any({walk[i], walk[i + 1]} == edge for i in range(len(walk) - 2))
    assert precedes(a, b) == on_walk


def test_vertex_path():
    assert vertex_path((1, 2), (1, 3)) == ((1, 2), (1,), (1, 3))
    assert vertex_path((), (1, 2)) == ((), (1,), (1, 2))
    assert vertex_path((2,), (2,)) == ((2,),)


def test_node_path_examples():
    assert node_path(S1, S121) == ((1,),)
    assert node_path(S1, S2) == ((),)
    assert node_path(S121, S131) == ((1,),)
    assert node_path(S121, S121) == ()
    assert node_path(S2, S131) == ((), (1,))
    assert node_path(S1, S12321) == ((1,), (1, 2))


@given(reflections, reflections)
def test_node_path_reverses(a, b):
    assert node_path(a, b) == tuple(reversed(node_path(b, a)))


def test_separates_examples():
    # all three edges meet at the vertex (1,); nothing is traversed
    assert not separates(S1, S121, S131)
    assert not separates(S2, S1, S3)
    # the edge of s1s2s1 lies between the edges of s1 and s1s2s3s2s1
    assert separates(S121, S1, S12321)
    assert not separates(S131, S1, S12321)


@given(reflections, reflections, reflections)
def test_separates_is_symmetric_in_the_pair(n, a, b):
    assert separates(n, a, b) == separates(n, b, a)


def _walk_crosses_edge(node, a, b):
    # the geodesic definition of separation, the oracle for separates
    walk = node_path(a, b)
    edge = set(node.edge())
    return any({walk[i], walk[i + 1]} == edge for i in range(len(walk) - 1))


def reflections_with_short_prefix(n=3, max_prefix=3):
    # every reduced prefix over 1..n of length <= max_prefix, every core
    # other than the prefix's last letter
    prefixes = [()]
    for p in prefixes:
        if len(p) < max_prefix:
            prefixes += [p + (s,) for s in range(1, n + 1) if not p or p[-1] != s]
    return [Reflection(p, c) for p in prefixes for c in range(1, n + 1) if not p or p[-1] != c]


def test_separates_matches_geodesic_walk_on_all_rank3_triples():
    refls = reflections_with_short_prefix()
    assert len(refls) == 45
    hits = 0
    for node in refls:
        for a in refls:
            for b in refls:
                want = _walk_crosses_edge(node, a, b)
                assert separates(node, a, b) == want, (node, a, b)
                hits += want
    assert 0 < hits < 45**3


@given(reflections, reflections, reflections)
def test_separates_matches_geodesic_walk(n, a, b):
    assert separates(n, a, b) == _walk_crosses_edge(n, a, b)


def test_separating_nodes():
    assert separating_nodes((S1, S2, S3)) == frozenset()
    assert separating_nodes((S121, S131, S1)) == frozenset()
    assert separating_nodes((S1, S121, S12321)) == frozenset({1})
    # a member never separates its own copy from anything
    assert separating_nodes((S1, S121, S121, S12321)) == frozenset({1, 2})
    assert separating_nodes((S1, S1, S121)) == frozenset()


def _separating_nodes_pairwise(refls):
    # the definition, pair by pair; positions k, i, j distinct
    return frozenset(
        k
        for k, node in enumerate(refls)
        for i in range(len(refls))
        for j in range(i + 1, len(refls))
        if k not in (i, j) and separates(node, refls[i], refls[j])
    )


# a small pool drawn from often, so that tuples repeat members
tuples_with_repeats = st.lists(
    st.sampled_from(reflections_with_short_prefix()[:12]) | reflections, max_size=6
)


@given(tuples_with_repeats)
def test_separating_nodes_matches_pairwise_definition(refls):
    assert separating_nodes(refls) == _separating_nodes_pairwise(refls)


def test_in_one_star():
    assert in_one_star((S1, S2, S3))
    assert in_one_star((S121, S131, S1))
    assert not in_one_star((S1, S12321))
    assert not in_one_star((S1, S1))
    assert in_one_star(())


def _deletions_to_identity(word):
    """Fewest letters to delete so that the rest spells e, over all 2^L
    subsets: Dyer's characterization of l_T, without the DP."""
    size = len(word)
    return min(
        size - bin(kept).count("1")
        for kept in range(1 << size)
        if mul([s for i, s in enumerate(word) if kept >> i & 1]) == ()
    )


def _random_reduced_word(rng, n, size):
    word = []
    while len(word) < size:
        s = rng.randint(1, n)
        if not word or word[-1] != s:
            word.append(s)
    return tuple(word)


def _random_reflection(rng, n):
    prefix = _random_reduced_word(rng, n, rng.randint(0, 5))
    core = rng.choice([c for c in range(1, n + 1) if not prefix or prefix[-1] != c])
    return Reflection(prefix, core)


def test_reflection_length_matches_every_deletion_subset():
    rng = random.Random(2001)
    cases = [(n, size) for n in (2, 3, 4) for size in range(15)]
    cases += [(rng.randint(2, 4), rng.randint(10, 14)) for _ in range(30)]
    for n, size in cases:
        word = _random_reduced_word(rng, n, size)
        length = reflection_length(word)
        assert length == _deletions_to_identity(word), word
        assert length % 2 == size % 2, word


@given(words)
def test_reflection_length_parity_and_inverse(w):
    length = reflection_length(w)
    assert length % 2 == len(reduce_word(w)) % 2
    assert reflection_length(w[::-1]) == length


@given(reflections)
def test_every_reflection_has_length_one(r):
    assert reflection_length(r.word) == 1


def test_reflection_length_examples():
    assert reflection_length(()) == 0
    assert reflection_length((1, 1)) == 0
    assert reflection_length((1, 2)) == 2
    assert reflection_length((1, 2, 1, 2)) == 2
    for n in range(1, 9):
        assert reflection_length(range(1, n + 1)) == n
    with pytest.raises(ValueError, match="generator index"):
        reflection_length((1, 0))


@pytest.mark.parametrize("n,max_prefix,size,positives", [
    (3, 6, 381, 127),
    (4, 4, 484, 214),
    (3, 9, 3069, 311),
    (5, 4, 1705, 611),
])
def test_below_coxeter_agrees_with_embedding(n, max_prefix, size, positives):
    refls = reflections_with_short_prefix(n, max_prefix)
    below = [below_coxeter(r, n) for r in refls]
    embeddable = [probe_embedding(reflection_to_arc(r)).embeddable for r in refls]
    assert len(refls) == size
    assert [r for r, b, e in zip(refls, below, embeddable) if b != e] == []
    assert sum(below) == positives


@pytest.mark.parametrize("rows,depth,seeds", [
    (((0, 2, 2), (-2, 0, 2), (-2, -2, 0)), 6, 190),
    (((0, 2, 3, 2), (-2, 0, 2, 4), (-3, -2, 0, 2), (-2, -4, -2, 0)), 4, 161),
])
def test_every_cvector_reflection_is_below_coxeter(rows, depth, seeds):
    matrix = ExchangeMatrix(rows)
    tree = list(iter_seeds(initial_seed(matrix), depth))
    assert len(tree) == seeds
    above = [s.path for s in tree if not all(below_coxeter(r, matrix.n) for r in s.reflections)]
    assert above == []


def test_below_coxeter_rejects_letters_beyond_the_rank():
    assert below_coxeter(generator(2), 2)
    assert below_coxeter(canonical_reflection((2, 1, 2)), 2)  # rank 2: every reflection
    assert not below_coxeter(canonical_reflection((2, 1, 3, 1, 2)), 3)
    with pytest.raises(ValueError, match="letter or ray 3 exceeds the rank 2"):
        below_coxeter(generator(3), 2)
    with pytest.raises(ValueError, match="rank"):
        below_coxeter(generator(1), 0)
