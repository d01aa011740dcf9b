import pytest
from hypothesis import given, strategies as st

from arcroots.errors import NotAReflection
from arcroots.words import (
    Reflection,
    canonical_reflection,
    comparable,
    conjugate,
    generator,
    in_one_star,
    inv,
    mul,
    node_path,
    precedes,
    reduce_word,
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
    with pytest.raises(ValueError):
        reduce_word((0, 1))


@given(words, words)
def test_mul_matches_reduce_of_concatenation(u, v):
    assert mul(u, v) == reduce_word(u + v)


@given(words)
def test_inverse_cancels(w):
    assert mul(w, inv(w)) == ()
    assert mul(inv(w), w) == ()


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
    assert conjugate(S2, (1,)) == S121
    assert conjugate(S121, (1,)) == S2


@given(reflections, words)
def test_conjugation_round_trip(r, u):
    assert conjugate(conjugate(r, u), inv(u)) == r


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


def test_separating_nodes():
    assert separating_nodes((S1, S2, S3)) == frozenset()
    assert separating_nodes((S121, S131, S1)) == frozenset()
    assert separating_nodes((S1, S121, S12321)) == frozenset({1})


def test_in_one_star():
    assert in_one_star((S1, S2, S3))
    assert in_one_star((S121, S131, S1))
    assert not in_one_star((S1, S12321))
    assert not in_one_star((S1, S1))
    assert in_one_star(())
