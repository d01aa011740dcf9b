import random

import pytest
from hypothesis import given, strategies as st

from arcroots.errors import (
    NotAcyclic,
    NotARealRoot,
    NotNormalized,
    NotUnitRoot,
    RankTooLarge,
    SignIncoherent,
)
from arcroots.quiver import ExchangeMatrix, random_acyclic_two_complete
from arcroots.roots import (
    GramMatrix,
    Sign,
    YSeed,
    all_weights_two_gram,
    cartan_companion,
    initial_seed,
    inner,
    mutate_seed,
    mutate_seed_matrix,
    natural_coxeter_product,
    positive_form,
    reflect,
    reflection_to_root,
    root_sign,
    root_to_reflection,
    seed_from_json,
    sign_run_count,
    speyer_thomas_check,
    unit_vector,
)
from arcroots.words import Reflection, canonical_reflection, conjugate

B3 = ExchangeMatrix.from_rows([[0, 2, 2], [-2, 0, 2], [-2, -2, 0]])
GRAM3 = cartan_companion(B3)
S0 = initial_seed(B3)


def test_cartan_companion():
    assert GRAM3.rows == ((2, -2, -2), (-2, 2, -2), (-2, -2, 2))
    rank2 = cartan_companion(ExchangeMatrix.from_rows([[0, 3], [-3, 0]]))
    assert rank2.rows == ((2, -3), (-3, 2))


def test_cartan_companion_rejects_bad_input():
    with pytest.raises(NotAcyclic):
        cartan_companion(B3.mutate(2))
    with pytest.raises(NotNormalized):
        cartan_companion(B3.mutate(1))


def test_gram_matrix_validation():
    with pytest.raises(ValueError):
        GramMatrix(((2, -1), (-2, 2)))
    with pytest.raises(ValueError):
        GramMatrix(((1, 0), (0, 1)))


def test_inner_and_reflect():
    assert inner((2, 1, 0), (2, 0, 1), GRAM3) == -2
    assert inner((1, 0, 0), (1, 0, 0), GRAM3) == 2
    e1, e2 = unit_vector(3, 1), unit_vector(3, 2)
    assert reflect(e2, e1, GRAM3) == (2, 1, 0)
    assert reflect(e1, e1, GRAM3) == (-1, 0, 0)
    with pytest.raises(NotUnitRoot):
        reflect(e1, (1, 1, 0), GRAM3)


def test_reflect_is_an_involution_fuzz():
    rng = random.Random(11)
    for _ in range(100):
        u = tuple(rng.randint(-4, 4) for _ in range(3))
        v = unit_vector(3, rng.randint(1, 3))
        assert reflect(reflect(u, v, GRAM3), v, GRAM3) == u


def test_root_sign():
    assert root_sign((0, 2, 1)) is Sign.POSITIVE
    assert root_sign((-1, 0, 0)) is Sign.NEGATIVE
    assert positive_form((-2, -1, 0)) == (2, 1, 0)
    with pytest.raises(SignIncoherent):
        root_sign((1, -1, 0))
    with pytest.raises(SignIncoherent):
        root_sign((0, 0, 0))


def test_initial_seed():
    assert S0.cvectors == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert S0.path == ()
    with pytest.raises(ValueError):
        initial_seed(ExchangeMatrix.from_rows([[0, 1], [-1, 0]]))


@pytest.mark.parametrize(
    "k,cvecs",
    [
        (1, ((-1, 0, 0), (2, 1, 0), (2, 0, 1))),
        (2, ((1, 0, 0), (0, -1, 0), (0, 2, 1))),
        (3, ((1, 0, 0), (0, 1, 0), (0, 0, -1))),
    ],
)
def test_mutate_seed_from_initial(k, cvecs):
    got = mutate_seed(S0, k)
    assert got.cvectors == cvecs
    assert got.matrix == B3.mutate(k)
    assert got.path == (k,)
    # the stacked-matrix rule is an independent route to the same seed
    oracle = mutate_seed_matrix(S0, k)
    assert oracle.cvectors == cvecs
    assert oracle.matrix == got.matrix


def test_mutate_seed_twice_is_identity():
    for k in (1, 2, 3):
        back = mutate_seed(mutate_seed(S0, k), k)
        assert back.matrix == S0.matrix
        assert back.cvectors == S0.cvectors
        assert back.path == (k, k)


def test_all_negative_seed_reached():
    seed = S0
    for k in (3, 2, 1):
        seed = mutate_seed(seed, k)
    assert seed.matrix == B3
    assert seed.cvectors == ((-1, 0, 0), (0, -1, 0), (0, 0, -1))


def test_mutate_seed_agrees_with_matrix_oracle_fuzz():
    rng = random.Random(20240817)
    for _ in range(150):
        n = rng.randint(3, 5)
        seed = initial_seed(random_acyclic_two_complete(n, rng))
        for _ in range(rng.randint(1, 10)):
            k = rng.randint(1, n)
            a = mutate_seed(seed, k)
            b = mutate_seed_matrix(seed, k)
            assert a.matrix == b.matrix
            assert a.cvectors == b.cvectors
            seed = a


def test_weight_pairing_invariant_fuzz():
    # |<c_i, c_j>| recovers the matrix weight |b_ij| along any path
    rng = random.Random(31337)
    for _ in range(80):
        n = rng.randint(3, 4)
        seed = initial_seed(random_acyclic_two_complete(n, rng))
        for _ in range(rng.randint(0, 8)):
            seed = mutate_seed(seed, rng.randint(1, n))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                got = inner(seed.cvectors[i - 1], seed.cvectors[j - 1], seed.gram)
                assert abs(got) == abs(seed.matrix.b(i, j))


@pytest.mark.parametrize(
    "root,word",
    [
        ((1, 0, 0), (1,)),
        ((0, 1, 0), (2,)),
        ((2, 1, 0), (1, 2, 1)),
        ((2, 0, 1), (1, 3, 1)),
        ((0, 2, 1), (2, 3, 2)),
        ((-2, -1, 0), (1, 2, 1)),
    ],
)
def test_root_to_reflection(root, word):
    assert root_to_reflection(root, GRAM3) == canonical_reflection(word)


def test_root_to_reflection_rejects_non_roots():
    with pytest.raises(NotARealRoot):
        root_to_reflection((1, 1, 0), GRAM3)
    with pytest.raises(NotARealRoot):
        root_to_reflection((1, -1, 0), GRAM3)


def test_reflection_to_root():
    assert reflection_to_root(canonical_reflection((1, 2, 1)), GRAM3) == (2, 1, 0)
    assert reflection_to_root(Reflection((), 3), GRAM3) == (0, 0, 1)
    with pytest.raises(ValueError):
        reflection_to_root(Reflection((), 4), GRAM3)


@given(st.lists(st.integers(1, 3), max_size=5), st.integers(1, 3))
def test_reflection_root_round_trip(prefix, core):
    r = canonical_reflection(tuple(prefix) + (core,) + tuple(reversed(prefix)))
    u = reflection_to_root(r, GRAM3)
    assert root_sign(u) is Sign.POSITIVE
    assert inner(u, u, GRAM3) == 2
    assert root_to_reflection(u, GRAM3) == r


def test_root_round_trip_on_seed_cvectors_fuzz():
    rng = random.Random(4096)
    for _ in range(40):
        n = rng.randint(3, 4)
        seed = initial_seed(random_acyclic_two_complete(n, rng))
        for _ in range(rng.randint(0, 7)):
            seed = mutate_seed(seed, rng.randint(1, n))
        for c in seed.cvectors:
            r = root_to_reflection(c, seed.gram)
            assert reflection_to_root(r, seed.gram) == positive_form(c)


def _st(roots, gram=GRAM3):
    reflections = tuple(root_to_reflection(u, gram) for u in roots)
    return speyer_thomas_check(roots, reflections, gram)


def test_cached_reflections_follow_the_conjugation_rule():
    # mutating at k conjugates by r_k exactly the reflections whose
    # c-vectors the partial reflection rule moves, which derives the
    # cached reflections a second way without descent
    rng = random.Random(1709)
    moved = 0
    for _ in range(60):
        n = rng.randint(3, 5)
        s = initial_seed(random_acyclic_two_complete(n, rng))
        for _ in range(rng.randint(1, 6)):
            k = rng.randint(1, n)
            t = mutate_seed(s, k)
            positive = root_sign(s.cvectors[k - 1]) is Sign.POSITIVE
            rk = s.reflections[k - 1]
            for j in s.matrix.vertices():
                bjk = s.matrix.b(j, k)
                if j != k and (bjk < 0 if positive else bjk > 0):
                    moved += 1
                    assert t.reflections[j - 1] == conjugate(s.reflections[j - 1], rk.word)
                else:
                    assert t.reflections[j - 1] == s.reflections[j - 1]
            assert mutate_seed_matrix(s, k).reflections == t.reflections
            data = t.to_json()
            assert t.to_json() == data
            assert t == seed_from_json(data, t.gram)
            s = t
    assert moved > 0


def test_speyer_thomas_examples():
    good = ((-1, 0, 0), (2, 1, 0), (2, 0, 1))
    assert _st(good)
    repeated = ((1, 0, 0), (1, 0, 0), (0, 0, 1))
    assert not _st(repeated)
    assert _st(((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_speyer_thomas_rank_guard():
    with pytest.raises(RankTooLarge):
        _st((), all_weights_two_gram(9))
    with pytest.raises(ValueError):
        _st(((1, 0, 0),))


def test_natural_coxeter_product_on_initial_and_mutations():
    for seed in (
        S0,
        mutate_seed(S0, 1),
        mutate_seed(S0, 2),
        mutate_seed(mutate_seed(mutate_seed(S0, 3), 2), 1),
    ):
        report = natural_coxeter_product(seed)
        assert report.ok
        assert not report.fallback_used


def test_natural_coxeter_product_rotation_choice():
    report = natural_coxeter_product(mutate_seed(S0, 2))
    assert report.ok and report.rotation == 2 and not report.fallback_used


def test_sign_run_count():
    assert sign_run_count(S0) == 1
    assert sign_run_count(mutate_seed(S0, 2)) == 2
    rng = random.Random(99)
    for _ in range(40):
        seed = initial_seed(random_acyclic_two_complete(3, rng))
        for _ in range(rng.randint(0, 8)):
            seed = mutate_seed(seed, rng.randint(1, 3))
        assert sign_run_count(seed) <= 2


def test_seed_json_round_trip():
    seed = mutate_seed(mutate_seed(S0, 2), 1)
    data = seed.to_json()
    back = seed_from_json(data)
    assert back.matrix == seed.matrix
    assert back.cvectors == seed.cvectors
    assert back.gram == seed.gram
    assert back.path == seed.path


def test_yseed_rank_mismatch():
    with pytest.raises(ValueError):
        YSeed(B3, ((1, 0, 0),), GRAM3, ())
