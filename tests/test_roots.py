import random
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from arcroots import quiver, roots
from arcroots.arcs import braid_swap, tuple_product
from arcroots.cli import seed_json
from arcroots.errors import (
    ArcrootsError,
    NotAcyclic,
    NotARealRoot,
    NotNormalized,
    SignIncoherent,
)
from arcroots.explore import ALL_CHECKS, CHECKS, explore, iter_seeds
from arcroots.quiver import ExchangeMatrix, natural_order, random_acyclic_two_complete
from arcroots.roots import (
    GramMatrix,
    YSeed,
    all_weights_two_gram,
    cartan_companion,
    initial_seed,
    inner,
    mutate_seed,
    mutate_seed_matrix,
    positive_form,
    reflect,
    reflection_to_root,
    root_sign,
    root_to_reflection,
    sign_run_count,
    speyer_thomas_check,
    unit_vector,
)
from arcroots.words import Reflection, canonical_reflection, conjugate, generator, mul

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
    with pytest.raises(ValueError, match="matrix must be square"):
        GramMatrix(((2,), (2, -1)))


def test_gram_matrix_checks_every_entry_before_its_shape():
    for rows, name in (
        ([[2, -2.0], [-2, 2]], r"m\[1\]\[2\] = -2\.0"),
        ([[True, 0], [0, 2]], r"m\[1\]\[1\] = True"),
        ([[2], [-2, 2.0]], r"m\[2\]\[2\] = 2\.0"),
    ):
        with pytest.raises(ValueError, match=f"^{name} is not an integer$"):
            GramMatrix(rows)
    listed = GramMatrix([[2, -2], [-2, 2]])
    assert listed == all_weights_two_gram(2) and hash(listed) == hash(all_weights_two_gram(2))
    assert type(listed.rows[0]) is tuple


def test_inner_and_reflect():
    assert inner((2, 1, 0), (2, 0, 1), GRAM3) == -2
    assert inner((1, 0, 0), (1, 0, 0), GRAM3) == 2
    e1, e2 = unit_vector(3, 1), unit_vector(3, 2)
    assert reflect(e2, e1, GRAM3) == (2, 1, 0)
    assert reflect(e1, e1, GRAM3) == (-1, 0, 0)
    with pytest.raises(NotARealRoot):
        reflect(e1, (1, 1, 0), GRAM3)


def test_reflect_is_an_involution_fuzz():
    rng = random.Random(11)
    for _ in range(100):
        u = tuple(rng.randint(-4, 4) for _ in range(3))
        v = unit_vector(3, rng.randint(1, 3))
        assert reflect(reflect(u, v, GRAM3), v, GRAM3) == u


def test_root_sign():
    for u, sign in (
        ((0, 2, 1), 1), ((-1, 0, 0), -1), ((5,), 1), ((-1,), -1), ((0, -3, 0, -1), -1),
    ):
        assert type(root_sign(u)) is int and root_sign(u) == sign
    assert positive_form((-2, -1, 0)) == (2, 1, 0)
    for u in ((1, -1, 0), (-2, 0, 7), (0, 1, 0, -1)):
        with pytest.raises(SignIncoherent, match="mixes signs"):
            root_sign(u)
    # the empty vector counts as a zero vector
    for u in ((), (0,), (0, 0, 0)):
        with pytest.raises(SignIncoherent, match="^the zero vector has no sign$"):
            root_sign(u)


def test_initial_seed():
    assert S0.cvectors == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert S0.path == ()
    with pytest.raises(ValueError):
        initial_seed(ExchangeMatrix.from_rows([[0, 1], [-1, 0]]))


def test_initial_seed_needs_a_vertex():
    with pytest.raises(ValueError, match="^a quiver needs at least one vertex$"):
        initial_seed(ExchangeMatrix.from_rows([]))


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


@pytest.mark.parametrize("mutate", [mutate_seed, mutate_seed_matrix])
@pytest.mark.parametrize("k", [0, 4])
def test_mutation_rejects_a_direction_out_of_range(mutate, k):
    with pytest.raises(ValueError, match=f"vertex {k} out of range 1..3"):
        mutate(S0, k)


@pytest.mark.parametrize(
    "mutate",
    [mutate_seed, mutate_seed_matrix, lambda seed, k: seed.matrix.mutate(k)],
    ids=["mutate_seed", "mutate_seed_matrix", "ExchangeMatrix.mutate"],
)
@pytest.mark.parametrize("k", [True, 1.0, 2.5, "1"], ids=repr)
def test_mutation_direction_must_be_an_integer(mutate, k):
    # a bool is an int to Python, so a range test alone takes True as
    # vertex 1 and the seed prints its path as [true]
    with pytest.raises(ValueError, match=r"^vertex = .* is not an integer$"):
        mutate(S0, k)


def test_mutate_seed_checks_its_direction_once(monkeypatch):
    # the matrix mutation checks k, so mutate_seed adds no second check
    calls, check = [], quiver.require_vertex

    def counted(k, n):
        calls.append(k)
        return check(k, n)

    monkeypatch.setattr("arcroots.quiver.require_vertex", counted)
    monkeypatch.setattr("arcroots.roots.require_vertex", counted)
    seed = S0
    for k in (2, 1, 3, 2):
        seed = mutate_seed(seed, k)
    assert calls == [2, 1, 3, 2]


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


def test_pairing_gives_back_its_exchange_matrix():
    # for a normalized B_0, b0_ij = -m_ij above the diagonal and m_ij
    # below: the step reads the initial matrix from the pairing alone
    rng = random.Random(1998)
    for n in range(2, 9):
        for _ in range(5):
            matrix = random_acyclic_two_complete(n, rng)
            assert cartan_companion(matrix)._b0 == matrix.rows
    for n in range(1, 6):
        all_two = tuple(tuple(0 if i == j else 2 if i < j else -2 for j in range(n)) for i in range(n))
        assert all_weights_two_gram(n)._b0 == all_two


def test_mutate_seed_refuses_a_pairing_that_is_no_cartan_companion():
    # GramMatrix accepts a positive off-diagonal entry, which no normalized
    # B_0 gives, so mutation has no initial matrix to read from it
    gram = GramMatrix(((2, 0, 1), (0, 2, -2), (1, -2, 2)))
    seed = YSeed(B3, S0.cvectors, gram, ())
    with pytest.raises(NotNormalized, match=r"^m\[1\]\[3\] = 1 > 0: no Cartan companion$"):
        mutate_seed(seed, 2)
    assert gram._pivots == {}


def test_mutate_seed_reads_the_side_from_the_initial_matrix():
    # a hand-built seed whose matrix (B3 mutated at 1) disagrees with its
    # identity c-vectors: the c-vectors follow the pairing's B_0 = B3 and
    # the matrix follows B, where the matrix-column rule reflects c_1
    seed = YSeed(B3.mutate(1), S0.cvectors, cartan_companion(B3), ())
    child = mutate_seed(seed, 2)
    assert child.cvectors == ((1, 0, 0), (0, -1, 0), (0, 2, 1))
    assert child.matrix == B3.mutate(1).mutate(2)
    assert mutate_seed_matrix(seed, 2).cvectors == ((1, 2, 0), (0, -1, 0), (0, 2, 1))
    # the seven check compares the two: |<c_1, c_3>| = 6 != |b_13| = 2
    assert CHECKS["seven"](mutate_seed_matrix(seed, 2)) is True
    assert CHECKS["seven"](child) is False


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


def _reference_step(cvectors, k, initial, gram):
    """The c-vector step from inner and reflect: c_j^T B_0 v read as a double
    sum over the initial matrix for every j, position k included, then c_k
    negated and each c_j whose value is negative reflected in v."""
    v = positive_form(cvectors[k - 1])  # SignIncoherent on a mixed c_k
    n = len(v)
    sides = [
        sum(c[a] * initial.rows[a][b] * v[b] for a in range(n) for b in range(n)) for c in cvectors
    ]
    assert sides[k - 1] == 0  # B_0 is skew-symmetric
    return tuple(
        tuple(-x for x in c) if j == k - 1 else reflect(c, v, gram) if side < 0 else c
        for j, (c, side) in enumerate(zip(cvectors, sides))
    )


def test_cvector_step_matches_inner_and_reflect_on_hand_built_seeds():
    # hand-built seeds under random initial matrices: c-vectors drawn from a
    # small tree (real roots) or at random (mostly no roots), now and then
    # with mixed signs.  Each step is taken at c_k and then at -c_k on one
    # pairing, so the second finds the pivot the first kept under the other
    # sign; a step must give the reference's c-vectors or raise its error
    rng = random.Random(3636)
    outcomes = Counter()
    for _ in range(300):
        n = rng.randint(2, 5)
        initial = random_acyclic_two_complete(n, rng)
        gram = cartan_companion(initial)
        tree = [c for s in iter_seeds(initial_seed(initial), 2) for c in s.cvectors]

        def draw():
            kind = rng.random()
            if kind < 0.5:
                return rng.choice(tree)
            entries = [rng.randint(0, 3) for _ in range(n)]
            entries[rng.randrange(n)] += 1
            if kind < 0.9:
                sign = rng.choice((1, -1))
                return tuple(sign * x for x in entries)
            return tuple(rng.choice((1, -1)) * x for x in entries)

        seed = YSeed(initial, tuple(draw() for _ in range(n)), gram, ())
        k = rng.randint(1, n)
        flipped = list(seed.cvectors)
        flipped[k - 1] = tuple(-x for x in flipped[k - 1])
        for cvecs in (seed.cvectors, tuple(flipped)):
            try:
                want = _reference_step(cvecs, k, initial, gram)
            except (SignIncoherent, NotARealRoot) as exc:
                with pytest.raises(type(exc)):
                    roots._mutate_cvectors(cvecs, k, gram)
                outcomes[type(exc).__name__] += 1
            else:
                assert roots._mutate_cvectors(cvecs, k, gram) == want, (initial, cvecs, k)
                outcomes["stepped"] += 1
    assert set(outcomes) == {"stepped", "SignIncoherent", "NotARealRoot"}
    assert min(outcomes.values()) >= 20, outcomes


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
        ([2, 1, 0], (1, 2, 1)),
    ],
)
def test_root_to_reflection(root, word):
    assert root_to_reflection(root, GRAM3) == canonical_reflection(word)


def test_root_to_reflection_rejects_non_roots():
    with pytest.raises(NotARealRoot):
        root_to_reflection((1, 1, 0), GRAM3)
    with pytest.raises(NotARealRoot):
        root_to_reflection((1, -1, 0), GRAM3)
    # <u, u> = 2 under this pairing, but u is not a real root
    gram = cartan_companion(ExchangeMatrix(((0, 3, 2), (-3, 0, 4), (-2, -4, 0))))
    with pytest.raises(NotARealRoot, match=r"descent stalls at \(6, 6, -1\)"):
        root_to_reflection((6, 6, 37), gram)


def test_root_to_reflection_checks_the_length_first():
    # before the pairing reads u, whose own message would name two lengths
    for u in ((2, 1), (1, 0, 0, 0)):
        with pytest.raises(ValueError, match=rf"^root length {len(u)} != pairing rank 3$"):
            root_to_reflection(u, GRAM3)


def test_reflection_to_root():
    assert reflection_to_root(canonical_reflection((1, 2, 1)), GRAM3) == (2, 1, 0)
    assert reflection_to_root(Reflection((), 3), GRAM3) == (0, 0, 1)
    with pytest.raises(ValueError):
        reflection_to_root(Reflection((), 4), GRAM3)


@given(st.lists(st.integers(1, 3), max_size=5), st.integers(1, 3))
def test_reflection_root_round_trip(prefix, core):
    r = canonical_reflection(tuple(prefix) + (core,) + tuple(reversed(prefix)))
    u = reflection_to_root(r, GRAM3)
    assert root_sign(u) == 1
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


def _descent_by_reflect(u, gram):
    # the descent written out with reflect and unit vectors, one whole
    # reflection per step: the oracle for root_to_reflection
    if inner(u, u, gram) != 2:
        raise NotARealRoot(u)
    try:
        u = positive_form(u)
    except SignIncoherent as exc:
        raise NotARealRoot(u) from exc
    picked = []
    while sorted(u) != [0] * (gram.n - 1) + [1]:
        descents = [
            i
            for i in range(1, gram.n + 1)
            if u[i - 1] > 0 and inner(u, unit_vector(gram.n, i), gram) > 0
        ]
        if not descents:
            raise NotARealRoot(u)
        i = descents[0]
        picked.append(i)
        u = reflect(u, unit_vector(gram.n, i), gram)
    return Reflection(tuple(picked), u.index(1) + 1)


def _outcome(f, *args):
    try:
        return f(*args)
    except ArcrootsError as exc:  # compared by class with the oracle's
        return type(exc)


def _random_reflection(n, rng):
    prefix = []
    for _ in range(rng.randint(0, 8)):
        prefix.append(rng.choice([s for s in range(1, n + 1) if not prefix or s != prefix[-1]]))
    core = rng.choice([s for s in range(1, n + 1) if not prefix or s != prefix[-1]])
    return Reflection(tuple(prefix), core)


def test_descent_matches_reflect_oracle():
    rng = random.Random(1214)
    cvectors = junk = 0
    for _ in range(60):
        n = rng.randint(2, 6)
        seed = initial_seed(random_acyclic_two_complete(n, rng))
        for _ in range(rng.randint(0, 6)):
            seed = mutate_seed(seed, rng.randint(1, n))
        for c in seed.cvectors:
            assert root_to_reflection(c, seed.gram) == _descent_by_reflect(c, seed.gram)
            cvectors += 1
        for _ in range(40):
            v = tuple(rng.randint(-3, 3) for _ in range(n))
            want = _outcome(_descent_by_reflect, v, seed.gram)
            assert _outcome(root_to_reflection, v, seed.gram) == want, v
            junk += want is NotARealRoot
    assert cvectors > 200 and junk > 1000


def test_ascent_matches_reflect_oracle():
    rng = random.Random(1709)
    for _ in range(300):
        n = rng.randint(2, 6)
        gram = cartan_companion(random_acyclic_two_complete(n, rng))
        r = _random_reflection(n, rng)
        u = unit_vector(n, r.core)
        for i in reversed(r.prefix):
            u = reflect(u, unit_vector(n, i), gram)
        assert reflection_to_root(r, gram) == u


def _st(roots, gram=GRAM3):
    reflections = tuple(root_to_reflection(u, gram) for u in roots)
    return speyer_thomas_check(roots, reflections, gram)


def test_cached_reflections_follow_the_conjugation_rule():
    # mutating at k conjugates by r_k exactly the reflections whose
    # c-vectors the partial reflection rule moves; the matrix oracle's
    # seeds have no parent to carry from, so they descend
    rng = random.Random(1709)
    moved = 0
    for _ in range(60):
        n = rng.randint(3, 5)
        s = initial_seed(random_acyclic_two_complete(n, rng))
        for _ in range(rng.randint(1, 6)):
            k = rng.randint(1, n)
            t = mutate_seed(s, k)
            positive = root_sign(s.cvectors[k - 1]) > 0
            rk = s.reflections[k - 1]
            for j in s.matrix.vertices():
                bjk = s.matrix.b(j, k)
                if j != k and (bjk < 0 if positive else bjk > 0):
                    moved += 1
                    word = mul(rk.word, s.reflections[j - 1].word, rk.word)
                    assert t.reflections[j - 1] == canonical_reflection(word)
                else:
                    assert t.reflections[j - 1] == s.reflections[j - 1]
            assert mutate_seed_matrix(s, k).reflections == t.reflections
            s = t
    assert moved > 0


def _carry_trees():
    yield B3, 10
    yield ExchangeMatrix.from_rows([[0, 2, 2, 2], [-2, 0, 2, 2], [-2, -2, 0, 2], [-2, -2, -2, 0]]), 6
    yield ExchangeMatrix.from_rows([[0, 2, 3, 2], [-2, 0, 2, 4], [-3, -2, 0, 2], [-2, -4, -2, 0]]), 5
    yield random_acyclic_two_complete(5, random.Random(1)), 4


@pytest.mark.parametrize("initial,depth", _carry_trees(), ids=["B3", "B4", "weighted4", "random5"])
def test_carried_reflections_match_descent(monkeypatch, initial, depth):
    # a walk that reads every seed carries each child's reflections from
    # its parent; only the root seed descends
    calls = 0

    def counting(u, gram):
        nonlocal calls
        calls += 1
        return root_to_reflection(u, gram)

    monkeypatch.setattr(roots, "root_to_reflection", counting)
    seeds = 0
    for seed in iter_seeds(initial_seed(initial), depth):
        want = tuple(root_to_reflection(c, seed.gram) for c in seed.cvectors)
        assert seed.reflections == want, seed.path
        seeds += 1
    assert calls == initial.n
    assert seeds > 400


def test_carry_leaves_equality_and_repr_alone(monkeypatch):
    # a child of a read parent gets its reflections as it is built, one
    # conjugation per moved vertex; a child of an unread parent gets none
    calls = 0

    def counting(r, *by):
        nonlocal calls
        calls += 1
        return conjugate(r, *by)

    monkeypatch.setattr(roots, "conjugate", counting)
    parent = mutate_seed(S0, 1)
    unread = mutate_seed(parent, 2)
    assert "reflections" not in unread.__dict__ and calls == 0
    assert parent.reflections  # read, so the next child carries
    positive = root_sign(parent.cvectors[1]) > 0
    moved = [
        j for j in parent.matrix.vertices()
        if j != 2 and (parent.matrix.b(j, 2) < 0 if positive else parent.matrix.b(j, 2) > 0)
    ]
    carried = mutate_seed(parent, 2)
    assert "reflections" in carried.__dict__ and calls == len(moved) > 0
    assert carried == unread and hash(carried) == hash(unread)
    assert repr(carried) == repr(unread) and seed_json(carried) == seed_json(unread)
    assert carried.reflections == unread.reflections


def test_one_reflection_tree_per_rank():
    # arcs do not see the weights: at every tree address two weightings of
    # rank 3 descend to the same reflections, each under its own pairing,
    # with the same c-vector signs and the same sign pattern of B
    weighted = ExchangeMatrix.from_rows([[0, 3, 2], [-3, 0, 5], [-2, -5, 0]])
    paths = 0
    for s, t in zip(iter_seeds(S0, 8), iter_seeds(initial_seed(weighted), 8), strict=True):
        assert s.path == t.path
        assert [root_to_reflection(c, s.gram) for c in s.cvectors] == [
            root_to_reflection(c, t.gram) for c in t.cvectors
        ], s.path
        assert [root_sign(c) for c in s.cvectors] == [root_sign(c) for c in t.cvectors]
        assert [[(x > 0) - (x < 0) for x in row] for row in s.matrix.rows] == [
            [(x > 0) - (x < 0) for x in row] for row in t.matrix.rows
        ]
        paths += 1
    assert paths == 766


def _all_two(n):
    return ExchangeMatrix.from_rows([[2 * ((j > i) - (j < i)) for j in range(n)] for i in range(n)])


# (rank, depth) rungs of the ladder: the seed count stays in the hundreds
RANK_LADDER = [(2, 12), (3, 8), (4, 5), (5, 4), (6, 3), (7, 3), (8, 3), (10, 2), (12, 2)]


@pytest.mark.parametrize("n,depth", RANK_LADDER, ids=[f"{n}-{d}" for n, d in RANK_LADDER])
def test_one_reflection_tree_per_rank_up_the_ladder(n, depth):
    # the all-2 matrix and two random weightings (weights 2-9) put the same
    # natural fan, with the same signs, at every tree address
    initials = [_all_two(n)]
    initials += [random_acyclic_two_complete(n, random.Random(s), 2, 9) for s in (1, 2)]
    assert any(m != initials[0] for m in initials[1:])
    trees = [iter_seeds(initial_seed(m), depth) for m in initials]
    seeds = 0
    for first, *others in zip(*trees, strict=True):
        want = (first.path, first.natural_fan, first._natural[1])
        for other in others:
            assert (other.path, other.natural_fan, other._natural[1]) == want, first.path
        seeds += 1
    # the rooted tree: n children at the root, n - 1 below it
    assert seeds == (1 + 2 * depth if n == 2 else 1 + n * ((n - 1) ** depth - 1) // (n - 2))


@pytest.mark.parametrize("n", [7, 8, 10, 12])
def test_every_check_passes_on_a_random_weighting_of_high_rank(n):
    report = explore(random_acyclic_two_complete(n, random.Random(1), 2, 9), 2, checks=ALL_CHECKS)
    assert report.violations == ()
    assert report.seeds_visited == 1 + n + n * (n - 1)


def test_speyer_thomas_examples():
    good = ((-1, 0, 0), (2, 1, 0), (2, 0, 1))
    assert _st(good)
    repeated = ((1, 0, 0), (1, 0, 0), (0, 0, 1))
    assert not _st(repeated)
    assert _st(((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_speyer_thomas_any_rank():
    # rank 9 and beyond: every seed passes
    rng = random.Random(909)
    seeds = 0
    for n, depth in ((9, 2), (10, 1), (12, 1)):
        for seed in iter_seeds(initial_seed(random_acyclic_two_complete(n, rng)), depth):
            assert speyer_thomas_check(seed.cvectors, seed.reflections, seed.gram)
            seeds += 1
    assert seeds == 82 + 11 + 13
    with pytest.raises(ValueError):
        _st(((1, 0, 0),))
    with pytest.raises(ValueError):
        speyer_thomas_check(((1, 0), (0, 1, 0), (0, 0, 1)), S0.reflections, GRAM3)


def _st_by_permutations(roots, reflections, gram):
    """The ordering criterion by brute force: every ordering with the
    positive roots first is multiplied out."""
    n = gram.n
    signs = [root_sign(u) for u in roots]
    for i in range(n):
        for j in range(i + 1, n):
            if signs[i] == signs[j] and inner(roots[i], roots[j], gram) > 0:
                return False
    words = [r.word for r in reflections]
    positives = [w for w, s in zip(words, signs) if s > 0]
    negatives = [w for w, s in zip(words, signs) if s < 0]
    target = tuple(range(1, n + 1))
    return any(
        mul(*front, *back) == target
        for front in permutations(positives)
        for back in permutations(negatives)
    )


def _negate(u):
    return tuple(-x for x in u)


def _ordering_inputs(rng):
    """(family, roots, reflections, pairing) tuples of rank 1 to 7."""
    b4 = ExchangeMatrix.from_rows(
        [[0 if i == j else 2 if i < j else -2 for j in range(4)] for i in range(4)]
    )
    trees = [(B3, 6), (b4, 4)] + [
        (random_acyclic_two_complete(n, rng), depth)
        for n, depth in ((1, 1), (2, 4), (3, 5), (4, 3), (4, 3), (5, 2), (6, 2), (7, 1))
    ]
    for initial, depth in trees:
        for seed in iter_seeds(initial_seed(initial), depth):
            roots, refls, n = seed.cvectors, seed.reflections, seed.n
            yield "seed", roots, refls, seed.gram
            j = rng.randrange(n)
            r = conjugate(refls[j], generator(rng.randint(1, n)))
            u = reflection_to_root(r, seed.gram)
            u = u if root_sign(roots[j]) > 0 else _negate(u)
            roots_j, refls_j = roots[:j] + (u,) + roots[j + 1 :], refls[:j] + (r,) + refls[j + 1 :]
            yield "conjugated", roots_j, refls_j, seed.gram
            j = rng.randrange(n)
            yield "flipped", roots[:j] + (_negate(roots[j]),) + roots[j + 1 :], refls, seed.gram
    for _ in range(600):
        n = rng.randint(2, 6)
        gram = cartan_companion(random_acyclic_two_complete(n, rng))
        refls = tuple(generator(i) for i in range(1, n + 1))
        for _ in range(rng.randint(0, 5)):
            i = rng.randint(1, n - 1)
            refls = braid_swap(refls, i, rng.randint(i + 1, n), rng.choice(("forward", "inverse")))
        if rng.random() < 0.5:
            refls = tuple(rng.sample(refls, n))
        roots = [reflection_to_root(r, gram) for r in refls]
        cut = rng.randint(0, n)
        yield "braided", tuple(roots[:cut] + [_negate(u) for u in roots[cut:]]), refls, gram
    for _ in range(600):
        n = rng.randint(2, 6)
        gram = cartan_companion(random_acyclic_two_complete(n, rng))
        refls = tuple(_random_reflection(n, rng) for _ in range(n))
        roots = [reflection_to_root(r, gram) for r in refls]
        yield "random", tuple(u if rng.random() < 0.5 else _negate(u) for u in roots), refls, gram


def test_speyer_thomas_matches_the_permutation_search():
    passes, fails, disagreements = {}, {}, []
    for family, roots, refls, gram in _ordering_inputs(random.Random(2013)):
        want = _st_by_permutations(roots, refls, gram)
        if speyer_thomas_check(roots, refls, gram) != want:
            disagreements.append((family, roots))
        tally = passes if want else fails
        tally[family] = tally.get(family, 0) + 1
    assert disagreements == []
    # seeds always pass; every other family holds both answers
    assert passes["seed"] > 600 and "seed" not in fails
    families = {"seed", "conjugated", "flipped", "braided", "random"}
    assert set(passes) == set(fails) | {"seed"} == families


def test_natural_coxeter_product_on_initial_and_mutations():
    for seed in (
        S0,
        mutate_seed(S0, 1),
        mutate_seed(S0, 2),
        mutate_seed(mutate_seed(mutate_seed(S0, 3), 2), 1),
    ):
        assert tuple_product(seed.natural_fan) == (1, 2, 3)


def test_natural_fan_starts_at_natural_order_position_2():
    # natural order 3, 2, 1 carries c-vectors of signs +, -, +, so the fan
    # starts at position 2, the positive root after the negative one
    seed = mutate_seed(S0, 2)
    order = natural_order(seed.matrix)
    assert order == (3, 2, 1)
    assert [root_sign(seed.cvectors[v - 1]) for v in order] == [1, -1, 1]
    fan = seed.natural_fan
    assert fan[0] == seed.reflections[order[2] - 1]
    assert [r.word for r in fan] == [(1,), (2, 3, 2), (2,)]


def test_natural_coxeter_product_fails_on_permuted_cvectors():
    # the c-vectors of a seed moved off their vertices: the fan read in
    # natural order no longer multiplies to s_1 s_2 s_3
    seed = mutate_seed(S0, 2)
    c1, c2, c3 = seed.cvectors
    permuted = YSeed(seed.matrix, (c2, c1, c3), seed.gram, seed.path)
    assert tuple_product(permuted.natural_fan) != (1, 2, 3)


def test_sign_run_count():
    assert sign_run_count(S0) == 1
    assert sign_run_count(mutate_seed(S0, 2)) == 2
    rng = random.Random(99)
    for _ in range(40):
        seed = initial_seed(random_acyclic_two_complete(3, rng))
        for _ in range(rng.randint(0, 8)):
            seed = mutate_seed(seed, rng.randint(1, 3))
        assert sign_run_count(seed) <= 2


def test_yseed_rank_mismatch():
    with pytest.raises(ValueError):
        YSeed(B3, ((1, 0, 0),), GRAM3, ())


def test_inner_matches_the_double_sum():
    rng = random.Random(8)
    for _ in range(200):
        n = rng.randint(1, 6)
        gram = cartan_companion(random_acyclic_two_complete(n, rng)) if n > 1 else GramMatrix(((2,),))
        u = tuple(rng.randint(-9, 9) for _ in range(n))
        v = tuple(rng.randint(-9, 9) for _ in range(n))
        want = sum(u[i] * gram.rows[i][j] * v[j] for i in range(n) for j in range(n))
        assert inner(u, v, gram) == want
    with pytest.raises(ValueError):
        inner((1, 0), (1, 0, 0), GRAM3)


def test_mutate_seed_checks_the_unit_root():
    # <c_2, c_2> = 2 + 2 - 4 = 0, and mutating at 2 reflects c_3 (b_32 < 0)
    seed = YSeed(B3, ((1, 0, 0), (1, 1, 0), (0, 0, 1)), GRAM3, ())
    with pytest.raises(NotARealRoot):
        mutate_seed(seed, 2)
    negative = YSeed(B3, ((1, 0, 0), (-1, -1, 0), (0, 0, 1)), GRAM3, ())
    with pytest.raises(NotARealRoot):
        mutate_seed(negative, 2)


def test_yseed_rejects_short_cvectors():
    with pytest.raises(ValueError):
        YSeed(B3, ((1, 0, 0), (0, 1), (0, 0, 1)), GRAM3, ())


def test_speyer_thomas_verdict_ignores_the_input_order():
    # a valid positives-first order is unique and the Euler sort finds it
    # from any start, so the st check may hand over the natural order:
    # permuting the roots with their reflections never changes the
    # verdict, on seeds (which pass) or on corrupted tuples (which mostly
    # fail)
    rng = random.Random(2026)
    verdicts = {True: 0, False: 0}
    for family, roots, refls, gram in _ordering_inputs(random.Random(2013)):
        want = speyer_thomas_check(roots, refls, gram)
        for _ in range(3):
            perm = rng.sample(range(len(roots)), len(roots))
            got = speyer_thomas_check(
                tuple(roots[i] for i in perm), tuple(refls[i] for i in perm), gram
            )
            assert got == want, (family, roots, perm)
        verdicts[want] += 1
    assert verdicts[True] > 600 and verdicts[False] > 600, verdicts


def test_gram_image_matches_the_double_sum():
    # _image(u)_i = <e_i, u>, read against inner's double sum, with entries
    # of both signs and beyond 2**63; a vector asked for twice gets the
    # image kept from the first request
    rng = random.Random(2013)
    for _ in range(300):
        n = rng.randint(1, 7)
        gram = cartan_companion(random_acyclic_two_complete(n, rng)) if n > 1 else GramMatrix(((2,),))
        bound = rng.choice([9, 2**70])
        u = tuple(rng.randint(-bound, bound) for _ in range(n))
        v = tuple(rng.randint(-bound, bound) for _ in range(n))
        mu = gram._image(u)
        assert type(mu) is tuple
        assert mu == tuple(inner(unit_vector(n, i), u, gram) for i in range(1, n + 1))
        assert sum(x * y for x, y in zip(v, mu)) == inner(v, u, gram)
        assert gram._image(u) is mu


@pytest.mark.parametrize(
    "u,messages",
    [
        (
            (1, 0),
            (
                r"^rank mismatch between matrix, c-vectors, and pairing$",
                r"^expected 3 roots of length 3 and 3 reflections$",
                r"^root length 2 != pairing rank 3$",
            ),
        ),
        (
            (1.0, 0, 0),
            (
                r"^c\[1\]\[1\] = 1\.0 is not an integer$",
                r"^root\[1\]\[1\] = 1\.0 is not an integer$",
                r"^u\[1\] = 1\.0 is not an integer$",
            ),
        ),
        (
            (0, True, 0),
            (
                r"^c\[1\]\[2\] = True is not an integer$",
                r"^root\[1\]\[2\] = True is not an integer$",
                r"^u\[2\] = True is not an integer$",
            ),
        ),
    ],
    ids=["short", "float", "bool"],
)
def test_gram_image_refuses_what_it_cannot_keep(u, messages):
    # _image checks nothing itself: a vector it could not keep exactly is
    # refused where it enters the program, as a c-vector of a YSeed, a root
    # of speyer_thomas_check or of root_to_reflection, and the pairing
    # forms and keeps nothing for it
    gram = all_weights_two_gram(3)
    seed_message, st_message, root_message = messages
    with pytest.raises(ValueError, match=seed_message):
        YSeed(B3, (u, (0, 1, 0), (0, 0, 1)), gram, ())
    with pytest.raises(ValueError, match=st_message):
        speyer_thomas_check((u, (0, 1, 0), (0, 0, 1)), S0.reflections, gram)
    with pytest.raises(ValueError, match=root_message):
        root_to_reflection(u, gram)
    assert gram._images == {} and gram._pivots == {}


def test_seeds_of_one_walk_share_the_image_memo():
    # one pairing per initial_seed, kept by every seed of its walk; a
    # second initial seed of the same matrix starts with no images
    first = initial_seed(B3)
    seeds = list(iter_seeds(first, 4))
    assert all(s.gram is first.gram for s in seeds)
    assert speyer_thomas_check(seeds[-1].cvectors, seeds[-1].reflections, seeds[-1].gram)
    formed = dict(first.gram._images)
    assert formed
    second = initial_seed(B3)
    assert second.gram is not first.gram and second.gram._images == {}
    assert all(s._fan_ordering for s in iter_seeds(second, 2))
    assert first.gram._images == formed
    # the images are no part of the pairing's value
    assert second.gram == first.gram and hash(second.gram) == hash(first.gram)
    assert repr(second.gram) == repr(first.gram) == f"GramMatrix(rows={GRAM3.rows!r})"


@pytest.mark.parametrize(
    "cvecs,message",
    [
        (((1.0, 0, 0), (0, 1, 0), (0, 0, 1)), r"^c\[1\]\[1\] = 1\.0 is not an integer$"),
        (((True, 0, 0), (0, 1, 0), (0, 0, 1)), r"^c\[1\]\[1\] = True is not an integer$"),
        (((1, 0, 0), (0, 1, 0), (0, 0, "1")), r"^c\[3\]\[3\] = '1' is not an integer$"),
    ],
    ids=["float", "bool", "str"],
)
def test_yseed_refuses_cvector_entries_that_are_not_ints(cvecs, message):
    with pytest.raises(ValueError, match=message):
        YSeed(B3, cvecs, GRAM3, ())


def test_yseed_keeps_cvectors_as_tuples():
    seed = YSeed(B3, ([1, 0, 0], (0, 1, 0), [0, 0, 1]), GRAM3, ())
    assert seed.cvectors == S0.cvectors
    assert all(type(c) is tuple for c in seed.cvectors)
    assert mutate_seed(seed, 1).cvectors == ((-1, 0, 0), (2, 1, 0), (2, 0, 1))


@pytest.mark.parametrize("u", [(1.0, 0, 0), (True, 0, 0), (1, 0, "0")], ids=repr)
def test_root_to_reflection_refuses_entries_that_are_not_ints(u):
    with pytest.raises(ValueError, match=r"^u\[\d\] = .* is not an integer$"):
        root_to_reflection(u, all_weights_two_gram(3))


def test_speyer_thomas_check_refuses_root_entries_that_are_not_ints():
    refls = S0.reflections
    with pytest.raises(ValueError, match=r"^root\[3\]\[3\] = True is not an integer$"):
        speyer_thomas_check(((1, 0, 0), (0, 1, 0), (0, 0, True)), refls, GRAM3)
    with pytest.raises(ValueError, match=r"^root\[1\]\[2\] = 0\.0 is not an integer$"):
        speyer_thomas_check(((1, 0.0, 0), (0, 1, 0), (0, 0, 1)), refls, GRAM3)
    assert speyer_thomas_check([[1, 0, 0], [0, 1, 0], [0, 0, 1]], list(refls), GRAM3)
