import random

import pytest

from arcroots.errors import (
    IncompleteTournament,
    MultipleDecreasingMutations,
    NoDecreasingMutation,
    NotAcyclic,
    NotMutationAcyclic,
)
from arcroots.quiver import (
    ExchangeMatrix,
    MutationKind,
    acyclic_representative,
    classify_mutation,
    natural_order,
    normalized,
    random_acyclic_two_complete,
    separating_vertex,
)

B3 = ExchangeMatrix.from_rows([[0, 2, 2], [-2, 0, 2], [-2, -2, 0]])

# hand application of the mutation rule at vertex 2
MU2_B3 = ExchangeMatrix.from_rows([[0, -2, 6], [2, 0, -2], [-6, 2, 0]])

# oriented 3-cycle with all weights 1: every direction decreases
UNIT_CYCLE = ExchangeMatrix.from_rows([[0, 1, -1], [-1, 0, 1], [1, -1, 0]])

# oriented 3-cycle with all weights 2: every direction is neutral
MARKOV = ExchangeMatrix.from_rows([[0, 2, -2], [-2, 0, 2], [2, -2, 0]])


def test_mutate_b3_at_2():
    assert B3.mutate(2) == MU2_B3


def test_mutation_is_involutive_on_fixed_case():
    assert MU2_B3.mutate(2) == B3


def test_correction_term_vanishes_on_opposite_signs():
    m = ExchangeMatrix.from_rows([[0, 1, 0], [-1, 0, -1], [0, 1, 0]])
    assert m.mutate(2) == ExchangeMatrix.from_rows([[0, -1, 0], [1, 0, 1], [0, -1, 0]])


def test_mutation_is_involutive_fuzz():
    rng = random.Random(90125)
    for _ in range(200):
        n = rng.randint(2, 5)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                w = rng.randint(-5, 5)
                rows[i][j] = w
                rows[j][i] = -w
        m = ExchangeMatrix.from_rows(rows)
        k = rng.randint(1, n)
        assert m.mutate(k).mutate(k) == m


def test_vertex_out_of_range():
    with pytest.raises(ValueError):
        B3.mutate(0)
    with pytest.raises(ValueError):
        B3.mutate(4)


def test_rejects_non_square_and_non_skew():
    with pytest.raises(ValueError):
        ExchangeMatrix.from_rows([[0, 1], [-1, 0], [0, 0]])
    with pytest.raises(ValueError):
        ExchangeMatrix.from_rows([[0, 1], [1, 0]])


def test_acyclic_and_two_complete_flags():
    assert B3.is_acyclic()
    assert B3.is_two_complete()
    assert not MU2_B3.is_acyclic()
    assert MU2_B3.is_two_complete()
    assert not UNIT_CYCLE.is_two_complete()


@pytest.mark.parametrize(
    "matrix,k,kind",
    [
        (B3, 1, MutationKind.NEUTRAL),
        (B3, 3, MutationKind.NEUTRAL),
        (B3, 2, MutationKind.INCREASING),
        (MU2_B3, 2, MutationKind.DECREASING),
        (MU2_B3, 1, MutationKind.INCREASING),
        (MU2_B3, 3, MutationKind.INCREASING),
    ],
)
def test_classify_mutation(matrix, k, kind):
    assert classify_mutation(matrix, k) is kind


def test_separating_vertex_of_mu2_b3():
    k, side_i, side_j = separating_vertex(MU2_B3)
    assert k == 2
    assert side_i == {3}
    assert side_j == {1}
    # every arrow between the sides points from J into I
    for j in side_j:
        for i in side_i:
            assert MU2_B3.b(j, i) > 0


def test_separating_vertex_rejects_acyclic():
    with pytest.raises(NoDecreasingMutation):
        separating_vertex(B3)


def test_separating_vertex_out_of_class():
    with pytest.raises(MultipleDecreasingMutations):
        separating_vertex(UNIT_CYCLE)


def test_markov_mutations_are_all_neutral():
    for k in (1, 2, 3):
        assert classify_mutation(MARKOV, k) is MutationKind.NEUTRAL


def test_acyclic_representative_descends_to_b3():
    start = MU2_B3.mutate(1)
    rep, path = acyclic_representative(start)
    assert path == (1, 2)
    assert rep == B3


def test_acyclic_representative_is_weight_minimal_at_depth_two():
    # exhaustive oracle: every mutation path of length <= 2 from the same
    # start, terminal must be acyclic and of minimal total weight
    start = MU2_B3.mutate(1)
    rep, _ = acyclic_representative(start)
    assert rep.is_acyclic()
    reached = [start]
    for k in start.vertices():
        first = start.mutate(k)
        reached.append(first)
        for k2 in start.vertices():
            reached.append(first.mutate(k2))
    def total_weight(m):
        return sum(abs(m.b(i, j)) for i in m.vertices() for j in m.vertices() if i < j)

    assert total_weight(rep) == min(total_weight(m) for m in reached)


def test_acyclic_representative_of_acyclic_is_itself():
    rep, path = acyclic_representative(B3)
    assert rep == B3
    assert path == ()


def test_acyclic_representative_not_mutation_acyclic():
    with pytest.raises(NotMutationAcyclic):
        acyclic_representative(MARKOV)


@pytest.mark.parametrize(
    "matrix,order",
    [
        (B3, (1, 2, 3)),
        (B3.mutate(1), (2, 3, 1)),
        (B3.mutate(3), (3, 1, 2)),
        (MU2_B3, (3, 2, 1)),
    ],
)
def test_natural_order(matrix, order):
    assert natural_order(matrix) == order


def test_natural_order_rotates_under_sink_and_source_mutation():
    base = natural_order(B3)
    for k, rotated in ((1, B3.mutate(1)), (3, B3.mutate(3))):
        got = natural_order(rotated)
        doubled = base + base
        assert any(doubled[s : s + 3] == got for s in range(3))


def test_natural_order_needs_a_tournament():
    m = ExchangeMatrix.from_rows([[0, 2, 0], [-2, 0, 2], [0, -2, 0]])
    with pytest.raises(IncompleteTournament):
        natural_order(m)


def test_normalized_relabels_to_upper_positive():
    mat, perm = normalized(B3.mutate(1))
    assert mat == B3
    assert perm == (2, 3, 1)
    same, identity = normalized(B3)
    assert same == B3
    assert identity == (1, 2, 3)


def test_normalized_rejects_cyclic():
    with pytest.raises(NotAcyclic):
        normalized(MU2_B3)


def test_json_round_trip():
    data = MU2_B3.to_json()
    assert data == {"n": 3, "b": [[0, -2, 6], [2, 0, -2], [-6, 2, 0]]}
    assert ExchangeMatrix.from_json(data) == MU2_B3
    with pytest.raises(ValueError):
        ExchangeMatrix.from_json({"n": 4, "b": [[0, 1], [-1, 0]]})


def test_random_generator_is_normalized_and_two_complete():
    rng = random.Random(5)
    for _ in range(20):
        m = random_acyclic_two_complete(rng.randint(2, 5), rng)
        assert m.is_acyclic()
        assert m.is_two_complete()
        assert natural_order(m) == tuple(m.vertices())


def test_two_completeness_preserved_under_mutation_fuzz():
    rng = random.Random(777)
    for _ in range(60):
        m = random_acyclic_two_complete(rng.randint(3, 5), rng)
        initial = m
        for _ in range(rng.randint(1, 6)):
            m = m.mutate(rng.randint(1, m.n))
        assert m.is_two_complete()
        for i in range(m.n):
            for j in range(i + 1, m.n):
                assert abs(m.rows[i][j]) >= abs(initial.rows[i][j])
