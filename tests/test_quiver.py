import random
from enum import Enum

import pytest

from arcroots.errors import (
    ArcrootsError,
    IncompleteTournament,
    MultipleDecreasingMutations,
    NoDecreasingMutation,
    NotAcyclic,
)
from arcroots.quiver import (
    ExchangeMatrix,
    acyclic_representative,
    decreasing_directions,
    natural_order,
    normalized,
    random_acyclic_two_complete,
    separating_vertex,
)
from arcroots.roots import initial_seed

B3 = ExchangeMatrix.from_rows([[0, 2, 2], [-2, 0, 2], [-2, -2, 0]])

# hand application of the mutation rule at vertex 2
MU2_B3 = ExchangeMatrix.from_rows([[0, -2, 6], [2, 0, -2], [-6, 2, 0]])

# MU2_B3 as the "b" field of a quiver file
MU2_B3_JSON_ROWS = [list(row) for row in MU2_B3.rows]

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


@pytest.mark.parametrize(
    "rows,name",
    [
        ([[0, 2.0], [-2.0, 0]], r"b\[1\]\[2\] = 2\.0"),
        ([[0, True], [-1, 0]], r"b\[1\]\[2\] = True"),
        (((0, 2), (-2, "0")), r"b\[2\]\[2\] = '0'"),
        # entries are read before the shape, in row-major order
        ([[0, 2, 2.5], [-2, 0]], r"b\[1\]\[3\] = 2\.5"),
        ([[0, 2], [None, 0, 1]], r"b\[2\]\[1\] = None"),
    ],
    ids=["float", "bool", "string", "before-the-shape", "ragged"],
)
def test_direct_construction_checks_every_entry(rows, name):
    # ExchangeMatrix(...) holds the same integer rule as from_rows
    with pytest.raises(ValueError, match=f"^{name} is not an integer$"):
        ExchangeMatrix(rows)
    if isinstance(rows, list):
        with pytest.raises(ValueError, match=f"^{name} is not an integer$"):
            ExchangeMatrix.from_rows(rows)


def test_from_rows_names_an_entry_before_a_later_row_that_is_no_list():
    with pytest.raises(ValueError, match=r"^b\[1\]\[2\] = 2\.0 is not an integer$"):
        ExchangeMatrix.from_rows([[0, 2.0], 5])
    with pytest.raises(ValueError, match="^row 2 of b must be a list, got int$"):
        ExchangeMatrix.from_rows([[0, 2], 5])


def test_list_built_matrix_equals_and_hashes_as_tuple_built():
    rows = [[0, 2, 2], [-2, 0, 2], [-2, -2, 0]]
    listed = ExchangeMatrix(rows)
    assert listed.rows == B3.rows and type(listed.rows[0]) is tuple
    assert listed == B3 and hash(listed) == hash(B3)
    assert hash(initial_seed(listed)) == hash(initial_seed(B3))
    # the stored rows do not follow the list they were built from
    rows[0][1] = 5
    assert listed == B3


def test_acyclic_and_two_complete_flags():
    assert B3.is_acyclic()
    assert B3.is_two_complete()
    assert not MU2_B3.is_acyclic()
    assert MU2_B3.is_two_complete()
    assert not UNIT_CYCLE.is_two_complete()


def test_decreasing_directions_on_known_matrices():
    # B3: mutation at 1 or 3 moves no weight, at 2 it grows one
    assert decreasing_directions(B3) == []
    # MU2_B3: mutation at 2 leads back to B3, at 1 or 3 it grows weights
    assert decreasing_directions(MU2_B3) == [2]
    assert decreasing_directions(UNIT_CYCLE) == [1, 2, 3]


class MutationKind(Enum):
    """What trial mutation at one vertex does to the weights, as the
    (grew, shrank) pair that _weight_moves returns."""

    INCREASING = (True, False)
    DECREASING = (False, True)
    NEUTRAL = (False, False)
    MIXED = (True, True)


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
    # hand-checked kinds, read through the trial oracle; only the
    # decreasing kind is reported by decreasing_directions
    assert _weight_moves(matrix, k) == kind.value
    assert (k in decreasing_directions(matrix)) == (kind is MutationKind.DECREASING)


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
        assert _weight_moves(MARKOV, k) == (False, False)
    assert decreasing_directions(MARKOV) == []


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
    with pytest.raises(NoDecreasingMutation):
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


def _tree_matrices(matrix, depth, last=0):
    # the exchange tree's matrices, never undoing the last mutation
    yield matrix
    if depth:
        for k in matrix.vertices():
            if k != last:
                yield from _tree_matrices(matrix.mutate(k), depth - 1, k)


def _order_by_flipped_matrix(matrix):
    # oracle: rebuild the matrix with the I-J arrows reversed, confirm it
    # is acyclic, and read the order off its out-degrees n-1, n-2, .., 0
    _, side_i, side_j = separating_vertex(matrix)
    rows = [list(row) for row in matrix.rows]
    for i in side_i:
        for j in side_j:
            rows[i - 1][j - 1] = -rows[i - 1][j - 1]
            rows[j - 1][i - 1] = -rows[j - 1][i - 1]
    flipped = ExchangeMatrix.from_rows(rows)
    assert flipped.is_acyclic()
    outdeg = {v: sum(flipped.b(v, w) > 0 for w in flipped.vertices()) for v in flipped.vertices()}
    order = tuple(sorted(flipped.vertices(), key=lambda v: -outdeg[v]))
    assert [outdeg[v] for v in order] == list(range(matrix.n - 1, -1, -1))
    return order


def test_natural_order_matches_the_flipped_matrix():
    rng = random.Random(1)
    b4 = ExchangeMatrix.from_rows([[0, 2, 2, 2], [-2, 0, 2, 2], [-2, -2, 0, 2], [-2, -2, -2, 0]])
    trees = [
        (B3, 8),
        (b4, 5),
        (random_acyclic_two_complete(5, rng, 2, 5), 4),
        (random_acyclic_two_complete(6, rng, 2, 3), 3),
    ]
    cyclic = 0
    for initial, depth in trees:
        for m in _tree_matrices(initial, depth):
            if not m.is_acyclic():
                cyclic += 1
                assert natural_order(m) == _order_by_flipped_matrix(m), m.rows
    # 766 + 485 + 426 + 187 matrices, 44 of them acyclic
    assert cyclic == 1820


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
    data = {"n": 3, "b": MU2_B3_JSON_ROWS}
    assert ExchangeMatrix.from_json(data) == MU2_B3
    with pytest.raises(ValueError):
        ExchangeMatrix.from_json({"n": 4, "b": [[0, 1], [-1, 0]]})


@pytest.mark.parametrize(
    "n,rows",
    [(3.0, MU2_B3_JSON_ROWS), (True, [[0]]), ("3", MU2_B3_JSON_ROWS)],
)
def test_json_size_field_is_never_coerced(n, rows):
    # 3.0 == 3 and True == 1, so a plain comparison would let both load
    with pytest.raises(ValueError, match=r"^n = .* is not an integer$"):
        ExchangeMatrix.from_json({"n": n, "b": rows})


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


def test_rejects_nonzero_diagonal():
    with pytest.raises(ValueError):
        ExchangeMatrix.from_rows([[1, 0], [0, -1]])
    with pytest.raises(ValueError):
        ExchangeMatrix.from_rows([[0, 2, 2], [-2, 0, 2], [-2, -3, 0]])


def _random_skew(n, rng, low, high):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = rng.randint(low, high)
            rows[i][j] = w
            rows[j][i] = -w
    return ExchangeMatrix.from_rows(rows)


def _mutate_by_formula(m, k):
    # the exchange rule entry by entry, as written in the mutate docstring
    ki = k - 1
    return ExchangeMatrix(tuple(
        tuple(
            -m.rows[i][j] if ki in (i, j)
            else m.rows[i][j] + (abs(m.rows[i][ki]) * m.rows[ki][j]
                                 + m.rows[i][ki] * abs(m.rows[ki][j])) // 2
            for j in range(m.n)
        )
        for i in range(m.n)
    ))


def _weight_moves(m, k):
    # oracle: mutate, then compare |b| entrywise over unordered pairs;
    # returns whether some weight grew and whether some weight shrank
    mutated = m.mutate(k)
    pairs = [(i, j) for i in range(m.n) for j in range(i + 1, m.n)]
    grew = any(abs(mutated.rows[i][j]) > abs(m.rows[i][j]) for i, j in pairs)
    shrank = any(abs(mutated.rows[i][j]) < abs(m.rows[i][j]) for i, j in pairs)
    return grew, shrank


def _decreasing_by_trial(m):
    return [k for k in m.vertices() if _weight_moves(m, k) == (False, True)]


def _random_matrices():
    rng = random.Random(4711)
    for _ in range(150):
        m = random_acyclic_two_complete(rng.randint(2, 6), rng)
        for _ in range(rng.randint(0, 6)):
            m = m.mutate(rng.randint(1, m.n))
        yield m
    for _ in range(300):
        # zero entries and both signs, cyclic or not
        yield _random_skew(rng.randint(1, 6), rng, -3, 3)


def test_mutate_matches_the_entrywise_rule():
    for m in _random_matrices():
        for k in m.vertices():
            assert m.mutate(k) == _mutate_by_formula(m, k)


def test_decreasing_directions_match_trial_mutation():
    moves = set()
    for m in _random_matrices():
        decs = decreasing_directions(m)
        assert decs == _decreasing_by_trial(m), m.rows
        for k in m.vertices():
            grew, shrank = _weight_moves(m, k)
            moves.add((grew, shrank))
            if grew and shrank:
                # a direction that shrinks one weight but grows another
                # does not decrease
                assert k not in decs, (m.rows, k)
    # every combination occurs, the mixed one included
    assert moves == {(False, False), (False, True), (True, False), (True, True)}


def test_cached_classification_keeps_identity():
    rng = random.Random(31)
    for m in (B3, MU2_B3, *(_random_skew(4, rng, -4, 4) for _ in range(10))):
        twin = ExchangeMatrix(m.rows)
        before = (hash(m), m.rows)
        decs = decreasing_directions(m)
        assert decreasing_directions(m) == decs
        try:
            order = natural_order(m)
        except ArcrootsError:
            order = None
        else:
            assert natural_order(m) == order
        assert (hash(m), m.rows) == before
        assert m == twin and twin == m and hash(twin) == hash(m)
        assert decreasing_directions(twin) == decs
        # the answers are the ones trial mutation gives
        assert decs == _decreasing_by_trial(m)


def test_decreasing_directions_returns_a_fresh_list():
    decs = decreasing_directions(MU2_B3)
    decs.append(1)
    assert decreasing_directions(MU2_B3) == [2]
