import pytest

from arcroots.dot import cayley_fragment_dot, exchange_tree_dot
from arcroots.errors import CapExceeded
from arcroots.quiver import ExchangeMatrix
from arcroots.explore import iter_seeds
from arcroots.roots import YSeed, initial_seed, mutate_seed

B3 = ExchangeMatrix(((0, 2, 2), (-2, 0, 2), (-2, -2, 0)))


def statements(text):
    body = text.strip().splitlines()[1:-1]
    nodes = [ln for ln in body if "->" not in ln and "--" not in ln]
    edges = [ln for ln in body if "->" in ln or "--" in ln]
    return nodes, edges


def test_exchange_tree_counts_and_edge_labels():
    text = exchange_tree_dot(initial_seed(B3), 2)
    nodes, edges = statements(text)
    assert text.startswith("digraph exchange_tree {")
    assert len(nodes) == 10
    assert len(edges) == 9
    assert all("[label=" in e for e in edges)
    assert '  "e" -> "1" [label="1"];' in edges
    assert '  "3" -> "3,2" [label="2"];' in edges


def test_exchange_tree_depth_zero_is_one_node():
    nodes, edges = statements(exchange_tree_dot(initial_seed(B3), 0))
    assert nodes == ['  "e";']
    assert edges == []


def test_exchange_tree_cap():
    root = initial_seed(B3)
    with pytest.raises(CapExceeded):
        exchange_tree_dot(root, 2, node_cap=9)
    exchange_tree_dot(root, 2, node_cap=10)


def test_cayley_fragment_initial_seed_is_all_green():
    text = cayley_fragment_dot(initial_seed(B3))
    assert text.startswith("graph cayley_fragment {")
    assert text.count("fillcolor=green") == 3
    assert "color=red" not in text
    # one element vertex per generator plus the identity
    nodes, edges = statements(text)
    assert len(nodes) == 4 + 3
    assert len(edges) == 2 * 3


def test_cayley_fragment_colors_negative_cvectors_red():
    seed = mutate_seed(initial_seed(B3), 1)
    text = cayley_fragment_dot(seed)
    assert text.count("color=red") == 1
    assert text.count("fillcolor=green") == 2
    assert '"r|s1" [label="s1", color=red];' in text


def test_cayley_fragment_splits_only_marked_edges():
    seed = mutate_seed(mutate_seed(initial_seed(B3), 1), 2)
    text = cayley_fragment_dot(seed)
    # plain tree edge keeps its generator label
    assert '  "w|e" -- "w|s1" [label="s1"];' in text
    # a reflection edge is split around the midnode
    assert '  "w|s1" -- "r|s1 s2 s1" [label="s2"];' in text
    assert '  "r|s1 s2 s1" -- "w|s1 s2";' in text


@pytest.mark.parametrize("cvectors", [
    ((1, 0, 0), (-1, 0, 0), (0, 0, 1)),
    ((1, 0, 0), (0, 0, 1), (1, 0, 0)),
], ids=["negated", "repeated"])
def test_cayley_fragment_refuses_a_repeated_reflection(cvectors):
    # two c-vectors of one reflection would share its edge's midpoint, and
    # the later sign would paint the earlier one's node
    seed = YSeed(B3, cvectors, initial_seed(B3).gram, ())
    with pytest.raises(ValueError, match=r"^c-vector .* repeats the reflection s1 .* edge e -- s1$"):
        cayley_fragment_dot(seed)


def test_cayley_fragment_draws_one_midpoint_per_cvector_of_every_seed():
    for seed in iter_seeds(initial_seed(B3), 4):
        nodes, _ = statements(cayley_fragment_dot(seed))
        assert sum(node.startswith('  "r|') for node in nodes) == seed.n, seed.path


def test_cayley_fragment_cap():
    seed = mutate_seed(mutate_seed(initial_seed(B3), 1), 2)
    with pytest.raises(CapExceeded):
        cayley_fragment_dot(seed, node_cap=4)


@pytest.mark.parametrize("cap", [True, 2.5, 0, -3], ids=repr)
def test_node_cap_must_be_an_integer_at_least_one(cap):
    root = initial_seed(B3)
    with pytest.raises(ValueError, match="^node_cap"):
        exchange_tree_dot(root, 2, node_cap=cap)
    with pytest.raises(ValueError, match="^node_cap"):
        cayley_fragment_dot(root, node_cap=cap)
