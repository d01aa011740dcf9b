import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from arcroots.arcs import (
    Arc,
    TupleVerdict,
    arc_to_reflection,
    braid_swap,
    canonicalize_arc,
    reflection_to_arc,
    tuple_product,
    tuple_verdict,
    twin,
    twin_replace_walk,
)
from arcroots.cli import _parse_arc_token
from arcroots.errors import (
    LengthPreconditionError,
    TwinEndpointClash,
    UnreducedArc,
    WrongArity,
)
from arcroots.explore import iter_seeds
from arcroots.quiver import ExchangeMatrix, random_acyclic_two_complete
from arcroots.roots import (
    all_weights_two_gram,
    cartan_companion,
    initial_seed,
    mutate_seed,
    reflection_to_root,
    speyer_thomas_check,
)
from arcroots.words import (
    Reflection,
    canonical_reflection,
    comparable,
    generator,
    mul,
    reflection_length,
)


def arc(crossings, endpoint):
    return Arc(tuple(crossings), endpoint)


def fan_arc(crossings, endpoint):
    """The reflection of an arc, as tuple_verdict takes it."""
    return arc_to_reflection(arc(crossings, endpoint))


def refl(*letters):
    return canonical_reflection(letters)


def test_arc_validation():
    with pytest.raises(UnreducedArc):
        arc([1, 1], 2)
    with pytest.raises(UnreducedArc):
        arc([2, 3], 3)
    with pytest.raises(ValueError):
        arc([0], 1)
    with pytest.raises(ValueError):
        arc([], 0)


def test_canonicalize_arc():
    assert canonicalize_arc((1, 1, 2), 3) == arc([2], 3)
    assert canonicalize_arc((2, 3, 3, 2), 1) == arc([], 1)
    assert canonicalize_arc((3, 1), 2) == arc([3, 1], 2)
    assert canonicalize_arc((1, 2, 2, 1, 3, 3), 1) == arc([], 1)
    # a reduced word never ends in two equal letters, so one trailing
    # crossing of the endpoint's ray is all there is to drop
    assert canonicalize_arc((2, 1), 1) == arc([2], 1)


def test_arc_text_is_the_token_syntax():
    assert str(arc([2, 1], 3)) == "2,1:3"
    assert str(arc([], 4)) == "4"
    assert f"{arc([3], 1)}" == "3:1"


def test_canonicalize_arc_never_coerces_crossings():
    with pytest.raises(ValueError):
        canonicalize_arc([2.9], 3)
    with pytest.raises(ValueError):
        canonicalize_arc([True, 2], 3)


@pytest.mark.parametrize("make", [
    lambda: Arc((2,), 3.0),
    lambda: canonicalize_arc([2], 3.0),
    lambda: Arc((True,), 2),
    lambda: Arc((2.0,), 3),
    lambda: Arc((), "3"),
], ids=["float endpoint", "canonicalize float endpoint", "bool crossing", "float crossing", "str endpoint"])
def test_arc_fields_are_never_coerced(make):
    with pytest.raises(ValueError):
        make()


def test_arc_keeps_a_list_of_crossings_as_a_tuple():
    assert Arc([2], 3) == Arc((2,), 3)
    assert hash(Arc([2], 3)) == hash(Arc((2,), 3))


def test_arc_reflection_conversion_worked_examples():
    assert arc_to_reflection(arc([2], 3)).word == (2, 3, 2)
    long = arc([3, 1, 2, 3], 4)
    assert arc_to_reflection(long).word == (3, 1, 2, 3, 4, 3, 2, 1, 3)
    assert reflection_to_arc(refl(2, 3, 2)) == arc([2], 3)
    assert reflection_to_arc(refl(3, 1, 2, 3, 4, 3, 2, 1, 3)) == long


def all_reflections(n, max_prefix):
    # every reduced prefix over 1..n, with every core distinct from its tail
    level = [()]
    out = []
    for _ in range(max_prefix + 1):
        for p in level:
            for core in range(1, n + 1):
                if not p or p[-1] != core:
                    out.append(canonical_reflection(p + (core,) + tuple(reversed(p))))
        level = [p + (s,) for p in level for s in range(1, n + 1) if not p or p[-1] != s]
    return out


def test_conversion_round_trip_exhaustive_rank_3():
    rs = all_reflections(3, 4)
    assert len(rs) == 93
    for r in rs:
        a = reflection_to_arc(r)
        assert arc_to_reflection(a) == r


def test_is_bad_pair_examples():
    # two arcs form a bad pair when their reflections are comparable
    assert comparable(fan_arc([], 1), fan_arc([1], 2))
    assert not comparable(fan_arc([2], 3), fan_arc([3], 2))
    mu1 = (fan_arc([1], 2), fan_arc([1], 3), fan_arc([], 1))
    assert not comparable(mu1[0], mu1[1])
    assert comparable(mu1[1], mu1[2])


def test_tuple_verdict_initial_fan():
    for n in (3, 4):
        verdict = tuple_verdict(tuple(fan_arc([], i) for i in range(1, n + 1)))
        assert verdict.bad_pair_count == 0
        assert verdict.product_is_coxeter
        assert verdict.st_pass
        assert verdict.is_yseed


def test_tuple_verdict_one_bad_pair():
    verdict = tuple_verdict((fan_arc([1], 2), fan_arc([1], 3), fan_arc([], 1)))
    assert verdict.bad_pair_count == 1
    assert verdict.product_is_coxeter
    assert verdict.is_yseed


def test_tuple_verdict_two_bad_pairs():
    verdict = tuple_verdict((fan_arc([], 1), fan_arc([1], 2), fan_arc([1, 2], 3)))
    assert verdict.bad_pair_count == 2
    assert not verdict.is_yseed


def _reflections_up_to(n, max_length):
    # every reflection over s_1..s_n whose word has at most max_length letters
    prefixes = [()]
    for p in prefixes:
        if 2 * len(p) + 3 <= max_length:
            prefixes += [p + (s,) for s in range(1, n + 1) if not p or p[-1] != s]
    return [Reflection(p, c) for p in prefixes for c in range(1, n + 1) if not p or p[-1] != c]


def _factorizations(w, k, refls):
    # every (t_1, .., t_k) from refls with product w, given l_T(w) = k:
    # t_1 w must then have absolute length k - 1, and a last factor is w
    if k == 1:
        yield from ((t,) for t in refls if t.word == w)
        return
    for t in refls:
        rest = mul(t.word, w)
        if reflection_length(rest) == k - 1:
            for tail in _factorizations(rest, k - 1, refls):
                yield (t, *tail)


def _composed_verdict(refls, gram):
    """tuple_verdict composed from the public functions, with the product
    and the ordering check's first try formed apart."""
    n = len(refls)
    bad = [i for i in range(n - 1) if comparable(refls[i], refls[i + 1])]
    product_ok = tuple_product(refls) == tuple(range(1, n + 1))
    roots = [reflection_to_root(r, gram) for r in refls]
    if bad:
        roots = roots[: bad[0] + 1] + [tuple(-x for x in u) for u in roots[bad[0] + 1 :]]
    st_pass = speyer_thomas_check(tuple(roots), refls, gram)
    return TupleVerdict(len(bad), product_ok, st_pass, len(bad) <= 1 and st_pass)


B3_GRAM = cartan_companion(ExchangeMatrix.from_rows([[0, 2, 2], [-2, 0, 2], [-2, -2, 0]]))


@pytest.mark.parametrize(
    "rows,max_length,counts",
    [
        ([[0, 2, 2], [-2, 0, 2], [-2, -2, 0]], 9, (93, 127, 97)),
        ([[0, 2, 3, 2], [-2, 0, 2, 4], [-3, -2, 0, 2], [-2, -4, -2, 0]], 5, (52, 179, 109)),
    ],
    ids=["b3", "weighted-rank-4"],
)
def test_every_passing_tuple_is_a_seed_fan(rows, max_length, counts):
    # the converse of the explore check bad_pairs, which asks every
    # seed's natural fan for is_yseed: a factorization of c into short
    # reflections passes tuple_verdict exactly when it is the natural fan
    # of some seed
    matrix = ExchangeMatrix.from_rows(rows)
    n, gram = matrix.n, cartan_companion(matrix)
    refls = _reflections_up_to(n, max_length)
    factorizations = list(_factorizations(tuple(range(1, n + 1)), n, refls))
    verdicts = {f: tuple_verdict(f, gram) for f in factorizations}
    assert all(v == _composed_verdict(f, gram) for f, v in verdicts.items())
    passing = {f for f, v in verdicts.items() if v.is_yseed}
    # reflection lengths never shrink away from the root, so a seed
    # with a longer member has no descendant short enough to count
    def short(seed):
        return all(len(r) <= max_length for r in seed.reflections)

    seeds = [s for s in iter_seeds(initial_seed(matrix), 30, expand=short) if short(s)]
    assert max(len(s.path) for s in seeds) < 30
    fans = {s.natural_fan for s in seeds}
    assert (len(refls), len(factorizations), len(passing)) == counts
    assert passing == fans
    assert all(v.bad_pair_count >= 2 for f, v in verdicts.items() if f not in passing)


def test_the_ordering_check_decides_most_tuples_with_few_bad_pairs():
    # every triple of short rank-3 reflections: most of those with at
    # most one bad pair fail the ordering check, so a verdict that
    # dropped it would pass them
    refls = _reflections_up_to(3, 5)
    assert len(refls) == 21
    tally = Counter()
    products = Counter()
    for f in itertools.product(refls, repeat=3):
        v = tuple_verdict(f, B3_GRAM)
        assert v == _composed_verdict(f, B3_GRAM), f
        tally[min(v.bad_pair_count, 2), v.st_pass, v.is_yseed] += 1
        products[v.product_is_coxeter, v.st_pass] += 1
    # most triples do not multiply to c, so the ordering check's first try
    # fails and the Euler-order sort runs; nine of them still pass it
    assert products == {(False, False): 9_221, (False, True): 9, (True, True): 27, (True, False): 4}
    # (bad pairs, capped at 2; ordering check; verdict)
    assert tally == {
        (0, True, True): 6,
        (1, True, True): 30,
        (1, False, False): 2_070,
        (0, False, False): 6_945,
        (2, False, False): 210,
    }


def test_tuple_verdict_depends_on_fan_rotation():
    # the same cyclic configuration, read from two different start arcs:
    # only the rotation starting at the first positive root passes
    unrotated = tuple_verdict((fan_arc([2], 3), fan_arc([], 2), fan_arc([], 1)))
    assert unrotated.bad_pair_count == 1
    assert not unrotated.product_is_coxeter
    assert not unrotated.st_pass
    rotated = tuple_verdict((fan_arc([], 1), fan_arc([2], 3), fan_arc([], 2)))
    assert rotated.bad_pair_count == 1
    assert rotated.product_is_coxeter
    assert rotated.st_pass
    assert rotated.is_yseed


def test_tuple_verdict_arity_errors():
    with pytest.raises(WrongArity):
        tuple_verdict(())
    # a letter or ray beyond the rank fails words.require_rank's one check
    with pytest.raises(ValueError, match="letter or ray 4 exceeds the rank 3"):
        tuple_verdict((fan_arc([], 1), fan_arc([], 4), fan_arc([], 3)))
    with pytest.raises(ValueError, match="letter or ray 4 exceeds the rank 3"):
        tuple_verdict((fan_arc([4], 1), fan_arc([], 2), fan_arc([], 3)))
    with pytest.raises(WrongArity, match="pairing rank 2 != tuple length 3"):
        tuple_verdict((fan_arc([], 1), fan_arc([], 2), fan_arc([], 3)), all_weights_two_gram(2))


def test_braid_swap_forward_worked_example():
    start = (refl(1, 3, 1), refl(1), refl(3, 2, 3))
    swapped = braid_swap(start, 1, 3, "forward")
    assert tuple(r.word for r in swapped) == ((1, 3, 2, 3, 1), (1,), (3, 2, 3, 2, 3))
    assert tuple_product(start) == (1, 2, 3)
    assert tuple_product(swapped) == (1, 2, 3)


def test_braid_swap_inverse_worked_example():
    start = (generator(1), generator(2), generator(3))
    swapped = braid_swap(start, 1, 3, "inverse")
    assert tuple(r.word for r in swapped) == ((1, 2, 3, 2, 1), (2,), (2, 1, 2))
    assert tuple_product(swapped) == (1, 2, 3)


def test_braid_swap_adjacent_is_hurwitz_move():
    a, b = refl(2, 1, 2), refl(3)
    swapped = braid_swap((a, b), 1, 2, "forward")
    assert swapped[0] == b
    assert swapped[1] == canonical_reflection(mul(b.word, a.word, b.word))


def test_braid_swap_rejects_bad_indices():
    t = (generator(1), generator(2))
    with pytest.raises(ValueError):
        braid_swap(t, 2, 1)
    with pytest.raises(ValueError):
        braid_swap(t, 1, 3)
    with pytest.raises(ValueError):
        braid_swap(t, 1, 2, "sideways")


def random_reflection(rng, n=3, max_prefix=4):
    while True:
        p = []
        for _ in range(rng.randint(0, max_prefix)):
            choices = [s for s in range(1, n + 1) if not p or p[-1] != s]
            p.append(rng.choice(choices))
        cores = [s for s in range(1, n + 1) if not p or p[-1] != s]
        return canonical_reflection(tuple(p) + (rng.choice(cores),) + tuple(reversed(p)))


def test_braid_swap_product_invariance_and_inversion_fuzz():
    rng = random.Random(2718)
    for _ in range(1000):
        n = rng.randint(2, 5)
        t = tuple(random_reflection(rng) for _ in range(n))
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        fwd = braid_swap(t, i, j, "forward")
        assert tuple_product(fwd) == tuple_product(t)
        assert braid_swap(fwd, i, j, "inverse") == t
        assert braid_swap(braid_swap(t, i, j, "inverse"), i, j, "forward") == t


def test_twin_worked_examples():
    assert twin(generator(1), generator(2)).word == (1, 2, 1)
    assert twin(generator(1), refl(2, 3, 2)).word == (1, 2, 3, 2, 1)


def test_twin_is_involution():
    rng = random.Random(555)
    for _ in range(300):
        g = random_reflection(rng)
        b = random_reflection(rng)
        if g.core == b.core:
            continue
        assert twin(g, twin(g, b)) == b


def test_twin_endpoint_clash():
    with pytest.raises(TwinEndpointClash):
        twin(refl(2, 1, 2), generator(1))


def test_twin_cancels_at_the_junctions():
    # gamma's word ends with the letter beta's begins with, so the
    # conjugate collapses before recanonicalization
    g = refl(2, 1, 2)
    b = refl(2, 3, 2)
    got = twin(g, b)
    assert got == refl(2, 1, 3, 1, 2)
    assert twin(g, got) == b


def walk_setup(rng, n):
    # a fan of jointly embeddable arcs: take a seed fan, drop two arcs so
    # no consecutive bad pair remains; the dropped arcs free two punctures
    seed = initial_seed(random_acyclic_two_complete(n, rng))
    for _ in range(rng.randint(0, 6)):
        seed = mutate_seed(seed, rng.randint(1, n))
    fan = seed.natural_fan
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    rng.shuffle(pairs)
    for i, j in pairs:
        kept = tuple(fan[k] for k in range(n) if k not in (i, j))
        if not any(comparable(a, b) for a, b in zip(kept, kept[1:])):
            return kept, fan[i], fan[j]
    raise AssertionError("no embeddable fan found")


def inflated_twist(delta_i, delta_j, bound):
    # Dehn twist along a loop around the two free punctures, applied to
    # the arc ending at the first of them, until it is long enough
    theta = mul(delta_i.word, delta_j.word)
    power = ()
    while True:
        power = mul(power, theta)
        beta = canonical_reflection(mul(power, delta_i.word, power[::-1]))
        if len(beta) > bound:
            return beta


def test_twin_replace_walk_no_replacement():
    fan = (fan_arc([2], 3),)
    beta = fan_arc([2, 1] * 10 + [2], 1)
    assert len(beta) > 3 * 2 * 7
    assert twin_replace_walk(fan, beta) == beta


def test_twin_replace_walk_empty_fan():
    assert twin_replace_walk((), fan_arc([1], 2)) == fan_arc([1], 2)


def test_twin_replace_walk_length_precondition():
    with pytest.raises(LengthPreconditionError):
        twin_replace_walk((fan_arc([], 1),), fan_arc([1], 2))


def test_twin_replace_walk_rejects_bad_fan():
    beta = fan_arc([3, 2] * 15, 1)
    with pytest.raises(ValueError):
        twin_replace_walk((fan_arc([], 1), fan_arc([1], 2)), beta)


def test_twin_replace_walk_fuzz_on_embeddable_fans():
    rng = random.Random(60902)
    replacements = 0
    for _ in range(300):
        n = rng.randint(3, 5)
        kept, delta_i, delta_j = walk_setup(rng, n)
        if not kept:
            continue
        bound = 3 * (len(kept) + 1) * max(len(r) for r in kept)
        beta0 = inflated_twist(delta_i, delta_j, bound)
        out = twin_replace_walk(kept, beta0)
        if out != beta0:
            replacements += 1
        assert not comparable(out, kept[-1])
    assert replacements > 0


@st.composite
def arcs(draw):
    n = draw(st.integers(2, 6))
    crossings: list[int] = []
    for _ in range(draw(st.integers(0, 8))):
        crossings.append(draw(st.sampled_from(
            [c for c in range(1, n + 1) if not crossings or c != crossings[-1]]
        )))
    ends = [e for e in range(1, n + 2) if not crossings or e != crossings[-1]]
    return Arc(tuple(crossings), draw(st.sampled_from(ends)))


@given(arcs())
def test_arc_text_parses_back_as_an_arcs_token(a):
    assert _parse_arc_token(str(a)) == a
