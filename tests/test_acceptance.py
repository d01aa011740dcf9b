"""End-to-end acceptance suite: one test per numbered criterion, every
check an exact integer statement (tolerance zero throughout).

The two exhaustive exploration runs and the rank-3 desk-scale sweep are
cached at module scope; the corollary suite, the tree counts, the
Coxeter-product audit, and the witness audit all read the same runs.
Each test prints a single acceptance line (visible with -s) and the
pytest verdict is the pass/fail line itself.
"""

import json
import random
import time
from dataclasses import asdict
from functools import lru_cache

from arcroots.arcs import (
    Arc,
    arc_to_reflection,
    braid_swap,
    reflection_to_arc,
    tuple_product,
    twin,
    twin_replace_walk,
)
from arcroots.cli import main
from arcroots.embedding import candidate_witnesses, probe_embedding, witness_is_valid
from arcroots.errors import TwinDisjunctionError
from arcroots.explore import ALL_CHECKS, SearchOutcome, explore, schur_by_search
from arcroots.quiver import ExchangeMatrix, random_acyclic_two_complete
from arcroots.roots import (
    all_weights_two_gram,
    initial_seed,
    mutate_seed,
    mutate_seed_matrix,
    reflection_to_root,
    root_to_reflection,
)
from arcroots.words import below_coxeter, canonical_reflection, comparable, generator, mul

B3 = ExchangeMatrix(((0, 2, 2), (-2, 0, 2), (-2, -2, 0)))
B4 = ExchangeMatrix(
    tuple(tuple(0 if i == j else (2 if j > i else -2) for j in range(4)) for i in range(4))
)


def report(num, label, ok, detail):
    print(f"acceptance {num} ({label}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance {num} ({label}): {detail}"


def tree_count(n, depth):
    return 1 + n * ((n - 1) ** depth - 1) // (n - 2)


def test_criterion_1_mutation_rule_matches_matrix_oracle():
    rng = random.Random(46281)
    start = time.monotonic()
    mismatches = 0
    for _ in range(1000):
        n = rng.choice((3, 4, 5))
        matrix = random_acyclic_two_complete(n, rng, 2, 5)
        fast = slow = initial_seed(matrix)
        for _ in range(rng.randint(0, 12)):
            k = rng.randint(1, n)
            fast = mutate_seed(fast, k)
            slow = mutate_seed_matrix(slow, k)
            if fast.matrix != slow.matrix or fast.cvectors != slow.cvectors:
                mismatches += 1
    elapsed = time.monotonic() - start
    report(
        1,
        "partial-reflection mutation equals the stacked-matrix oracle",
        mismatches == 0 and elapsed < 10.0,
        f"1000 random (B, C) trajectories, {mismatches} mismatches, {elapsed:.2f}s",
    )


@lru_cache(maxsize=None)
def corollary_run(which):
    matrix, depth = {"b3": (B3, 8), "b4": (B4, 5)}[which]
    start = time.monotonic()
    rep = explore(matrix, depth, checks=ALL_CHECKS)
    return rep, time.monotonic() - start


COXETER_LABELS = {"coxeter_product"}


def test_criterion_2_corollary_suite_exhaustive():
    rep3, t3 = corollary_run("b3")
    rep4, t4 = corollary_run("b4")
    labels = [name for _, name in rep3.violations + rep4.violations]
    suite = [x for x in labels if x not in COXETER_LABELS | {"tree"}]
    report(
        2,
        "per-seed theorems hold on both exhaustive runs",
        not suite and t3 + t4 < 60.0,
        f"{rep3.seeds_visited}+{rep4.seeds_visited} seeds, "
        f"{len(suite)} violations, {t3 + t4:.2f}s",
    )


def test_criterion_3_tree_property_and_seed_counts():
    rep3, _ = corollary_run("b3")
    rep4, _ = corollary_run("b4")
    collisions = [v for v in rep3.violations + rep4.violations if v[1] == "tree"]
    ok = (
        not collisions
        and rep3.seeds_visited == tree_count(3, 8) == 766
        and rep4.seeds_visited == tree_count(4, 5) == 485
    )
    report(
        3,
        "distinct addresses carry distinct seeds, counts close-form",
        ok,
        f"{rep3.seeds_visited} and {rep4.seeds_visited} seeds, "
        f"{len(collisions)} digest collisions",
    )


def test_criterion_4_natural_order_coxeter_product():
    rep3, _ = corollary_run("b3")
    rep4, _ = corollary_run("b4")
    bad = [v for v in rep3.violations + rep4.violations if v[1] in COXETER_LABELS]
    report(
        4,
        "first-positive rotation multiplies to s_1..s_n, no fallback",
        not bad,
        f"{rep3.seeds_visited + rep4.seeds_visited} seeds, {len(bad)} product failures",
    )


def rank3_reflections_up_to_length_7():
    # every reduced prefix over 1..3 of length <= 3, every core not equal
    # to the prefix tail: 3 + 6 + 12 + 24 = 45 reflections
    level = [()]
    out = []
    for _ in range(4):
        for p in level:
            for core in (1, 2, 3):
                if not p or p[-1] != core:
                    out.append(canonical_reflection(p + (core,) + tuple(reversed(p))))
        level = [p + (s,) for p in level for s in (1, 2, 3) if not p or p[-1] != s]
    return out


@lru_cache(maxsize=None)
def desk_scale_run():
    # the search runs on every reflection here: it is the oracle checked
    start = time.monotonic()
    rows = []
    for r in rank3_reflections_up_to_length_7():
        a = reflection_to_arc(r)
        rows.append((r, a, probe_embedding(a), below_coxeter(r, 3), schur_by_search(r, B3, 14)))
    return tuple(rows), time.monotonic() - start


def test_criterion_5_embeddability_agrees_with_search():
    rows, elapsed = desk_scale_run()
    gram = all_weights_two_gram(3)
    disagreements = [
        r for r, a, rep, below, search in rows if not rep.embeddable == below == search.found
    ]
    broken_trips = [
        r
        for r, a, rep, below, search in rows
        if arc_to_reflection(a) != r or root_to_reflection(reflection_to_root(r, gram), gram) != r
    ]
    positives = sum(search.found for *_, search in rows)
    ok = (
        len(rows) == 45
        and positives == 35
        and not disagreements
        and not broken_trips
        and elapsed < 300.0
    )
    report(
        5,
        "embedding, absolute order and search agree on all rank-3 reflections to length 7",
        ok,
        f"{len(rows)} reflections, {positives} positive, {len(disagreements)} disagreements, "
        f"{len(broken_trips)} roundtrip failures, {elapsed:.2f}s",
    )


# every SearchOutcome of the depth-14 searches above, counters included, so a
# rewrite of the walk or its pruning cannot change the work it reports
SEARCH_OUTCOMES = {
    (1,): SearchOutcome(True, (), 1, 0, False),
    (2,): SearchOutcome(True, (), 1, 0, False),
    (3,): SearchOutcome(True, (), 1, 0, False),
    (1, 2, 1): SearchOutcome(True, (1,), 2, 0, False),
    (1, 3, 1): SearchOutcome(True, (1,), 2, 0, False),
    (2, 1, 2): SearchOutcome(True, (2, 1, 2, 1), 19, 2, False),
    (2, 3, 2): SearchOutcome(True, (2,), 3, 0, False),
    (3, 1, 3): SearchOutcome(True, (3, 1, 3, 1), 29, 6, False),
    (3, 2, 3): SearchOutcome(True, (3, 2, 3, 2), 34, 8, False),
    (1, 2, 1, 2, 1): SearchOutcome(True, (1, 2), 5, 0, False),
    (1, 2, 3, 2, 1): SearchOutcome(True, (1, 2), 5, 0, False),
    (1, 3, 1, 3, 1): SearchOutcome(True, (1, 3), 6, 0, False),
    (1, 3, 2, 3, 1): SearchOutcome(True, (1, 3, 2, 3, 2), 56, 2, False),
    (2, 1, 2, 1, 2): SearchOutcome(True, (2, 1, 2, 1, 2), 51, 6, False),
    (2, 1, 3, 1, 2): SearchOutcome(False, None, 1402, 534, True),
    (2, 3, 1, 3, 2): SearchOutcome(False, None, 1402, 534, True),
    (2, 3, 2, 3, 2): SearchOutcome(True, (2, 3), 8, 0, False),
    (3, 1, 2, 1, 3): SearchOutcome(True, (3, 1, 2, 3, 2), 76, 8, False),
    (3, 1, 3, 1, 3): SearchOutcome(True, (3, 1, 3, 1, 3), 72, 16, False),
    (3, 2, 1, 2, 3): SearchOutcome(True, (3, 2, 1, 2, 3, 1), 149, 26, False),
    (3, 2, 3, 2, 3): SearchOutcome(True, (3, 2, 3, 2, 3), 82, 16, False),
    (1, 2, 1, 2, 1, 2, 1): SearchOutcome(True, (1, 2, 1), 11, 0, False),
    (1, 2, 1, 3, 1, 2, 1): SearchOutcome(True, (3, 1, 3, 2), 42, 1, False),
    (1, 2, 3, 1, 3, 2, 1): SearchOutcome(True, (1, 2, 3), 12, 0, False),
    (1, 2, 3, 2, 3, 2, 1): SearchOutcome(True, (1, 2, 3), 12, 0, False),
    (1, 3, 1, 2, 1, 3, 1): SearchOutcome(False, None, 2694, 896, True),
    (1, 3, 1, 3, 1, 3, 1): SearchOutcome(True, (1, 3, 1), 13, 1, False),
    (1, 3, 2, 1, 2, 3, 1): SearchOutcome(False, None, 3170, 1026, True),
    (1, 3, 2, 3, 2, 3, 1): SearchOutcome(True, (1, 3, 2, 3, 2, 3), 114, 12, False),
    (2, 1, 2, 1, 2, 1, 2): SearchOutcome(True, (2, 1, 2, 1, 2, 1), 103, 16, False),
    (2, 1, 2, 3, 2, 1, 2): SearchOutcome(True, (2, 1, 3, 2, 3), 68, 2, False),
    (2, 1, 3, 1, 3, 1, 2): SearchOutcome(False, None, 2274, 794, True),
    (2, 1, 3, 2, 3, 1, 2): SearchOutcome(False, None, 3170, 1026, True),
    (2, 3, 1, 2, 1, 3, 2): SearchOutcome(False, None, 3170, 1026, True),
    (2, 3, 1, 3, 1, 3, 2): SearchOutcome(False, None, 2274, 794, True),
    (2, 3, 2, 1, 2, 3, 2): SearchOutcome(True, (2, 3, 1, 3, 1), 71, 4, False),
    (2, 3, 2, 3, 2, 3, 2): SearchOutcome(True, (2, 3, 2), 18, 1, False),
    (3, 1, 2, 1, 2, 1, 3): SearchOutcome(True, (3, 1, 2, 1, 3, 1), 141, 22, False),
    (3, 1, 2, 3, 2, 1, 3): SearchOutcome(False, None, 3170, 1026, True),
    (3, 1, 3, 1, 3, 1, 3): SearchOutcome(True, (3, 1, 3, 1, 3, 1), 137, 32, False),
    (3, 1, 3, 2, 3, 1, 3): SearchOutcome(False, None, 2694, 896, True),
    (3, 2, 1, 2, 1, 2, 3): SearchOutcome(True, (3, 2, 1, 2, 1, 3, 2), 266, 58, False),
    (3, 2, 1, 3, 1, 2, 3): SearchOutcome(True, (3, 2, 1, 3, 1, 2, 3), 320, 60, False),
    (3, 2, 3, 1, 3, 2, 3): SearchOutcome(True, (3, 2, 3, 1, 2, 1), 171, 22, False),
    (3, 2, 3, 2, 3, 2, 3): SearchOutcome(True, (3, 2, 3, 2, 3, 2), 158, 35, False),
}


def test_criterion_5_search_outcomes_are_pinned():
    rows, _ = desk_scale_run()
    got = {r.word: search for r, *_, search in rows}
    assert got == SEARCH_OUTCOMES


def test_criterion_5_cli_skips_the_search_only_on_proved_negatives(capsys, tmp_path):
    quiver = tmp_path / "b3.json"
    quiver.write_text(json.dumps({"b": [list(row) for row in B3.rows]}))
    skipped = {"found": False, "path": None, "seeds_visited": 0, "pruned": 0, "truncated": False}
    rows, _ = desk_scale_run()
    mismatches = []
    for r, a, rep, below, search in rows:
        word = ",".join(map(str, r.word))
        code = main(["schur", "--word", word, "--quiver", str(quiver), "--depth", "14"])
        want = {
            "embeddable": rep.embeddable,
            "embedding": {"branches": rep.branches, "search_space": rep.search_space},
            "below_coxeter": below,
            "search": asdict(search) if search.found else skipped,
        }
        if code != 0 or json.loads(capsys.readouterr().out) != json.loads(json.dumps(want)):
            mismatches.append(r)
    negatives = sum(not search.found for *_, search in rows)
    report(
        5,
        "schur searches every positive and no proved negative",
        negatives == 10 and not mismatches,
        f"{len(rows)} schur runs, {negatives} searches skipped, {len(mismatches)} mismatches",
    )


def test_criterion_6_worked_examples_bit_exact():
    long = Arc((3, 1, 2, 3), 4)
    start = (
        canonical_reflection((1, 3, 1)),
        canonical_reflection((1,)),
        canonical_reflection((3, 2, 3)),
    )
    forward = braid_swap(start, 1, 3, "forward")
    gens = (generator(1), generator(2), generator(3))
    inverse = braid_swap(gens, 1, 3, "inverse")
    identities = [
        arc_to_reflection(Arc((2,), 3)).word == (2, 3, 2),
        reflection_to_arc(canonical_reflection((2, 3, 2))) == Arc((2,), 3),
        arc_to_reflection(long).word == (3, 1, 2, 3, 4, 3, 2, 1, 3),
        reflection_to_arc(canonical_reflection((3, 1, 2, 3, 4, 3, 2, 1, 3))) == long,
        tuple(r.word for r in forward) == ((1, 3, 2, 3, 1), (1,), (3, 2, 3, 2, 3)),
        tuple(r.word for r in inverse) == ((1, 2, 3, 2, 1), (2,), (2, 1, 2)),
        tuple_product(start) == (1, 2, 3),
        tuple_product(forward) == (1, 2, 3),
        tuple_product(gens) == (1, 2, 3),
        tuple_product(inverse) == (1, 2, 3),
    ]
    report(
        6,
        "displayed conversions and braid swaps reproduce",
        all(identities),
        f"{sum(identities)}/{len(identities)} identities hold",
    )


def random_reflection(rng, n, plen):
    prefix = []
    for _ in range(plen):
        step = rng.randint(1, n - 1)
        prefix.append(step if not prefix or step < prefix[-1] else step + 1)
    core = rng.randint(1, n - 1)
    if prefix and core >= prefix[-1]:
        core += 1
    elif not prefix:
        core = rng.randint(1, n)
    return canonical_reflection(tuple(prefix) + (core,) + tuple(reversed(prefix)))


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
    theta = mul(delta_i.word, delta_j.word)
    power = ()
    while True:
        power = mul(power, theta)
        beta = canonical_reflection(mul(power, delta_i.word, power[::-1]))
        if len(beta) > bound:
            return beta


def test_criterion_7_twin_properties():
    rng = random.Random(83155)
    start = time.monotonic()
    pairs = disjunction_failures = involution_failures = 0
    attempts = 0
    while pairs < 1000:
        attempts += 1
        assert attempts < 200_000, "sampler starved"
        n = rng.randint(2, 5)
        gamma = random_reflection(rng, n, rng.randint(0, 4))
        beta = random_reflection(rng, n, rng.randint(0, 6))
        if beta.core == gamma.core:
            continue
        tw = twin(gamma, beta)
        if not (len(gamma) < len(beta.word) and len(gamma) < len(tw.word)):
            continue
        pairs += 1
        if comparable(gamma, beta) and comparable(gamma, tw):
            disjunction_failures += 1
        if twin(gamma, tw) != beta:
            involution_failures += 1

    walks = walk_failures = 0
    while walks < 1000:
        n = rng.randint(3, 5)
        try:
            kept, delta_i, delta_j = walk_setup(rng, n)
        except AssertionError:
            continue
        if not kept:
            continue
        walks += 1
        bound = 3 * (len(kept) + 1) * max(len(r) for r in kept)
        beta0 = inflated_twist(delta_i, delta_j, bound)
        try:
            out = twin_replace_walk(kept, beta0)
        except TwinDisjunctionError:
            walk_failures += 1
            continue
        if comparable(out, kept[-1]):
            walk_failures += 1
    elapsed = time.monotonic() - start
    ok = disjunction_failures == involution_failures == walk_failures == 0
    report(
        7,
        "twin disjunction, involution, and replacement walk",
        ok,
        f"1000 pairs: {disjunction_failures} disjunction / "
        f"{involution_failures} involution failures; "
        f"1000 walks: {walk_failures} failures; {elapsed:.2f}s",
    )


def test_criterion_8_embeddability_witness_audit():
    rows, _ = desk_scale_run()
    positives = negatives = 0
    failures = []
    for r, a, rep, below, search in rows:
        if rep.embeddable:
            positives += 1
            if rep.witness is None or not witness_is_valid(a, rep.witness):
                failures.append(("witness", a))
        else:
            negatives += 1
            hits = sum(1 for w in candidate_witnesses(a) if witness_is_valid(a, w))
            if hits:
                failures.append(("exhaustion", a))
            print(
                f"acceptance 8: negative {a.crossings}:{a.endpoint} exhausted, "
                f"{rep.branches} placements tried, {rep.search_space} leaf candidates"
            )
    report(
        8,
        "positives recheck, negatives exhaust",
        not failures and positives + negatives == 45,
        f"{positives} witnesses rechecked, {negatives} negatives exhausted, "
        f"{len(failures)} failures",
    )
