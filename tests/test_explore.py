import contextlib
import hashlib
import importlib
import inspect
import itertools
import json
import logging
import random
import re
from collections import Counter, deque
from dataclasses import asdict, fields, replace
from functools import cached_property

import pytest

from arcroots import arcs, roots
from arcroots.arcs import (
    Arc,
    TupleVerdict,
    arc_to_reflection,
    reflection_to_arc,
    tuple_product,
    tuple_verdict,
)
from arcroots.cli import main, seed_json
from arcroots.dot import exchange_tree_dot
from arcroots.errors import (
    ArcrootsError,
    CapExceeded,
    DepthExhausted,
    NotARealRoot,
    NotEmbeddable,
    SignIncoherent,
)
from arcroots.explore import (
    ALL_CHECKS,
    CHECKS,
    ExplorationReport,
    SearchOutcome,
    complete_arc,
    explore,
    iter_seeds,
    schur_by_search,
)
from arcroots.quiver import ExchangeMatrix, random_acyclic_two_complete
from arcroots.roots import (
    YSeed,
    initial_seed,
    inner,
    mutate_seed,
    reflection_to_root,
    root_to_reflection,
    speyer_thomas_check,
)
from arcroots.words import canonical_reflection, separating_nodes

B3 = ExchangeMatrix(((0, 2, 2), (-2, 0, 2), (-2, -2, 0)))
B4 = ExchangeMatrix(
    tuple(tuple(0 if i == j else (2 if j > i else -2) for j in range(4)) for i in range(4))
)
GRAM3 = initial_seed(B3).gram
# the module, which the package's explore function shadows as an attribute
explore_module = importlib.import_module("arcroots.explore")


def printed(result):
    """A result dataclass as the command line prints it."""
    return json.loads(json.dumps(asdict(result)))


def tree_count(n, depth):
    # rooted n-regular tree: root has n children, everyone else n - 1
    return 1 + n * ((n - 1) ** depth - 1) // (n - 2)


def test_iter_seeds_counts():
    root = initial_seed(B3)
    assert sum(1 for _ in iter_seeds(root, 0)) == 1
    assert sum(1 for _ in iter_seeds(root, 2)) == 10
    assert sum(1 for _ in iter_seeds(root, 5)) == tree_count(3, 5)
    assert sum(1 for _ in iter_seeds(initial_seed(B4), 3)) == tree_count(4, 3)


def test_iter_seeds_breadth_first_ascending_never_undoing():
    paths = [s.path for s in iter_seeds(initial_seed(B3), 2)]
    assert paths == [
        (),
        (1,), (2,), (3,),
        (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2),
    ]


def test_iter_seeds_rejects_negative_depth():
    with pytest.raises(ValueError):
        list(iter_seeds(initial_seed(B3), -1))


DEPTH_TAKERS = {
    "iter_seeds": lambda depth: next(iter_seeds(initial_seed(B3), depth)),
    "explore": lambda depth: explore(B3, depth),
    "schur_by_search": lambda depth: schur_by_search(
        canonical_reflection((2, 1, 3, 1, 2)), B3, depth
    ),
    "complete_arc": lambda depth: complete_arc(Arc((2, 1), 3), B3, depth),
}


@pytest.mark.parametrize("depth", [2.5, True, "2"], ids=repr)
@pytest.mark.parametrize("name", DEPTH_TAKERS)
def test_depth_must_be_an_integer(name, depth):
    # 2.5 passes a bare `depth < 0` test, walks depth 3 and reads as a
    # search that exhausted the tree
    with pytest.raises(ValueError, match=r"^depth = .* is not an integer$"):
        DEPTH_TAKERS[name](depth)


def test_explore_runs_every_check_clean():
    report = explore(B3, 4, checks=ALL_CHECKS)
    assert report.seeds_visited == tree_count(3, 4)
    assert report.violations == ()
    assert report.depth == 4
    assert report.max_weight >= 2


def test_explore_mutates_each_matrix_once_per_tree_edge(monkeypatch):
    # classifying a seed's directions must not build trial matrices
    calls = 0
    mutate = ExchangeMatrix.mutate

    def counting(self, k):
        nonlocal calls
        calls += 1
        return mutate(self, k)

    monkeypatch.setattr(ExchangeMatrix, "mutate", counting)
    report = explore(B3, 8, checks=ALL_CHECKS)
    assert report.violations == ()
    assert report.seeds_visited - 1 == 765
    assert calls == 765


def test_explore_tests_each_matrix_for_cycles_once(monkeypatch):
    # every check and view of a seed reads the one cached answer
    calls = 0
    acyclic = ExchangeMatrix._acyclic.func

    def counting(self):
        nonlocal calls
        calls += 1
        return acyclic(self)

    prop = cached_property(counting)
    prop.__set_name__(ExchangeMatrix, "_acyclic")
    monkeypatch.setattr(ExchangeMatrix, "_acyclic", prop)
    report = explore(ExchangeMatrix(B3.rows), 8, checks=ALL_CHECKS)
    assert report.violations == ()
    assert calls == report.seeds_visited == 766


def test_explore_reads_each_natural_order_once(monkeypatch):
    # coxeter_product, sign_runs and bad_pairs share one natural fan per seed
    calls = 0
    order = roots.natural_order

    def counting(matrix):
        nonlocal calls
        calls += 1
        return order(matrix)

    monkeypatch.setattr(roots, "natural_order", counting)
    seeds = []
    report = explore(B3, 8, checks=ALL_CHECKS, sink=seeds.append)
    assert report.violations == ()
    assert calls == report.seeds_visited == 766
    assert all(seed.natural_fan is seed.natural_fan for seed in seeds)
    assert calls == 766


def _fan_work(monkeypatch, checks):
    """explore(B3, 8, checks) with its fan work counted: the paths at which
    the ordering criterion ran, the calls to reflection_to_root and the
    products formed, each patched wherever the package imported it."""
    at = []
    path = None
    calls = Counter()
    judge, multiply, ascend = roots.speyer_thomas_check, roots.mul, roots.reflection_to_root

    def counting_judge(roots_, reflections, gram):
        at.append(path)
        return judge(roots_, reflections, gram)

    def counting(name, fn):
        def run(*args):
            calls[name] += 1
            return fn(*args)

        return run

    for module in (roots, arcs, explore_module):
        monkeypatch.setattr(module, "speyer_thomas_check", counting_judge)
        monkeypatch.setattr(module, "reflection_to_root", counting("ascend", ascend))
    for module in (roots, arcs):
        monkeypatch.setattr(module, "mul", counting("mul", multiply))

    def following(check):
        def run(seed):
            nonlocal path
            path = seed.path
            return check(seed)

        return run

    for name, check in list(CHECKS.items()):
        monkeypatch.setitem(CHECKS, name, following(check))
    seeds = []
    report = explore(B3, 8, checks=checks, sink=seeds.append)
    assert report.violations == () and report.seeds_visited == 766
    runs = Counter(at)
    assert set(runs) == {seed.path for seed in seeds}
    return runs, calls


def test_explore_judges_each_natural_fan_once(monkeypatch):
    # st and bad_pairs share one ordering verdict per seed.  bad_pairs runs
    # the criterion again only where its sign rule, all roots positive when
    # no pair is bad, differs from the seed's c-vectors: at the three seeds
    # whose fan is the initial simple reflections
    runs, calls = _fan_work(monkeypatch, ALL_CHECKS)
    assert sum(runs.values()) == 769
    assert {p: c for p, c in runs.items() if c != 1} == {(3,): 2, (3, 2): 2, (3, 2, 1): 2}
    # bad_pairs reads its roots from the c-vectors, never from the fan's
    # reflections; each criterion run forms its first-try product and
    # coxeter_product forms the fan's
    assert calls["ascend"] == 0
    assert calls["mul"] == 769 + 766


def test_bad_pairs_alone_judges_each_natural_fan_once(monkeypatch):
    # on its own, bad_pairs runs the criterion once per seed: the seed's
    # verdict where the sign rule gives its signs, a fresh run elsewhere
    runs, calls = _fan_work(monkeypatch, ("bad_pairs",))
    assert sum(runs.values()) == 766 and set(runs.values()) == {1}
    assert calls["ascend"] == 0


def test_bad_pairs_fails_two_bad_pairs_whatever_the_ordering(monkeypatch):
    # no short rank-3 tuple with two bad pairs passes the ordering
    # criterion, so the count is pinned apart: the initial seed, whose
    # criterion passes, read as if its fan had two bad pairs
    assert CHECKS["bad_pairs"](initial_seed(B3)) is True
    monkeypatch.setattr(explore_module, "_sign_rule", lambda refls: (2, (1, 1, 1)))
    seed = initial_seed(B3)
    assert CHECKS["bad_pairs"](seed) is False and seed._fan_ordering is True


def test_explore_descends_only_the_root_seed(monkeypatch):
    # every other seed carries its reflections from its parent
    calls = 0
    descend = roots.root_to_reflection

    def counting(u, gram):
        nonlocal calls
        calls += 1
        return descend(u, gram)

    monkeypatch.setattr(roots, "root_to_reflection", counting)
    report = explore(B3, 8, checks=ALL_CHECKS)
    assert report.violations == () and report.seeds_visited == 766
    assert calls == 3


def test_walks_that_never_read_reflections_derive_none(monkeypatch):
    # the carry is lazy: the Schur search, arc completion and a bare walk
    # neither descend nor conjugate
    def forbidden(*args):
        raise AssertionError("reflections derived")

    target = root_to_reflection((2, 6, 1), GRAM3)
    monkeypatch.setattr(roots, "root_to_reflection", forbidden)
    monkeypatch.setattr(roots, "conjugate", forbidden)
    assert schur_by_search(canonical_reflection((3, 2, 1, 2, 3)), B3, 8).path == (3, 2, 1, 2, 3, 1)
    assert schur_by_search(target, B3, 8).truncated
    assert complete_arc(Arc((1, 3), 2), B3, 8).path == (1, 3, 2, 3, 2)
    assert sum(1 for _ in iter_seeds(initial_seed(B4), 5)) == tree_count(4, 5)


def test_explore_unknown_check():
    with pytest.raises(ValueError):
        explore(B3, 1, checks=("two_complete", "nonsense"))


def test_explore_reads_checks_from_an_iterator(monkeypatch):
    # the unknown-name test must not use up a generator before the walk
    monkeypatch.setitem(CHECKS, "st", lambda seed: not seed.path)
    from_tuple = explore(B3, 1, checks=("st",))
    assert len(from_tuple.violations) == 3
    assert explore(B3, 1, checks=(name for name in ["st"])) == from_tuple
    assert explore(B3, 1, checks=iter(["st"])) == from_tuple


@pytest.mark.parametrize("name", [5, ["st"]], ids=repr)
def test_explore_rejects_a_check_name_that_is_not_a_string(name):
    # unchecked, 5 reaches str.join and a list the set of names: a TypeError each
    with pytest.raises(ValueError, match=rf"^check name {re.escape(repr(name))} is not a string$"):
        explore(B3, 1, checks=["two_complete", name])


def test_explore_rejects_a_bare_string():
    # a string is an iterable of one-letter names
    with pytest.raises(ValueError, match="^checks must be a collection of names, not the string 'tree'$"):
        explore(B3, 1, checks="tree")


@pytest.mark.parametrize("checks", [("tree", "tree"), ("st", "seven", "st", "seven", "st")])
def test_explore_rejects_a_repeated_check(checks):
    # a second "tree" pass would find the key the first just added
    with pytest.raises(ValueError, match=f"repeated checks: {', '.join(sorted(set(checks)))}$"):
        explore(B3, 2, checks=checks)


@pytest.mark.parametrize("checks", [(), ALL_CHECKS], ids=["plain", "all-checks"])
def test_explore_needs_a_vertex(checks):
    # a rank-0 tree would report one seed and no violations
    with pytest.raises(ValueError, match="^a quiver needs at least one vertex$"):
        explore(ExchangeMatrix.from_rows([]), 2, checks=checks)


def test_schur_by_search_needs_a_vertex():
    with pytest.raises(ValueError, match="^a quiver needs at least one vertex$"):
        schur_by_search(canonical_reflection((1,)), ExchangeMatrix.from_rows([]), 2)


def test_schur_by_search_rejects_a_letter_above_the_rank(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a seed was walked")

    monkeypatch.setattr(explore_module, "_walk", forbidden)
    monkeypatch.setattr(explore_module, "_mutate_cvectors", forbidden)
    with pytest.raises(ValueError, match="^letter or ray 4 exceeds the rank 3$"):
        schur_by_search(canonical_reflection((1, 4, 1)), B3, 2)


def test_explore_streams_seeds_losslessly():
    seen = []
    report = explore(B3, 2, sink=seen.append)
    assert len(seen) == report.seeds_visited
    for seed in seen:
        assert json.loads(json.dumps(seed_json(seed))) == {
            "b": [list(row) for row in seed.matrix.rows],
            "c": [list(c) for c in seed.cvectors],
            "path": list(seed.path),
        }


def _walk_violations(seeds, monkeypatch, checks=("tree",)):
    """explore's violations on a walk that yields exactly seeds."""
    monkeypatch.setattr(explore_module, "iter_seeds", lambda root, depth, expand=None: iter(seeds))
    return explore(B3, 0, checks=checks).violations


def test_tree_key_separates_seeds_by_one_cvector_entry(monkeypatch):
    # the key is the c-vectors alone: one changed entry makes a new key,
    # while another path or another B over the same c-vectors does not
    rng = random.Random(29)
    for seed in iter_seeds(initial_seed(B3), 3):
        a, r = rng.randrange(3), rng.randrange(3)
        c = [list(v) for v in seed.cvectors]
        c[a][r] += rng.choice((-1, 1))
        changed = replace(seed, cvectors=tuple(map(tuple, c)), path=(9,))
        assert _walk_violations([seed, changed], monkeypatch) == ()
        moved = replace(seed, path=(2, 1))
        assert _walk_violations([seed, moved], monkeypatch) == (((2, 1), "tree"),)
    s0 = initial_seed(B3)
    assert _walk_violations([s0, mutate_seed(s0, 1)], monkeypatch) == ()
    assert _walk_violations([s0, initial_seed(W3)], monkeypatch) == (((), "tree"),)


def test_sep_dichotomy_check_on_known_seeds():
    check = CHECKS["sep_dichotomy"]
    assert check(initial_seed(B3)) is True
    assert check(mutate_seed(initial_seed(B3), 2)) is True


def test_one_star_check_on_acyclic_seed():
    assert CHECKS["one_star"](initial_seed(B3)) is True


W3 = ExchangeMatrix(((0, 3, 3), (-3, 0, 3), (-3, -3, 0)))
GRAM3 = initial_seed(B3).gram
E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
# the roots of s1, s1s2s1 and s1s2s3s2s1: each edge of the Cayley tree
# follows the last, so the fan has two bad pairs and s1s2s1 separates
R1, R121, R12321 = (
    reflection_to_root(canonical_reflection(w), GRAM3) for w in ((1,), (1, 2, 1), (1, 2, 3, 2, 1))
)
# a first c-vector that mixes signs, and the cyclic Markov quiver; most
# checks cannot read either seed and raise an ArcrootsError
INCOHERENT = YSeed(B3, ((1, -1, 0), E2, E3), GRAM3, ())
MARKOV = YSeed(ExchangeMatrix(((0, 2, -2), (-2, 0, 2), (2, -2, 0))), (E1, E2, E3), GRAM3, ())


# a case names its check (the first word) and holds a hand-built seed the
# check fails on and a matrix whose initial seed passes it; every c-vector
# is a real root, except the one sign_coherence must catch
VIOLATIONS = {
    "two_complete": (YSeed(ExchangeMatrix(((0, 1, 2), (-1, 0, 2), (-2, -2, 0))),
                           (E1, E2, E3), GRAM3, ()), B3),
    # B3's weights under W3's pairing: every weight fell below the initial one
    "weight_monotone": (YSeed(B3, (E1, E2, E3), initial_seed(W3).gram, ()), W3),
    # the Markov quiver: not acyclic, and no direction decreases a weight
    "decreasing_unique": (MARKOV, B3),
    "seven": (YSeed(W3, (E1, E2, E3), GRAM3, ()), B3),
    "sign_coherence": (INCOHERENT, B3),
    "st": (YSeed(B3, (R1, R121, E3), GRAM3, ()), B3),
    "coxeter_product": (YSeed(B3, (E2, E1, E3), GRAM3, ()), B3),
    "sign_runs": (YSeed(B4, ((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1)),
                        initial_seed(B4).gram, ()), B4),
    "bad_pairs": (YSeed(B3, (R1, R121, R12321), GRAM3, ()), B3),
    # one bad pair, but the ordering criterion fails
    "bad_pairs ordering": (YSeed(B3, (R1, R121, E3), GRAM3, ()), B3),
    "sep_dichotomy": (YSeed(B3, (R1, R121, R12321), GRAM3, ()), B3),
    "one_star": (YSeed(B3, (R1, R121, R12321), GRAM3, ()), B3),
}


def test_every_check_reads_the_seed_alone():
    assert {name: len(inspect.signature(fn).parameters) for name, fn in CHECKS.items()} == {
        name: 1 for name in CHECKS
    }


def test_every_check_has_a_violating_seed():
    assert {case.split()[0] for case in VIOLATIONS} == set(CHECKS)


@pytest.mark.parametrize("case", VIOLATIONS)
def test_check_reports_its_violation(case, monkeypatch):
    # a check that always passed would pass every clean exploration
    name = case.split()[0]
    seed, initial = VIOLATIONS[case]
    assert CHECKS[name](initial_seed(initial)) is True
    assert _walk_violations([seed], monkeypatch, (name,)) == (((), name),)


def test_every_check_answers_a_bool():
    # a check that cannot read a seed may raise an ArcrootsError instead
    seeds = [*iter_seeds(initial_seed(B3), 3), *(seed for seed, _ in VIOLATIONS.values())]
    for name, check in CHECKS.items():
        for seed in seeds:
            with contextlib.suppress(ArcrootsError):
                assert type(check(seed)) is bool, (name, seed.path)


def _corrupt_walk(root, depth, expand=None):
    """B3's seeds to depth 2 with the incoherent seed at (7,) and the Markov
    seed at (8,) between them."""
    clean = list(iter_seeds(initial_seed(B3), 2))
    yield from clean[:2]
    yield replace(INCOHERENT, path=(7,))
    yield from clean[2:5]
    yield replace(MARKOV, path=(8,))
    yield from clean[5:]


# the failing predicates on the corrupt walk, in ALL_CHECKS order per seed;
# the Markov seed's c-vectors repeat the initial seed's, so tree fails too
CORRUPT_WALK_VIOLATIONS = (
    *(((7,), name) for name in ("seven", "sign_coherence", "st", "coxeter_product",
                                "sign_runs", "bad_pairs", "sep_dichotomy", "one_star")),
    *(((8,), name) for name in ("decreasing_unique", "st", "coxeter_product", "sign_runs",
                                "bad_pairs", "sep_dichotomy", "tree")),
)


def test_explore_reports_every_failure_on_a_corrupt_walk(monkeypatch, caplog):
    # a check that raises an ArcrootsError is reported under its own name,
    # and the walk goes on to the seeds after it
    monkeypatch.setattr(explore_module, "iter_seeds", _corrupt_walk)
    with caplog.at_level(logging.DEBUG, logger="arcroots.explore"):
        report = explore(B3, 2, checks=ALL_CHECKS)
    assert report.seeds_visited == 12
    assert report.violations == CORRUPT_WALK_VIOLATIONS
    assert "check sign_coherence raised on the seed at (7,): (1, -1, 0) mixes signs" in caplog.text
    # the debug line splits each check's violations into answered false
    # and raised: on the (1, -1, 0) seed seven checks raised and one
    # answered false, and sep_dichotomy raised there but answered false
    # on the Markov seed
    messages = [r.getMessage() for r in caplog.records]
    raised_at_7 = [m for m in messages if re.match(r"check \w+ raised on the seed at \(7,\)", m)]
    assert len(raised_at_7) == 7
    assert sum(path == (7,) for path, _ in report.violations) == 8
    assert messages[-2].endswith(
        "violations per check: answered false {'seven': 1, 'sep_dichotomy': 1, "
        "'decreasing_unique': 1, 'tree': 1}, raised {'sign_coherence': 1, 'st': 2, "
        "'coxeter_product': 2, 'sign_runs': 2, 'bad_pairs': 2, 'sep_dichotomy': 1, "
        "'one_star': 1}"
    )


def test_cli_explore_strict_exits_1_on_a_corrupt_walk(monkeypatch, capsys, tmp_path):
    quiver = tmp_path / "b3.json"
    quiver.write_text(json.dumps({"b": [list(row) for row in B3.rows]}))
    monkeypatch.setattr(explore_module, "iter_seeds", _corrupt_walk)
    argv = ["explore", "--quiver", str(quiver), "--depth", "2", "--verify", "all", "--strict"]
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == [[list(p), name] for p, name in CORRUPT_WALK_VIOLATIONS]


def test_explore_propagates_a_value_error_from_a_check(monkeypatch):
    def broken(seed):
        raise ValueError("not a violation")

    monkeypatch.setitem(CHECKS, "st", broken)
    with pytest.raises(ValueError, match="^not a violation$"):
        explore(B3, 1, checks=("two_complete", "st"))


def test_explore_reports_a_failing_check(monkeypatch, caplog):
    monkeypatch.setitem(CHECKS, "st", lambda seed: seed.path != (2, 3))
    report = explore(B3, 3, checks=("two_complete", "st"))
    assert printed(report)["violations"] == [[[2, 3], "st"]]
    assert "exploration found 1 violations" in caplog.text


def test_explore_logs_its_rate_and_violations_per_check(monkeypatch, caplog):
    monkeypatch.setitem(CHECKS, "st", lambda seed: len(seed.path) != 3)
    with caplog.at_level(logging.DEBUG, logger="arcroots.explore"):
        explore(B3, 3, checks=("two_complete", "st"))
    (line,) = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    assert line.startswith("explore to depth 3: 22 seeds in ")
    assert line.endswith("seeds/s); violations per check: answered false {'st': 12}, raised {}")
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="arcroots.explore"):
        explore(B3, 1)
    assert caplog.records[-1].getMessage().endswith("violations per check: none")


def test_tree_check_reports_repeated_seeds(monkeypatch):
    # a walk that meets every seed twice, the second time as an equal copy
    walk = explore_module.iter_seeds

    def twice(root, depth, expand=None):
        for seed in walk(root, depth, expand):
            yield seed
            yield replace(seed)

    monkeypatch.setattr(explore_module, "iter_seeds", twice)
    paths = [s.path for s in walk(initial_seed(B3), 2)]
    report = explore(B3, 2, checks=("tree",))
    assert report.seeds_visited == 2 * len(paths)
    assert report.violations == tuple((p, "tree") for p in paths)


def test_tree_check_reports_equal_cvectors_under_another_matrix(monkeypatch):
    # a walk that meets every seed twice, the second time with its own
    # c-vectors over another skew-symmetric B (its own mutated at 1, which
    # negates row 1's nonzero entries); tropical duality says a true
    # exchange tree never does this, and the check must report every copy
    walk = explore_module.iter_seeds

    def twice(root, depth, expand=None):
        for seed in walk(root, depth, expand):
            yield seed
            other = replace(seed, matrix=seed.matrix.mutate(1))
            assert other.matrix != seed.matrix
            yield other

    monkeypatch.setattr(explore_module, "iter_seeds", twice)
    paths = [s.path for s in walk(initial_seed(B3), 2)]
    report = explore(B3, 2, checks=("tree",))
    assert report.seeds_visited == 2 * len(paths)
    assert report.violations == tuple((p, "tree") for p in paths)


def _seven_by_inner(seed):
    """The seven check pair by pair with roots.inner."""
    m = seed.matrix
    return all(
        abs(inner(seed.cvectors[i - 1], seed.cvectors[j - 1], seed.gram)) == abs(m.b(i, j))
        for i in m.vertices()
        for j in m.vertices()
        if i < j
    )


def _corrupted(seed, rng):
    """Copies of seed with one |b_ij| changed, for each i < j, and with one
    c-vector entry negated, for each entry."""
    n = seed.n
    for i in range(n):
        for j in range(i + 1, n):
            rows = [list(row) for row in seed.matrix.rows]
            weight = abs(rows[i][j])
            new = weight + rng.choice((-1, 1, 2) if weight else (1, 2))
            sign = -1 if rows[i][j] < 0 else 1
            rows[i][j], rows[j][i] = sign * new, -sign * new
            yield replace(seed, matrix=ExchangeMatrix.from_rows(rows))
    for a in range(n):
        for r in range(n):
            c = [list(v) for v in seed.cvectors]
            c[a][r] = -c[a][r]
            yield replace(seed, cvectors=tuple(map(tuple, c)))


def test_seven_matches_the_pairing_by_inner():
    # the seven check reads each pair against the image M c_i; the
    # pair-by-pair pairing must flag exactly the same seeds
    rng = random.Random(7411)
    tally = {"flagged": 0, "clean": 0}
    for _ in range(40):
        n = rng.randint(2, 7)
        seed = initial_seed(random_acyclic_two_complete(n, rng))
        last = 0
        for _ in range(rng.randint(0, 6)):
            last = rng.choice([k for k in seed.matrix.vertices() if k != last])
            seed = mutate_seed(seed, last)
        assert CHECKS["seven"](seed) is _seven_by_inner(seed) is True
        for bad in _corrupted(seed, rng):
            want = _seven_by_inner(bad)
            assert CHECKS["seven"](bad) is want, (bad.matrix, bad.cvectors)
            tally["clean" if want else "flagged"] += 1
    assert tally["flagged"] > 500 and tally["clean"] > 500


def test_schur_by_search_finds_unit_vectors_at_the_root():
    for k in (1, 2, 3):
        u = tuple(1 if i == k - 1 else 0 for i in range(3))
        target = root_to_reflection(u, GRAM3)
        assert schur_by_search(target, B3, 3) == SearchOutcome(True, (), 1, 0, False)


def test_schur_by_search_first_mutation():
    out = schur_by_search(root_to_reflection((2, 1, 0), GRAM3), B3, 5)
    assert out == SearchOutcome(True, (1,), 2, 0, False)
    assert printed(out) == {
        "found": True, "path": [1], "seeds_visited": 2, "pruned": 0, "truncated": False,
    }


def test_schur_by_search_depth_validation():
    # depth 0 searches the initial seed alone, like iter_seeds
    e1, u = (root_to_reflection(v, GRAM3) for v in ((1, 0, 0), (2, 1, 0)))
    assert schur_by_search(e1, B3, 0) == SearchOutcome(True, (), 1, 0, False)
    # the initial seed sits at the depth limit and is still live
    assert schur_by_search(u, B3, 0) == SearchOutcome(False, None, 1, 0, True)
    with pytest.raises(ValueError, match="depth -1"):
        schur_by_search(e1, B3, -1)


def test_schur_by_search_misses_non_schur_root():
    # root of the non-embeddable fixture arc ((2,1),3)
    out = schur_by_search(root_to_reflection((2, 6, 1), GRAM3), B3, 6)
    assert out == SearchOutcome(False, None, 162, 8, True)


def _reflection_digest(initial, depth):
    # every seed's reflections, separating nodes and ascended roots, in
    # walk order: pins descent, separation and ascent bit for bit
    h = hashlib.sha256()
    for s in iter_seeds(initial_seed(initial), depth):
        h.update(json.dumps([
            [[list(r.prefix), r.core] for r in s.reflections],
            sorted(separating_nodes(s.reflections)),
            [list(reflection_to_root(r, s.gram)) for r in s.reflections],
        ]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("initial,depth,digest", [
    (B3, 8, "ab7725587a862e513c2e5a575855f0aa27f697440624b844c93cf477998490bc"),
    (B4, 5, "b40c184aa53f8daae1a63f7caacd7c4c3ccae06becd65bb7ff702924e4e1efa6"),
])
def test_reflection_digests_are_pinned(initial, depth, digest):
    assert _reflection_digest(initial, depth) == digest


def test_complete_arc_trivial_and_depth_one():
    assert complete_arc(Arc((), 3), B3, 4).path == ()
    assert complete_arc(Arc((1,), 2), B3, 4).path == (1,)


def test_complete_arc_rejects_non_embeddable():
    with pytest.raises(NotEmbeddable):
        complete_arc(Arc((2, 1), 3), B3, 4)
    # the depth is checked before the arc, whatever the arc
    with pytest.raises(ValueError, match="depth -1"):
        complete_arc(Arc((2, 1), 3), B3, -1)


def test_complete_arc_depth_exhaustion():
    deep = mutate_seed(mutate_seed(initial_seed(B3), 1), 2)
    target = max(deep.cvectors, key=lambda c: sum(abs(x) for x in c))
    arc = reflection_to_arc(root_to_reflection(target, deep.gram))
    with pytest.raises(DepthExhausted):
        complete_arc(arc, B3, 1)
    seed = complete_arc(arc, B3, 2)
    assert tuple(abs(x) for x in target) in tuple(
        tuple(abs(y) for y in c) for c in seed.cvectors
    )


def test_report_json_shape(capsys, tmp_path):
    # every printed result has exactly its dataclass's fields, in order,
    # and every printed seed exactly the keys b, c and path
    quiver, seeds = tmp_path / "b3.json", tmp_path / "seeds.jsonl"
    quiver.write_text(json.dumps({"b": [list(row) for row in B3.rows]}))
    q = ("--quiver", str(quiver))

    def run(*argv):
        assert main(list(argv)) == 0
        return json.loads(capsys.readouterr().out)

    def keys(result_type):
        return [f.name for f in fields(result_type)]

    report = run("explore", *q, "--depth", "1", "--verify", "two_complete", "--out", str(seeds))
    assert list(report) == keys(ExplorationReport)
    assert report == {"seeds_visited": 4, "max_weight": 6, "violations": [], "depth": 1}
    streamed = [json.loads(line) for line in seeds.read_text().splitlines()]
    assert len(streamed) == 4 and all(list(seed) == ["b", "c", "path"] for seed in streamed)
    assert list(run("check-tuple", "--words", "1,2,1", "1,3,1", "1")) == keys(TupleVerdict)
    assert list(run("refl2arc", "--word", "2,3,2")) == keys(Arc)
    assert list(run("schur", "--word", "1,2,1", *q)["search"]) == keys(SearchOutcome)
    completed = run("complete-arc", "--crossings", "2", "--endpoint", "1", *q)
    assert list(completed["seed"]) == ["b", "c", "path"]


def _height(v):
    return sum(abs(x) for x in v)


def _height_trees():
    rng = random.Random(20260)
    yield initial_seed(B3), 11
    yield initial_seed(B4), 7
    for n, depth in ((3, 10), (4, 6), (5, 5), (6, 4)):
        yield initial_seed(random_acyclic_two_complete(n, rng)), depth


def test_heights_never_shrink_along_tree_edges():
    # the invariant that lets schur_by_search prune: the mutated position
    # keeps its height, every other position that changes grows strictly
    compared = 0
    for root, depth in _height_trees():
        for seed in iter_seeds(root, depth):
            if not seed.path:
                continue
            k = seed.path[-1]
            parent = mutate_seed(seed, k)  # mutation at k is an involution
            for j, (before, after) in enumerate(zip(parent.cvectors, seed.cvectors), 1):
                if j == k:
                    assert _height(after) == _height(before), seed.path
                elif after != before:
                    assert _height(after) > _height(before), (seed.path, j)
                    compared += 1
    assert compared > 20_000


def rank3_reflections_up_to_length_7():
    # the 45 reflections of acceptance criterion 5: every reduced prefix
    # over 1..3 of length <= 3, every core not equal to the prefix tail
    out = []
    level = [()]
    for _ in range(4):
        for p in level:
            out += [
                canonical_reflection(p + (core,) + tuple(reversed(p)))
                for core in (1, 2, 3)
                if not p or p[-1] != core
            ]
        level = [p + (s,) for p in level for s in (1, 2, 3) if not p or p[-1] != s]
    return out


def _unpruned(u, initial, depth):
    root = initial_seed(initial)
    return next((s.path for s in iter_seeds(root, depth) if u in s.cvectors), None)


def _assert_matches_unpruned(target, initial, depth):
    want = _unpruned(reflection_to_root(target, initial_seed(initial).gram), initial, depth)
    out = schur_by_search(target, initial, depth)
    assert (out.found, out.path) == (want is not None, want)
    assert 1 <= out.seeds_visited and not (out.found and out.truncated)
    return want is not None


def test_schur_by_search_matches_unpruned_walk_on_rank3_reflections():
    found = 0
    for r in rank3_reflections_up_to_length_7():
        found += _assert_matches_unpruned(r, B3, 10)
    assert found == 35


def test_schur_by_search_matches_unpruned_walk_on_random_matrices():
    rng = random.Random(4051)
    found = 0
    for n, deep, depth in ((4, 5, 5), (5, 4, 4), (4, 5, 4), (5, 4, 3)):
        initial = random_acyclic_two_complete(n, rng)
        seed = initial_seed(initial)
        last = 0
        for _ in range(deep):
            last = rng.choice([k for k in initial.vertices() if k != last])
            seed = mutate_seed(seed, last)
        for r in seed.reflections:
            found += _assert_matches_unpruned(r, initial, depth)
    assert 0 < found < 18  # both answers occur among the 18 targets


def test_schur_by_search_matches_unpruned_walk_on_non_cvectors():
    # real roots that no seed carries: a reflection target has no
    # imaginary root such as (1, 1, 1), and no negative form
    for u in ((2, 6, 1), (1, 6, 2), (12, 1, 6), (3, 10, 2)):
        assert not _assert_matches_unpruned(root_to_reflection(u, GRAM3), B3, 7)


def test_schur_by_search_logs_its_work(caplog, monkeypatch):
    caplog.set_level(logging.DEBUG, logger="arcroots.explore")
    # no reflection target is known to exhaust a tree, so the imaginary
    # root (1, 1), whose walk on the rank-2 line dies out, stands in for one
    with monkeypatch.context() as patch:
        patch.setattr(explore_module, "reflection_to_root", lambda r, gram: (1, 1))
        b2 = ExchangeMatrix(((0, 2), (-2, 0)))
        out = schur_by_search(canonical_reflection((1,)), b2, 30)
    assert out == SearchOutcome(False, None, 7, 2, False)
    assert "not found; tree exhausted; 7 seeds visited, 2 pruned" in caplog.text
    caplog.clear()
    assert not schur_by_search(root_to_reflection((2, 6, 1), GRAM3), B3, 6).found
    assert "not found; live seeds remain at the depth limit" in caplog.text
    caplog.clear()
    assert schur_by_search(root_to_reflection((2, 1, 0), GRAM3), B3, 5).found
    assert "found at path (1,)" in caplog.text


def _counting_mutations(monkeypatch):
    calls = []
    mutate = explore_module.mutate_seed

    def counting(seed, k):
        calls.append(seed.path + (k,))
        return mutate(seed, k)

    monkeypatch.setattr(explore_module, "mutate_seed", counting)
    return calls


def _replayed(path):
    seed = initial_seed(B3)
    for k in path:
        seed = mutate_seed(seed, k)
    return seed


def test_schur_search_builds_only_the_seeds_it_visits(monkeypatch):
    # the search steps once per seed it visits past the root and builds no
    # YSeed; complete_arc replays the path it found, one mutate_seed per letter
    calls = _counting_mutations(monkeypatch)
    steps = 0
    step = explore_module._mutate_cvectors

    def counting_step(*args):
        nonlocal steps
        steps += 1
        return step(*args)

    monkeypatch.setattr(explore_module, "_mutate_cvectors", counting_step)
    found = 0
    for r in rank3_reflections_up_to_length_7():
        calls.clear()
        steps = 0
        out = schur_by_search(r, B3, 6)
        assert len(calls) == 0 and steps == out.seeds_visited - 1, r.word
        if out.found:
            found += 1
            steps = 0
            seed = complete_arc(reflection_to_arc(r), B3, 6)
            assert len(calls) == len(out.path), r.word
            assert steps == out.seeds_visited - 1, r.word
            assert seed == _replayed(out.path)
    assert found == 33  # the other two lie deeper than 6


def test_schur_search_reads_each_pivot_once_per_walk(monkeypatch):
    # the 35 positives of the depth-14 sweep: one step per seed past the
    # root, and one _pivot call per distinct pivot c-vector of each walk
    steps = pivots = 0
    step, pivot = explore_module._mutate_cvectors, explore_module._pivot

    def counting_step(*args):
        nonlocal steps
        steps += 1
        return step(*args)

    def counting_pivot(*args):
        nonlocal pivots
        pivots += 1
        return pivot(*args)

    monkeypatch.setattr(explore_module, "_mutate_cvectors", counting_step)
    monkeypatch.setattr(explore_module, "_pivot", counting_pivot)
    found = visited = total_steps = total_pivots = 0
    for r in rank3_reflections_up_to_length_7():
        steps = pivots = 0
        out = schur_by_search(r, B3, 14)
        assert steps == out.seeds_visited - 1, r.word
        if out.found:
            found += 1
            visited += out.seeds_visited
            total_steps += steps
            total_pivots += pivots
    assert (found, visited, total_steps, total_pivots) == (35, 2259, 2224, 1170)
    # a second search starts from an empty memo
    r = canonical_reflection((3, 2, 1, 2, 3))
    counts = []
    for _ in range(2):
        pivots = 0
        schur_by_search(r, B3, 14)
        counts.append(pivots)
    assert counts[0] == counts[1] > 0


def test_complete_arc_raises_when_the_replay_lacks_the_root(monkeypatch):
    # a walk that reports each seed under its parent's path: the replay,
    # one mutation short, must not be returned as the completion
    walk = explore_module._walk

    def wrong_paths(root, depth, expand=None):
        for cvecs, path in walk(root, depth, expand):
            yield cvecs, path[:-1]

    a = Arc((1, 3), 2)
    assert complete_arc(a, B3, 8).path == (1, 3, 2, 3, 2)
    monkeypatch.setattr(explore_module, "_walk", wrong_paths)
    assert schur_by_search(arc_to_reflection(a), B3, 8).path == (1, 3, 2, 3)
    with pytest.raises(RuntimeError, match=r"^the seed at \(1, 3, 2, 3\) does not carry the root"):
        complete_arc(a, B3, 8)


# the weighted rank-4 matrix with upper rows (2, 3, 2), (2, 4), (2)
W4 = ExchangeMatrix.from_rows([[0, 2, 3, 2], [-2, 0, 2, 4], [-3, -2, 0, 2], [-2, -4, -2, 0]])


def _walk_trees():
    rng = random.Random(2027)
    return [
        pytest.param(B3, 9, id="B3"),
        pytest.param(W4, 5, id="W4"),
        pytest.param(random_acyclic_two_complete(5, rng), 4, id="rank-5"),
        pytest.param(random_acyclic_two_complete(6, rng), 3, id="rank-6"),
    ]


def _fan_check_trees():
    rng = random.Random(2027)
    return [
        pytest.param(B3, 8, id="B3"),
        pytest.param(W4, 5, id="W4"),
        pytest.param(random_acyclic_two_complete(5, rng), 4, id="rank-5"),
        pytest.param(random_acyclic_two_complete(6, rng), 3, id="rank-6"),
    ]


FAN_CHECKS = ("st", "coxeter_product", "bad_pairs")


def _composed_fan_answers(seed):
    """st, coxeter_product and bad_pairs composed from the public functions
    on a copy of the seed with nothing cached."""
    fresh = YSeed(seed.matrix, seed.cvectors, seed.gram, seed.path)
    fan = fresh.natural_fan
    cvecs = tuple(fresh.cvectors[v - 1] for v in fresh._natural[0])
    return {
        "st": speyer_thomas_check(cvecs, fan, fresh.gram),
        "coxeter_product": tuple_product(fan) == tuple(range(1, fresh.n + 1)),
        "bad_pairs": tuple_verdict(fan, fresh.gram).is_yseed,
    }


@pytest.mark.parametrize("initial,depth", _fan_check_trees())
def test_fan_checks_match_their_compositions(initial, depth):
    # the three checks read the product and ordering verdict a seed keeps;
    # each answer must be the one the public functions give, whichever
    # check reads the seed first
    for seed in iter_seeds(initial_seed(initial), depth):
        want = _composed_fan_answers(seed)
        assert {name: CHECKS[name](seed) for name in FAN_CHECKS} == want, seed.path
        fresh = YSeed(seed.matrix, seed.cvectors, seed.gram, seed.path)
        assert {name: CHECKS[name](fresh) for name in reversed(FAN_CHECKS)} == want, seed.path


def test_fan_checks_match_their_compositions_on_every_signing():
    # B3's matrix with every triple of signed roots of reflections of
    # length at most 3: most are no seed, and bad_pairs's re-signed
    # c-vectors must still give tuple_verdict's answer from the reflections
    roots_ = [reflection_to_root(canonical_reflection(w), GRAM3) for w in
              ((1,), (2,), (3,), (1, 2, 1), (1, 3, 1), (2, 1, 2), (2, 3, 2), (3, 1, 3), (3, 2, 3))]
    signed = roots_ + [tuple(-x for x in u) for u in roots_]
    passing = 0
    for cvecs in itertools.product(signed, repeat=3):
        seed = YSeed(B3, cvecs, GRAM3, ())
        want = _composed_fan_answers(seed)
        assert {name: CHECKS[name](seed) for name in FAN_CHECKS} == want, cvecs
        passing += want["bad_pairs"]
    assert passing == 128


@pytest.mark.parametrize("case", [c for c in VIOLATIONS if c.split()[0] in FAN_CHECKS])
def test_fan_checks_match_their_compositions_where_they_fail(case):
    seed = VIOLATIONS[case][0]
    want = _composed_fan_answers(seed)
    assert want[case.split()[0]] is False
    assert {name: CHECKS[name](seed) for name in FAN_CHECKS} == want


@pytest.mark.parametrize("initial,depth", _walk_trees())
def test_cvector_walk_matches_iter_seeds(initial, depth):
    # the Schur search's walk yields iter_seeds's c-vectors and paths in
    # iter_seeds's order, and on every seed b_jk = c_j^T B_0 c_k, the
    # tropical duality that its sign test reads
    root = initial_seed(initial)
    b0 = initial.rows
    seeds = list(iter_seeds(root, depth))
    nodes = list(explore_module._walk(root, depth))
    assert len(nodes) == len(seeds) == tree_count(initial.n, depth)
    by_path = {path: cvecs for cvecs, path in nodes}
    for seed, (cvecs, path) in zip(seeds, nodes):
        assert (cvecs, path) == (seed.cvectors, seed.path)
        if path:
            # the heights the search prunes by: position k keeps its own,
            # every other position keeps its vector or grows
            k, parent = path[-1], by_path[path[:-1]]
            for j, (before, after) in enumerate(zip(parent, cvecs), 1):
                if j == k:
                    assert _height(after) == _height(before), path
                else:
                    assert after == before or _height(after) > _height(before), path
        images = [[sum(b * x for b, x in zip(row, c)) for row in b0] for c in cvecs]
        for j in initial.vertices():
            for k in initial.vertices():
                assert sum(x * y for x, y in zip(cvecs[j - 1], images[k - 1])) == seed.matrix.b(j, k)


def test_cvector_walk_asks_expand_about_the_seeds_iter_seeds_does():
    def events_of(walk, path_of):
        events = []

        def expand(seed):
            events.append(("expand", path_of(seed)))
            return sum(path_of(seed)) % 3 != 1

        events += [("seed", path_of(s)) for s in walk(initial_seed(B3), 7, expand)]
        return events

    want = events_of(iter_seeds, lambda seed: seed.path)
    assert events_of(explore_module._walk, lambda node: node[1]) == want
    assert any(e[0] == "expand" for e in want) and len(want) > 100


# (seed, k) on which mutate_seed raises: c_k mixes signs, and c_k is no
# real root while other c-vectors are to be reflected in it
BAD_STEPS = [
    (INCOHERENT, 1, SignIncoherent),
    (YSeed(B3, ((1, 1, 1), (0, 1, 0), (0, 0, 1)), GRAM3, ()), 1, NotARealRoot),
]


@pytest.mark.parametrize("seed,k,error", BAD_STEPS, ids=["incoherent", "imaginary"])
def test_cvector_step_raises_where_mutate_seed_does(seed, k, error):
    # a mixed c_k raises when its pivot is read; an imaginary one is read,
    # and the step raises once it reflects some c_j in it
    with pytest.raises(error):
        mutate_seed(seed, k)
    ck = seed.cvectors[k - 1]
    if error is SignIncoherent:
        with pytest.raises(SignIncoherent):
            explore_module._pivot(ck, B3.rows, GRAM3.rows)
        return
    pivot = explore_module._pivot(ck, B3.rows, GRAM3.rows)
    assert pivot == ((1, 1, 1), (4, 0, -4), (-2, -2, -2), -6)
    with pytest.raises(NotARealRoot):
        explore_module._mutate_cvectors(seed.cvectors, k, pivot)


def _eager_seeds(root, depth, expand):
    # reference walk: every child is built as soon as its parent is expanded
    queue = deque([root])
    while queue:
        seed = queue.popleft()
        yield seed
        if len(seed.path) < depth + len(root.path) and expand(seed):
            last = seed.path[-1] if seed.path else 0
            for k in seed.matrix.vertices():
                if k != last:
                    queue.append(mutate_seed(seed, k))


@pytest.mark.parametrize("root,depth", [
    (initial_seed(B3), 7),
    (mutate_seed(initial_seed(B3), 2), 6),
    (initial_seed(B4), 5),
], ids=["B3", "B3-below-2", "B4"])
def test_lazy_walk_matches_the_eager_walk(root, depth):
    def events_of(walk):
        events = []

        def expand(seed):
            events.append(("expand", seed.path))
            return sum(seed.path) % 3 != 1

        for seed in walk(root, depth, expand):
            events.append(("seed", seed.path, seed.matrix, seed.cvectors))
        return events

    lazy = events_of(iter_seeds)
    assert lazy == events_of(_eager_seeds)
    assert any(e[0] == "expand" for e in lazy) and len(lazy) > 100


def test_a_capped_dot_walk_builds_no_seed_past_the_cap(monkeypatch):
    calls = _counting_mutations(monkeypatch)
    with pytest.raises(CapExceeded):
        exchange_tree_dot(initial_seed(B3), 40, node_cap=10)
    assert len(calls) <= 10
