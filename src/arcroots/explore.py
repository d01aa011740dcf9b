"""Exchange-tree enumeration, per-seed verification, and Schur search.

The exchange graph of a 2-complete acyclic matrix is an n-regular tree,
so never undoing the last mutation enumerates every seed exactly once.
Seeds come out breadth first with children in ascending direction order,
which makes runs reproducible and lets the Schur search return shortest
mutation paths.

The Schur search reads nothing of a seed but its c-vectors, so it walks
those alone, by the c-vector step that mutate_seed takes too
(roots._mutate_cvectors).  iter_seeds, which explore walks, builds every
seed whole with mutate_seed in the same breadth-first walk; unpruned, it
is the pruned search's oracle, and mutate_seed_matrix is the step's.

Verification is a registry of named per-seed checks, each a predicate:
an exact integer statement read from the seed alone.  A check that
returns false, or raises an ArcrootsError on a seed it cannot read, is
reported as a (path, name) violation rather than raised, so one corrupt
region cannot hide later ones.
"""

from __future__ import annotations

import logging
import operator
from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain
from time import perf_counter
from typing import Callable, Iterable, Iterator, TypeVar

from .arcs import Arc, _sign_rule, arc_to_reflection, tuple_product
from .embedding import probe_embedding
from .errors import ArcrootsError, DepthExhausted, NotEmbeddable, require_int
from .quiver import ExchangeMatrix, Vertex, decreasing_directions
from .roots import (
    Root,
    YSeed,
    _mutate_cvectors,
    initial_seed,
    mutate_seed,
    mutate_seed_matrix,
    positive_form,
    reflection_to_root,
    root_sign,
    sign_run_count,
    speyer_thomas_check,
)
from .words import Reflection, in_one_star, require_rank, separating_nodes

log = logging.getLogger(__name__)

_T = TypeVar("_T")


def require_depth(depth: int) -> None:
    """Raise ValueError unless depth is an integer at least 0."""
    if require_int(depth, "depth") < 0:
        raise ValueError(f"depth {depth} must be >= 0")


def iter_seeds(
    root: YSeed, depth: int, expand: Callable[[YSeed], bool] | None = None
) -> Iterator[YSeed]:
    """Breadth-first seeds of the exchange tree out to mutation distance depth.

    When expand is given it is asked, after a seed is yielded, about each
    seed short of the depth limit, and that seed's children are queued
    only when it returns true.  Order among the seeds still walked is the
    unpruned breadth-first order.

    A child is built only when the walk reaches it, so a walk stopped
    early builds no seed it never yields.
    """
    yield from _breadth_first(
        root, depth, root.matrix.vertices(), operator.attrgetter("path"), mutate_seed, expand
    )


def _breadth_first(
    node: _T,
    depth: int,
    vertices: range,
    path_of: Callable[[_T], tuple[Vertex, ...]],
    child: Callable[[_T, Vertex], _T],
    expand: Callable[[_T], bool] | None,
) -> Iterator[_T]:
    """iter_seeds's walk over nodes of any kind, shared with _walk: path_of
    reads a node's path, and the queue holds (parent, direction) pairs that
    child(parent, k) turns into nodes as they are popped."""
    require_depth(depth)
    limit = depth + len(path_of(node))
    queue: deque[tuple[_T, Vertex]] = deque()
    while True:
        yield node
        path = path_of(node)
        if len(path) < limit and (expand is None or expand(node)):
            last = path[-1] if path else 0
            queue.extend((node, k) for k in vertices if k != last)
        if not queue:
            return
        node = child(*queue.popleft())


def _two_complete(seed: YSeed) -> bool:
    return seed.matrix.is_two_complete()


def _weight_monotone(seed: YSeed) -> bool:
    # the pairing, the initial matrix's Cartan companion, holds -|b0_ij|
    m, gram = seed.matrix, seed.gram.rows
    return all(
        abs(m.b(i, j)) >= -gram[i - 1][j - 1]
        for i in m.vertices()
        for j in m.vertices()
        if i < j
    )


def _decreasing_unique(seed: YSeed) -> bool:
    want = 0 if seed.matrix.is_acyclic() else 1
    return len(decreasing_directions(seed.matrix)) == want


def _seven(seed: YSeed) -> bool:
    # |<c_i, c_j>| = |b_ij| for i < j, each pairing the dot product of c_j
    # with the image M c_i, which the walk's pairing forms once per distinct
    # c_i (roots.inner is the oracle)
    cvecs, image_of = seed.cvectors, seed.gram._image
    for i, brow in enumerate(seed.matrix.rows[:-1]):
        image = image_of(cvecs[i])
        for j in range(i + 1, len(cvecs)):
            if abs(sum(map(operator.mul, cvecs[j], image))) != abs(brow[j]):
                return False
    return True


def _sign_coherence(seed: YSeed) -> bool:
    # root_sign returns 1 or -1, and raises SignIncoherent on a vector
    # with no sign
    return all(root_sign(c) for c in seed.cvectors)


def _st(seed: YSeed) -> bool:
    # the verdict does not depend on the input order; the natural order
    # puts the positives first in the one order the check accepts, so a
    # passing seed needs no Euler-order sort
    return seed._fan_ordering


def _coxeter_product(seed: YSeed) -> bool:
    # the paper proves that the natural fan, rotated to the first positive
    # root, always multiplies to s_1 s_2 .. s_n, so no other rotation is tried
    return tuple_product(seed.natural_fan) == tuple(range(1, seed.n + 1))


def _sign_runs(seed: YSeed) -> bool:
    return sign_run_count(seed) <= 2


def _bad_pairs(seed: YSeed) -> bool:
    # at most one bad pair in the natural fan, and the ordering criterion
    # on the roots its sign rule gives: the paper's Y-seed characterization.
    # Each root is its c-vector, sign-coherent, with the rule's sign, so
    # where the rule gives the seed's own signs the st verdict applies
    bad, signs = _sign_rule(seed.natural_fan)
    if bad > 1:
        return False
    order, natural_signs = seed._natural
    if signs == natural_signs:
        return seed._fan_ordering
    roots = tuple(tuple(s * abs(x) for x in seed.cvectors[v - 1]) for v, s in zip(order, signs))
    return speyer_thomas_check(roots, seed.natural_fan, seed.gram)


def _sep_dichotomy(seed: YSeed) -> bool:
    # acyclic seeds have no separating node; non-acyclic ones have exactly
    # one, at the position of the unique decreasing direction
    seps = separating_nodes(seed.reflections)
    if seed.matrix.is_acyclic():
        return not seps
    dec = decreasing_directions(seed.matrix)
    return len(dec) == 1 and seps == {dec[0] - 1}


def _one_star(seed: YSeed) -> bool:
    return not seed.matrix.is_acyclic() or in_one_star(seed.reflections)


CHECKS: dict[str, Callable[[YSeed], bool]] = {
    "two_complete": _two_complete,
    "weight_monotone": _weight_monotone,
    "decreasing_unique": _decreasing_unique,
    "seven": _seven,
    "sign_coherence": _sign_coherence,
    "st": _st,
    "coxeter_product": _coxeter_product,
    "sign_runs": _sign_runs,
    "bad_pairs": _bad_pairs,
    "sep_dichotomy": _sep_dichotomy,
    "one_star": _one_star,
}

ALL_CHECKS = (*CHECKS, "tree")


@dataclass(frozen=True)
class ExplorationReport:
    seeds_visited: int
    max_weight: int
    violations: tuple[tuple[tuple[int, ...], str], ...]
    depth: int


def explore(
    initial: ExchangeMatrix,
    depth: int,
    checks: Iterable[str] = (),
    sink: Callable[[YSeed], None] | None = None,
) -> ExplorationReport:
    """Enumerate all seeds to the depth, verifying and streaming each.

    checks are distinct names from ALL_CHECKS, read once from any iterable
    but a bare string.  "tree" confirms that no two tree addresses carry the
    same seed instead of trusting the no-revisit argument: it keeps each
    seed's c-vector entries as one exact key.  The c-vectors alone are
    enough, because by tropical duality (Nakanishi-Zelevinsky) they fix the
    matrix, B_t = C_t^T B_0 C_t; equal pairs (B, C) still give equal keys,
    and equal c-vectors under two matrices would be reported too.  A check
    that returns false, or raises an ArcrootsError (logged at debug level),
    adds (path, name) to the violations; any other exception propagates.
    Seeds are streamed to sink, never accumulated; only the pairing they
    share keeps, until the walk ends, the image M c of each distinct
    c-vector a check or a mutation read, and what each pivot c-vector gave
    its mutations.  A debug log line gives the seeds visited, the seeds
    per second and, per check, the violations that answered false apart
    from those that raised.
    """
    if isinstance(checks, str):
        raise ValueError(f"checks must be a collection of names, not the string {checks!r}")
    checks = tuple(checks)
    for name in checks:
        if not isinstance(name, str):
            raise ValueError(f"check name {name!r} is not a string")
    unknown = sorted(set(checks) - set(ALL_CHECKS))
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    repeated = sorted({name for name in checks if checks.count(name) > 1})
    if repeated:
        raise ValueError(f"repeated checks: {', '.join(repeated)}")
    keys: set[tuple[int, ...]] = set()

    def tree(seed: YSeed) -> bool:
        key = tuple(chain(*seed.cvectors))
        if key in keys:
            return False
        keys.add(key)
        return True

    run = [(name, tree if name == "tree" else CHECKS[name]) for name in checks]
    violations: list[tuple[tuple[int, ...], str]] = []
    raised: Counter[str] = Counter()
    visited = 0
    weight = 0
    start = perf_counter()
    for seed in iter_seeds(initial_seed(initial), depth):
        visited += 1
        weight = max(weight, seed.matrix.max_weight())
        if sink is not None:
            sink(seed)
        for name, check in run:
            try:
                ok = check(seed)
            except ArcrootsError as exc:
                log.debug("check %s raised on the seed at %s: %s", name, seed.path, exc)
                raised[name] += 1
                ok = False
            if not ok:
                violations.append((seed.path, name))
    elapsed = perf_counter() - start
    answered_false = Counter(label for _, label in violations) - raised
    log.debug(
        "explore to depth %d: %d seeds in %.3f s (%.0f seeds/s); violations per check: %s",
        depth, visited, elapsed, visited / elapsed if elapsed > 0 else float("inf"),
        f"answered false {dict(answered_false)}, raised {dict(raised)}" if violations else "none",
    )
    if violations:
        log.warning("exploration found %d violations", len(violations))
    return ExplorationReport(visited, weight, tuple(violations), depth)


@dataclass(frozen=True)
class SearchOutcome:
    """A Schur search's verdict and its work.

    seeds_visited counts the seeds looked at, pruned the seeds short of
    the depth limit whose children were not walked, and truncated says
    that the target was not found while live seeds remained at the depth
    limit, so a deeper search might still find it.  A search that never
    ran is (False, None, 0, 0, False).
    """

    found: bool
    path: tuple[int, ...] | None
    seeds_visited: int
    pruned: int
    truncated: bool


# a seed of the c-vector walk: its c-vectors and its path
Node = tuple[tuple[Root, ...], tuple[Vertex, ...]]

def _walk(
    root: YSeed, depth: int, expand: Callable[[Node], bool] | None = None
) -> Iterator[Node]:
    """iter_seeds from an initial seed, walked by mutate_seed's c-vector
    step alone: the same seeds in the same order, each as a (c-vectors,
    path) Node, and expand is asked about the same seeds.  No exchange
    matrix is built past the root's.  Many steps of one walk pivot on the
    same c-vector, or on its negative; the root's pairing keeps what each
    distinct pivot reads under both signs, so a walk from a fresh
    initial_seed starts from an empty memo.
    """
    gram = root.gram

    def child(node: Node, k: Vertex) -> Node:
        return _mutate_cvectors(node[0], k, gram), node[1] + (k,)

    return _breadth_first(
        (root.cvectors, ()), depth, root.matrix.vertices(), operator.itemgetter(1), child, expand
    )


def schur_by_search(target: Reflection, initial: ExchangeMatrix, depth: int) -> SearchOutcome:
    """Breadth-first hunt for a seed carrying the target's root u as a
    c-vector.

    A letter of the target above the rank raises ValueError before any
    seed is walked.  Found paths are shortest because the walk is breadth
    first.  Depth 0 looks at the initial seed alone.  The walk is _walk,
    iter_seeds's order read from c-vectors alone, so it builds no exchange
    matrix and no YSeed.

    Subtrees that cannot carry u are not walked.  Along every tree edge
    away from the root, the mutated position c_k becomes -c_k and keeps
    its height, and every reflected position c_j grows in height
    strictly.  So a position already higher than u never becomes u, and
    one exactly as high can only flip sign on the way down.  A seed is
    expanded only while some c-vector is -u or lower than u.

    Half of that invariant follows from checks this package runs on every
    explored seed.  If c_j has the same sign as c_k, the st check gives
    <c_j, c_k> <= 0, and the seven and two_complete checks give
    |<c_j, c_k>| = |b_jk| >= 2, so the new vector is c_j + |b_jk| c_k, a
    sum of two vectors of one sign, and its height grows.  For a c_j of
    the opposite sign no proof is given here: the strict growth is
    measured, not derived (on B3 to depth 10 these are 1,545 of the 3,083
    moves).  Tests check the invariant on B3, B4 and random trees, and
    compare this search, and its walk, with the unpruned walk of
    iter_seeds.
    """
    root = initial_seed(initial)
    u = positive_form(reflection_to_root(target, root.gram))
    minus_u = tuple(-x for x in u)
    h = sum(map(abs, u))  # the height of u

    def live(cvecs: tuple[Root, ...]) -> bool:
        # asked once per seed walked: a plain loop, with no generator and
        # no call per vector, is a measurable share of a search
        for c in cvecs:
            if c == minus_u or sum(map(abs, c)) < h:
                return True
        return False

    pruned = 0

    def expand(node: Node) -> bool:
        nonlocal pruned
        if live(node[0]):
            return True
        pruned += 1
        return False

    visited = 0
    truncated = False
    path = None
    for cvecs, at in _walk(root, depth, expand):
        visited += 1
        if u in cvecs:
            path = at
            break
        if len(at) == depth and not truncated:
            truncated = live(cvecs)
    found = path is not None
    outcome = SearchOutcome(found, path, visited, pruned, not found and truncated)
    if found:
        verdict = f"found at path {path}"
    elif truncated:
        verdict = "not found; live seeds remain at the depth limit"
    else:
        verdict = "not found; tree exhausted"
    log.debug(
        "schur search for %s to depth %d: %s; %d seeds visited, %d pruned",
        u, depth, verdict, visited, pruned,
    )
    return outcome


def complete_arc(a: Arc, initial: ExchangeMatrix, depth: int) -> YSeed:
    """Complete an embeddable arc to a Y-seed containing its root.

    Existence is guaranteed for embeddable arcs, so a miss only means
    the depth was too small and is reported as DepthExhausted.  A negative
    depth, or a ray above the rank, raises ValueError before the embedding
    is looked for.  The seed is rebuilt by replaying the search's path
    with mutate_seed_matrix, and a replayed seed that lacks the root raises
    RuntimeError: that would be a fault in the search, not in the input.
    """
    require_depth(depth)
    r = arc_to_reflection(a)
    require_rank(r, initial.n)
    if not probe_embedding(a).embeddable:
        raise NotEmbeddable(f"{a} has no embedded representative")
    out = schur_by_search(r, initial, depth)
    if not out.found:
        raise DepthExhausted(f"no seed within depth {depth}; raise the depth")
    # the replay by the stacked exchange rule, which reads the side of each
    # step from the matrix column, is independent of the walk's c-vector step
    seed = initial_seed(initial)
    for k in out.path:
        seed = mutate_seed_matrix(seed, k)
    if positive_form(reflection_to_root(r, seed.gram)) not in seed.cvectors:
        raise RuntimeError(
            f"the seed at {out.path} does not carry the root of {r}: "
            "the c-vector walk disagrees with mutate_seed_matrix"
        )
    return seed
