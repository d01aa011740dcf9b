"""Exchange-tree enumeration, per-seed verification, and Schur search.

The exchange graph of a 2-complete acyclic matrix is an n-regular tree,
so never undoing the last mutation enumerates every seed exactly once.
Seeds come out breadth first with children in ascending direction order,
which makes runs reproducible and lets the Schur search return shortest
mutation paths.

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
from typing import Callable, Iterable, Iterator

from .arcs import Arc, arc_to_reflection, tuple_product, tuple_verdict
from .embedding import probe_embedding
from .errors import ArcrootsError, DepthExhausted, NotEmbeddable, require_int
from .quiver import ExchangeMatrix, decreasing_directions
from .roots import (
    Root,
    YSeed,
    initial_seed,
    mutate_seed,
    positive_form,
    reflection_to_root,
    root_sign,
    sign_run_count,
    speyer_thomas_check,
)
from .words import Reflection, in_one_star, require_rank, separating_nodes

log = logging.getLogger(__name__)


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

    The queue holds (parent, direction) pairs, and a child is built only
    when the walk reaches it, so a walk stopped early builds no seed it
    never yields.
    """
    require_depth(depth)
    limit = depth + len(root.path)
    queue: deque[tuple[YSeed, int]] = deque()
    seed = root
    while True:
        yield seed
        if len(seed.path) < limit and (expand is None or expand(seed)):
            last = seed.path[-1] if seed.path else 0
            queue.extend((seed, k) for k in seed.matrix.vertices() if k != last)
        if not queue:
            return
        seed = mutate_seed(*queue.popleft())


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
    # with the image M c_i, formed once per c_i (roots.inner is the oracle)
    cvecs, gram = seed.cvectors, seed.gram.rows
    for i, brow in enumerate(seed.matrix.rows[:-1]):
        image = [sum(map(operator.mul, row, cvecs[i])) for row in gram]
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
    cvecs = tuple(seed.cvectors[v - 1] for v in seed._natural[0])
    return speyer_thomas_check(cvecs, seed.natural_fan, seed.gram)


def _coxeter_product(seed: YSeed) -> bool:
    # the paper proves that the natural fan, rotated to the first positive
    # root, always multiplies to s_1 s_2 .. s_n, so no other rotation is tried
    return tuple_product(seed.natural_fan) == tuple(range(1, seed.n + 1))


def _sign_runs(seed: YSeed) -> bool:
    return sign_run_count(seed) <= 2


def _bad_pairs(seed: YSeed) -> bool:
    # at most one bad pair in the natural fan, and the ordering criterion
    # on the roots its sign rule gives: the paper's Y-seed characterization
    return tuple_verdict(seed.natural_fan, seed.gram).is_yseed


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
    Seeds are streamed to sink, never accumulated; a debug log line gives
    the seeds visited, the seeds per second and the violations per check.
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
                ok = False
            if not ok:
                violations.append((seed.path, name))
    elapsed = perf_counter() - start
    per_check = Counter(label for _, label in violations)
    log.debug(
        "explore to depth %d: %d seeds in %.3f s (%.0f seeds/s); violations per check: %s",
        depth, visited, elapsed, visited / elapsed if elapsed > 0 else float("inf"),
        dict(per_check) if per_check else "none",
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


def _height(v: Root) -> int:
    """Sum of the absolute values of the entries."""
    return sum(abs(x) for x in v)


def schur_by_search(target: Reflection, initial: ExchangeMatrix, depth: int) -> SearchOutcome:
    """Breadth-first hunt for a seed carrying the target's root u as a
    c-vector.

    A letter of the target above the rank raises ValueError before any
    seed is walked.  Found paths are shortest because the walk is breadth
    first.  Depth 0 looks at the initial seed alone.

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
    compare this search with the unpruned walk of iter_seeds.
    """
    return _search(target, initial, depth)[0]


def _search(
    target: Reflection, initial: ExchangeMatrix, depth: int
) -> tuple[SearchOutcome, YSeed | None]:
    """schur_by_search's walk, returning its outcome and the seed it found
    (None on a miss)."""
    root = initial_seed(initial)
    u = positive_form(reflection_to_root(target, root.gram))
    minus_u = tuple(-x for x in u)
    h = _height(u)

    def live(seed: YSeed) -> bool:
        return any(c == minus_u or _height(c) < h for c in seed.cvectors)

    pruned = 0

    def expand(seed: YSeed) -> bool:
        nonlocal pruned
        if live(seed):
            return True
        pruned += 1
        return False

    visited = 0
    truncated = False
    found = None
    for seed in iter_seeds(root, depth, expand):
        visited += 1
        if u in seed.cvectors:
            found = seed
            break
        if len(seed.path) == depth and not truncated:
            truncated = live(seed)
    path = None if found is None else found.path
    outcome = SearchOutcome(found is not None, path, visited, pruned, found is None and truncated)
    if outcome.found:
        verdict = f"found at path {outcome.path}"
    elif truncated:
        verdict = "not found; live seeds remain at the depth limit"
    else:
        verdict = "not found; tree exhausted"
    log.debug(
        "schur search for %s to depth %d: %s; %d seeds visited, %d pruned",
        u, depth, verdict, visited, pruned,
    )
    return outcome, found


def complete_arc(a: Arc, initial: ExchangeMatrix, depth: int) -> YSeed:
    """Complete an embeddable arc to a Y-seed containing its root.

    Existence is guaranteed for embeddable arcs, so a miss only means
    the depth was too small and is reported as DepthExhausted.  A negative
    depth, or a ray above the rank, raises ValueError before the embedding
    is looked for.
    """
    require_depth(depth)
    r = arc_to_reflection(a)
    require_rank(r, initial.n)
    if not probe_embedding(a).embeddable:
        raise NotEmbeddable(f"{a} has no embedded representative")
    _, seed = _search(r, initial, depth)
    if seed is None:
        raise DepthExhausted(f"no seed within depth {depth}; raise the depth")
    return seed
