"""Exchange-tree enumeration, per-seed verification, and Schur search.

The exchange graph of a 2-complete acyclic matrix is an n-regular tree,
so never undoing the last mutation enumerates every seed exactly once.
Seeds come out breadth first with children in ascending direction order,
which makes runs reproducible and lets the Schur search return shortest
mutation paths.

Verification is a registry of named per-seed checks, each an exact
integer statement; a failure is reported as a (path, name) violation
rather than raised, so one corrupt region cannot hide later ones.
"""

from __future__ import annotations

import hashlib
import json
import logging
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .arcs import Arc, arc_to_reflection, reflection_to_arc, tuple_verdict
from .embedding import is_embeddable
from .errors import DepthExhausted, NotEmbeddable, SignIncoherent
from .quiver import ExchangeMatrix, decreasing_directions
from .roots import (
    Root,
    YSeed,
    initial_seed,
    inner,
    mutate_seed,
    natural_coxeter_product,
    natural_fan,
    positive_form,
    reflection_to_root,
    root_sign,
    sign_run_count,
    speyer_thomas_check,
)
from .words import Reflection, in_one_star, separating_nodes

log = logging.getLogger(__name__)


def iter_seeds(root: YSeed, depth: int) -> Iterator[YSeed]:
    """Breadth-first seeds of the exchange tree out to mutation distance depth."""
    if depth < 0:
        raise ValueError(f"depth {depth} must be >= 0")
    queue = deque([root])
    while queue:
        seed = queue.popleft()
        yield seed
        if len(seed.path) < depth + len(root.path):
            last = seed.path[-1] if seed.path else 0
            for k in seed.matrix.vertices():
                if k != last:
                    queue.append(mutate_seed(seed, k))


def seed_digest(seed: YSeed) -> str:
    """Hash of the (B, C) pair, independent of the mutation path."""
    payload = json.dumps(
        {"b": [list(r) for r in seed.matrix.rows], "c": [list(c) for c in seed.cvectors]},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class ExploreContext:
    initial: ExchangeMatrix


def _two_complete(seed: YSeed, ctx: ExploreContext) -> list[str]:
    return [] if seed.matrix.is_two_complete() else ["two_complete"]


def _weight_monotone(seed: YSeed, ctx: ExploreContext) -> list[str]:
    m = seed.matrix
    ok = all(
        abs(m.b(i, j)) >= abs(ctx.initial.b(i, j))
        for i in m.vertices()
        for j in m.vertices()
        if i < j
    )
    return [] if ok else ["weight_monotone"]


def _decreasing_unique(seed: YSeed, ctx: ExploreContext) -> list[str]:
    want = 0 if seed.matrix.is_acyclic() else 1
    ok = len(decreasing_directions(seed.matrix)) == want
    return [] if ok else ["decreasing_unique"]


def _seven(seed: YSeed, ctx: ExploreContext) -> list[str]:
    m = seed.matrix
    ok = all(
        abs(inner(seed.cvectors[i - 1], seed.cvectors[j - 1], seed.gram)) == abs(m.b(i, j))
        for i in m.vertices()
        for j in m.vertices()
        if i < j
    )
    return [] if ok else ["seven"]


def _sign_coherence(seed: YSeed, ctx: ExploreContext) -> list[str]:
    try:
        for c in seed.cvectors:
            root_sign(c)
    except SignIncoherent:
        return ["sign_coherence"]
    return []


def _st(seed: YSeed, ctx: ExploreContext) -> list[str]:
    ok = speyer_thomas_check(seed.cvectors, seed.reflections, seed.gram)
    return [] if ok else ["st"]


def _coxeter_product(seed: YSeed, ctx: ExploreContext) -> list[str]:
    report = natural_coxeter_product(seed)
    out = []
    if not report.ok:
        out.append("coxeter_product")
    if report.fallback_used:
        out.append("coxeter_product_fallback")
    return out


def _sign_runs(seed: YSeed, ctx: ExploreContext) -> list[str]:
    return [] if sign_run_count(seed) <= 2 else ["sign_runs"]


def _bad_pairs(seed: YSeed, ctx: ExploreContext) -> list[str]:
    arcs = tuple(reflection_to_arc(r) for r in natural_fan(seed))
    verdict = tuple_verdict(arcs, seed.gram)
    out = []
    if verdict.bad_pair_count > 1:
        out.append("bad_pairs")
    if not verdict.is_yseed:
        out.append("tuple_yseed")
    return out


def _sep_dichotomy(seed: YSeed, ctx: ExploreContext) -> list[str]:
    # acyclic seeds have no separating node; non-acyclic ones have exactly
    # one, at the position of the unique decreasing direction
    seps = separating_nodes(seed.reflections)
    if seed.matrix.is_acyclic():
        return [] if not seps else ["sep_dichotomy"]
    dec = decreasing_directions(seed.matrix)
    ok = len(dec) == 1 and seps == {dec[0] - 1}
    return [] if ok else ["sep_dichotomy"]


def _one_star(seed: YSeed, ctx: ExploreContext) -> list[str]:
    if not seed.matrix.is_acyclic():
        return []
    return [] if in_one_star(seed.reflections) else ["one_star"]


CHECKS: dict[str, Callable[[YSeed, ExploreContext], list[str]]] = {
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

    def to_json(self) -> dict:
        return {
            "seeds_visited": self.seeds_visited,
            "max_weight": self.max_weight,
            "violations": [[list(path), name] for path, name in self.violations],
            "depth": self.depth,
        }


def explore(
    initial: ExchangeMatrix,
    depth: int,
    checks: Sequence[str] = (),
    sink: Callable[[YSeed], None] | None = None,
) -> ExplorationReport:
    """Enumerate all seeds to the depth, verifying and streaming each.

    checks are names from ALL_CHECKS; "tree" confirms that no two tree
    addresses carry the same (B, C) pair, hashing canonical
    serializations instead of trusting the no-revisit argument.  Seeds
    are handed to sink one at a time and never accumulated.
    """
    unknown = sorted(set(checks) - set(ALL_CHECKS))
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    ctx = ExploreContext(initial)
    digests: set[str] = set()
    violations: list[tuple[tuple[int, ...], str]] = []
    visited = 0
    weight = 0
    for seed in iter_seeds(initial_seed(initial), depth):
        visited += 1
        weight = max(weight, seed.matrix.max_weight())
        if sink is not None:
            sink(seed)
        for name in checks:
            if name == "tree":
                digest = seed_digest(seed)
                if digest in digests:
                    violations.append((seed.path, "tree"))
                digests.add(digest)
            else:
                for label in CHECKS[name](seed, ctx):
                    violations.append((seed.path, label))
    if violations:
        log.warning("exploration found %d violations", len(violations))
    return ExplorationReport(visited, weight, tuple(violations), depth)


@dataclass(frozen=True)
class SearchOutcome:
    found: bool
    path: tuple[int, ...] | None

    def to_json(self) -> dict:
        return {"found": self.found, "path": None if self.path is None else list(self.path)}


def schur_by_search(
    target: Root | Reflection, initial: ExchangeMatrix, depth: int
) -> SearchOutcome:
    """Breadth-first hunt for a seed carrying the target as a c-vector.

    The target may be a root vector or a reflection; either way the
    positive form is searched for.  Found paths are shortest because the
    walk is breadth first.
    """
    if depth <= 0:
        raise ValueError(f"depth {depth} must be positive")
    root = initial_seed(initial)
    if isinstance(target, Reflection):
        u = reflection_to_root(target, root.gram)
    else:
        u = tuple(int(x) for x in target)
    u = positive_form(u)
    for seed in iter_seeds(root, depth):
        if u in seed.cvectors:
            return SearchOutcome(True, seed.path)
    return SearchOutcome(False, None)


def complete_arc(a: Arc, initial: ExchangeMatrix, depth: int, cap: int = 12) -> YSeed:
    """Complete an embeddable arc to a Y-seed containing its root.

    Existence is guaranteed for embeddable arcs, so a miss only means
    the depth was too small and is reported as DepthExhausted.
    """
    ok, _ = is_embeddable(a, cap)
    if not ok:
        raise NotEmbeddable(f"{a} has no embedded representative")
    root = initial_seed(initial)
    u = reflection_to_root(arc_to_reflection(a), root.gram)
    outcome = schur_by_search(u, initial, depth)
    if not outcome.found:
        raise DepthExhausted(f"no seed within depth {depth}; raise the depth")
    seed = root
    for k in outcome.path:
        seed = mutate_seed(seed, k)
    return seed
