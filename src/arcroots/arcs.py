"""Arcs in the disc with n punctures, encoded combinatorially.

The disc has punctures p_1..p_n, a boundary basepoint b, and for each i a
ray from p_i leaving the disc; a non-self-intersecting curve from b to a
puncture is recorded by the sequence of rays it crosses plus its endpoint.
For curves in minimal position the sequence has no adjacent repeats and
does not end with the endpoint's own ray, and the map

    arc (crossings w, endpoint j)  ->  reflection w s_j w^(-1)

is a bijection onto the reflections of the universal Coxeter group.

Two consecutive arcs of a clockwise fan at b form a bad pair when their
reflections are comparable in the prefix order.  A tuple of arcs comes
from a Y-seed exactly when at most one consecutive pair is bad; the
verdict below packages that test together with the sign assignment and
the ordering criterion on the associated roots.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    LengthPreconditionError,
    TwinDisjunctionError,
    TwinEndpointClash,
    UnreducedArc,
    WrongArity,
    require_int,
)
from .roots import GramMatrix, Root, _ordering_check, all_weights_two_gram, reflection_to_root
from .words import (
    Reflection,
    Word,
    comparable,
    conjugate,
    mul,
    reduce_word,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Arc:
    """Reduced crossing sequence plus endpoint puncture, both 1-based."""

    crossings: Word
    endpoint: int

    def __post_init__(self) -> None:
        # ints only, never coerced, and a list of crossings is kept as the
        # tuple it spells
        if require_int(self.endpoint, "endpoint") < 1:
            raise ValueError(f"endpoint {self.endpoint} must be >= 1")
        crossings = tuple(self.crossings)
        for s in crossings:
            if require_int(s, "ray index") < 1:
                raise ValueError(f"ray index {s} must be >= 1")
        for a, b in zip(crossings, crossings[1:]):
            if a == b:
                raise UnreducedArc(f"adjacent repeat in {crossings}")
        if crossings and crossings[-1] == self.endpoint:
            raise UnreducedArc("last crossing equals the endpoint ray")
        object.__setattr__(self, "crossings", crossings)

    def __str__(self) -> str:
        """The --arcs token syntax: 2,1:3, or 4 when nothing is crossed."""
        head = ",".join(map(str, self.crossings))
        return f"{head}:{self.endpoint}" if head else str(self.endpoint)


def canonicalize_arc(crossings: Sequence[int], endpoint: int) -> Arc:
    """Reduce the crossing word, then drop a trailing crossing of the
    endpoint's ray; both steps are the combinatorial bigon removals."""
    w = reduce_word(crossings)
    if w and w[-1] == endpoint:
        w = w[:-1]
    return Arc(w, endpoint)


def arc_to_reflection(a: Arc) -> Reflection:
    return Reflection(a.crossings, a.endpoint)


def reflection_to_arc(r: Reflection) -> Arc:
    return Arc(r.prefix, r.core)


@dataclass(frozen=True)
class TupleVerdict:
    bad_pair_count: int
    product_is_coxeter: bool
    st_pass: bool
    is_yseed: bool


def tuple_verdict(
    refls: Sequence[Reflection], gram: GramMatrix | None = None
) -> TupleVerdict:
    """Decide whether an ordered arc tuple corresponds to a Y-seed.

    The arcs are given by their reflections, the same (prefix, core) data
    under arc_to_reflection.  Bad pairs are counted over consecutive pairs
    in the given linear order.  Signs follow the reconstruction that
    proves the criterion: all roots positive when no pair is bad,
    otherwise positive up to the first bad pair and negative after it.
    The ordering check runs against the given pairing, by default the
    all-weights-2 one of the right rank; reflection_to_root rejects a
    letter beyond that rank.
    """
    refls = tuple(refls)
    n = len(refls)
    if n == 0:
        raise WrongArity("empty arc tuple")
    if gram is None:
        gram = all_weights_two_gram(n)
    elif gram.n != n:
        raise WrongArity(f"pairing rank {gram.n} != tuple length {n}")
    return _tuple_verdict(refls, gram, tuple_product(refls))


def _tuple_verdict(
    refls: tuple[Reflection, ...], gram: GramMatrix, product: Word,
    known: tuple[tuple[Root, ...], bool] | None = None,
) -> TupleVerdict:
    """tuple_verdict on a nonempty tuple of the pairing's rank, given the
    product of refls in order.  The sign rule puts the positive roots first
    in that order, so the product is also the ordering check's first try.
    known, a seed's _fan_ordering, is a (roots, verdict) pair of the
    ordering check on refls, reused when the sign rule gives those roots."""
    n = len(refls)
    bad = [i for i in range(n - 1) if comparable(refls[i], refls[i + 1])]
    roots = [reflection_to_root(r, gram) for r in refls]
    if bad:
        cut = bad[0]
        roots = roots[: cut + 1] + [tuple(-x for x in u) for u in roots[cut + 1 :]]
    roots = tuple(roots)
    st = known[1] if known and known[0] == roots else _ordering_check(roots, refls, gram, product)
    return TupleVerdict(len(bad), product == tuple(range(1, n + 1)), st, len(bad) <= 1 and st)


def braid_swap(
    reflections: Sequence[Reflection], i: int, j: int, direction: str = "forward"
) -> tuple[Reflection, ...]:
    """Move entry i past entry j by conjugation, fixing the product.

    Forward, position j receives (r_j .. r_{i+1}) r_i (r_{i+1} .. r_j) and
    position i receives (r_{i+1} .. r_{j-1}) r_j (r_{j-1} .. r_{i+1});
    entries strictly between stay put.  The inverse direction undoes the
    forward one.  For j = i + 1 this is the usual Hurwitz move.
    """
    if not 1 <= i < j <= len(reflections):
        raise ValueError(f"need 1 <= i < j <= {len(reflections)}, got {i}, {j}")
    if direction not in ("forward", "inverse"):
        raise ValueError(f"unknown direction {direction!r}")
    out = list(reflections)
    mid = reflections[i : j - 1]
    ri, rj = reflections[i - 1], reflections[j - 1]
    if direction == "forward":
        out[j - 1] = conjugate(ri, rj, *reversed(mid))
        out[i - 1] = conjugate(rj, *mid)
    else:
        out[j - 1] = conjugate(ri, *reversed(mid))
        out[i - 1] = conjugate(rj, *mid, out[j - 1])
    return tuple(out)


def tuple_product(reflections: Sequence[Reflection]) -> Word:
    return mul(*(r.word for r in reflections))


def twin(gamma: Reflection, beta: Reflection) -> Reflection:
    """The gamma-twin of beta: conjugate beta by gamma.

    The twin pair arises from the two ways of walking around a loop
    enclosing gamma before heading off to beta's endpoint; the loop's
    crossing word is exactly gamma's reflection word, so the twin is
    r_g r_b r_g.  Reflections square to the identity, hence taking the
    twin twice gives back beta, and the core (the endpoint puncture) is
    preserved.  The two arcs must end at distinct punctures.
    """
    if beta.core == gamma.core:
        raise TwinEndpointClash(f"both arcs end at puncture {beta.core}")
    return conjugate(beta, gamma)


def twin_replace_walk(gammas: Sequence[Reflection], beta0: Reflection) -> Reflection:
    """Walk beta past a no-bad-pair fan, twinning it out of every bad pair.

    Whenever (beta, gamma_i) is bad, beta is replaced by its gamma_i-twin;
    the twin is then asserted not-bad against gamma_i, which holds
    whenever |gamma_i| < |beta| on both sides of the replacement.  The
    length precondition |beta0| > 3 n max|gamma_i|, with n one more than
    the fan size, keeps that ordering through every step: each
    replacement drifts the length by at most 2 |gamma_i|.
    """
    if not gammas:
        return beta0
    for a, b in zip(gammas, gammas[1:]):
        if comparable(a, b):
            raise ValueError("fan has a bad pair")
    n = len(gammas) + 1
    longest = max(len(g) for g in gammas)
    if len(beta0) <= 3 * n * longest:
        raise LengthPreconditionError(f"|beta0| = {len(beta0)} <= 3 * {n} * {longest}")
    beta = beta0
    for g in gammas:
        if not comparable(beta, g):
            continue
        replaced = twin(g, beta)
        log.debug("twin drift %d against |gamma| = %d", abs(len(replaced) - len(beta)), len(g))
        if comparable(replaced, g):
            raise TwinDisjunctionError(
                f"both {beta.word} and {replaced.word} are bad against {g.word}"
            )
        beta = replaced
    return beta
