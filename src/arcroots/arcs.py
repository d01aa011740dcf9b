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
)
from .roots import GramMatrix, all_weights_two_gram, reflection_to_root, speyer_thomas_check
from .words import (
    Reflection,
    Word,
    canonical_reflection,
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
        if self.endpoint < 1:
            raise ValueError(f"endpoint {self.endpoint} must be >= 1")
        for s in self.crossings:
            if s < 1:
                raise ValueError(f"ray index {s} must be >= 1")
        for a, b in zip(self.crossings, self.crossings[1:]):
            if a == b:
                raise UnreducedArc(f"adjacent repeat in {self.crossings}")
        if self.crossings and self.crossings[-1] == self.endpoint:
            raise UnreducedArc("last crossing equals the endpoint ray")

    def word_length(self) -> int:
        return 2 * len(self.crossings) + 1

    def to_json(self) -> dict:
        return {"crossings": list(self.crossings), "endpoint": self.endpoint}

    @classmethod
    def from_json(cls, data: dict) -> Arc:
        return cls(tuple(int(x) for x in data["crossings"]), int(data["endpoint"]))


def canonicalize_arc(crossings: Sequence[int], endpoint: int) -> Arc:
    """Reduce the crossing word, then drop a trailing crossing of the
    endpoint's ray; both steps are the combinatorial bigon removals."""
    w = reduce_word(crossings)
    while w and w[-1] == endpoint:
        w = w[:-1]
    return Arc(w, endpoint)


def arc_to_reflection(a: Arc) -> Reflection:
    return Reflection(a.crossings, a.endpoint)


def reflection_to_arc(r: Reflection) -> Arc:
    return Arc(r.prefix, r.core)


def is_bad_pair(a: Arc, b: Arc) -> bool:
    """Two arcs form a bad pair when their reflections are comparable."""
    return comparable(arc_to_reflection(a), arc_to_reflection(b))


@dataclass(frozen=True)
class TupleVerdict:
    bad_pair_count: int
    product_is_coxeter: bool
    st_pass: bool
    is_yseed: bool

    def to_json(self) -> dict:
        return {
            "bad_pair_count": self.bad_pair_count,
            "product_is_coxeter": self.product_is_coxeter,
            "st_pass": self.st_pass,
            "is_yseed": self.is_yseed,
        }


def tuple_verdict(arcs: Sequence[Arc], gram: GramMatrix | None = None) -> TupleVerdict:
    """Decide whether an ordered arc tuple corresponds to a Y-seed.

    Bad pairs are counted over consecutive pairs in the given linear
    order.  Signs follow the reconstruction that proves the criterion:
    all roots positive when no pair is bad, otherwise positive up to the
    first bad pair and negative after it.  The ordering check runs
    against the given pairing, by default the all-weights-2 one of the
    right rank.
    """
    n = len(arcs)
    if n == 0:
        raise WrongArity("empty arc tuple")
    for a in arcs:
        if a.endpoint > n or any(s > n for s in a.crossings):
            raise WrongArity(f"arc {a} uses rays beyond 1..{n}")
    if gram is None:
        gram = all_weights_two_gram(n)
    elif gram.n != n:
        raise WrongArity(f"pairing rank {gram.n} != tuple length {n}")
    refls = tuple(arc_to_reflection(a) for a in arcs)
    bad = [i for i in range(n - 1) if comparable(refls[i], refls[i + 1])]
    product_ok = mul(*(r.word for r in refls)) == tuple(range(1, n + 1))
    roots = [reflection_to_root(r, gram) for r in refls]
    if bad:
        cut = bad[0]
        roots = roots[: cut + 1] + [tuple(-x for x in u) for u in roots[cut + 1 :]]
    st = speyer_thomas_check(tuple(roots), refls, gram)
    return TupleVerdict(len(bad), product_ok, st, len(bad) <= 1 and st)


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
    mid = [r.word for r in reflections[i : j - 1]]
    mid_rev = list(reversed(mid))
    ri = reflections[i - 1].word
    rj = reflections[j - 1].word
    if direction == "forward":
        out[j - 1] = canonical_reflection(mul(rj, *mid_rev, ri, *mid, rj))
        out[i - 1] = canonical_reflection(mul(*mid, rj, *mid_rev))
    else:
        a_j = mul(*mid_rev, ri, *mid)
        out[j - 1] = canonical_reflection(a_j)
        out[i - 1] = canonical_reflection(mul(*mid, a_j, rj, a_j, *mid_rev))
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
    return conjugate(beta, gamma.word)


def twin_replace_walk(gammas: Sequence[Arc], beta0: Arc) -> Arc:
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
        if is_bad_pair(a, b):
            raise ValueError("fan has a bad pair")
    n = len(gammas) + 1
    longest = max(g.word_length() for g in gammas)
    if beta0.word_length() <= 3 * n * longest:
        raise LengthPreconditionError(
            f"|beta0| = {beta0.word_length()} <= 3 * {n} * {longest}"
        )
    beta = arc_to_reflection(beta0)
    for g in gammas:
        obstacle = arc_to_reflection(g)
        if not comparable(beta, obstacle):
            continue
        replaced = twin(obstacle, beta)
        log.debug(
            "twin drift %d against |gamma| = %d",
            abs(len(replaced) - len(beta)),
            len(obstacle),
        )
        if comparable(replaced, obstacle):
            raise TwinDisjunctionError(
                f"both {beta.word} and {replaced.word} are bad against {obstacle.word}"
            )
        beta = replaced
    return reflection_to_arc(beta)
