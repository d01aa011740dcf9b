"""Root-system model attached to an initial acyclic exchange matrix.

The Cartan companion of a normalized acyclic matrix B is the symmetric
matrix M with diagonal 2 and off-diagonal entries -|b[i][j]|.  It fixes a
bilinear pairing <u, v> = u^T M v on integer vectors in the simple-root
basis; every simple root e_i has <e_i, e_i> = 2, and reflecting in a vector
of self-pairing 2 preserves the pairing.

A Y-seed is an exchange matrix together with n c-vectors.  Mutation at k
negates c_k and reflects the other c-vectors in c_k, but only those on one
side of k as read off from the sign of c_k against the matrix column.  The
same update is also computed by mutating the stacked (B over C) matrix with
the plain exchange rule, which serves as an independent oracle.

All c-vectors stay sign-coherent, and the pairing of two c-vectors recovers
the matrix weight up to sign.  Positive c-vectors are real Schur roots;
each corresponds to a reflection in the universal Coxeter group, written in
the simple generators by repeated descent.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import permutations

from .errors import (
    NotAcyclic,
    NotARealRoot,
    NotNormalized,
    NotUnitRoot,
    RankTooLarge,
    SignIncoherent,
)
from .quiver import ExchangeMatrix, Vertex, natural_order
from .words import Reflection, mul, reduce_word

log = logging.getLogger(__name__)

Root = tuple[int, ...]


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric pairing matrix with diagonal 2."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.rows)
        for row in self.rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
        for i in range(n):
            if self.rows[i][i] != 2:
                raise ValueError("diagonal entries must be 2")
            for j in range(n):
                if self.rows[i][j] != self.rows[j][i]:
                    raise ValueError("matrix must be symmetric")

    @property
    def n(self) -> int:
        return len(self.rows)


def cartan_companion(matrix: ExchangeMatrix) -> GramMatrix:
    """Symmetrized companion of a normalized acyclic exchange matrix."""
    if not matrix.is_acyclic():
        raise NotAcyclic("Cartan companion needs an acyclic matrix")
    for i in range(matrix.n):
        for j in range(i + 1, matrix.n):
            if matrix.rows[i][j] < 0:
                raise NotNormalized(f"b[{i + 1}][{j + 1}] < 0")
    rows = tuple(
        tuple(2 if i == j else -abs(matrix.rows[i][j]) for j in range(matrix.n))
        for i in range(matrix.n)
    )
    return GramMatrix(rows)


def all_weights_two_gram(n: int) -> GramMatrix:
    return GramMatrix(
        tuple(tuple(2 if i == j else -2 for j in range(n)) for i in range(n))
    )


def inner(u: Root, v: Root, gram: GramMatrix) -> int:
    if len(u) != gram.n or len(v) != gram.n:
        raise ValueError("vector length must match the pairing rank")
    return sum(
        u[i] * gram.rows[i][j] * v[j] for i in range(gram.n) for j in range(gram.n)
    )


def reflect(u: Root, v: Root, gram: GramMatrix) -> Root:
    """Reflection of u in v: u - <u, v> v.  Needs <v, v> = 2."""
    if inner(v, v, gram) != 2:
        raise NotUnitRoot(f"<v, v> = {inner(v, v, gram)} for v = {v}")
    coef = inner(u, v, gram)
    return tuple(u[i] - coef * v[i] for i in range(gram.n))


class Sign(Enum):
    POSITIVE = 1
    NEGATIVE = -1


def root_sign(u: Root) -> Sign:
    """Sign of a sign-coherent nonzero vector."""
    has_pos = any(x > 0 for x in u)
    has_neg = any(x < 0 for x in u)
    if has_pos and has_neg:
        raise SignIncoherent(f"{u} mixes signs")
    if not has_pos and not has_neg:
        raise SignIncoherent("the zero vector has no sign")
    return Sign.POSITIVE if has_pos else Sign.NEGATIVE


def positive_form(u: Root) -> Root:
    return u if root_sign(u) is Sign.POSITIVE else tuple(-x for x in u)


def unit_vector(n: int, i: Vertex) -> Root:
    return tuple(1 if j == i - 1 else 0 for j in range(n))


@dataclass(frozen=True)
class YSeed:
    """Exchange matrix with c-vectors, the pairing of the initial seed, and
    the mutation path that produced it."""

    matrix: ExchangeMatrix
    cvectors: tuple[Root, ...]
    gram: GramMatrix
    path: tuple[Vertex, ...]

    def __post_init__(self) -> None:
        if len(self.cvectors) != self.matrix.n or self.gram.n != self.matrix.n:
            raise ValueError("rank mismatch between matrix, c-vectors, and pairing")

    @property
    def n(self) -> int:
        return self.matrix.n

    @cached_property
    def reflections(self) -> tuple[Reflection, ...]:
        """The reflection of each c-vector, in vertex order, derived by
        descent on first access.  A seed is immutable, so every check and
        view of it shares this one derivation."""
        return tuple(root_to_reflection(c, self.gram) for c in self.cvectors)

    def to_json(self) -> dict:
        return {
            "b": [list(row) for row in self.matrix.rows],
            "c": [list(c) for c in self.cvectors],
            "path": list(self.path),
        }


def initial_seed(matrix: ExchangeMatrix) -> YSeed:
    """Seed (B, identity c-vectors) for a normalized acyclic 2-complete B."""
    if not matrix.is_two_complete():
        raise ValueError("initial matrix must be 2-complete")
    gram = cartan_companion(matrix)
    cvecs = tuple(unit_vector(matrix.n, i) for i in matrix.vertices())
    return YSeed(matrix, cvecs, gram, ())


def seed_from_json(data: dict, gram: GramMatrix | None = None) -> YSeed:
    matrix = ExchangeMatrix.from_rows(data["b"])
    if gram is None:
        initial = matrix.mutate_path(tuple(reversed(data["path"])))
        gram = cartan_companion(initial)
    return YSeed(
        matrix,
        tuple(tuple(int(x) for x in c) for c in data["c"]),
        gram,
        tuple(data["path"]),
    )


def mutate_seed(seed: YSeed, k: Vertex) -> YSeed:
    """Y-seed mutation at k by the partial reflection rule.

    With c_k positive, reflect exactly the c_j with b[j][k] < 0; with c_k
    negative, exactly those with b[j][k] > 0.  Then negate c_k and mutate
    the matrix.  Raises SignIncoherent if c_k mixes signs.
    """
    if not 1 <= k <= seed.n:
        raise ValueError(f"vertex {k} out of range 1..{seed.n}")
    ck = seed.cvectors[k - 1]
    positive = root_sign(ck) is Sign.POSITIVE
    new_cvecs = []
    for j in range(1, seed.n + 1):
        cj = seed.cvectors[j - 1]
        if j == k:
            new_cvecs.append(tuple(-x for x in cj))
            continue
        bjk = seed.matrix.b(j, k)
        if (positive and bjk < 0) or (not positive and bjk > 0):
            new_cvecs.append(reflect(cj, positive_form(ck), seed.gram))
        else:
            new_cvecs.append(cj)
    return YSeed(seed.matrix.mutate(k), tuple(new_cvecs), seed.gram, seed.path + (k,))


def mutate_seed_matrix(seed: YSeed, k: Vertex) -> YSeed:
    """Independent oracle for mutate_seed: apply the plain exchange rule to
    the 2n x n matrix with B stacked over the c-vector matrix."""
    if not 1 <= k <= seed.n:
        raise ValueError(f"vertex {k} out of range 1..{seed.n}")
    n = seed.n
    ext = [list(row) for row in seed.matrix.rows]
    for r in range(n):
        ext.append([seed.cvectors[j][r] for j in range(n)])
    ki = k - 1
    new = [row[:] for row in ext]
    for i in range(2 * n):
        for j in range(n):
            if i == ki or j == ki:
                new[i][j] = -ext[i][j]
            else:
                bik = ext[i][ki]
                bkj = ext[ki][j]
                new[i][j] = ext[i][j] + (abs(bik) * bkj + bik * abs(bkj)) // 2
    matrix = ExchangeMatrix.from_rows([row[:n] for row in new[:n]])
    cvecs = tuple(tuple(new[n + r][j] for r in range(n)) for j in range(n))
    return YSeed(matrix, cvecs, seed.gram, seed.path + (k,))


def root_to_reflection(u: Root, gram: GramMatrix) -> Reflection:
    """Write the reflection in a real root as a word in the generators.

    Greedy descent: repeatedly reflect in the smallest-index simple root
    with <u, e_i> > 0; the indices picked, in order, form the prefix and
    the surviving simple root is the core.  Negative roots are negated
    first.  Raises NotARealRoot when <u, u> != 2 or the descent stalls.
    """
    if inner(u, u, gram) != 2:
        raise NotARealRoot(f"<u, u> = {inner(u, u, gram)} for u = {u}")
    try:
        u = positive_form(u)
    except SignIncoherent as exc:
        raise NotARealRoot(f"{u} is not sign-coherent") from exc
    picked: list[int] = []
    while True:
        nonzero = [x for x in u if x != 0]
        if len(nonzero) == 1 and nonzero[0] == 1:
            core = next(i + 1 for i, x in enumerate(u) if x != 0)
            break
        descent = None
        for i in range(1, gram.n + 1):
            if u[i - 1] > 0 and inner(u, unit_vector(gram.n, i), gram) > 0:
                descent = i
                break
        if descent is None:
            raise NotARealRoot(f"descent stalls at {u}")
        reflected = reflect(u, unit_vector(gram.n, descent), gram)
        if sum(reflected) >= sum(u):
            raise NotARealRoot(f"descent does not shrink at {u}")
        picked.append(descent)
        u = reflected
    return Reflection(reduce_word(picked), core)


def reflection_to_root(r: Reflection, gram: GramMatrix) -> Root:
    """Apply the prefix reflections to the core's simple root, innermost
    letter first.  Canonical reflections give positive roots."""
    for s in r.letters():
        if not 1 <= s <= gram.n:
            raise ValueError(f"generator {s} out of range 1..{gram.n}")
    u = unit_vector(gram.n, r.core)
    for i in reversed(r.prefix):
        u = reflect(u, unit_vector(gram.n, i), gram)
    return u


def speyer_thomas_check(
    roots: tuple[Root, ...], reflections: tuple[Reflection, ...], gram: GramMatrix
) -> bool:
    """Ordering criterion for a tuple of n sign-coherent real roots, given
    with their reflections (entry i is the reflection of roots[i]).

    Passes when (1) every same-sign pair pairs non-positively, and (2)
    some ordering with all positive roots before all negative roots has
    reflection product s_1 s_2 .. s_n.  The ordering search is brute
    force, so the rank is capped at 8.
    """
    n = gram.n
    if n > 8:
        raise RankTooLarge(f"ordering search is factorial; rank {n} > 8")
    if len(roots) != n or len(reflections) != n:
        raise ValueError(f"expected {n} roots and {n} reflections")
    signs = [root_sign(u) for u in roots]
    for i in range(n):
        for j in range(i + 1, n):
            if signs[i] is signs[j] and inner(roots[i], roots[j], gram) > 0:
                return False
    words = [r.word for r in reflections]
    positives = [words[i] for i in range(n) if signs[i] is Sign.POSITIVE]
    negatives = [words[i] for i in range(n) if signs[i] is Sign.NEGATIVE]
    target = tuple(range(1, n + 1))
    for front in permutations(positives):
        for back in permutations(negatives):
            if mul(*front, *back) == target:
                return True
    return False


def natural_roots(seed: YSeed) -> tuple[Root, ...]:
    """The c-vectors read in the natural order of the seed's matrix."""
    return tuple(seed.cvectors[v - 1] for v in natural_order(seed.matrix))


def fan_rotation(roots: tuple[Root, ...]) -> int:
    """Index of the first positive root whose cyclic predecessor is
    negative; 0 when all roots share one sign.

    Rotating the natural order here puts positives before negatives, which
    is the clockwise order of the arcs around the boundary point.
    """
    signs = [root_sign(u) for u in roots]
    if Sign.POSITIVE not in signs or Sign.NEGATIVE not in signs:
        return 0
    return next(
        i
        for i in range(len(signs))
        if signs[i] is Sign.POSITIVE and signs[i - 1] is Sign.NEGATIVE
    )


def natural_fan(seed: YSeed) -> tuple[Reflection, ...]:
    """Natural-order reflections of the c-vectors, rotated to the first
    positive root."""
    order = natural_order(seed.matrix)
    start = fan_rotation(tuple(seed.cvectors[v - 1] for v in order))
    return tuple(seed.reflections[v - 1] for v in order[start:] + order[:start])


@dataclass(frozen=True)
class CoxeterProductReport:
    ok: bool
    rotation: int
    fallback_used: bool


def natural_coxeter_product(seed: YSeed) -> CoxeterProductReport:
    """Check that the natural-order reflections of a seed multiply to
    s_1 s_2 .. s_n after rotating the tuple to the first positive root
    whose cyclic predecessor is negative.

    When the primary rotation fails, every rotation is tried and a hit is
    reported with fallback_used set (and logged); ok is False when no
    rotation works.
    """
    order = natural_order(seed.matrix)
    roots = tuple(seed.cvectors[v - 1] for v in order)
    words = [seed.reflections[v - 1].word for v in order]
    n = seed.n
    target = tuple(range(1, n + 1))
    start = fan_rotation(roots)
    rotated = words[start:] + words[:start]
    if mul(*rotated) == target:
        return CoxeterProductReport(True, start, False)
    for shift in range(n):
        if mul(*(words[shift:] + words[:shift])) == target:
            log.warning(
                "first-positive rotation failed at path %s; rotation %d works",
                seed.path,
                shift,
            )
            return CoxeterProductReport(True, shift, True)
    return CoxeterProductReport(False, start, False)


def sign_run_count(seed: YSeed) -> int:
    """Number of maximal constant-sign runs of the natural-order c-vectors,
    read cyclically."""
    signs = [root_sign(u) for u in natural_roots(seed)]
    n = len(signs)
    changes = sum(1 for i in range(n) if signs[i] is not signs[(i + 1) % n])
    return max(changes, 1)
