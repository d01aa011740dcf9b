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
each corresponds to a reflection in the universal Coxeter group.  The
initial seed writes its reflections in the simple generators by repeated
descent.  A mutation that reflects c_j in c_k conjugates the reflection
t_j by t_k, so mutating a seed whose reflections were already read gives
the child its reflections by conjugation; descent stays the oracle.  A seed
also keeps, once read, its natural fan's product and the ordering
criterion's verdict on its natural-order c-vectors, which the per-seed
checks share.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, cmp_to_key

from .errors import NotAcyclic, NotARealRoot, NotNormalized, SignIncoherent
from .quiver import ExchangeMatrix, Vertex, natural_order, require_vertex
from .words import Reflection, Word, conjugate, mul, require_rank

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
        raise ValueError(f"vector lengths {len(u)}, {len(v)} != pairing rank {gram.n}")
    return sum(x * sum(map(operator.mul, row, v)) for x, row in zip(u, gram.rows))


def reflect(u: Root, v: Root, gram: GramMatrix) -> Root:
    """Reflection of u in v: u - <u, v> v.  Needs <v, v> = 2."""
    if inner(v, v, gram) != 2:
        raise NotARealRoot(f"<v, v> = {inner(v, v, gram)} for v = {v}")
    coef = inner(u, v, gram)
    return tuple(u[i] - coef * v[i] for i in range(gram.n))


def root_sign(u: Root) -> int:
    """Sign of a sign-coherent nonzero vector: 1 or -1."""
    if not u:
        raise SignIncoherent("the zero vector has no sign")
    # max and min are called without the default keyword, which would
    # send CPython down their slower argument-parsing path
    has_pos = max(u) > 0
    has_neg = min(u) < 0
    if has_pos and has_neg:
        raise SignIncoherent(f"{u} mixes signs")
    if not has_pos and not has_neg:
        raise SignIncoherent("the zero vector has no sign")
    return 1 if has_pos else -1


def positive_form(u: Root) -> Root:
    return u if root_sign(u) > 0 else tuple(-x for x in u)


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
        n = self.matrix.n
        if (
            len(self.cvectors) != n
            or self.gram.n != n
            or any(len(c) != n for c in self.cvectors)
        ):
            raise ValueError("rank mismatch between matrix, c-vectors, and pairing")

    @property
    def n(self) -> int:
        return self.matrix.n

    @cached_property
    def reflections(self) -> tuple[Reflection, ...]:
        """The reflection of each c-vector, in vertex order, descended with
        root_to_reflection on first access.  A seed is immutable, so every
        check and view of it shares this one derivation.  mutate_seed fills
        it in for a child whose parent's reflections were read, so only a
        seed with no such parent descends, and a walk that never asks for
        reflections derives none."""
        return tuple(root_to_reflection(c, self.gram) for c in self.cvectors)

    @cached_property
    def _natural(self) -> tuple[tuple[Vertex, ...], tuple[int, ...]]:
        """The natural order and the sign of each of its c-vectors, read in
        one pass and rotated to the first positive root whose cyclic
        predecessor is negative (left unrotated when all signs agree).
        Positives then come before negatives: the clockwise order of the
        arcs around the boundary point."""
        order = natural_order(self.matrix)
        signs = tuple(root_sign(self.cvectors[v - 1]) for v in order)
        start = next((i for i, s in enumerate(signs) if s > 0 and signs[i - 1] < 0), 0)
        return order[start:] + order[:start], signs[start:] + signs[:start]

    @cached_property
    def natural_fan(self) -> tuple[Reflection, ...]:
        """The reflections in natural order, rotated to the first positive
        root; built once, on first use."""
        return tuple(self.reflections[v - 1] for v in self._natural[0])

    @cached_property
    def _fan_product(self) -> Word:
        """The natural fan's product, formed once."""
        return mul(*(r.word for r in self.natural_fan))

    @cached_property
    def _fan_ordering(self) -> tuple[tuple[Root, ...], bool]:
        """The natural-order c-vectors and speyer_thomas_check's verdict on
        them with the natural fan, whose product is its first try."""
        cvecs = tuple(self.cvectors[v - 1] for v in self._natural[0])
        return cvecs, _ordering_check(cvecs, self.natural_fan, self.gram, self._fan_product)


def initial_seed(matrix: ExchangeMatrix) -> YSeed:
    """Seed (B, identity c-vectors) for a normalized acyclic 2-complete B
    with at least one vertex."""
    if matrix.n == 0:
        raise ValueError("a quiver needs at least one vertex")
    if not matrix.is_two_complete():
        raise ValueError("initial matrix must be 2-complete")
    gram = cartan_companion(matrix)
    cvecs = tuple(unit_vector(matrix.n, i) for i in matrix.vertices())
    return YSeed(matrix, cvecs, gram, ())


def mutate_seed(seed: YSeed, k: Vertex) -> YSeed:
    """Y-seed mutation at k by the partial reflection rule.

    With c_k positive, reflect exactly the c_j with b[j][k] < 0; with c_k
    negative, exactly those with b[j][k] > 0.  Then negate c_k and mutate
    the matrix.  Raises SignIncoherent if c_k mixes signs, and NotARealRoot
    if some c_j is to be reflected while <c_k, c_k> != 2.

    The reflection of c_j in v = positive_form(c_k) is c_j - <c_j, v> v,
    so M v is computed once and each <c_j, v> is one dot product with it.

    If the parent's reflections were already read, the child's are written
    at once: t_k and every unmoved t_j are kept, and each moved t_j is
    conjugated by t_k.  Otherwise the child derives none here.
    """
    matrix = seed.matrix.mutate(k)  # validates k before c_k is read
    ck = seed.cvectors[k - 1]
    positive = root_sign(ck) > 0
    v = ck if positive else tuple(-x for x in ck)
    mv = [sum(map(operator.mul, row, v)) for row in seed.gram.rows]
    vv = sum(map(operator.mul, v, mv))
    new_cvecs = []
    read = seed.__dict__.get("reflections")
    refls = None if read is None else list(read)
    for j, (cj, row) in enumerate(zip(seed.cvectors, seed.matrix.rows), 1):
        bjk = row[k - 1]
        if j == k:
            new_cvecs.append(tuple(-x for x in cj))
        elif (bjk < 0) if positive else (bjk > 0):
            if vv != 2:
                raise NotARealRoot(f"<v, v> = {vv} for v = {v}")
            coef = sum(map(operator.mul, cj, mv))
            new_cvecs.append(tuple([x - coef * y for x, y in zip(cj, v)]))
            if refls is not None:
                refls[j - 1] = conjugate(read[j - 1], read[k - 1])
        else:
            new_cvecs.append(cj)
    child = YSeed(matrix, tuple(new_cvecs), seed.gram, seed.path + (k,))
    if refls is not None:
        # the cached_property's own slot, so child.reflections reads it
        child.__dict__["reflections"] = tuple(refls)
    return child


def mutate_seed_matrix(seed: YSeed, k: Vertex) -> YSeed:
    """Independent oracle for mutate_seed: apply the plain exchange rule to
    the 2n x n matrix with B stacked over the c-vector matrix."""
    n = seed.n
    require_vertex(k, n)
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
    e_i with u_i > 0 and <u, e_i> > 0, which lowers u_i alone by <u, e_i>;
    the indices picked, in order, form the prefix and the surviving simple
    root is the core.  Negative roots are negated first.  Raises
    NotARealRoot when <u, u> != 2 or the descent stalls.
    """
    if inner(u, u, gram) != 2:
        raise NotARealRoot(f"<u, u> = {inner(u, u, gram)} for u = {u}")
    try:
        v = list(positive_form(u))
    except SignIncoherent as exc:
        raise NotARealRoot(f"{u} is not sign-coherent") from exc
    picked: list[int] = []
    while True:
        nonzero = [x for x in v if x != 0]
        if len(nonzero) == 1 and nonzero[0] == 1:
            core = next(i + 1 for i, x in enumerate(v) if x != 0)
            break
        for i, row in enumerate(gram.rows):
            if v[i] > 0:
                p = sum(map(operator.mul, row, v))
                if p > 0:
                    break
        else:
            raise NotARealRoot(f"descent stalls at {tuple(v)}")
        v[i] -= p
        picked.append(i + 1)
    # a letter is never picked twice running, since the step at i turns
    # <u, e_i> from p to -p, so the picks are already a reduced word
    return Reflection(tuple(picked), core)


def reflection_to_root(r: Reflection, gram: GramMatrix) -> Root:
    """Apply the prefix reflections to the core's simple root, innermost
    letter first.  Canonical reflections give positive roots."""
    require_rank(r, gram.n)
    u = [0] * gram.n
    u[r.core - 1] = 1
    for i in reversed(r.prefix):
        u[i - 1] -= sum(map(operator.mul, gram.rows[i - 1], u))
    return tuple(u)


def speyer_thomas_check(
    roots: tuple[Root, ...], reflections: tuple[Reflection, ...], gram: GramMatrix
) -> bool:
    """Ordering criterion for n sign-coherent real roots; entry i of
    reflections must be the reflection of roots[i].

    Passes when (1) every same-sign pair pairs non-positively, and (2)
    some ordering with all positive roots before all negative roots has
    reflection product s_1 s_2 .. s_n.  Such an ordering is a complete
    exceptional sequence (Igusa-Schiffler): v precedes u exactly when the
    Euler form <u, v> = u^T E v is 0, E the upper half of the pairing with
    1 on the diagonal.  No two distinct reflections of the universal
    Coxeter group commute, so no two are orthogonal and the order is unique.

    Each pair in (1) is read against the image M u of its earlier root,
    formed once per root: <u, v> is the dot product of v with M u.
    """
    n = gram.n
    if len(roots) != n or len(reflections) != n or any(len(u) != n for u in roots):
        raise ValueError(f"expected {n} roots of length {n} and {n} reflections")
    return _ordering_check(roots, reflections, gram, None)


def _ordering_check(
    roots: tuple[Root, ...], reflections: tuple[Reflection, ...],
    gram: GramMatrix, product: Word | None,
) -> bool:
    """speyer_thomas_check on input of the right lengths.  product, when
    given, is the reflections' product in the given order, and is the first
    try's product when every positive root comes before every negative one."""
    n = gram.n
    signs = [root_sign(u) for u in roots]
    positives = [i for i in range(n) if signs[i] > 0]
    negatives = [i for i in range(n) if signs[i] < 0]
    m = gram.rows
    for group in (positives, negatives):
        for a in range(len(group) - 1):
            image = [sum(map(operator.mul, row, roots[group[a]])) for row in m]
            for j in group[a + 1 :]:
                if sum(map(operator.mul, roots[j], image)) > 0:
                    return False
    words = [r.word for r in reflections]
    target = tuple(range(1, n + 1))
    if product is None or positives != list(range(len(positives))):
        product = mul(*(words[i] for i in positives + negatives))
    if product == target:
        return True
    ev = [[v[i] + sum(map(operator.mul, m[i][i + 1 :], v[i + 1 :])) for i in range(n)] for v in roots]
    after = cmp_to_key(lambda a, b: 1 if sum(map(operator.mul, roots[a], ev[b])) == 0 else -1)
    positives.sort(key=after)
    negatives.sort(key=after)
    return mul(*(words[i] for i in positives + negatives)) == target


def sign_run_count(seed: YSeed) -> int:
    """Number of maximal constant-sign runs of the natural-order c-vectors,
    read cyclically; rotating the order leaves the count unchanged."""
    _, signs = seed._natural
    changes = sum(1 for i in range(len(signs)) if signs[i - 1] != signs[i])
    return max(changes, 1)
