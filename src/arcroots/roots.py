"""Root-system model attached to an initial acyclic exchange matrix.

The Cartan companion of a normalized acyclic matrix B is the symmetric
matrix M with diagonal 2 and off-diagonal entries -|b[i][j]|.  It fixes a
bilinear pairing <u, v> = u^T M v on integer vectors in the simple-root
basis; every simple root e_i has <e_i, e_i> = 2, and reflecting in a vector
of self-pairing 2 preserves the pairing.  The pairing forms the image M u
of each vector once, on the first request, and keeps it for its lifetime;
initial_seed builds one pairing per walk and every seed of the walk shares
it, so mutation and the checks read each distinct c-vector's image once.
The images are formed unchecked: every vector asked for is a c-vector of a
YSeed, a root that speyer_thomas_check has checked, or a pivot read from
such a c-vector, so each is a tuple of n ints where it enters the program.
inner stays the independent oracle and never reads the kept images.  The
pairing keeps the initial matrix B_0 it is built from and forms from it,
once, the Euler form E and M = E + E^T, so B_0 = E^T - E.

A Y-seed is an exchange matrix together with n c-vectors.  Mutation at k
negates c_k and reflects the other c-vectors in c_k, but only those on one
side of k, read by tropical duality from B and the c-vectors alone: one
step, which mutate_seed and the Schur search share.  The same update is
also computed by mutating the stacked (B over C) matrix with the plain
exchange rule, which reads the side from the matrix column and serves as
an independent oracle.

All c-vectors stay sign-coherent, and the pairing of two c-vectors recovers
the matrix weight up to sign.  Positive c-vectors are real Schur roots;
each corresponds to a reflection in the universal Coxeter group.  The
initial seed writes its reflections in the simple generators by repeated
descent.  A mutation that reflects c_j in c_k conjugates the reflection
t_j by t_k, so mutating a seed whose reflections were already read gives
the child its reflections by conjugation; descent stays the oracle.  A seed
also keeps, once read, the ordering criterion's verdict on its
natural-order c-vectors, which the per-seed checks share.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property, cmp_to_key

from .errors import NotAcyclic, NotARealRoot, NotNormalized, SignIncoherent
from .quiver import ExchangeMatrix, Vertex, _int_rows, _int_vector, natural_order, require_vertex
from .words import Reflection, conjugate, mul, require_rank

Root = tuple[int, ...]


@dataclass(frozen=True)
class GramMatrix:
    """The pairing of a normalized acyclic initial matrix B_0, which it keeps.

    Built from B_0 alone, which it checks: NotAcyclic for a directed cycle,
    then NotNormalized for some b_ij < 0 above the diagonal; the
    ExchangeMatrix has already checked the entries.  The Euler form E (1 on
    the diagonal, -b_ij above it, 0 below) and the Cartan companion
    M = E + E^T (rows) are formed once, here, so B_0 = E^T - E.  Equality
    and hashing read B_0 alone.

    The pairing forms each vector's image M u once, on the first request,
    and keeps it, and what mutation reads of each pivot, for its own
    lifetime; the vectors whose images are asked for are checked where they
    enter the program (GramMatrix._image)."""

    b0: ExchangeMatrix
    rows: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    euler: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _images: dict[Root, Root] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # c_k and -c_k -> (v = positive_form(c_k), B_0 v, M v, <v, v>, the
    # other key): the read depends on v alone, and the other key is the
    # mutated seed's new c_k
    _pivots: dict[Root, tuple[Root, Root, Root, int, Root]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.b0.is_acyclic():
            raise NotAcyclic("Cartan companion needs an acyclic matrix")
        b, n = self.b0.rows, self.b0.n
        for i in range(n):
            for j in range(i + 1, n):
                if b[i][j] < 0:
                    raise NotNormalized(f"b[{i + 1}][{j + 1}] < 0")
        e = tuple(
            tuple(1 if i == j else -b[i][j] if i < j else 0 for j in range(n)) for i in range(n)
        )
        m = tuple(tuple(e[i][j] + e[j][i] for j in range(n)) for i in range(n))
        object.__setattr__(self, "euler", e)
        object.__setattr__(self, "rows", m)

    @property
    def n(self) -> int:
        return len(self.rows)

    def _image(self, u: Root) -> Root:
        """M u, the tuple whose entry i is <e_i, u>, so <v, u> is the dot
        product of v with it; formed on the first request for u and kept
        for the pairing's lifetime.

        Precondition: u is a tuple of n ints.  It is not checked here:
        every caller passes a vector checked where it entered the program
        (a YSeed's c-vectors, speyer_thomas_check's roots, or the pivot
        that the c-vector step reads from a seed's c_k), so the kept
        images are exact."""
        mu = self._images.get(u)
        if mu is None:
            mu = self._images[u] = tuple([sum(map(operator.mul, row, u)) for row in self.rows])
        return mu


def cartan_companion(matrix: ExchangeMatrix) -> GramMatrix:
    """The pairing of a normalized acyclic exchange matrix, which checks it."""
    return GramMatrix(matrix)


def all_weights_two_gram(n: int) -> GramMatrix:
    """The pairing of the rank-n normalized matrix with every weight 2."""
    rows = tuple(tuple(0 if i == j else 2 if i < j else -2 for j in range(n)) for i in range(n))
    return GramMatrix(ExchangeMatrix(rows))


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
    the mutation path that produced it.  The pairing keeps the initial
    matrix B_0, which mutation reads."""

    matrix: ExchangeMatrix
    cvectors: tuple[Root, ...]
    gram: GramMatrix
    path: tuple[Vertex, ...]

    def __post_init__(self) -> None:
        # c-vectors are exact int tuples: the pairing's memo is keyed by them
        cvecs = _int_rows(self.cvectors, "c")
        object.__setattr__(self, "cvectors", cvecs)
        n = self.matrix.n
        if len(cvecs) != n or self.gram.n != n or set(map(len, cvecs)) - {n}:
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
    def _fan_ordering(self) -> bool:
        """speyer_thomas_check's verdict on the natural-order c-vectors
        with the natural fan, read once."""
        cvecs = tuple(self.cvectors[v - 1] for v in self._natural[0])
        return speyer_thomas_check(cvecs, self.natural_fan, self.gram)


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


def _mutate_cvectors(cvectors: tuple[Root, ...], k: Vertex, gram: GramMatrix) -> tuple[Root, ...]:
    """The c-vectors of the mutation at k, read from the c-vectors and the
    pairing alone: the package's one c-vector step.

    By tropical duality (Nakanishi-Zelevinsky) a seed's matrix is
    b_jk = c_j^T B_0 c_k, B_0 the initial matrix the pairing keeps.  With
    v = positive_form(c_k) and w = B_0 v, c_k is negated and c_j is
    reflected in v, to c_j - <c_j, v> v, exactly when c_j . w < 0.  An
    unreflected c_j is kept as the same object.  Raises SignIncoherent if
    c_k mixes signs and NotARealRoot if some c_j is to be reflected while
    <v, v> != 2.

    What the step reads of c_k (v, w, M v and <v, v>) depends on v alone,
    so a pivot read is kept on the pairing under both c_k and -c_k, each
    entry holding the other key, which is the new c_k; M v is kept among
    the pairing's images, where the checks find it.  A c_k that mixes
    signs is not kept.  Position k is not tested: c_k . w = ±v^T B_0 v is
    0 for every c_k, since B_0 is skew-symmetric, so c_k is never
    reflected in itself.
    """
    ki = k - 1
    ck = cvectors[ki]
    pivot = gram._pivots.get(ck)
    if pivot is None:
        neg = tuple([-x for x in ck])
        v = ck if root_sign(ck) > 0 else neg
        w = tuple([sum(map(operator.mul, row, v)) for row in gram.b0.rows])
        mv = gram._image(v)
        vv = sum(map(operator.mul, v, mv))
        gram._pivots[neg] = (v, w, mv, vv, ck)
        pivot = gram._pivots[ck] = (v, w, mv, vv, neg)
    v, w, mv, vv, new_ck = pivot
    new_c = list(cvectors)
    new_c[ki] = new_ck
    for j, cj in enumerate(cvectors):
        if j != ki and sum(map(operator.mul, cj, w)) < 0:
            if vv != 2:
                raise NotARealRoot(f"<v, v> = {vv} for v = {v}")
            coef = sum(map(operator.mul, cj, mv))
            new_c[j] = tuple([x - coef * y for x, y in zip(cj, v)])
    return tuple(new_c)


def mutate_seed(seed: YSeed, k: Vertex) -> YSeed:
    """Y-seed mutation at k: ExchangeMatrix.mutate for the matrix and
    _mutate_cvectors, which raises as it says, for the c-vectors.

    With c_k positive, c_j is reflected when c_j^T B_0 c_k < 0; with c_k
    negative, when it is > 0.  B_0 is the pairing's initial matrix, so on
    every seed of an exchange tree this is the sign of b_jk, the column
    rule of mutate_seed_matrix, while a hand-built seed whose matrix
    disagrees with its c-vectors gets c-vectors that follow B_0 and a
    matrix that follows B.

    If the parent's reflections were already read, the child's are written
    at once: t_k and every unmoved t_j are kept, and each moved t_j is
    conjugated by t_k.  Otherwise the child derives none here.
    """
    matrix = seed.matrix.mutate(k)  # validates k before c_k is read
    cvecs = _mutate_cvectors(seed.cvectors, k, seed.gram)
    child = YSeed(matrix, cvecs, seed.gram, seed.path + (k,))
    read = seed.__dict__.get("reflections")
    if read is not None:
        # the step keeps each unreflected c-vector as the same object; the
        # cached_property's own slot, so child.reflections reads it
        child.__dict__["reflections"] = tuple(
            t if j == k - 1 or new is old else conjugate(t, read[k - 1])
            for j, (t, new, old) in enumerate(zip(read, cvecs, seed.cvectors))
        )
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
    NotARealRoot when <u, u> != 2 or the descent stalls, and ValueError
    naming the entry when some entry of u is not an int, or naming both
    lengths when u's length is not the pairing's rank.
    """
    u = _int_vector(u, "u")
    if len(u) != gram.n:
        raise ValueError(f"root length {len(u)} != pairing rank {gram.n}")
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
    Euler form <u, v> = u^T E v is 0, with E kept on the pairing.  No two
    distinct reflections of the universal Coxeter group commute, so no two
    are orthogonal and the order is unique.

    Each pair in (1) is read against the image M u of its earlier root,
    which the pairing forms once and keeps: <u, v> is the dot product of v
    with M u.  For (2) the given order, with the positives moved before the
    negatives, is tried before the Euler-order sort.  A root entry that is
    not an int raises ValueError naming it.
    """
    n = gram.n
    roots = _int_rows(roots, "root")
    if len(roots) != n or len(reflections) != n or set(map(len, roots)) - {n}:
        raise ValueError(f"expected {n} roots of length {n} and {n} reflections")
    signs = [root_sign(u) for u in roots]
    positives = [i for i in range(n) if signs[i] > 0]
    negatives = [i for i in range(n) if signs[i] < 0]
    for group in (positives, negatives):
        for a in range(len(group) - 1):
            image = gram._image(roots[group[a]])
            for j in group[a + 1 :]:
                if sum(map(operator.mul, roots[j], image)) > 0:
                    return False
    words = [r.word for r in reflections]
    target = tuple(range(1, n + 1))
    if mul(*(words[i] for i in positives + negatives)) == target:
        return True
    ev = [[sum(map(operator.mul, row, v)) for row in gram.euler] for v in roots]
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
