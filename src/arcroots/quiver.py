"""Exchange matrices and quiver mutation.

A quiver without loops or oriented 2-cycles is encoded by its skew-symmetric
exchange matrix B: b[i][j] > 0 means b[i][j] arrows from i to j.  Vertices
are numbered 1..n in the API; the underlying storage is 0-based row tuples.
Entries are plain Python integers because mutation can grow weights beyond
any fixed machine width.

A matrix is 2-complete when every off-diagonal weight |b[i][j]| is at least
2.  For 2-complete matrices whose mutation class contains an acyclic one,
a non-acyclic one has exactly one direction whose mutation shrinks some
weight and grows none, its separating vertex, and repeatedly following
that direction reaches an acyclic representative.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    IncompleteTournament,
    MultipleDecreasingMutations,
    NoDecreasingMutation,
    NotAcyclic,
    require_int,
)

Vertex = int


def require_vertex(k: Vertex, n: int) -> Vertex:
    """Return k if it is an integer vertex of a rank-n matrix, else raise
    ValueError: every mutation rule checks its direction here."""
    if not 1 <= require_int(k, "vertex") <= n:
        raise ValueError(f"vertex {k} out of range 1..{n}")
    return k


@dataclass(frozen=True)
class ExchangeMatrix:
    """Skew-symmetric integer matrix, vertices numbered 1..n."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rows = self.rows
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
        # the diagonal and the upper triangle against the lower one
        for i, row in enumerate(rows):
            for j in range(i, n):
                if row[j] != -rows[j][i]:
                    raise ValueError("matrix must be skew-symmetric")

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> ExchangeMatrix:
        """Matrix from a list of rows of ints, the shape JSON gives.

        Entries are never coerced: a bool, float or string entry raises
        ValueError naming it, so a weight of 2.9 cannot load as 2.
        """
        if not isinstance(rows, list):
            raise ValueError(f"b must be a list of rows, got {type(rows).__name__}")
        for i, row in enumerate(rows, 1):
            if not isinstance(row, list):
                raise ValueError(f"row {i} of b must be a list, got {type(row).__name__}")
            for j, x in enumerate(row, 1):
                require_int(x, f"b[{i}][{j}]")
        return cls(tuple(tuple(row) for row in rows))

    @property
    def n(self) -> int:
        return len(self.rows)

    def b(self, i: Vertex, j: Vertex) -> int:
        """Entry b[i][j], 1-based."""
        return self.rows[i - 1][j - 1]

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def mutate(self, k: Vertex) -> ExchangeMatrix:
        """Mutation at vertex k.

        Entries in row or column k flip sign; every other entry picks up
        the correction term (|b_ik| b_kj + b_ik |b_kj|) / 2, which is an
        exact integer because the two summands are equal or cancel.
        Mutation at the same vertex twice is the identity.
        """
        ki = require_vertex(k, self.n) - 1
        row_k = self.rows[ki]
        new = []
        # the correction is |b_ik| b_kj when b_kj has the sign of b_ik, else 0
        for i, row_i in enumerate(self.rows):
            bik = row_i[ki]
            if i == ki:
                new.append(tuple([-x for x in row_i]))
                continue
            if bik > 0:
                row = [x + bik * y if y > 0 else x for x, y in zip(row_i, row_k)]
            elif bik < 0:
                row = [x - bik * y if y < 0 else x for x, y in zip(row_i, row_k)]
            else:
                new.append(tuple(row_i))
                continue
            row[ki] = -bik
            new.append(tuple(row))
        return ExchangeMatrix(tuple(new))

    # A matrix is immutable, so it finds its decreasing directions and
    # tests itself for cycles once; decreasing_directions,
    # separating_vertex and is_acyclic read these.

    @cached_property
    def _acyclic(self) -> bool:
        indeg = [0] * self.n
        for i in range(self.n):
            for j in range(self.n):
                if self.rows[i][j] > 0:
                    indeg[j] += 1
        queue = [v for v in range(self.n) if indeg[v] == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for w in range(self.n):
                if self.rows[v][w] > 0:
                    indeg[w] -= 1
                    if indeg[w] == 0:
                        queue.append(w)
        return seen == self.n

    @cached_property
    def _decreasing(self) -> tuple[Vertex, ...]:
        return tuple(k for k in self.vertices() if _decreases(self.rows, k))

    def is_acyclic(self) -> bool:
        """True when the digraph with an arrow i -> j for b[i][j] > 0 has
        no directed cycle.  A matrix decides this once, on first use."""
        return self._acyclic

    def is_two_complete(self) -> bool:
        return all(
            abs(self.rows[i][j]) >= 2
            for i in range(self.n)
            for j in range(i + 1, self.n)
        )

    def max_weight(self) -> int:
        if self.n < 2:
            return 0
        return max(
            abs(self.rows[i][j]) for i in range(self.n) for j in range(i + 1, self.n)
        )

    @classmethod
    def from_json(cls, data: dict) -> ExchangeMatrix:
        if not isinstance(data, dict) or "b" not in data:
            raise ValueError('a quiver must be a JSON object with a "b" field')
        mat = cls.from_rows(data["b"])
        if "n" in data and require_int(data["n"], "n") != mat.n:
            raise ValueError("field n disagrees with matrix size")
        return mat


def _decreases(rows, k: Vertex) -> bool:
    """True when mutating at k shrinks some weight |b_ij| and grows none.

    Entries in row or column k only flip sign, and the correction term
    (|b_ik| b_kj + b_ik |b_kj|) / 2 vanishes unless b_ik and b_kj have one
    sign: up to transposing the pair, an arrow i -> k and an arrow k -> j,
    and then b_ij picks up b_ik b_kj.  Only those weights are compared.
    """
    row_k = rows[k - 1]
    heads = [j for j, bkj in enumerate(row_k) if bkj > 0]
    shrank = False
    for i, bki in enumerate(row_k):
        if bki >= 0:
            continue
        row_i = rows[i]
        for j in heads:
            before = abs(row_i[j])
            after = abs(row_i[j] - bki * row_k[j])
            if after > before:
                return False
            shrank |= after < before
    return shrank


def decreasing_directions(matrix: ExchangeMatrix) -> list[Vertex]:
    """Directions whose mutation shrinks some weight and grows none.  A
    matrix finds them once, on first use, and keeps the answer."""
    return list(matrix._decreasing)


def separating_vertex(
    matrix: ExchangeMatrix,
) -> tuple[Vertex, frozenset[Vertex], frozenset[Vertex]]:
    """Separating vertex of a non-acyclic 2-complete matrix in a
    mutation-acyclic class.

    Returns (k, I, J) where k is the unique decreasing direction,
    I = {i : b[i][k] > 0} (arrows into k) and J = {j : b[j][k] < 0}
    (arrows out of k).  Every arrow between the two sides points from J
    to I, so reversing the I-J arrows makes the matrix acyclic.
    """
    decs = decreasing_directions(matrix)
    if not decs:
        raise NoDecreasingMutation("no direction decreases the weights")
    if len(decs) > 1:
        raise MultipleDecreasingMutations(f"directions {decs} all decrease")
    k = decs[0]
    side_i = frozenset(v for v in matrix.vertices() if matrix.b(v, k) > 0)
    side_j = frozenset(v for v in matrix.vertices() if matrix.b(v, k) < 0)
    return k, side_i, side_j


def acyclic_representative(
    matrix: ExchangeMatrix,
) -> tuple[ExchangeMatrix, tuple[Vertex, ...]]:
    """Follow the decreasing direction until the matrix is acyclic.

    The total weight strictly drops at each step, so the walk terminates.
    Returns (acyclic matrix, path of mutated vertices).  Each step is the
    separating vertex, so a non-acyclic matrix with no decreasing direction
    raises NoDecreasingMutation, and out-of-class input with several raises
    MultipleDecreasingMutations.
    """
    current = matrix
    path: list[Vertex] = []
    while not current.is_acyclic():
        k = separating_vertex(current)[0]
        path.append(k)
        current = current.mutate(k)
    return current, tuple(path)


def _tournament_order(rows) -> tuple[Vertex, ...]:
    # in a complete acyclic orientation the out-degrees are n-1, n-2, .., 0;
    # an arrow from each vertex to every later one proves the rows are one
    n = len(rows)
    order = sorted(range(n), key=lambda v: -sum(x > 0 for x in rows[v]))
    for a in range(n):
        for b in range(a + 1, n):
            if rows[order[a]][order[b]] <= 0:
                raise IncompleteTournament(
                    f"vertices {order[a] + 1} and {order[b] + 1} are not ordered by an arrow"
                )
    return tuple(v + 1 for v in order)


def natural_order(matrix: ExchangeMatrix) -> tuple[Vertex, ...]:
    """Unique source-to-sink total order on the vertices.

    For an acyclic 2-complete matrix this is the topological order of the
    arrow tournament.  For a non-acyclic matrix in a mutation-acyclic
    class, reversing the arrows between the two sides of the separating
    vertex, in a copy of the rows, yields an acyclic tournament, whose
    order is used.  Rows that do not order every pair of vertices by an
    arrow, before or after the reversal, raise IncompleteTournament.
    """
    if matrix.is_acyclic():
        return _tournament_order(matrix.rows)
    _, side_i, side_j = separating_vertex(matrix)
    rows = [list(row) for row in matrix.rows]
    for i in side_i:
        for j in side_j:
            rows[i - 1][j - 1] = -rows[i - 1][j - 1]
            rows[j - 1][i - 1] = -rows[j - 1][i - 1]
    return _tournament_order(rows)


def normalized(matrix: ExchangeMatrix) -> tuple[ExchangeMatrix, tuple[Vertex, ...]]:
    """Relabel an acyclic 2-complete matrix so that b[i][j] > 0 for i < j.

    Returns (relabeled matrix, permutation); entry a of the permutation is
    the old vertex now called a+1.
    """
    if not matrix.is_acyclic():
        raise NotAcyclic("only acyclic matrices are normalized")
    order = _tournament_order(matrix.rows)
    rows = tuple(
        tuple(matrix.b(order[a], order[b]) for b in range(matrix.n))
        for a in range(matrix.n)
    )
    return ExchangeMatrix(rows), order


def random_acyclic_two_complete(
    n: int, rng: random.Random, low: int = 2, high: int = 5
) -> ExchangeMatrix:
    """Normalized random matrix: b[i][j] uniform in [low, high] for i < j."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = rng.randint(low, high)
            rows[i][j] = w
            rows[j][i] = -w
    return ExchangeMatrix.from_rows(rows)
