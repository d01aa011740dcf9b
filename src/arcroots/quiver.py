"""Exchange matrices and quiver mutation.

A quiver without loops or oriented 2-cycles is encoded by its skew-symmetric
exchange matrix B: b[i][j] > 0 means b[i][j] arrows from i to j.  Vertices
are numbered 1..n in the API; the underlying storage is 0-based row tuples.
Entries are plain Python integers because mutation can grow weights beyond
any fixed machine width.

A matrix is 2-complete when every off-diagonal weight |b[i][j]| is at least
2.  For 2-complete matrices whose mutation class contains an acyclic one,
weight comparison classifies each mutation direction as increasing,
decreasing, neutral, or mixed, and repeatedly following the decreasing
direction reaches an acyclic representative.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .errors import (
    IncompleteTournament,
    MultipleDecreasingMutations,
    NoDecreasingMutation,
    NotAcyclic,
    NotMutationAcyclic,
)

Vertex = int


@dataclass(frozen=True)
class ExchangeMatrix:
    """Skew-symmetric integer matrix, vertices numbered 1..n."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.rows)
        for row in self.rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
        for i in range(n):
            for j in range(n):
                if self.rows[i][j] != -self.rows[j][i]:
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
                if isinstance(x, bool) or not isinstance(x, int):
                    raise ValueError(f"b[{i}][{j}] = {x!r} is not an integer")
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
        if not 1 <= k <= self.n:
            raise ValueError(f"vertex {k} out of range 1..{self.n}")
        ki = k - 1
        new = []
        for i in range(self.n):
            row = []
            for j in range(self.n):
                if i == ki or j == ki:
                    row.append(-self.rows[i][j])
                else:
                    bik = self.rows[i][ki]
                    bkj = self.rows[ki][j]
                    row.append(self.rows[i][j] + (abs(bik) * bkj + bik * abs(bkj)) // 2)
            new.append(tuple(row))
        return ExchangeMatrix(tuple(new))

    def mutate_path(self, path) -> ExchangeMatrix:
        out = self
        for k in path:
            out = out.mutate(k)
        return out

    def is_acyclic(self) -> bool:
        """True when the digraph with an arrow i -> j for b[i][j] > 0 has
        no directed cycle."""
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

    def to_json(self) -> dict:
        return {"n": self.n, "b": [list(row) for row in self.rows]}

    @classmethod
    def from_json(cls, data: dict) -> ExchangeMatrix:
        if not isinstance(data, dict) or "b" not in data:
            raise ValueError('a quiver must be a JSON object with a "b" field')
        mat = cls.from_rows(data["b"])
        if "n" in data and data["n"] != mat.n:
            raise ValueError("field n disagrees with matrix size")
        return mat


class MutationKind(Enum):
    """How mutation at one vertex moves the absolute weights, compared
    entrywise over unordered pairs."""

    INCREASING = "increasing"
    DECREASING = "decreasing"
    NEUTRAL = "neutral"
    MIXED = "mixed"


def classify_mutation(matrix: ExchangeMatrix, k: Vertex) -> MutationKind:
    """Compare |b| before and after mutating at k.

    Increasing: some weight grows, none shrinks.  Decreasing: some weight
    shrinks, none grows.  Neutral: all weights equal.  Mixed: both.
    Sink and source mutations only flip signs, so they are neutral.
    """
    mutated = matrix.mutate(k)
    grew = shrank = False
    for i in range(matrix.n):
        for j in range(i + 1, matrix.n):
            before = abs(matrix.rows[i][j])
            after = abs(mutated.rows[i][j])
            if after > before:
                grew = True
            elif after < before:
                shrank = True
    if grew and shrank:
        return MutationKind.MIXED
    if grew:
        return MutationKind.INCREASING
    if shrank:
        return MutationKind.DECREASING
    return MutationKind.NEUTRAL


def decreasing_directions(matrix: ExchangeMatrix) -> list[Vertex]:
    return [
        k
        for k in matrix.vertices()
        if classify_mutation(matrix, k) is MutationKind.DECREASING
    ]


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
    Returns (acyclic matrix, path of mutated vertices).  Raises
    NotMutationAcyclic when a non-acyclic matrix has no decreasing
    direction, and MultipleDecreasingMutations on out-of-class input.
    """
    current = matrix
    path: list[Vertex] = []
    while not current.is_acyclic():
        decs = decreasing_directions(current)
        if not decs:
            raise NotMutationAcyclic(
                "non-acyclic matrix with no decreasing direction"
            )
        if len(decs) > 1:
            raise MultipleDecreasingMutations(f"directions {decs} all decrease")
        path.append(decs[0])
        current = current.mutate(decs[0])
    return current, tuple(path)


def _tournament_order(matrix: ExchangeMatrix) -> tuple[Vertex, ...]:
    # in a complete acyclic orientation the out-degrees are n-1, n-2, .., 0
    outdeg = {
        v: sum(1 for w in matrix.vertices() if matrix.b(v, w) > 0)
        for v in matrix.vertices()
    }
    order = tuple(sorted(matrix.vertices(), key=lambda v: -outdeg[v]))
    for a in range(matrix.n):
        for b in range(a + 1, matrix.n):
            if matrix.b(order[a], order[b]) <= 0:
                raise IncompleteTournament(
                    f"vertices {order[a]} and {order[b]} are not ordered by an arrow"
                )
    return order


def natural_order(matrix: ExchangeMatrix) -> tuple[Vertex, ...]:
    """Unique source-to-sink total order on the vertices.

    For an acyclic 2-complete matrix this is the topological order of the
    arrow tournament.  For a non-acyclic matrix in a mutation-acyclic
    class, reversing the arrows between the two sides of the separating
    vertex yields an acyclic matrix, whose order is used.
    """
    if matrix.is_acyclic():
        return _tournament_order(matrix)
    _, side_i, side_j = separating_vertex(matrix)
    rows = [list(row) for row in matrix.rows]
    for i in side_i:
        for j in side_j:
            rows[i - 1][j - 1] = -rows[i - 1][j - 1]
            rows[j - 1][i - 1] = -rows[j - 1][i - 1]
    flipped = ExchangeMatrix.from_rows(rows)
    if not flipped.is_acyclic():
        raise NotAcyclic("arrow reversal did not produce an acyclic matrix")
    return _tournament_order(flipped)


def normalized(matrix: ExchangeMatrix) -> tuple[ExchangeMatrix, tuple[Vertex, ...]]:
    """Relabel an acyclic 2-complete matrix so that b[i][j] > 0 for i < j.

    Returns (relabeled matrix, permutation); entry a of the permutation is
    the old vertex now called a+1.
    """
    if not matrix.is_acyclic():
        raise NotAcyclic("only acyclic matrices are normalized")
    order = _tournament_order(matrix)
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
