"""Oracle contracts over explicit matrices plus brute-force baselines.

Two access patterns drive the sketch-based maximizer:

* reverse sorted access: for one element, stream (item, utility) pairs by
  non-increasing utility;
* forward search: for one item, stream every element where the item still
  has positive marginal utility given the current digests, with the
  utility and that marginal.

One stream pair, RevStream and ForwardStream, serves the matrix oracles
here and the graph oracles in graphs.py.  The slow, obviously-correct
references (exact influence by enumeration, exact greedy by full
recomputation, exhaustive optimum) are the test baselines.
"""

import itertools
from typing import Iterable, Iterator

from .aggregation import AggregationSpec, DigestTable, StaleStreamError, aggregate
from .greedy import GreedySequence, SeedRecord
from .matrix import SparseUtilityMatrix


class RevStream:
    """Peekable single-pass stream over an iterator of (item, utility)
    pairs by non-increasing utility: a sorted matrix column or a graph
    search.  top() peeks, pop() consumes; both return None once the
    stream is exhausted or closed."""

    __slots__ = ("_pairs", "_head")

    def __init__(self, pairs: Iterator[tuple[int, float]]):
        self._pairs = pairs
        self._head: tuple[int, float] | None = None

    def top(self) -> tuple[int, float] | None:
        if self._head is None:
            self._head = next(self._pairs, None)
        return self._head

    def pop(self) -> tuple[int, float] | None:
        t = self._head
        if t is None:
            return next(self._pairs, None)
        self._head = None
        return t

    def close(self) -> None:
        self._pairs = iter(())
        self._head = None


class ForwardStream:
    """Iterator over the (element, utility, marginal) triples where an item
    still gains; the marginal is digests[element].marg(utility), computed
    once by the search's yield test.

    search(stream) generates the triples and counts the entries or nodes it
    examines in stream.visited.  Iterating after another seed has been
    committed to the digest table raises StaleStreamError.
    """

    def __init__(self, digests: DigestTable, search):
        self._digests = digests
        self._version = digests.version
        self.visited = 0
        self._pairs = search(self)

    def __iter__(self):
        return self

    def __next__(self) -> tuple[int, float, float]:
        if self._digests.version != self._version:
            raise StaleStreamError("forward search used after a seed was added")
        return next(self._pairs)


def matrix_rev_sorted_stream(matrix: SparseUtilityMatrix, j: int) -> RevStream:
    """Column j by non-increasing utility, ties by ascending item id."""
    if not 0 <= j < matrix.n_elements:
        raise ValueError(f"unknown element {j}")
    return RevStream(iter(matrix.sorted_cols[j]))


def matrix_forward_search(
    matrix: SparseUtilityMatrix, i: int, digests: DigestTable
) -> ForwardStream:
    """Entries of row i whose element still gains from the item, with the gain."""
    if not 0 <= i < matrix.n_items:
        raise ValueError(f"unknown item {i}")

    def scan(stream):
        for j, u in matrix.rows[i]:
            stream.visited += 1
            c = digests[j].marg(u)
            if c > 0.0:
                yield j, u, c

    return ForwardStream(digests, scan)


class MatrixProblem:
    """Oracle bundle over an explicit matrix, as consumed by the maximizer."""

    def __init__(self, matrix: SparseUtilityMatrix, spec: AggregationSpec):
        self.matrix = matrix
        self.spec = spec
        self.n_items = matrix.n_items
        self.n_elements = matrix.n_elements

    def weight(self, j: int) -> float:
        return self.matrix.weight(j)

    def rev_stream(self, j: int) -> RevStream:
        return matrix_rev_sorted_stream(self.matrix, j)

    def forward_stream(self, i: int, digests: DigestTable) -> ForwardStream:
        return matrix_forward_search(self.matrix, i, digests)


def exact_influence(
    matrix: SparseUtilityMatrix, spec: AggregationSpec, seeds: Iterable[int]
) -> float:
    """Influence of a seed set by direct enumeration (no digests)."""
    seed_list = list(seeds)
    total = 0.0
    for j in range(matrix.n_elements):
        vals = matrix.column_utilities(j, seed_list)
        if vals:
            total += matrix.weight(j) * aggregate(spec, vals)
    return total


def exact_greedy(matrix: SparseUtilityMatrix, spec: AggregationSpec) -> GreedySequence:
    """Greedy sequence by full recomputation each step; ties by ascending id.

    Quadratic reference used to validate the lazy implementation.
    """
    remaining = list(range(matrix.n_items))
    seq: GreedySequence = []
    selected: list[int] = []
    current = 0.0
    while remaining:
        best_i, best_gain = None, None
        for i in remaining:
            gain = exact_influence(matrix, spec, selected + [i]) - current
            if best_gain is None or gain > best_gain:
                best_i, best_gain = i, gain
        selected.append(best_i)
        remaining.remove(best_i)
        current += best_gain
        seq.append(SeedRecord(best_i, None, best_gain, current))
    return seq


def optimal_subset(
    matrix: SparseUtilityMatrix, spec: AggregationSpec, s: int
) -> tuple[tuple[int, ...], float]:
    """Exhaustive maximum of influence over all size-s seed sets."""
    if s <= 0:
        raise ValueError("subset size must be positive")
    if matrix.n_items > 20:
        raise ValueError("exhaustive search capped at 20 items")
    s = min(s, matrix.n_items)
    best_set, best_val = None, None
    for combo in itertools.combinations(range(matrix.n_items), s):
        val = exact_influence(matrix, spec, combo)
        if best_val is None or val > best_val:
            best_set, best_val = combo, val
    return best_set, best_val
