"""Oracle contracts, the matrix problem bundle, the marginal-gain pair and
brute-force baselines.

Two access patterns drive the sketch-based maximizer:

* reverse sorted access: for one element, stream (item, utility) pairs by
  non-increasing utility;
* forward search: for one item, every element where the item still has
  positive marginal utility given the current digests, with the utility
  and that marginal.  The search runs whole at the stream's first read,
  so every read sees the digests as they were then.

A problem bundle (MatrixProblem here, GraphProblem in graphs.py) is the
only way into its oracles, rev_stream and forward_stream, built on one
stream pair; marg_gain and add_seed read either.  The slow, obviously-correct
references (exact influence by enumeration, exact greedy by full
recomputation, exhaustive optimum) are the test baselines.
"""

import itertools
from typing import Iterable, Iterator

from .aggregation import AggregationSpec, DigestTable, aggregate
from .greedy import GreedySequence, SeedRecord, selection_cutoff
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

    The first next() runs search() whole: it returns the triples and the
    number of entries or nodes it examined, kept as visited (the benchmark
    reads it as fwd_settles).  Every read sees the digests of the first.
    """

    __slots__ = ("_search", "_triples", "visited")

    def __init__(self, search):
        self._search = search
        self._triples = None
        self.visited = 0

    def __iter__(self):
        return self

    def __next__(self) -> tuple[int, float, float]:
        if self._triples is None:
            triples, self.visited = self._search()
            self._triples = iter(triples)
        return next(self._triples)


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
        """Column j by non-increasing utility, ties by ascending item id."""
        if not 0 <= j < self.n_elements:
            raise ValueError(f"unknown element {j}")
        return RevStream(iter(self.matrix.sorted_cols[j]))

    def forward_stream(self, i: int, digests: DigestTable) -> ForwardStream:
        """Entries of row i whose element still gains from the item, with the gain."""
        if not 0 <= i < self.n_items:
            raise ValueError(f"unknown item {i}")
        row = self.matrix.rows[i]

        def scan():
            return [(j, u, c) for j, u in row if (c := digests[j].marg(u)) > 0.0], len(row)

        return ForwardStream(scan)


def marg_gain(problem, i: int, digests: DigestTable) -> float:
    """Marginal influence of item i against the current digests; no mutation."""
    weight = problem.weight
    return sum((weight(j) * c for j, _, c in problem.forward_stream(i, digests)), 0.0)


def add_seed(problem, i: int, digests: DigestTable, seeds: set[int] | None = None) -> float:
    """Add item i to the seed set: fold its utilities into every digest it
    still improves and return the marginal gain.  A bad or repeated item
    raises ValueError and leaves seeds and digests as they were."""
    stream = problem.forward_stream(i, digests)  # checks i first
    if seeds is not None:
        if i in seeds:
            raise ValueError(f"item {i} is already a seed")
        seeds.add(i)
    weight = problem.weight
    gain = 0.0
    for j, u, c in stream:
        gain += weight(j) * c
        digests[j].update(u)
    return gain


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

    Every remaining item is priced with marg_gain against the digests of
    the items selected so far, and the best one is committed with
    add_seed.  A gain is a sum of digest marginals, never a difference of
    two influence totals, which would cancel when the totals dwarf it.
    Ends by greedy.py's stopping rule: once a step's best gain fails it,
    the items left are flagged in ascending id with the gains just
    computed.  Quadratic reference used to validate the lazy greedy.
    """
    problem = MatrixProblem(matrix, spec)
    digests = DigestTable(matrix.n_elements, spec)
    remaining = list(range(matrix.n_items)) if matrix.m else []  # no entries: []
    seq: GreedySequence = []
    current = 0.0
    while remaining:
        cutoff = selection_cutoff(seq, matrix.n_items)
        gains = [marg_gain(problem, i, digests) for i in remaining]
        best = max(range(len(remaining)), key=gains.__getitem__)  # first of equals
        if gains[best] <= cutoff:
            seq += [SeedRecord(i, None, g, current, True) for i, g in zip(remaining, gains)]
            break
        i = remaining.pop(best)
        gain = add_seed(problem, i, digests)
        current += gain
        seq.append(SeedRecord(i, None, gain, current))
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
