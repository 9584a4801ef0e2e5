"""Shared generators for randomized fixtures (all explicitly seeded)."""

import random
from fractions import Fraction

from hypothesis import settings

from infmax import DirectedGraph, GraphInstanceSet, SparseUtilityMatrix

# every run draws the same examples and keeps no example database, so the
# suite is deterministic; no deadline, because a loaded shared host can
# slow any single example past one
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def random_matrix(
    rng: random.Random,
    n_items: int,
    n_elements: int,
    density: float = 0.5,
    private: bool = False,
) -> SparseUtilityMatrix:
    """Random sparse utility matrix.

    With private=True every item also gets one exclusive element with a
    sizeable utility, which keeps its marginal gain comfortably above the
    lazy-greedy drop cutoff at any point of the run.
    """
    total_elements = n_elements + (n_items if private else 0)
    entries = []
    for i in range(n_items):
        for j in range(n_elements):
            if rng.random() < density:
                entries.append((i, j, 0.1 + rng.random()))
    if private:
        for i in range(n_items):
            entries.append((i, n_elements + i, 0.5 + rng.random()))
    if not entries:
        entries.append((0, 0, 1.0))
    return SparseUtilityMatrix(n_items, total_elements, entries)


def random_graph(rng: random.Random, n: int, avg_degree: float = 3.0) -> DirectedGraph:
    # dyadic weights in [0.2, 2.0]: path sums are exact in binary64, so
    # forward and transposed searches agree bit for bit
    m = int(n * avg_degree)
    edges = []
    for _ in range(m):
        s = rng.randrange(n)
        d = rng.randrange(n)
        if s != d:
            edges.append((s, d, rng.randrange(13, 129) / 64.0))
    return DirectedGraph(n, tuple(edges))


def random_instances(
    rng: random.Random, n: int, count: int, avg_degree: float = 3.0
) -> GraphInstanceSet:
    sets = []
    for _ in range(count):
        sets.append(list(random_graph(rng, n, avg_degree).edges))
    return GraphInstanceSet(n, sets)


def exact_value(spec, values) -> Fraction:
    """The aggregation of values in exact rationals."""
    ordered = sorted(values, reverse=True)
    return sum((Fraction(g) * Fraction(v) for g, v in zip(spec.gamma, ordered)), Fraction(0))
