"""Shared generators for randomized fixtures (all explicitly seeded), and
the loader the script tests import scripts/ with."""

import importlib
import os
import random
import sys
from fractions import Fraction

from hypothesis import settings

from infmax import DirectedGraph, GraphInstanceSet, SparseUtilityMatrix

# every run draws the same examples and keeps no example database, so the
# suite is deterministic; no deadline, because a loaded shared host can
# slow any single example past one
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

SCRIPTS = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir, "scripts"))


def load_script(name: str):
    """scripts/<name>.py as a module, with scripts/ on sys.path for the
    helpers the scripts share (scripts/trees.py)."""
    if SCRIPTS not in sys.path:
        sys.path.insert(0, SCRIPTS)
    return importlib.import_module(name)


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


def row(matrix: SparseUtilityMatrix, i: int) -> list[tuple[int, float]]:
    """Item i's (element, utility) pairs, in entry order."""
    return list(zip(matrix.elements[i], matrix.utilities[i]))


def column(matrix: SparseUtilityMatrix, j: int, items=None) -> list[tuple[int, float]]:
    """(item, utility) pairs at element j, in the order of items (ascending
    item id by default); an item with no entry there is left out.  Read
    from the rows, independently of sorted_cols, for brute-force references."""
    pairs = []
    for i in range(matrix.n_items) if items is None else items:
        elements = matrix.elements[i]
        if j in elements:
            pairs.append((i, matrix.utilities[i][elements.index(j)]))
    return pairs


def column_utilities(matrix: SparseUtilityMatrix, j: int, items) -> list[float]:
    """Utilities of the given items at element j, in the items' order;
    an item with no entry there is left out."""
    return [u for _, u in column(matrix, j, items)]


def singleton_influence(matrix: SparseUtilityMatrix, i: int) -> float:
    """Influence of {i} alone: the weighted sum of its row, in row order."""
    return sum(matrix.element_weights[j] * u for j, u in row(matrix, i))


def compensated_sum(values, start=0.0) -> float:
    """Python 3.12's float sum(): Neumaier compensation (CPython gh-100425),
    patched in for sum() to show which results would change from 3.12 on."""
    total, comp = float(start), 0.0
    for x in values:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp


def exact_value(spec, values) -> Fraction:
    """The aggregation of values in exact rationals."""
    ordered = sorted(values, reverse=True)
    return sum((Fraction(g) * Fraction(v) for g, v in zip(spec.gamma, ordered)), Fraction(0))
