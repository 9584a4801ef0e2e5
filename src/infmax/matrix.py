"""Explicit sparse item-to-element utility matrices.

Entries are (item, element, utility) triples with positive finite
utilities; absent pairs mean utility zero.  Elements may carry positive
finite weights (default 1) that scale their contribution to influence.
"""

import math
from functools import cached_property
from typing import Iterable, Sequence


class SparseUtilityMatrix:
    """Utilities stored by item: rows[i] lists item i's (element, utility)
    pairs in entry order, and m counts them.

    Each entry is checked in turn for an id out of range, then a utility
    that is not positive and finite, then an (item, element) pair seen
    before; the first failure raises ValueError.  The rows are all lazy
    greedy reads; cols and sorted_cols are derived from them on first use.
    """

    def __init__(
        self,
        n_items: int,
        n_elements: int,
        entries: Iterable[tuple[int, int, float]],
        element_weights: Sequence[float] | None = None,
    ):
        if n_items <= 0 or n_elements <= 0:
            raise ValueError("matrix dimensions must be positive")
        self.n_items = n_items
        self.n_elements = n_elements
        rows: list[list[tuple[int, float]]] = [[] for _ in range(n_items)]
        # duplicates are keyed on the int i * n_elements + j: an (i, j) key
        # tuple shares the row tuples' allocator size class, so one made
        # between each two of them would spread a row's tuples apart
        seen = set()
        m = 0
        inf = math.inf
        for i, j, u in entries:
            if not (0 <= i < n_items) or not (0 <= j < n_elements):
                raise ValueError(f"entry ({i}, {j}) out of range")
            if not 0.0 < u < inf:  # also rejects NaN
                raise ValueError(f"utility for ({i}, {j}) must be positive and finite")
            key = i * n_elements + j
            if key in seen:
                raise ValueError(f"duplicate entry ({i}, {j})")
            seen.add(key)
            rows[i].append((j, float(u)))
            m += 1
        self.rows = rows
        self.m = m
        if element_weights is None:
            self.element_weights = [1.0] * n_elements
        else:
            if len(element_weights) != n_elements:
                raise ValueError("one weight per element required")
            if not all(0.0 < w < math.inf for w in element_weights):
                raise ValueError("element weights must be positive and finite")
            self.element_weights = [float(w) for w in element_weights]

    @cached_property
    def cols(self) -> list[list[tuple[int, float]]]:
        """(item, utility) pairs of each element, in ascending item id.

        Built from the rows on first use; lazy greedy never reads them.
        """
        cols: list[list[tuple[int, float]]] = [[] for _ in range(self.n_elements)]
        for i, row in enumerate(self.rows):
            for j, u in row:
                cols[j].append((i, u))
        return cols

    @cached_property
    def sorted_cols(self) -> list[list[tuple[int, float]]]:
        """Columns for reverse sorted access: utility desc, id asc.

        Sorted on first use; lazy greedy never reads them.
        """
        return [sorted(col, key=lambda t: (-t[1], t[0])) for col in self.cols]

    def weight(self, j: int) -> float:
        return self.element_weights[j]

    def column_utilities(self, j: int, items: Iterable[int]) -> list[float]:
        """Utilities of the given items at element j (zeros dropped)."""
        lookup = dict(self.cols[j])
        return [lookup[i] for i in items if i in lookup]
