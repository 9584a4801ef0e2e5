"""Explicit sparse item-to-element utility matrices.

Entries are (item, element, utility) triples with positive finite
utilities; absent pairs mean utility zero.  Elements may carry positive
finite weights (default 1) that scale their contribution to influence.
"""

import math
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence


class SparseUtilityMatrix:
    """Utilities stored by item as two parallel lists: elements[i] and
    utilities[i] list item i's entries in entry order, and m counts them.

    Each entry is checked in turn for an id out of range, then a utility
    that is not positive and finite, then an (item, element) pair seen
    before; the first failure raises ValueError.  The two lists are all
    lazy greedy and forward streams read; only sorted_cols, the columns
    reverse streams read, is derived from them, on first use.
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
        elements: list[list[int]] = [[] for _ in range(n_items)]
        utilities: list[list[float]] = [[] for _ in range(n_items)]
        # duplicates are keyed on the int i * n_elements + j, which is
        # smaller than an (i, j) tuple
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
            elements[i].append(j)
            utilities[i].append(float(u))
            m += 1
        self.elements = elements
        self.utilities = utilities
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
    def sorted_cols(self) -> list[list[tuple[int, float]]]:
        """(item, utility) pairs of each element for reverse sorted access:
        utility desc, id asc.

        Built on first use; lazy greedy never reads them.  Each column is
        filled in ascending item id and sorted stably, so equal utilities
        keep that order.
        """
        cols: list[list[tuple[int, float]]] = [[] for _ in range(self.n_elements)]
        for i, (row_e, row_u) in enumerate(zip(self.elements, self.utilities)):
            for j, u in zip(row_e, row_u):
                cols[j].append((i, u))
        for col in cols:
            col.sort(key=itemgetter(1), reverse=True)
        return cols

    def weight(self, j: int) -> float:
        return self.element_weights[j]
