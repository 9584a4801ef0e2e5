"""Lazy approximate greedy maximization over an explicit utility matrix.

CELF-style lazy evaluation (Leskovec et al., KDD 2007) is the queue rule
of both maximizers: a priority bounds its item's current value (here the
marginal gain, in skim.py the estimate) and is pushed when first known or
when the value rises above it.  The top is refreshed until its fresh value
is at least its priority, (1 - epsilon) of it here, and is then the pick,
ties by ascending id; a top whose value fell is pushed back at it.  Gains
only shrink as seeds are added, so lazy greedy pushes only falls.
Computed gains carry rounding: a gain sums one w * marg(u) per row entry,
whose marg is within the digest's bound, so with t = ell + r + 1 for rows
of at most r entries and u = 2**-53 it is within a relative delta =
t * u / (1 - t * u) of the exact gain.  A stale priority therefore
upper-bounds an item's current gain only up to delta, not exactly.

Re-evaluating a popped item re-prices only the row entries whose element
digest was updated since the item was last priced; the other entries keep
their stored weighted marginal.  This is exact, because marg() is a pure
function of the digest's state and a digest changes only when a seed is
committed.  The gain is the sum of the same terms in row order, so every
gain and priority equals a full re-evaluation's bit for bit.  A row is
the matrix's pair of parallel lists, elements[i] and utilities[i]: the
re-pricing scan walks the elements and reads a utility only for a stale
entry, and a commit walks both together.

One stopping rule serves lazy greedy, oracles.exact_greedy and SKIM: the
first record is selected if its gain is positive, a later one only if its
gain exceeds first gain / n_items**2 (selection_cutoff).  Flagged records
carry the final cumulative: lazy and exact greedy flag every item left,
SKIM flags one validated seed and stops.  Gains are always floats.
"""

import heapq
from dataclasses import dataclass

from .aggregation import AggregationSpec, DigestTable
from .matrix import SparseUtilityMatrix


@dataclass
class SeedRecord:
    """One step of a greedy sequence."""

    item: int
    estimate: float | None  # priority/estimate at selection time, None if exact
    gain: float  # exact marginal influence when selected
    cumulative: float
    below_cutoff: bool = False  # not selected, by the rule of the module docstring


GreedySequence = list[SeedRecord]


def sequence_items(seq: GreedySequence) -> list[int]:
    return [r.item for r in seq if not r.below_cutoff]


def selection_cutoff(selected: GreedySequence, n_items: int) -> float:
    """The gain the next record must exceed to be selected."""
    return selected[0].gain / n_items ** 2 if selected else 0.0


def lazy_greedy(
    matrix: SparseUtilityMatrix,
    spec: AggregationSpec,
    epsilon: float = 0.0,
    stats: dict | None = None,
) -> GreedySequence:
    """Compute the full greedy sequence with lazily re-evaluated priorities.

    Every selected item's computed gain is at least (1 - epsilon) times
    its heap priority.  A priority upper-bounds the item's current gain
    up to the rounding delta of the module docstring, so at epsilon = 0
    the pick's exact gain is within a relative 2 * delta of the exact
    maximum over the items still in the heap.  Ties pop by ascending
    item id.  A popped item faces the stopping rule before the accept
    test.  stats gets "digest_ops", "pops" and "stop": "cutoff" if an
    item was flagged, else "exhausted".
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1)")
    if matrix.m == 0:
        if stats is not None:
            stats.update(digest_ops=0, pops=0, stop="exhausted")
        return []
    digests = DigestTable(matrix.n_elements, spec)
    weights = matrix.element_weights
    elements, utilities = matrix.elements, matrix.utilities
    # terms[i][k] is weights[j] * marg(u) for j, u = elements[i][k],
    # utilities[i][k], priced when priced[i] seeds were committed;
    # updated[j] is the seed count at element j's last update.  Against an
    # empty digest marg(u) is u, so the terms start as w * u.
    terms = [[weights[j] * u for j, u in zip(row, us)] for row, us in zip(elements, utilities)]
    priced = [0] * matrix.n_items
    updated = [0] * matrix.n_elements
    heap = [(-sum(t, 0.0), i) for i, t in enumerate(terms)]  # keys distinct: order is fixed
    heapq.heapify(heap)

    seq: GreedySequence = []
    dropped: GreedySequence = []
    cutoff = selection_cutoff(seq, matrix.n_items)
    cumulative = 0.0
    n_seeds = 0
    pops = 0
    digest_ops = 0
    while heap:
        neg_p, i = heapq.heappop(heap)
        priority = -neg_p
        pops += 1
        row, t, since = elements[i], terms[i], priced[i]
        if since < n_seeds:
            us = utilities[i]
            for k, j in enumerate(row):
                if updated[j] > since:
                    t[k] = weights[j] * digests[j].marg(us[k])
                    digest_ops += 1
            priced[i] = n_seeds
        gain = sum(t, 0.0)
        if gain <= cutoff:
            dropped.append(SeedRecord(i, priority, gain, cumulative, below_cutoff=True))
        elif gain >= (1.0 - epsilon) * priority:
            n_seeds += 1
            for j, u in zip(row, utilities[i]):
                digests[j].update(u)
                updated[j] = n_seeds
            digest_ops += len(row)
            cumulative += gain
            seq.append(SeedRecord(i, priority, gain, cumulative))
            cutoff = selection_cutoff(seq, matrix.n_items)
        else:
            heapq.heappush(heap, (-gain, i))
    for rec in dropped:
        rec.cumulative = cumulative
    if stats is not None:
        stats["digest_ops"] = digest_ops
        stats["pops"] = pops
        stats["stop"] = "cutoff" if dropped else "exhausted"
    return seq + dropped
