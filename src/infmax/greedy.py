"""Lazy approximate greedy maximization over an explicit utility matrix.

CELF-style lazy evaluation: items sit in a max heap keyed by their
marginal influence when last evaluated.  Since marginal influence only
shrinks as seeds are added, a popped item whose fresh gain is within
(1 - epsilon) of its stale priority is guaranteed to be an approximate
argmax and is selected on the spot.

Re-evaluating a popped item re-prices only the row entries whose element
digest was updated since the item was last priced; the other entries keep
their stored weighted marginal.  This is exact, because marg() is a pure
function of the digest's state and a digest changes only when a seed is
committed.  The gain is the sum of the same terms in row order, so every
gain and priority equals a full re-evaluation's bit for bit.
"""

import heapq
from dataclasses import dataclass

from .aggregation import AggregationSpec, UtilityDigest
from .matrix import SparseUtilityMatrix


@dataclass
class SeedRecord:
    """One step of a greedy sequence."""

    item: int
    estimate: float | None  # priority/estimate at selection time, None if exact
    gain: float  # exact marginal influence when selected
    cumulative: float
    below_cutoff: bool = False


GreedySequence = list[SeedRecord]


def sequence_items(seq: GreedySequence, selected_only: bool = True) -> list[int]:
    return [r.item for r in seq if not (selected_only and r.below_cutoff)]


def lazy_greedy(
    matrix: SparseUtilityMatrix,
    spec: AggregationSpec,
    epsilon: float = 0.0,
    stats: dict | None = None,
) -> GreedySequence:
    """Compute the full greedy sequence with lazily re-evaluated priorities.

    Every selected item has exact marginal influence at least
    (1 - epsilon) times its heap priority, which upper-bounds the true
    maximum; ties pop by ascending item id.  Items whose gain falls to at
    most max_single/n_items^2 are dropped from the heap and appended at
    the end flagged below_cutoff, so the result is a full permutation.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1)")
    if matrix.m == 0:
        return []
    digests = [UtilityDigest(spec) for _ in range(matrix.n_elements)]
    weights = matrix.element_weights
    rows = matrix.rows
    # terms[i][k] is weights[j] * marg(u) for the k-th entry (j, u) of
    # rows[i], priced when priced[i] seeds were committed; updated[j] is
    # the seed count at element j's last update.  Against an empty digest
    # marg(u) is u, so the terms start as w * u.
    terms = [[weights[j] * u for j, u in row] for row in rows]
    priced = [0] * matrix.n_items
    updated = [0] * matrix.n_elements

    heap = []  # (-priority, item)
    max_single = 0.0
    for i, t in enumerate(terms):
        p = sum(t)  # singleton influence
        max_single = max(max_single, p)
        heapq.heappush(heap, (-p, i))
    cutoff = max_single / (matrix.n_items ** 2)

    seq: GreedySequence = []
    dropped: GreedySequence = []
    cumulative = 0.0
    n_seeds = 0
    pops = 0
    digest_ops = 0
    while heap:
        neg_p, i = heapq.heappop(heap)
        priority = -neg_p
        pops += 1
        row, t, since = rows[i], terms[i], priced[i]
        if since < n_seeds:
            for k, (j, u) in enumerate(row):
                if updated[j] > since:
                    t[k] = weights[j] * digests[j].marg(u)
                    digest_ops += 1
            priced[i] = n_seeds
        gain = sum(t)
        if gain >= (1.0 - epsilon) * priority:
            n_seeds += 1
            for j, u in row:
                digests[j].update(u)
                updated[j] = n_seeds
            digest_ops += len(row)
            cumulative += gain
            seq.append(SeedRecord(i, priority, gain, cumulative))
        elif gain > cutoff:
            heapq.heappush(heap, (-gain, i))
        else:
            dropped.append(SeedRecord(i, priority, gain, cumulative, below_cutoff=True))
    for rec in dropped:
        rec.cumulative = cumulative
    if stats is not None:
        stats["digest_ops"] = digest_ops
        stats["pops"] = pops
    return seq + dropped
