"""Independent output checks and the reference greedy behind quality_s50.

Everything here works on a workloads.Reference (utilities as sparse
triples built with scipy.sparse.csgraph and numpy) and on plain numpy
top-l aggregation; no library oracle or digest is used.
"""

import heapq

import numpy as np

REL_TOL = 1e-9


def insert_gain(tops: np.ndarray, x: np.ndarray, gamma: np.ndarray):
    """Insert x[r] into each descending row tops[r]; return new rows and gains.

    Row q of the result is max(tops[q], min(x, tops[q-1])) with
    tops[-1] = +inf, i.e. x slides in at its sorted position and pushes
    the smaller values one slot down; the gain is the gamma-weighted change.
    """
    upper = np.empty_like(tops)
    upper[:, 0] = np.inf
    upper[:, 1:] = tops[:, :-1]
    new = np.maximum(tops, np.minimum(x[:, None], upper))
    return new, (new - tops) @ gamma


def replay(ref, items) -> np.ndarray:
    """Exact marginal gain of each item in order, by numpy top-l aggregation."""
    tops = np.zeros((ref.n_elements, len(ref.gamma)))
    gains = np.empty(len(items))
    for step, i in enumerate(items):
        lo, hi = ref.indptr[i], ref.indptr[i + 1]
        elems = ref.elements[lo:hi]
        new, g = insert_gain(tops[elems], ref.utilities[lo:hi], ref.gamma)
        tops[elems] = new
        gains[step] = g.sum()
    return gains


def check_sequence(ref, seq) -> list[str]:
    """Problems found in one solve's output; empty when it is correct.

    Checks that items are distinct, that `cumulative` is the running sum
    of `gain` over the selected records (records below the lazy-greedy
    cutoff carry the final total), and that each selected record's gain
    equals the exact marginal gain recomputed by replay().
    """
    problems = []
    items = [r.item for r in seq]
    if len(set(items)) != len(items):
        problems.append("repeated items")
    if any(not 0 <= i < ref.n_items for i in items):
        return problems + ["item out of range"]
    chosen = [r for r in seq if not r.below_cutoff]
    if not chosen:
        return problems + ["empty sequence"]
    gains = np.array([r.gain for r in chosen])
    cumulative = np.array([r.cumulative for r in chosen])
    tol = REL_TOL * max(1.0, float(np.abs(cumulative).max()))
    if np.abs(np.cumsum(gains) - cumulative).max() > tol:
        problems.append("cumulative is not the running sum of gain")
    if any(abs(r.cumulative - cumulative[-1]) > tol for r in seq if r.below_cutoff):
        problems.append("records below the cutoff do not carry the final total")
    exact = replay(ref, [r.item for r in chosen])
    bad = np.flatnonzero(np.abs(exact - gains) > tol)
    if len(bad):
        s = int(bad[0])
        problems.append(f"step {s}: reported gain {float(gains[s])!r}, exact {float(exact[s])!r}")
    return problems


def greedy_influence(ref, steps: int) -> float:
    """Influence of the first `steps` picks of exact greedy.

    Lazy evaluation: marginal gains only shrink, so a popped item whose
    fresh gain still beats every other item's last known gain is the
    exact argmax (ties go to the lowest item id).
    """
    tops = np.zeros((ref.n_elements, len(ref.gamma)))
    owner = np.repeat(np.arange(ref.n_items), np.diff(ref.indptr))
    _, g = insert_gain(tops[ref.elements], ref.utilities, ref.gamma)
    heap = [(-b, i) for i, b in enumerate(np.bincount(owner, g, ref.n_items).tolist())]
    heapq.heapify(heap)
    total = 0.0
    for _ in range(min(steps, ref.n_items)):
        while True:
            _, i = heapq.heappop(heap)
            lo, hi = ref.indptr[i], ref.indptr[i + 1]
            elems = ref.elements[lo:hi]
            new, g = insert_gain(tops[elems], ref.utilities[lo:hi], ref.gamma)
            gain = g.sum()
            if not heap or gain >= -heap[0][0]:
                break
            heapq.heappush(heap, (-gain, i))
        tops[elems] = new
        total += gain
    return total


def quality(ref, seq, steps: int = 50) -> float:
    """Influence of the solve's first `steps` selected seeds over greedy's."""
    chosen = [r.item for r in seq if not r.below_cutoff][:steps]
    return float(replay(ref, chosen).sum()) / greedy_influence(ref, len(chosen))
