"""Sketch-based approximate greedy maximization over oracle access.

The maximizer never materializes the utility matrix.  It keeps, per item,
a weighted sample of the elements where the item still has marginal
utility.  Elements are assigned fixed random ranks r in (0, 1]; an
element belongs to item i's sample while w * (marginal utility) / r is
at least a global threshold tau, which halves at each step.  Halving
strictly lowers any positive double, subnormals included, so tau
reaches 0.0 by underflow and the run gets a final pass at tau = 0.
The sum of sampled marginal utilities clipped below at tau is an
unbiased estimate of the item's marginal influence, so once some item's
estimate reaches k * tau the estimate is trustworthy enough (relative
error about 1/sqrt(k)) to validate with one exact marginal-gain
computation and, if it holds up, commit the item as the next seed.

Samples are stored inverted: index[j] lists the items that sampled
element j as (item, utility, c) entries, in the utility order delivered
by the element's reverse sorted access stream, where c is the item's
weighted marginal utility w * marg(u) against the element's digest.
index, the digests, the reverse streams and the two counts below are
plain lists indexed by element id; an unsampled element's list is empty.
An element's slot in rev holds its stream only while the stream can
still be read: once it is retired (see below) or exhausted, nothing
requeues the element, so the slot is set to None and the search's heap,
labels or visited set are freed at once, not when the run returns.
A digest changes only when a seed is committed: move_down folds the
seed's utility in first and then prices each surviving entry once
against the updated digest, so a stored c is never stale and no pass
recomputes a marginal it already holds.  Until a seed reaches an
element, its digest holds no value and marg(u) is exactly u, as
gamma_0 = 1, so a drain prices such an entry as w * u without calling
the kernel.  A utility at or below the digest's threshold lies past the
last positive gamma coefficient, so its marginal is exactly zero: a
reverse stream is retired at the first such utility, and move_down stops
pricing at the first such entry, because utilities do not increase along
a list.  Two counts per element split the list into segments: entries
[0, nh[j]) are H (counted at face value), [nh[j], nm[j]) are M (below
tau but still sampled, counted as tau) and the rest are L (lapsed, kept
because a lower tau may revive them).

One method, _reclassify_up, assigns classes.  From the two counts on, it
promotes entries to H while their marginal c is at least tau, then to M
while c is at least r * tau, r being the element's rank; it adds each
promoted entry's contribution and marks its item dirty.  Run from (0, 0)
its two prefix loops are the value rule (H if c >= tau, M if c >=
r * tau, else L) with a cap that keeps any entry from ranking above the
one before it.  It then prices the element for move_up at the largest
tau at which a boundary entry changes class, max(c of its first M entry,
c of its first L entry / rank).  Three passes use it:

* move_up, after tau drops, runs it from the element's current counts;
* a drain only samples: it appends the entries it takes and runs the
  classifier over them, unless an L entry came before them, in which
  case they stay L;
* move_down, when a new seed lowers marginals, takes off the old
  contribution of every H and M entry, prices the rest once against the
  updated digest, sets both counts to 0 and runs the classifier.

An item with no H entry left has its est_h snapped to 0.0 once move_down
is done with an element, so cancellation residue never keeps a dead item
looking alive; only move_down lowers h_count, so only move_down snaps.
The item queue keeps upper bounds, by greedy.py's queue rule: take-offs,
snaps and a lower tau leave old priorities as bounds, and the classifier,
the only code that raises an estimate, marks its items dirty for _flush.

A seed is committed from the forward search that validated it.  Forward
streams yield (element, utility, marginal) triples, the marginal being
the one the search's yield test computed, so next_seed sums them
without pricing a pair again.  It returns the (element, utility) pairs
it consumed with the gain, and run commits those values at once, with
no digest changed in between, so the commit walks the pairs instead of
searching again.
"""

import heapq
import math

import numpy as np

from .aggregation import DigestTable
from .greedy import GreedySequence, SeedRecord, selection_cutoff


class LazyMaxQueue:
    """Max-priority queue with lazy revision: pushing a key again simply
    supersedes its old heap entries.

    The queue starts with the given (key, priority) pairs, built by one
    heapify; it pops as if they were pushed one at a time, a later pair
    of a key superseding an earlier one.
    """

    def __init__(self, pairs=()):
        self._prio: dict[int, float] = dict(pairs)
        self._heap = [(-p, key) for key, p in self._prio.items()]
        heapq.heapify(self._heap)

    def push(self, key: int, priority: float) -> None:
        if self._prio.get(key) == priority:
            return  # its live heap entry already says so
        self._prio[key] = priority
        heapq.heappush(self._heap, (-priority, key))

    def priority(self, key: int) -> float | None:
        return self._prio.get(key)

    def remove(self, key: int) -> None:
        self._prio.pop(key, None)

    def peek(self) -> tuple[float, int] | None:
        while self._heap:
            negp, key = self._heap[0]
            if self._prio.get(key) == -negp:
                return -negp, key
            heapq.heappop(self._heap)
        return None

    def pop(self) -> tuple[float, int] | None:
        t = self.peek()
        if t is None:
            return None
        heapq.heappop(self._heap)
        del self._prio[t[1]]
        return t


def permutation_ranks(order: np.ndarray) -> list[float]:
    """Element order[pos]'s rank (pos + 1) / n, by one numpy scatter.  Both
    this and Python's int / int are correctly rounded quotients of exact
    integers (n < 2**53), so each rank equals (pos + 1) / n bit for bit."""
    n = len(order)
    rank = np.empty(n)
    rank[order] = np.arange(1, n + 1) / n
    return rank.tolist()


def default_sample_size(epsilon: float, n_items: int, n_elements: int) -> int:
    """Sample-size parameter giving ~(1 - epsilon) selections w.h.p."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    return max(2, math.ceil(3.0 * epsilon ** -2 * math.log(n_items + n_elements)))


class SkimRun:
    """State machine for one maximization run; see run_skim for the API."""

    def __init__(
        self,
        problem,
        k: int,
        rng_seed: int = 0,
        rank_mode: str = "uniform",
        stats: dict | None = None,
    ):
        if k < 2:
            raise ValueError("sample-size parameter k must be at least 2")
        self.problem = problem
        self.k = k
        self.stats = stats if stats is not None else {}
        # every counter from zero, so a reused dict holds this run alone
        self.stats.update(forward_yields=0, rev_pops=0, exact_evals=0, tau=[])

        rng = np.random.default_rng(rng_seed)
        n_el = problem.n_elements
        if rank_mode == "uniform":
            self.rank = (1.0 - rng.random(n_el)).tolist()  # (0, 1]
        elif rank_mode == "permutation":
            self.rank = permutation_ranks(rng.permutation(n_el))
        else:
            raise ValueError(f"unknown rank mode {rank_mode!r}")

        self.digests = DigestTable(n_el, problem.spec)
        self.rev = [problem.rev_stream(j) for j in range(n_el)]
        self.index: list[list[tuple[int, float, float]]] = [[] for _ in range(n_el)]
        # index[j][:nh[j]] is H, index[j][nh[j]:nm[j]] is M, the rest is L
        self.nh = [0] * n_el
        self.nm = [0] * n_el
        self.est_h = [0.0] * problem.n_items
        self.est_m = [0] * problem.n_items
        # exact H-entry counts: when a count returns to zero the float
        # accumulator is snapped back to 0.0, so cancellation residue can
        # never keep a dead item looking alive
        self.h_count = [0] * problem.n_items
        self.qitems = LazyMaxQueue()
        self.qhml = LazyMaxQueue()
        self.dirty: set[int] = set()  # items touched since the last _flush
        self.seeds: set[int] = set()
        self.records: GreedySequence = []
        self.coverage = 0.0

        # every element enters qelements in one heapify, at its first
        # utility over its rank
        weight, rank = problem.weight, self.rank
        tops = [stream.top() for stream in self.rev]
        for j, t in enumerate(tops):
            if t is None:
                self.rev[j] = None  # empty: never drained
        self.qelements = LazyMaxQueue(
            [(j, weight(j) * t[1] / rank[j]) for j, t in enumerate(tops) if t is not None]
        )
        top = self.qelements.peek()
        # run halves tau before its first drain: at top / 2k one heavy
        # sample (rank >= 1/2) alone would reach k * tau and certify its
        # item.  A first tau that underflows still gets its pass, as a
        # halved one does; with no utility, tau is 0.0 and run ends at once.
        self.tau = (top[0] / (2.0 * k) or math.ulp(0.0)) if top is not None else 0.0

    # -- estimate bookkeeping ------------------------------------------------

    def _estimate(self, i: int) -> float:
        return self.est_h[i] + self.tau * self.est_m[i]

    def _flush(self) -> None:
        """Push each dirty item whose estimate rose above its priority, or
        that has none yet, at that estimate.  A seed is never pushed and
        next_seed pops it, so qitems holds no seed."""
        for i in self.dirty:
            p, est = self.qitems.priority(i), self._estimate(i)
            if i not in self.seeds and (p is None or est > p):
                self.qitems.push(i, est)
        self.dirty.clear()

    def _top(self) -> tuple[float, int] | None:
        """qitems' top at its fresh estimate, by greedy.py's queue rule; a
        demoted item, whose priority is the exact gain that failed its
        validation, comes back at its estimate."""
        q = self.qitems
        while (top := q.peek()) is not None:
            p, i = top
            est = self._estimate(i)
            if est >= p:
                return est, i
            q.push(i, est)
        return None

    # -- sampling ------------------------------------------------------------

    def _due(self, queue: LazyMaxQueue) -> list[int]:
        """Pop every key whose priority reached tau, highest first.

        All are popped before any is processed, so a key that processing
        pushes back at a priority rounding to tau waits for the next tau
        step instead of being popped again.
        """
        due = []
        while True:
            top = queue.peek()
            if top is None or top[0] < self.tau:
                return due
            due.append(queue.pop()[1])

    def _drain(self) -> None:
        """Pull items from reverse streams for every element whose next entry
        may now satisfy the sampling condition."""
        for j in self._due(self.qelements):
            self._drain_element(j)
        self._flush()

    def _drain_element(self, j: int) -> None:
        """Sample j's stream entries down to the first one that is L.

        Each sampled entry is priced once, c = w * marg(u), and appended.
        Until a seed reaches j its digest holds no value, and marg(u) is
        then exactly u, as gamma_0 = 1: the drain prices w * u without a
        call.  _reclassify_up then classes the new entries, unless an L
        entry came before them: the cap keeps them L.  The stream retires
        at the first utility at or below the digest's threshold: such a
        utility lands past the last positive gamma coefficient, so its
        marginal and every later one is exactly zero, and the threshold
        never falls.  A retired or exhausted stream is dropped from rev:
        neither path requeues j, so nothing reads its slot again.  The
        stream is read only through top, pop and close.
        """
        stream = self.rev[j]
        top, pop = stream.top, stream.pop
        w, r = self.problem.weight(j), self.rank[j]
        rtau = r * self.tau
        digest = self.digests[j]
        marg = digest.marg if digest.top else None
        thresh = digest.thresh()
        seeds = self.seeds
        entries = self.index[j]
        start = len(entries)
        while (t := top()) is not None:
            i, u = t
            if u <= thresh:
                stream.close()  # utilities only shrink from here; retire
                self.rev[j] = None
                break
            if i in seeds:
                pop()
                continue
            c = w * (u if marg is None else marg(u))
            if c == 0.0:
                pop()
                continue
            if c < rtau:  # L (r <= 1, so r * tau <= tau): revisit when tau drops
                self.qelements.push(j, c / r)
                break
            pop()
            entries.append((i, u, c))
        else:
            self.rev[j] = None  # exhausted
        n = len(entries)
        self.stats["rev_pops"] += n - start
        if n > start and self.nm[j] == start:  # no L entry before the new ones
            self._reclassify_up(j)

    # -- seed selection ------------------------------------------------------

    def next_seed(self) -> tuple[int, float, float, list[tuple[int, float]]] | None:
        """Try to certify the largest estimate, _top's, as the next seed.

        One forward search gives its exact gain, the sum of w * c over the
        search's (j, u, c) triples, c being the marginal the search already
        computed.  Returns (item, estimate, gain, consumed (j, u) pairs)
        when the gain holds up; None when the estimate is below k * tau or
        the gain fails (the item's priority is then the gain).
        """
        top = self._top()
        if top is None or top[0] < self.k * self.tau:
            return None
        est, i = top
        self.qitems.pop()
        pairs = []
        append, weight = pairs.append, self.problem.weight
        gain = 0.0
        for j, u, c in self.problem.forward_stream(i, self.digests):
            append((j, u))
            gain += weight(j) * c
        self.stats["forward_yields"] += len(pairs)
        self.stats["exact_evals"] += 1
        if gain >= (1.0 - 1.0 / math.sqrt(self.k)) * est:
            return i, est, gain, pairs
        self.qitems.push(i, gain)
        return None

    def _process_seed(self, i: int, est: float, gain: float, pairs: list) -> None:
        """Commit i with the gain and pairs next_seed just returned: no
        digest has changed since, so a fresh search would give the same.
        i joins the seeds first, so move_down, which folds each pair's
        utility into its element's digest, drops i's entries unpriced.
        """
        self.seeds.add(i)
        for j, u in pairs:
            self.move_down(j, u)
        self._flush()
        self.coverage += gain
        self.records.append(SeedRecord(i, est, gain, self.coverage))
        self.stats["tau"].append(self.tau)

    # -- segment maintenance ---------------------------------------------------

    def move_up(self) -> None:
        """After tau decreased, promote entries whose class improved."""
        for j in self._due(self.qhml):
            self._reclassify_up(j)
        self._flush()

    def _reclassify_up(self, j: int) -> None:
        """Class j's entries from its counts on, the only code that
        assigns classes: promote entries to H while their marginal is at
        least tau, then to M while it is at least r * tau, adding each
        promoted entry's contribution and marking its item dirty.
        Reprice j from the marginals at which the two loops stopped.  Both
        loops only add to h_count, so no est_h needs snapping here."""
        entries = self.index[j]
        n = len(entries)
        r, tau = self.rank[j], self.tau
        rtau = r * tau
        est_h, est_m, h_count, dirty = self.est_h, self.est_m, self.h_count, self.dirty
        nh, nm = self.nh[j], self.nm[j]
        c = 0.0
        while nh < n:
            i, _, c = entries[nh]
            if c < tau:
                break
            est_h[i] += c
            h_count[i] += 1
            if nh < nm:
                est_m[i] -= 1  # the entry was M
            dirty.add(i)
            nh += 1
        nm = max(nm, nh)
        first_m, priority = c, 0.0  # c prices entries[nh], the first M if any
        while nm < n:
            i, _, c = entries[nm]
            if c < rtau:
                priority = c / r
                break
            est_m[i] += 1
            dirty.add(i)
            nm += 1
        self.nh[j], self.nm[j] = nh, nm
        if nh < nm:
            priority = max(priority, first_m)
        if priority > 0.0:
            self.qhml.push(j, priority)
        else:
            self.qhml.remove(j)  # every entry is H, or none is left

    def move_down(self, j: int, x: float) -> None:
        """Fold utility x of the newest seed, already in seeds, into
        element j's digest, then reclassify j's entries against the
        updated digest.

        One loop takes off every H and M entry's old contribution, which
        only lowers estimates, and prices the entries once, nc = w *
        marg(u), keeping them in order with nc; seeds' entries, the new
        seed's included, are dropped unpriced, and so is any with nc zero.
        Pricing stops at the first utility at or below the digest's
        threshold: its marginal, like every later one, is exactly zero.
        _reclassify_up then classes the kept entries from counts of 0.
        est_h is snapped only after it has added the new contributions: an
        item has at most one entry per element, so its est_h changes in
        the order it would if that entry were handled alone.
        """
        digest = self.digests[j]
        digest.update(x)
        entries = self.index[j]
        if not entries:
            return
        w = self.problem.weight(j)
        marg, thresh = digest.marg, digest.thresh()
        seeds = self.seeds
        est_h, est_m, h_count = self.est_h, self.est_m, self.h_count
        old_h, old_m = self.nh[j], self.nm[j]
        kept = []
        for pos, (i, u, c) in enumerate(entries):
            if pos < old_m:  # take off the old H or M contribution
                if pos < old_h:
                    est_h[i] -= c
                    h_count[i] -= 1
                else:
                    est_m[i] -= 1
            elif u <= thresh:
                break  # an L entry with a zero marginal, and so is the rest
            if u > thresh and i not in seeds:
                nc = w * marg(u)
                if nc > 0.0:
                    kept.append((i, u, nc))
        self.nh[j] = self.nm[j] = 0
        self.index[j] = kept
        if kept:
            self._reclassify_up(j)
        else:
            self.qhml.remove(j)  # nothing left to revive
        for i, _, _ in entries[:old_h]:
            if h_count[i] == 0:
                est_h[i] = 0.0

    # -- driver ----------------------------------------------------------------

    def run(self) -> GreedySequence:
        """Select seeds until greedy.py's stopping rule flags a validated
        one, uncommitted ("cutoff"), nothing is left to sample, revive or
        select ("exhausted") or tau underflows ("tau underflow");
        stats["stop"] names which."""
        n = self.problem.n_items
        stop = "exhausted"
        while len(self.seeds) < n:
            res = self.next_seed()
            if res is not None:
                i, est, gain, _ = res
                if gain <= selection_cutoff(self.records, n):
                    self.records.append(SeedRecord(i, est, gain, self.coverage, below_cutoff=True))
                    stop = "cutoff"
                    break
                self._process_seed(*res)
                continue
            if self.qelements.peek() is None and self.qhml.peek() is None:
                # every list is all H, so no estimate depends on tau
                top = self._top()
                if top is None or top[0] <= 0.0:
                    break  # nothing left to sample, revive or select
            if self.tau == 0.0:
                stop = "tau underflow"
                break
            self.tau *= 0.5
            self.move_up()
            self._drain()
        self.stats["stop"] = stop
        return self.records


def run_skim(
    problem,
    k: int,
    rng_seed: int = 0,
    rank_mode: str = "uniform",
    stats: dict | None = None,
) -> GreedySequence:
    """Approximate greedy sequence using only oracle access.

    problem is an oracle bundle (MatrixProblem or GraphProblem): it
    exposes n_items, n_elements, spec, per-element weights, reverse
    sorted access streams and forward searches.  k is the sample size:
    estimates have relative error about 1/sqrt(k), and
    default_sample_size(epsilon, n_items, n_elements) gives the k for a
    target epsilon.  The sampling threshold tau halves at each step;
    accuracy rests on k, not on how fast tau falls.  Deterministic for
    fixed arguments; ends as SkimRun.run says.  stats gets the counters
    "forward_yields", "rev_pops", "exact_evals", the tau of each selected
    seed in order as "tau" and the stop reason "stop".
    """
    return SkimRun(
        problem,
        k=k,
        rng_seed=rng_seed,
        rank_mode=rank_mode,
        stats=stats,
    ).run()
