"""Sketch-based approximate greedy maximization over oracle access.

The maximizer never materializes the utility matrix.  It keeps, per item,
a weighted sample of the elements where the item still has marginal
utility.  Elements are assigned fixed random ranks r in (0, 1]; an
element belongs to item i's sample while w * (marginal utility) / r is
at least a global threshold tau, which decays geometrically.  The sum of
sampled marginal utilities clipped below at tau is an unbiased estimate
of the item's marginal influence, so once some item's estimate reaches
k * tau the estimate is trustworthy enough (relative error about
1/sqrt(k)) to validate with one exact marginal-gain computation and, if
it holds up, commit the item as the next seed.

Samples are stored inverted: index[j] lists the items that sampled
element j as (item, utility, c) entries, in the utility order delivered
by the element's reverse sorted access stream, where c is the item's
weighted marginal utility w * marg(u) against the element's digest.  The
digest changes only when a seed is committed: move_down folds the seed's
utility in first and then prices each surviving entry once against the
updated digest, so a stored c is never stale and no pass recomputes a
marginal it already holds.  A utility at or below the digest's threshold
lies past the last positive gamma coefficient, so its marginal is exactly
zero: a reverse stream is retired at the first such utility, and
move_down stops pricing at the first such entry, because utilities do not
increase along a list.  Two counts per element split the list into
segments: entries [0, nh[j]) are H (counted at face value), [nh[j],
nm[j]) are M (below tau but still sampled, counted as tau) and the rest
are L (lapsed, kept because a lower tau may revive them).  Wherever an
entry is (re)assigned, one value rule classes it by the marginal c just
computed for it at an element of rank r: H if c >= tau, M if c >=
r * tau, else L.  A cap then lowers its class to that of the entry before
it, so no entry ranks above its predecessor.  The counts grow when tau
drops (move_up), and entries are reclassified or truncated when a new
seed lowers marginal utilities (move_down).  An element waits for
move_up at the largest tau at which a boundary entry changes class,
max(c of its first M entry, c of its first L entry / rank), priced from
the marginals each pass has just computed against the element's current
(post-update) digest.

Each pass (a drain, a move_up, the move_downs of one new seed) handles an
entry in one place: it takes off the entry's old contribution, prices
and classes it, adds the new one and marks the item dirty.  An item with
no H entry left has its est_h snapped to 0.0 after all changes at one
element, so cancellation residue never keeps a dead item looking alive;
only move_down lowers h_count, so only move_down snaps.  Each dirty item
is pushed onto the item queue once per pass, at the estimate it ends the
pass with.

A seed is committed from the forward search that validated it.  Forward
streams yield (element, utility, marginal) triples, the marginal being
the one the search's yield test computed, so the validation sums them
without pricing a pair again.  It keeps the (element, utility) pairs it
consumed, and nothing changes a digest between the two, so the commit
walks those pairs instead of searching again.
"""

import heapq
import math

import numpy as np

from .aggregation import DigestTable, StaleStreamError
from .greedy import GreedySequence, SeedRecord

H, M, L = 2, 1, 0  # segment classes, ordered so that the prefix cap is a min


class LazyMaxQueue:
    """Max-priority queue with lazy revision: pushing a key again simply
    supersedes its old heap entries."""

    def __init__(self):
        self._heap: list[tuple[float, int]] = []
        self._prio: dict[int, float] = {}

    def push(self, key: int, priority: float) -> None:
        self._prio[key] = priority
        heapq.heappush(self._heap, (-priority, key))

    def remove(self, key: int) -> None:
        self._prio.pop(key, None)

    def _settle(self) -> tuple[float, int] | None:
        while self._heap:
            negp, key = self._heap[0]
            if self._prio.get(key) == -negp:
                return -negp, key
            heapq.heappop(self._heap)
        return None

    def peek(self) -> tuple[float, int] | None:
        return self._settle()

    def pop(self) -> tuple[float, int] | None:
        t = self._settle()
        if t is None:
            return None
        heapq.heappop(self._heap)
        del self._prio[t[1]]
        return t

    def keys(self):
        return list(self._prio)


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
        k: int | None = None,
        lam: float = 0.5,
        epsilon: float = 0.2,
        rng_seed: int = 0,
        rank_mode: str = "uniform",
        trace: list | None = None,
        stats: dict | None = None,
        audit=None,
    ):
        if k is None:
            k = default_sample_size(epsilon, problem.n_items, problem.n_elements)
        if k < 2:
            raise ValueError("sample-size parameter k must be at least 2")
        if not 0.0 < lam < 1.0:
            raise ValueError("threshold decrease factor must lie in (0, 1)")
        self.problem = problem
        self.spec = problem.spec
        self.k = k
        self.lam = lam
        self.epsilon = epsilon
        self.trace = trace
        self.audit = audit
        self.stats = stats if stats is not None else {}
        self.stats.setdefault("forward_yields", 0)
        self.stats.setdefault("rev_pops", 0)
        self.stats.setdefault("exact_evals", 0)

        rng = np.random.default_rng(rng_seed)
        n_el = problem.n_elements
        if rank_mode == "uniform":
            self.rank = (1.0 - rng.random(n_el)).tolist()  # (0, 1]
        elif rank_mode == "permutation":
            order = rng.permutation(n_el)
            self.rank = [0.0] * n_el
            for pos, j in enumerate(order):
                self.rank[j] = (pos + 1) / n_el
        else:
            raise ValueError(f"unknown rank mode {rank_mode!r}")

        self.digests = DigestTable(n_el, self.spec)
        self.rev = [problem.rev_stream(j) for j in range(n_el)]
        self.index: dict[int, list[tuple[int, float, float]]] = {}
        # index[j][:nh[j]] is H, index[j][nh[j]:nm[j]] is M, the rest is L
        self.nh = [0] * n_el
        self.nm = [0] * n_el
        self.est_h = [0.0] * problem.n_items
        self.est_m = [0] * problem.n_items
        # exact H-entry counts: when a count returns to zero the float
        # accumulator is snapped back to 0.0, so cancellation residue can
        # never keep a dead item looking alive
        self.h_count = [0] * problem.n_items
        self.qelements = LazyMaxQueue()
        self.qitems = LazyMaxQueue()
        self.qhml = LazyMaxQueue()
        self.dirty: set[int] = set()  # items touched since the last _flush
        self.seeds: set[int] = set()
        # (item, digest version, exact gain, consumed pairs) of the last validation
        self._validated: tuple[int, int, float, list[tuple[int, float]]] | None = None
        self.records: GreedySequence = []
        self.coverage = 0.0

        for j in range(n_el):
            t = self.rev[j].top()
            if t is not None:
                _, u = t
                self.qelements.push(j, problem.weight(j) * u / self.rank[j])
        top = self.qelements.peek()
        self.tau = top[0] / (2.0 * k) if top is not None else None

    # -- estimate bookkeeping ------------------------------------------------

    def _estimate(self, i: int) -> float:
        return self.est_h[i] + self.tau * self.est_m[i]

    def _flush(self) -> None:
        """Push every item touched in this pass at its final estimate.

        Valid entries pop by priority, ties by key, so the order of the
        pushes cannot change which item pops.
        """
        for i in self.dirty:
            if i not in self.seeds:
                self.qitems.push(i, self._estimate(i))
        self.dirty.clear()

    def _fresh_max(self) -> float:
        best = 0.0
        for i in self.qitems.keys():
            if i not in self.seeds:
                best = max(best, self._estimate(i))
        return best

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

        Each sampled entry is priced once, c = w * marg(u), appended, and
        counted in the class of c under the value rule, capped by the
        class of the entry before it; the first M entry of a list prices
        the element for move_up.  The stream retires at the first utility
        at or below the digest's threshold: such a utility lands past the
        last positive gamma coefficient, so its marginal and every later
        one is exactly zero, and the threshold never falls.
        """
        stream = self.rev[j]
        top, pop = stream.top, stream.pop
        w, r, tau = self.problem.weight(j), self.rank[j], self.tau
        rtau = r * tau
        digest = self.digests[j]
        marg, thresh = digest.marg, digest.thresh()
        seeds, dirty = self.seeds, self.dirty
        est_h, est_m, h_count = self.est_h, self.est_m, self.h_count
        entries = self.index.setdefault(j, [])
        start = n = len(entries)
        nh, nm = self.nh[j], self.nm[j]
        while (t := top()) is not None:
            i, u = t
            if u <= thresh:
                stream.close()  # utilities only shrink from here; retire
                break
            if i in seeds:
                pop()
                continue
            c = w * marg(u)
            if c == 0.0:
                pop()
                continue
            if c < rtau:  # L (r <= 1, so r * tau <= tau): revisit when tau drops
                self.qelements.push(j, c / r)
                break
            pop()
            entries.append((i, u, c))
            if nm == n:  # the entry before is H or M, or there is none
                if c >= tau and nh == n:
                    nh += 1
                    est_h[i] += c
                    h_count[i] += 1
                else:
                    if nh == n:
                        self.qhml.push(j, c)  # the first M entry prices the element
                    est_m[i] += 1
                nm += 1
            n += 1
            dirty.add(i)
        self.nh[j], self.nm[j] = nh, nm
        self.stats["rev_pops"] += n - start
        if not entries:
            del self.index[j]

    def _reprice(self, j: int, priority: float) -> None:
        if priority > 0.0:
            self.qhml.push(j, priority)
        else:
            self.qhml.remove(j)  # every entry is H, or none is left

    # -- seed selection ------------------------------------------------------

    def next_seed(self) -> tuple[int, float] | None:
        """Try to certify the current best estimate as the next seed.

        Returns None when no estimate reaches k * tau, or when the top
        estimate fails its exact-gain validation (its priority is then
        replaced by the exact gain and sampling continues).
        """
        if self.audit is not None:
            self.audit(self)
        k_tau = self.k * self.tau
        accept = 1.0 - 1.0 / math.sqrt(self.k)
        q = self.qitems
        while True:
            top = q.peek()
            if top is None or top[0] < k_tau:
                return None
            _, i = q.pop()
            if i in self.seeds:
                continue
            est = self._estimate(i)
            runner = q.peek()
            runner_p = None
            if runner is not None:
                rp, ri = runner
                rfresh = 0.0 if ri in self.seeds else self._estimate(ri)
                if rfresh != rp:
                    q.push(ri, rfresh)  # revalidate the runner-up once
                runner_p = rfresh
            if est >= k_tau and (runner_p is None or est >= runner_p):
                exact = self._marg_gain(i)
                self.stats["exact_evals"] += 1
                if exact >= accept * est:
                    return i, est
                q.push(i, exact)
                return None
            q.push(i, est)

    def _marg_gain(self, i: int) -> float:
        """Exact marginal gain of i by one forward search.

        The gain sums w * c over the search's (j, u, c) triples; c is the
        marginal the search already computed, so no pair is priced twice.
        The consumed (j, u) pairs are kept with the gain and the digest
        version, so that committing i (_process_seed) needs no second search.
        """
        pairs = []
        gain = 0.0
        for j, u, c in self.problem.forward_stream(i, self.digests):
            self.stats["forward_yields"] += 1
            pairs.append((j, u))
            gain += self.problem.weight(j) * c
        self._validated = (i, self.digests.version, gain, pairs)
        return gain

    def _process_seed(self, i: int, est: float) -> float:
        """Commit i from the pairs its validation search consumed.

        A search yields each element at most once and only update()
        changes a digest, so these are the pairs, and the validation's
        gain the sum, that a fresh search would give now.  move_down folds
        each pair's utility into its element's digest.
        """
        if self._validated is None or self._validated[:2] != (i, self.digests.version):
            raise StaleStreamError(f"item {i} was not validated against the current seeds")
        _, _, gain, pairs = self._validated
        self._validated = None
        for j, u in pairs:
            self.move_down(j, u, i)
        self.digests.mark_seed_added()
        self.seeds.add(i)
        self.qitems.remove(i)
        self._flush()
        self.coverage += gain
        self.records.append(SeedRecord(i, est, gain, self.coverage))
        if self.trace is not None:
            self.trace.append((self.tau, i, est, gain))
        return gain

    # -- segment maintenance ---------------------------------------------------

    def move_up(self) -> None:
        """After tau decreased, promote entries whose class improved."""
        for j in self._due(self.qhml):
            self._reclassify_up(j)
        self._flush()

    def _reclassify_up(self, j: int) -> None:
        """Promote M and L entries to H, then revive L entries to M, as far
        as their stored marginals allow under the current tau; reprice j
        from the marginals at which the two loops stopped.  Both loops only
        add to h_count, so no est_h needs snapping here."""
        entries = self.index.get(j, [])
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
        self._reprice(j, max(priority, first_m) if nh < nm else priority)

    def move_down(self, j: int, x: float, new_seed: int) -> None:
        """Fold utility x of the new seed into element j's digest, then
        reclassify j's entries against the updated digest.

        Each entry's old contribution comes off by its position; an H
        entry's is its stored marginal.  The new seed's own entry and any
        other seed's are dropped unpriced.  Every other entry is priced
        once, nc = w * marg(u), and dropped if nc is zero; the rest keep
        their order, are stored with nc and take the class of nc, capped
        by the class of the entry before.  The element's move_up priority
        comes from the same nc values.  Utilities do not increase along
        the list, so pricing stops at the first one at or below the
        digest's threshold: that entry and every later one lies past the
        last positive gamma coefficient, has marginal exactly zero, and
        only has its old H or M contribution taken off.  An item has at
        most one entry per element, so its est_h is snapped (if it has no
        H entry left) as soon as that entry is done.
        """
        digest = self.digests[j]
        digest.update(x)
        entries = self.index.get(j)
        if not entries:
            return
        w, r, tau = self.problem.weight(j), self.rank[j], self.tau
        rtau = r * tau
        marg, thresh = digest.marg, digest.thresh()
        seeds, dirty = self.seeds, self.dirty
        est_h, est_m, h_count = self.est_h, self.est_m, self.h_count
        old_h, old_m = self.nh[j], self.nm[j]
        kept = []
        nh = nm = 0
        prev, priority = H, 0.0
        cut = len(entries)
        for pos, (i, u, c) in enumerate(entries):
            if u <= thresh:
                cut = pos
                break
            if pos < old_h:
                est_h[i] -= c
                h_count[i] -= 1
            elif pos < old_m:
                est_m[i] -= 1
            cls = L
            if i != new_seed and i not in seeds:
                nc = w * marg(u)
                if nc > 0.0:
                    kept.append((i, u, nc))
                    cls = H if nc >= tau else M if nc >= rtau else L
                    if cls > prev:
                        cls = prev  # capped by the entry before
                    if cls == H:
                        nh += 1
                        est_h[i] += nc
                        h_count[i] += 1
                    elif cls == M:
                        est_m[i] += 1
                    if cls != L:
                        nm += 1
                    if cls < prev:  # the entry opens the M or the L segment
                        priority = max(priority, nc if cls == M else nc / r)
                    prev = cls
            if pos < old_m or cls != L:
                if h_count[i] == 0:
                    est_h[i] = 0.0
                dirty.add(i)
        for i, _, c in entries[cut:old_h]:  # the zero tail's H entries
            est_h[i] -= c
            h_count[i] -= 1
            if h_count[i] == 0:
                est_h[i] = 0.0
            dirty.add(i)
        for i, _, _ in entries[max(cut, old_h):old_m]:  # and its M entries
            est_m[i] -= 1
            dirty.add(i)
        self.nh[j], self.nm[j] = nh, nm
        if kept:
            self.index[j] = kept
        else:
            del self.index[j]
        self._reprice(j, priority)

    # -- driver ----------------------------------------------------------------

    def run(self) -> GreedySequence:
        if self.tau is None:
            return self.records  # no positive utilities at all
        n = self.problem.n_items
        while len(self.seeds) < n:
            res = self.next_seed()
            if res is not None:
                if self._process_seed(*res) < self.records[0].gain / n ** 2:
                    break
                continue
            if self.qelements.peek() is None and self._fresh_max() <= 0.0:
                break  # nothing left to sample or select
            if self.tau == 0.0:
                break  # threshold underflowed, nothing viable
            self.tau *= self.lam
            self.move_up()
            self._drain()
        self.stats["tau_final"] = self.tau
        return self.records


def run_skim(
    problem,
    k: int | None = None,
    lam: float = 0.5,
    epsilon: float = 0.2,
    rng_seed: int = 0,
    rank_mode: str = "uniform",
    trace: list | None = None,
    stats: dict | None = None,
    audit=None,
) -> GreedySequence:
    """Approximate greedy sequence using only oracle access.

    problem is an oracle bundle (MatrixProblem or GraphProblem): it
    exposes n_items, n_elements, spec, per-element weights, reverse
    sorted access streams and forward searches.  Deterministic for fixed
    arguments.  trace, when given a list, receives one
    (tau, item, estimate, exact_gain) tuple per selection.
    """
    return SkimRun(
        problem,
        k=k,
        lam=lam,
        epsilon=epsilon,
        rng_seed=rng_seed,
        rank_mode=rank_mode,
        trace=trace,
        stats=stats,
        audit=audit,
    ).run()

