"""Graph-backed utility oracles for four utility families.

Items are graph nodes; elements are (node, instance) pairs where each
instance is one sampled edge set of a randomized model.  Utilities are
derived from per-instance structure:

* distance: alpha(shortest-path distance from item to element node),
* reverse_rank: alpha(number of nodes the element node reaches at least
  as cheaply as it reaches the item),
* reachability: 1 when the element node is reachable from the item,
* survival: the largest t such that the element node stays reachable
  using only edges with lifetime >= t.

Reverse sorted access runs an incremental Dijkstra-family search outward
from the element node and yields items by non-increasing utility.
Forward search runs one pruned search per instance from the item; a
branch is cut once the item's utility falls below the element's
threshold, its stored seed utility at the last positive gamma
coefficient, which provably cannot hide any element where the item
still has positive marginal utility.

Each oracle is one loop over a row of the family table (_FAMILY_TABLE),
so a new family is one table row plus one branch of _reference_row.  A
GraphProblem resolves its family's row once, at construction, and is the
only way into the graph oracles: rev_stream(j) is one frontier, which is
itself the reverse stream (no generator, no wrapper), and
forward_stream(i, digests) runs one pruned search per instance, all of
them at the stream's first read; oracles.marg_gain/add_seed read it as
they read a MatrixProblem.

Reference (brute-force) utilities are computed through scipy.sparse.csgraph
and a descending threshold sweep, deliberately independent code paths from
the incremental searches so the two can cross-check each other;
pairwise_utility and to_utility_matrix both read _reference_row.
"""

import bisect
import math
import operator
from collections import deque
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _sp_dijkstra

from .aggregation import DigestTable
from .matrix import SparseUtilityMatrix
from .oracles import ForwardStream, RevStream

DISTANCE = "distance"
REVERSE_RANK = "reverse_rank"
REACHABILITY = "reachability"
SURVIVAL = "survival"


class Alpha:
    """Non-increasing map from distance or rank to utility.

    Kinds: threshold:T (1 up to T, then 0), inverse (1/x, clamped to 1
    below x=1 so self-distances stay finite), exp:sigma (exp(-x/sigma)),
    and table (right-continuous step function over breakpoints).  The
    kind's map is picked once, at construction, as self.map, which the
    oracles call directly; every kind maps an infinite x (an unreachable
    node) to 0.
    """

    def __init__(self, kind: str, param: float | None = None,
                 points: list[tuple[float, float]] | None = None):
        self.kind = kind
        self.param = param
        if kind == "table":
            if not points:
                raise ValueError("table alpha needs breakpoints")
            xs = [x for x, _ in points]
            vs = [v for _, v in points]
            # negated comparisons so that NaN fails every check
            if math.isnan(xs[0]) or any(not a < b for a, b in zip(xs, xs[1:])):
                raise ValueError("table breakpoints must be strictly increasing")
            if not vs[-1] >= 0 or any(not a >= b for a, b in zip(vs, vs[1:])):
                raise ValueError("table values must be non-negative and non-increasing")
            # last breakpoint at or below x; below the first one, the first value
            self.map = lambda x: (
                vs[max(bisect.bisect_right(xs, x) - 1, 0)] if x < math.inf else 0.0
            )
        elif kind == "threshold":
            if param is None or not param >= 0:
                raise ValueError("threshold alpha needs T >= 0")
            self.map = lambda x: 1.0 if x <= param and x < math.inf else 0.0
        elif kind == "exp":
            if param is None or not param > 0:
                raise ValueError("exponential alpha needs sigma > 0")
            self.map = lambda x: math.exp(-x / param)  # exp(-inf) is 0.0
        elif kind == "inverse":
            self.map = lambda x: 1.0 / max(x, 1.0)  # 1/inf is 0.0
        else:
            raise ValueError(f"unknown alpha kind {kind!r}")

    @classmethod
    def threshold(cls, t: float) -> "Alpha":
        return cls("threshold", t)

    @classmethod
    def inverse(cls) -> "Alpha":
        return cls("inverse")

    @classmethod
    def exponential(cls, sigma: float) -> "Alpha":
        return cls("exp", sigma)

    @classmethod
    def table(cls, points: list[tuple[float, float]]) -> "Alpha":
        return cls("table", points=points)

    def __call__(self, x: float) -> float:
        return self.map(x)


@dataclass(frozen=True)
class UtilityFamily:
    kind: str
    alpha: Alpha | None = None

    def __post_init__(self):
        if self.kind not in _FAMILY_TABLE:
            raise ValueError(f"unknown utility family {self.kind!r}")
        if _FAMILY_TABLE[self.kind].needs_alpha:
            if self.alpha is None:
                raise ValueError(f"{self.kind} utility requires an alpha map")
        elif self.alpha is not None:
            raise ValueError(f"{self.kind} utility takes no alpha map")


@dataclass(frozen=True)
class DirectedGraph:
    """Base weighted directed graph the randomized models draw from."""

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        _check_edges(self.n, self.edges)


def _check_edges(n: int, edges) -> None:
    """Reject edges with an endpoint outside [0, n) or a weight that is not
    a positive finite number."""
    for s, d, w in edges:
        if not (0 <= s < n) or not (0 <= d < n):
            raise ValueError(f"edge ({s}, {d}) out of range")
        if not 0.0 < w < math.inf:
            raise ValueError(f"edge ({s}, {d}) needs a positive finite weight")


class RankTable:
    """Exact per-instance Dijkstra ranks from full single-source searches.

    tables[h][src][dst] counts the nodes src reaches at least as cheaply
    as it reaches dst in instance h (weak inequality, so equidistant nodes
    share a rank); unreachable pairs get inf.  Each table is an n x n
    float64 array: instance h's all-pairs distance matrix, ranked in place.
    """

    def __init__(self, tables: list[np.ndarray]):
        self.tables = tables


# rows of a distance matrix ranked at once by _rank_rows_in_place; bounds
# the temporaries to a few arrays of _RANK_BLOCK x n
_RANK_BLOCK = 32


def _rank_rows_in_place(dist: np.ndarray) -> None:
    """Overwrite each row of dist with its weak-inequality ranks (inf stays
    inf), one block of rows at a time.  In a row sorted ascending, every
    member of a run of equal finite distances gets the 1-based position
    of the run's last member: the least run end at or after it."""
    n = dist.shape[1]
    positions = np.arange(1.0, n + 1.0)
    for start in range(0, dist.shape[0], _RANK_BLOCK):
        block = dist[start:start + _RANK_BLOCK]
        order = np.argsort(block, axis=1)
        ordered = np.take_along_axis(block, order, axis=1)
        run_end = np.empty(ordered.shape, dtype=bool)
        np.not_equal(ordered[:, 1:], ordered[:, :-1], out=run_end[:, :-1])
        run_end[:, -1] = True
        run_end &= np.isfinite(ordered)
        ends = np.where(run_end, positions, np.inf)
        ranks = np.minimum.accumulate(ends[:, ::-1], axis=1)[:, ::-1]
        np.put_along_axis(block, order, ranks, axis=1)


def ranks_from_distances(dist_row: np.ndarray) -> np.ndarray:
    """Weak-inequality ranks of one source's distance vector; the
    references' own routine, independent of rank_table's."""
    finite = np.sort(dist_row[np.isfinite(dist_row)])
    ranks = np.searchsorted(finite, dist_row, side="right").astype(float)
    ranks[~np.isfinite(dist_row)] = np.inf
    return ranks


class GraphInstanceSet:
    """A set of directed graph instances over one shared node set.

    Element ids enumerate (node, instance) pairs as h * n + v.  Transposed
    adjacency keeps incoming edges sorted by weight.
    """

    def __init__(self, n: int, instances: list[list[tuple[int, int, float]]]):
        if n <= 0:
            raise ValueError("node count must be positive")
        if not instances:
            raise ValueError("at least one instance required")
        self.n = n
        self.instances = [list(edges) for edges in instances]
        self.adj: list[list[list[tuple[int, float]]]] = []
        self.tadj: list[list[list[tuple[int, float]]]] = []
        self.caps: list[float] = []
        for edges in self.instances:
            _check_edges(n, edges)
            fwd = [[] for _ in range(n)]
            rev = [[] for _ in range(n)]
            cap = 0.0
            for s, d, w in edges:
                fwd[s].append((d, float(w)))
                rev[d].append((s, float(w)))
                cap = max(cap, float(w))
            for lst in rev:
                lst.sort(key=lambda t: (t[1], t[0]))
            self.adj.append(fwd)
            self.tadj.append(rev)
            self.caps.append(cap)
        self._csr_cache: dict = {}
        self._rank_table: RankTable | None = None

    @property
    def count(self) -> int:
        return len(self.instances)

    @property
    def n_elements(self) -> int:
        return self.n * self.count

    def node_of(self, e: int) -> int:
        return e % self.n

    def instance_of(self, e: int) -> int:
        return e // self.n

    def csr(self, h: int):
        """Sparse matrix of instance h; parallel edges collapse to the minimum."""
        if h not in self._csr_cache:
            best: dict[tuple[int, int], float] = {}
            for s, d, w in self.instances[h]:
                if w < best.get((s, d), math.inf):
                    best[(s, d)] = w
            rows, cols = [s for s, _ in best], [d for _, d in best]
            self._csr_cache[h] = csr_matrix(
                (list(best.values()), (rows, cols)), shape=(self.n, self.n)
            )
        return self._csr_cache[h]

    def distances(self, h: int, source: int | None = None) -> np.ndarray:
        mat = self.csr(h)
        if source is None:
            return _sp_dijkstra(mat)
        return _sp_dijkstra(mat, indices=[source])[0]

    def rank_table(self) -> RankTable:
        """Every instance's ranks, built on first use: each all-pairs
        distance matrix is ranked in place, so a table costs its n x n
        array plus a few block-sized temporaries."""
        if self._rank_table is None:
            tables = []
            for h in range(self.count):
                dist = self.distances(h)
                _rank_rows_in_place(dist)
                tables.append(dist)
            self._rank_table = RankTable(tables)
        return self._rank_table


def simulate_instances(
    base: DirectedGraph, model: str, count: int, rng_seed: int
) -> GraphInstanceSet:
    """Draw edge-set instances from a randomized model, deterministically.

    * ic: keep each edge independently with its weight as probability,
      kept edges get weight 1;
    * exponential: redraw each edge length from the exponential
      distribution whose rate is the edge weight;
    * fixed: count verbatim copies of the base graph.
    """
    if count < 1:
        raise ValueError("instance count must be at least 1")
    rng = np.random.default_rng(rng_seed)
    instances = []
    if model == "fixed":
        instances = [list(base.edges) for _ in range(count)]
    elif model == "ic":
        if any(w > 1.0 for _, _, w in base.edges):
            raise ValueError("ic edge probabilities must lie in [0, 1]")
        for _ in range(count):
            draws = rng.random(len(base.edges))
            instances.append(
                [(s, d, 1.0) for (s, d, w), x in zip(base.edges, draws) if x < w]
            )
    elif model == "exponential":
        # one draw per edge, in edge order
        scales = 1.0 / np.array([w for _, _, w in base.edges], dtype=float)
        for _ in range(count):
            lengths = rng.exponential(scales).tolist()
            instances.append(
                [(s, d, ln) for (s, d, _), ln in zip(base.edges, lengths)]
            )
    else:
        raise ValueError(f"unknown simulation model {model!r}")
    return GraphInstanceSet(base.n, instances)


# ---------------------------------------------------------------------------
# incremental searches


class _Frontier(RevStream):
    """One incremental search from a source.  next() settles the next node
    and returns it with its label; expand(v) pushes a settled node's
    neighbours, so a pruned forward search can refuse to expand one.

    A frontier is also its source's reverse stream: top() settles the next
    node and maps its label, or for reverse rank its rank, to the utility
    (ranks and amap as in GraphProblem), ending the stream at the first
    zero; pop() expands the node it hands out, so a node that is peeked
    but never popped is never expanded.  Ending or closing the stream
    empties the pending container.  RevStream's iterator slot stays unset.
    cap, the instance's longest edge lifetime, is read by the widest
    search only.
    """

    __slots__ = ("adj", "_pending", "_ranks", "_amap")

    def __init__(self, adj, source: int, cap: float = 0.0, ranks=None, amap=None):
        self.adj = adj
        self._ranks = ranks
        self._amap = amap
        self._head = None
        self._start(source, cap)

    def top(self) -> tuple[int, float] | None:
        head = self._head
        if head is None:
            step = self.next()
            if step is None:
                return None
            node, u = step
            if self._ranks is not None:
                u = float(self._ranks[node])
            if self._amap is not None:
                u = self._amap(u)
            if u <= 0.0:
                self._pending.clear()
                return None
            head = self._head = (node, u)
        return head

    def pop(self) -> tuple[int, float] | None:
        head = self._head or self.top()
        if head is not None:
            self._head = None
            self.expand(head[0])
        return head

    def close(self) -> None:
        self._pending.clear()
        self._head = None


class _DijkstraFrontier(_Frontier):
    """Hand-rolled incremental Dijkstra; dist holds the settled labels."""

    __slots__ = ("dist", "_seen")

    def _start(self, source: int, cap: float) -> None:
        self.dist: dict[int, float] = {}
        self._seen = {source: 0.0}
        self._pending = [(0.0, source)]

    def next(self) -> tuple[int, float] | None:
        heap, dist = self._pending, self.dist
        while heap:
            d, v = heappop(heap)
            if v in dist:
                continue
            dist[v] = d
            return v, d
        return None

    def expand(self, v: int) -> None:
        dist, seen, heap, inf = self.dist, self._seen, self._pending, math.inf
        d = dist[v]
        for w, weight in self.adj[v]:
            nd = d + weight
            if w not in dist and nd < seen.get(w, inf):
                seen[w] = nd
                heappush(heap, (nd, w))


class _WidestFrontier(_Frontier):
    """Max-min (bottleneck) variant: labels are the best minimum edge
    lifetime over paths from the source; nodes settle by decreasing label.
    The source's own label is cap, the instance's longest lifetime."""

    __slots__ = ("label", "_seen")

    def _start(self, source: int, cap: float) -> None:
        self.label: dict[int, float] = {}
        self._seen = {source: cap}
        self._pending = [(-cap, source)]

    def next(self) -> tuple[int, float] | None:
        heap, label = self._pending, self.label
        while heap:
            nt, v = heappop(heap)
            if v in label:
                continue
            label[v] = -nt
            return v, -nt
        return None

    def expand(self, v: int) -> None:
        label, seen, heap = self.label, self._seen, self._pending
        t = label[v]
        for w, weight in self.adj[v]:
            cand = min(t, weight)
            if w not in label and cand > seen.get(w, 0.0):
                seen[w] = cand
                heappush(heap, (-cand, w))


class _ReachFrontier(_Frontier):
    """Plain BFS; every node is labelled 1."""

    __slots__ = ("visited",)

    def _start(self, source: int, cap: float) -> None:
        self.visited = {source}
        self._pending = deque([source])

    def next(self) -> tuple[int, float] | None:
        queue = self._pending
        return (queue.popleft(), 1.0) if queue else None

    def expand(self, v: int) -> None:
        visited, append = self.visited, self._pending.append
        for w, _ in self.adj[v]:
            if w not in visited:
                visited.add(w)
                append(w)


# ---------------------------------------------------------------------------
# the family table and the two oracles


@dataclass(frozen=True)
class _FamilyRow:
    """One utility family as data for the two graph oracles.

    The reverse stream walks rev_adj from the element node, forward search
    the other adjacency from the item.  alpha_of says what the family's
    alpha maps to a utility: the settled node's label ("label"), the
    element-item rank ("rank"), or nothing, the label being the utility
    (None).  In forward search a zero utility ends the instance's search,
    or with zero_skips only skips that branch.
    """

    frontier: type
    rev_adj: str
    alpha_of: str | None
    prune: Callable
    zero_skips: bool = False

    @property
    def needs_alpha(self) -> bool:
        return self.alpha_of is not None

    @property
    def needs_ranks(self) -> bool:
        return self.alpha_of == "rank"


# Distance and survival walk paths into the element node, so the reverse
# stream runs on the transposed instance.  Reverse rank runs forward from
# the element node, whose ranks are monotone in its own distances; the
# same ranks are only tree-monotone seen from an item, hence zero_skips.
_FAMILY_TABLE = {
    DISTANCE: _FamilyRow(_DijkstraFrontier, "tadj", "label", operator.lt),
    REVERSE_RANK: _FamilyRow(_DijkstraFrontier, "adj", "rank", operator.lt, zero_skips=True),
    REACHABILITY: _FamilyRow(_ReachFrontier, "tadj", None, operator.le),
    SURVIVAL: _FamilyRow(_WidestFrontier, "tadj", None, operator.le),
}


class GraphProblem:
    """Oracle bundle over graph instances, as consumed by the maximizer.

    The family's table row is resolved once, here: the frontier class, the
    adjacency each oracle walks, the instances' caps, the alpha map (None
    when the label is the utility) and, for reverse rank only, the rank
    tables.  A reverse stream is then one frontier, built with the
    element's rank row and the alpha map, and a forward search reads the
    same bound state.
    spec is the aggregation the maximizer reads; the oracles ignore it,
    so a problem built only to query them may pass None.
    """

    def __init__(self, instances: GraphInstanceSet, family: UtilityFamily, spec):
        row = _FAMILY_TABLE[family.kind]
        self.instances = instances
        self.family = family
        self.spec = spec
        self.n_items = instances.n
        self.n_elements = instances.n_elements
        self._frontier = row.frontier
        self._rev_adj = getattr(instances, row.rev_adj)
        self._fwd_adj = instances.adj if row.rev_adj == "tadj" else instances.tadj
        self._caps = instances.caps
        self._amap = family.alpha.map if row.needs_alpha else None
        self._ranks = instances.rank_table().tables if row.needs_ranks else None
        self._prune = row.prune
        self._zero_skips = row.zero_skips

    def weight(self, j: int) -> float:
        return 1.0

    def rev_stream(self, j: int) -> RevStream:
        """Incremental reverse sorted access for element j."""
        if not 0 <= j < self.n_elements:
            raise ValueError(f"unknown element {j}")
        h, v = divmod(j, self.n_items)
        ranks = self._ranks
        return self._frontier(self._rev_adj[h], v, self._caps[h],
                              None if ranks is None else ranks[h][v], self._amap)

    def forward_stream(self, i: int, digests: DigestTable) -> ForwardStream:
        """Pruned forward search from item i across all instances.

        Expansion stops at an element whose threshold (digest.thresh())
        already beats the item's utility there, strictly or weakly as the
        family's pruning argument allows.  Yielded (element, utility, gain)
        triples are exactly the elements where the item's marginal gain is
        positive, each with that gain.
        """
        if not 0 <= i < self.n_items:
            raise ValueError(f"unknown item {i}")
        return ForwardStream(partial(self._forward_triples, i, digests))

    def _forward_triples(self, i: int, digests: DigestTable) -> tuple[list, int]:
        """The search's (element, utility, gain) triples and its settle count."""
        frontier_of, adj, caps, tables = self._frontier, self._fwd_adj, self._caps, self._ranks
        amap, prune, zero_skips, n = self._amap, self._prune, self._zero_skips, self.n_items
        elements = digests.digests
        triples = []
        append = triples.append
        settles = 0
        for h in range(len(adj)):
            base = h * n
            ranks = tables[h][:, i] if tables is not None else None
            frontier = frontier_of(adj[h], i, caps[h])
            next_, expand = frontier.next, frontier.expand
            while (step := next_()) is not None:
                node, u = step
                settles += 1
                if ranks is not None:
                    u = float(ranks[node])
                if amap is not None:
                    u = amap(u)
                if u <= 0.0:
                    if zero_skips:
                        continue
                    break  # settle order is by label, the rest are zero too
                digest = elements[base + node]
                if not prune(u, digest.thresh()):
                    expand(node)
                c = digest.marg(u)
                if c > 0.0:
                    append((base + node, u, c))
        return triples, settles


# ---------------------------------------------------------------------------
# reference (brute-force) utilities


def survival_thresholds_brute(
    instances: GraphInstanceSet, h: int, src: int
) -> list[float]:
    """Survival thresholds from src by a descending threshold sweep.

    Adds edges in decreasing lifetime order and reruns plain reachability
    after each distinct lifetime; the first threshold at which a node
    becomes reachable is its survival threshold.  Independent of the
    max-min search used by the oracles.
    """
    n = instances.n
    tau = [0.0] * n
    tau[src] = instances.caps[h]
    edges = sorted(instances.instances[h], key=lambda e: -e[2])
    adj: list[list[int]] = [[] for _ in range(n)]
    reached = {src}
    pos = 0
    while pos < len(edges):
        t = edges[pos][2]
        while pos < len(edges) and edges[pos][2] == t:
            s, d, _ = edges[pos]
            adj[s].append(d)
            pos += 1
        queue = [v for v in reached]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if w not in reached:
                    reached.add(w)
                    tau[w] = t
                    queue.append(w)
    return tau


def _reference_row(
    instances: GraphInstanceSet, family: UtilityFamily, h: int, src: int
) -> list[float]:
    """Reference utilities of one search from node src in instance h: of
    every item at element node src for reverse rank (ranks come from the
    element's own distances), else of item src at every element node.
    The only per-family branch of the references; alpha maps inf to 0."""
    kind = family.kind
    if kind == REACHABILITY:
        dist = _sp_dijkstra(instances.csr(h), indices=[src], unweighted=True)[0]
        return np.isfinite(dist).astype(float).tolist()
    if kind == SURVIVAL:
        return survival_thresholds_brute(instances, h, src)
    x = instances.distances(h, source=src)
    if kind == REVERSE_RANK:
        x = ranks_from_distances(x)
    return [family.alpha(t) for t in x.tolist()]


def pairwise_utility(
    instances: GraphInstanceSet, family: UtilityFamily, i: int, j: int
) -> float:
    """Reference non-incremental utility of item i to element j."""
    v, h = instances.node_of(j), instances.instance_of(j)
    if family.kind == REVERSE_RANK:
        return _reference_row(instances, family, h, v)[i]
    return _reference_row(instances, family, h, i)[v]


def to_utility_matrix(
    instances: GraphInstanceSet, family: UtilityFamily
) -> SparseUtilityMatrix:
    """Materialize the full utility matrix through the reference routines."""
    n = instances.n
    by_element = family.kind == REVERSE_RANK
    entries = []
    for h in range(instances.count):
        base = h * n
        for src in range(n):
            for x, u in enumerate(_reference_row(instances, family, h, src)):
                if u > 0.0:
                    entries.append((x, base + src, u) if by_element else (src, base + x, u))
    return SparseUtilityMatrix(n, instances.n_elements, entries)
