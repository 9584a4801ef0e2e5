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
branch is cut once the item's utility falls below the element's k-th
best stored seed utility, which provably cannot hide any element where
the item still has positive marginal utility.

Each oracle is one loop over a row of the family table (_FAMILY_TABLE),
so a new family is one table row plus one reference branch below.

Reference (brute-force) utilities are computed through scipy.sparse.csgraph
and a descending threshold sweep, deliberately independent code paths from
the incremental searches so the two can cross-check each other.
"""

import bisect
import math
import operator
from collections import deque
from dataclasses import dataclass
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
        self.points = points
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

    pi[src][dst] counts the nodes src reaches at least as cheaply as it
    reaches dst (weak inequality, so equidistant nodes share a rank);
    unreachable pairs get inf.
    """

    def __init__(self, tables: list[np.ndarray]):
        self.tables = tables

    def row(self, h: int, src: int) -> np.ndarray:
        return self.tables[h][src]

    def pi(self, h: int, src: int, dst: int) -> float:
        return float(self.tables[h][src][dst])


def ranks_from_distances(dist_row: np.ndarray) -> np.ndarray:
    """Weak-inequality ranks of one source's distance vector."""
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

    def element_id(self, v: int, h: int) -> int:
        return h * self.n + v

    def node_of(self, e: int) -> int:
        return e % self.n

    def instance_of(self, e: int) -> int:
        return e // self.n

    def csr(self, h: int, unit: bool = False):
        """Sparse matrix of instance h; parallel edges collapse to the minimum."""
        key = (h, unit)
        if key not in self._csr_cache:
            best: dict[tuple[int, int], float] = {}
            for s, d, w in self.instances[h]:
                w = 1.0 if unit else w
                if w < best.get((s, d), math.inf):
                    best[(s, d)] = w
            rows, cols = [s for s, _ in best], [d for _, d in best]
            self._csr_cache[key] = csr_matrix(
                (list(best.values()), (rows, cols)), shape=(self.n, self.n)
            )
        return self._csr_cache[key]

    def distances(self, h: int, source: int | None = None) -> np.ndarray:
        mat = self.csr(h)
        if source is None:
            return _sp_dijkstra(mat)
        return _sp_dijkstra(mat, indices=[source])[0]

    def rank_table(self) -> RankTable:
        if self._rank_table is None:
            tables = []
            for h in range(self.count):
                dist = self.distances(h)
                tables.append(np.vstack([ranks_from_distances(row) for row in dist]))
            self._rank_table = RankTable(tables)
        return self._rank_table


def simulate_instances(
    base: DirectedGraph, model: str, count: int, rng_seed: int
) -> GraphInstanceSet:
    """Draw edge-set instances from a randomized model, deterministically.

    * ic: keep each edge independently with its weight as probability,
      kept edges get weight 1;
    * exponential_lengths: redraw each edge length from the exponential
      distribution whose rate is the edge weight;
    * fixed: count verbatim copies of the base graph.
    """
    if count < 1:
        raise ValueError("instance count must be at least 1")
    rng = np.random.default_rng(rng_seed)
    name = {"exponential_lengths": "exponential"}.get(model, model)
    instances = []
    if name == "fixed":
        instances = [list(base.edges) for _ in range(count)]
    elif name == "ic":
        if any(w > 1.0 for _, _, w in base.edges):
            raise ValueError("ic edge probabilities must lie in [0, 1]")
        for _ in range(count):
            draws = rng.random(len(base.edges))
            instances.append(
                [(s, d, 1.0) for (s, d, w), x in zip(base.edges, draws) if x < w]
            )
    elif name == "exponential":
        for _ in range(count):
            lengths = [rng.exponential(1.0 / w) for _, _, w in base.edges]
            instances.append(
                [(s, d, ln) for (s, d, _), ln in zip(base.edges, lengths)]
            )
    else:
        raise ValueError(f"unknown simulation model {model!r}")
    return GraphInstanceSet(base.n, instances)


# ---------------------------------------------------------------------------
# incremental searches


class _DijkstraFrontier:
    """Hand-rolled incremental Dijkstra; settling and expansion are split so
    pruned searches can refuse to expand a settled node.  All frontiers
    share one constructor; this one ignores cap."""

    __slots__ = ("adj", "dist", "_seen", "_heap")

    def __init__(self, adj, source: int, cap: float = 0.0):
        self.adj = adj
        self.dist: dict[int, float] = {}
        self._seen = {source: 0.0}
        self._heap = [(0.0, source)]

    def next(self) -> tuple[int, float] | None:
        heap, dist = self._heap, self.dist
        while heap:
            d, v = heappop(heap)
            if v in dist:
                continue
            dist[v] = d
            return v, d
        return None

    def expand(self, v: int) -> None:
        dist, seen, heap, inf = self.dist, self._seen, self._heap, math.inf
        d = dist[v]
        for w, weight in self.adj[v]:
            nd = d + weight
            if w not in dist and nd < seen.get(w, inf):
                seen[w] = nd
                heappush(heap, (nd, w))


class _WidestFrontier:
    """Max-min (bottleneck) variant: labels are the best minimum edge
    lifetime over paths from the source; nodes settle by decreasing label.
    The source's own label is cap, the instance's longest lifetime."""

    __slots__ = ("adj", "label", "parent", "_seen", "_heap")

    def __init__(self, adj, source: int, cap: float):
        self.adj = adj
        self.label: dict[int, float] = {}
        self.parent: dict[int, int | None] = {source: None}
        self._seen = {source: cap}
        self._heap = [(-cap, source)]

    def next(self) -> tuple[int, float] | None:
        heap, label = self._heap, self.label
        while heap:
            nt, v = heappop(heap)
            if v in label:
                continue
            label[v] = -nt
            return v, -nt
        return None

    def expand(self, v: int) -> None:
        label, seen, heap, parent = self.label, self._seen, self._heap, self.parent
        t = label[v]
        for w, weight in self.adj[v]:
            cand = min(t, weight)
            if w not in label and cand > seen.get(w, 0.0):
                seen[w] = cand
                parent[w] = v
                heappush(heap, (-cand, w))


class _ReachFrontier:
    """Plain BFS with split settle/expand; every node is labelled 1."""

    __slots__ = ("adj", "visited", "_queue")

    def __init__(self, adj, source: int, cap: float = 0.0):
        self.adj = adj
        self.visited = {source}
        self._queue = deque([source])

    def next(self) -> tuple[int, float] | None:
        queue = self._queue
        return (queue.popleft(), 1.0) if queue else None

    def expand(self, v: int) -> None:
        visited, append = self.visited, self._queue.append
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


def rev_sorted_stream(
    instances: GraphInstanceSet, family: UtilityFamily, j: int
) -> RevStream:
    """Incremental reverse sorted access for element j; the stream ends at
    the first zero utility, since later ones only shrink."""
    v, h = instances.node_of(j), instances.instance_of(j)
    row = _FAMILY_TABLE[family.kind]
    ranks = instances.rank_table().row(h, v) if row.needs_ranks else None
    frontier = row.frontier(getattr(instances, row.rev_adj)[h], v, instances.caps[h])

    def search():
        next_, expand = frontier.next, frontier.expand
        amap = family.alpha.map if row.needs_alpha else None
        while (step := next_()) is not None:
            node, u = step
            if ranks is not None:
                u = float(ranks[node])
            if amap is not None:
                u = amap(u)
            if u <= 0.0:
                return
            expand(node)
            yield node, u

    return RevStream(search())


def forward_search(
    instances: GraphInstanceSet, family: UtilityFamily, i: int, digests: DigestTable
) -> ForwardStream:
    """Pruned forward search from item i across all instances.

    Expansion stops at an element whose stored k-th best seed utility
    already beats the item's utility there, strictly or weakly as the
    family's pruning argument allows.  Yielded (element, utility, gain)
    triples are exactly the elements where the item's marginal gain is
    positive, each with that gain.
    """
    row = _FAMILY_TABLE[family.kind]
    adj = instances.adj if row.rev_adj == "tadj" else instances.tadj
    table = instances.rank_table() if row.needs_ranks else None

    def search(stream):
        prune, zero_skips, caps = row.prune, row.zero_skips, instances.caps
        amap = family.alpha.map if row.needs_alpha else None
        elements = digests.digests
        for h in range(instances.count):
            base = h * instances.n
            ranks = table.tables[h][:, i] if table is not None else None
            frontier = row.frontier(adj[h], i, caps[h])
            next_, expand = frontier.next, frontier.expand
            while (step := next_()) is not None:
                node, u = step
                stream.visited += 1
                if ranks is not None:
                    u = float(ranks[node])
                if amap is not None:
                    u = amap(u)
                if u <= 0.0:
                    if zero_skips:
                        continue
                    break  # settle order is by label, the rest are zero too
                digest = elements[base + node]
                if not prune(u, digest.prune_level()):
                    expand(node)
                c = digest.marg(u)
                if c > 0.0:
                    yield base + node, u, c

    return ForwardStream(digests, search)


def marg_gain(
    instances: GraphInstanceSet, family: UtilityFamily, i: int, digests: DigestTable
) -> float:
    """Marginal influence of item i against the current digests; no mutation."""
    return sum(c for _, _, c in forward_search(instances, family, i, digests))


def add_seed(
    instances: GraphInstanceSet,
    family: UtilityFamily,
    i: int,
    digests: DigestTable,
    seeds: set[int] | None = None,
) -> float:
    """Add item i to the seed set: fold its utilities into every digest it
    still improves and return the marginal gain."""
    if seeds is not None:
        if i in seeds:
            raise ValueError(f"item {i} is already a seed")
        seeds.add(i)
    gain = 0.0
    for j, u, c in forward_search(instances, family, i, digests):
        gain += c
        digests[j].update(u)
    digests.mark_seed_added()
    return gain


class GraphProblem:
    """Oracle bundle over graph instances, as consumed by the maximizer."""

    def __init__(self, instances: GraphInstanceSet, family: UtilityFamily, spec):
        self.instances = instances
        self.family = family
        self.spec = spec
        self.n_items = instances.n
        self.n_elements = instances.n_elements
        if _FAMILY_TABLE[family.kind].needs_ranks:
            instances.rank_table()

    def weight(self, j: int) -> float:
        return 1.0

    def rev_stream(self, j: int) -> RevStream:
        return rev_sorted_stream(self.instances, self.family, j)

    def forward_stream(self, i: int, digests: DigestTable) -> ForwardStream:
        return forward_search(self.instances, self.family, i, digests)


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


def pairwise_utility(
    instances: GraphInstanceSet, family: UtilityFamily, i: int, j: int
) -> float:
    """Reference non-incremental utility of item i to element j."""
    v, h = instances.node_of(j), instances.instance_of(j)
    kind = family.kind
    if kind == DISTANCE:
        d = instances.distances(h, source=i)[v]
        return 0.0 if math.isinf(d) else family.alpha(d)
    if kind == REVERSE_RANK:
        ranks = ranks_from_distances(instances.distances(h, source=v))
        pi = float(ranks[i])
        return 0.0 if math.isinf(pi) else family.alpha(pi)
    if kind == REACHABILITY:
        d = _sp_dijkstra(instances.csr(h, unit=True), indices=[i], unweighted=True)[0][v]
        return 0.0 if math.isinf(d) else 1.0
    return survival_thresholds_brute(instances, h, i)[v]


def to_utility_matrix(
    instances: GraphInstanceSet, family: UtilityFamily
) -> SparseUtilityMatrix:
    """Materialize the full utility matrix through the reference routines."""
    n = instances.n
    entries = []
    for h in range(instances.count):
        base = h * n
        kind = family.kind
        if kind == DISTANCE:
            dist = instances.distances(h)
            for i in range(n):
                for v in range(n):
                    if math.isfinite(dist[i][v]):
                        u = family.alpha(dist[i][v])
                        if u > 0:
                            entries.append((i, base + v, u))
        elif kind == REVERSE_RANK:
            dist = instances.distances(h)
            for v in range(n):
                ranks = ranks_from_distances(dist[v])
                for i in range(n):
                    if math.isfinite(ranks[i]):
                        u = family.alpha(ranks[i])
                        if u > 0:
                            entries.append((i, base + v, u))
        elif kind == REACHABILITY:
            dist = _sp_dijkstra(instances.csr(h, unit=True), unweighted=True)
            for i in range(n):
                for v in range(n):
                    if math.isfinite(dist[i][v]):
                        entries.append((i, base + v, 1.0))
        else:
            for i in range(n):
                taus = survival_thresholds_brute(instances, h, i)
                for v in range(n):
                    if taus[v] > 0:
                        entries.append((i, base + v, taus[v]))
    return SparseUtilityMatrix(n, instances.n_elements, entries)
