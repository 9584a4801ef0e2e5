"""Seeded workloads of the infmax benchmark.

Each workload turns a seed into inputs (untimed), offers a set-up step
(timed as setup_s) that builds the library objects a user would build,
and a solve step (timed as solve_s) that computes one full greedy
sequence.  The library sees only the generated inputs.

`reference()` rebuilds the workload's utilities as sparse (item, element,
utility) triples through scipy.sparse.csgraph and numpy, never through
the library's oracles, so checks.py can verify every solve independently.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra, shortest_path

import infmax
from infmax import graphs, greedy, matrix, skim

SKIM_K = 32
# Evenly spaced element ranks.  With uniform random ranks the few
# elements drawn with a tiny rank sample nearly their whole reverse
# stream, so the sampled-entry count (and solve time) of one input varied
# 2.6x between seeds; permutation ranks keep that spread near 3%.
RANK_MODE = "permutation"


@dataclass
class Reference:
    """Utilities as triples, grouped by item (CSR over items)."""

    n_items: int
    n_elements: int
    gamma: np.ndarray
    indptr: np.ndarray
    elements: np.ndarray
    utilities: np.ndarray


@dataclass
class Workload:
    kind: str  # "skim" or "lazy"
    setup: object  # () -> problem, built by the library
    solve: object  # (problem, stats) -> GreedySequence
    reference: object  # () -> Reference


def _random_edges(rng, n: int, out_degree: float) -> tuple[np.ndarray, np.ndarray]:
    """Distinct directed pairs without self-loops, about out_degree per node."""
    m = int(n * out_degree * 1.1)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    keep = src != dst
    pairs = np.unique(src[keep] * n + dst[keep])
    pairs = rng.permutation(pairs)[: int(n * out_degree)]
    return pairs // n, pairs % n


def _triples(per_item: list[tuple[np.ndarray, np.ndarray]], n_items, n_elements, gamma):
    """Pack per-item (elements, utilities) arrays into a Reference."""
    sizes = np.array([len(e) for e, _ in per_item], dtype=np.int64)
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    return Reference(
        n_items,
        n_elements,
        np.asarray(gamma, dtype=float),
        indptr,
        np.concatenate([e for e, _ in per_item]).astype(np.int64),
        np.concatenate([u for _, u in per_item]).astype(float),
    )


def _instance_csr(n: int, edges) -> csr_matrix:
    if not edges:
        return csr_matrix((n, n))
    s, d, w = (np.array(c) for c in zip(*edges))
    return csr_matrix((w.astype(float), (s, d)), shape=(n, n))


def graph_workload(seed, n, out_degree, weights, model, count, family, gamma):
    """A SKIM run over `count` simulated instances of a random graph.

    weights(rng, m) draws the base edge weights: IC probabilities for the
    ic model, exponential rates for the exponential-lengths model.
    """
    rng = np.random.default_rng(seed)
    src, dst = _random_edges(rng, n, out_degree)
    w = weights(rng, len(src))
    base = graphs.DirectedGraph(n, tuple(zip(src.tolist(), dst.tolist(), w.tolist())))
    spec = infmax.AggregationSpec(tuple(gamma))

    def setup():
        instances = graphs.simulate_instances(base, model, count, seed)
        return graphs.GraphProblem(instances, family, spec)

    def solve(problem, stats):
        return skim.run_skim(problem, k=SKIM_K, rng_seed=seed, rank_mode=RANK_MODE,
                             stats=stats)

    def reference():
        # re-simulated with the same seed: the check needs the instance
        # edges, and set-up objects are not kept past the timed section
        inst = graphs.simulate_instances(base, model, count, seed)
        per_h = []
        for edges in inst.instances:
            mat = _instance_csr(n, edges)
            if family.kind == "reachability":
                dist = shortest_path(mat, unweighted=True)
                util = np.where(np.isfinite(dist), 1.0, 0.0)
            elif family.kind == "distance":
                dist = dijkstra(mat)
                util = _alpha(family.alpha, dist)
            else:  # reverse rank: rank of item i among node v's distances
                dist = dijkstra(mat)
                ranks = np.empty_like(dist)
                for v in range(n):
                    row = dist[v]
                    finite = np.sort(row[np.isfinite(row)])
                    ranks[v] = np.searchsorted(finite, row, side="right")
                ranks[~np.isfinite(dist)] = np.inf
                util = _alpha(family.alpha, ranks).T
            per_h.append(util)  # util[item, node]
        per_item = []
        for i in range(n):
            elems, utils = [], []
            for h, util in enumerate(per_h):
                nz = np.flatnonzero(util[i] > 0.0)
                elems.append(nz + h * n)
                utils.append(util[i][nz])
            per_item.append((np.concatenate(elems), np.concatenate(utils)))
        return _triples(per_item, n, n * count, gamma)

    return Workload("skim", setup, solve, reference)


def _alpha(alpha, x: np.ndarray) -> np.ndarray:
    """Vectorized alpha maps used by the workloads (exp and inverse)."""
    with np.errstate(divide="ignore", over="ignore"):
        if alpha.kind == "exp":
            out = np.exp(-x / alpha.param)
        elif alpha.kind == "inverse":
            out = 1.0 / np.maximum(x, 1.0)
        else:
            raise ValueError(f"no reference for alpha kind {alpha.kind!r}")
    out[~np.isfinite(x)] = 0.0
    return out


def matrix_workload(seed, n_items, n_elements, per_item, gamma, epsilon):
    """Lazy greedy on a random sparse matrix: no graph oracle, no SKIM queue."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_items):
        elems = rng.choice(n_elements, per_item, replace=False)
        rows.append((elems, 0.1 + rng.random(per_item)))
    entries = [
        (i, j, u)
        for i, (elems, utils) in enumerate(rows)
        for j, u in zip(elems.tolist(), utils.tolist())
    ]
    spec = infmax.AggregationSpec(tuple(gamma))

    def setup():
        return matrix.SparseUtilityMatrix(n_items, n_elements, entries)

    def solve(problem, stats):
        return greedy.lazy_greedy(problem, spec, epsilon, stats=stats)

    def reference():
        return _triples(rows, n_items, n_elements, gamma)

    return Workload("lazy", setup, solve, reference)


def _ic_probabilities(rng, m):
    return rng.uniform(0.0, 0.5, m)


def _exp_rates(rng, m):
    return rng.uniform(0.5, 2.0, m)


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    """The named workload's inputs for this seed; scale < 1 shrinks it for tests."""

    def size(x):
        return max(8, int(x * scale))

    exp1 = graphs.Alpha.exponential(1.0)
    if name == "skim-distance":
        return graph_workload(seed, size(250), 4, _exp_rates, "exponential", 2,
                              graphs.UtilityFamily("distance", exp1), (1.0, 0.5))
    if name == "skim-reach-ic":
        return graph_workload(seed, size(1000), 3, _ic_probabilities, "ic", 4,
                              graphs.UtilityFamily("reachability"), (1.0,))
    if name == "skim-rank":
        return graph_workload(seed, size(250), 4, _exp_rates, "exponential", 2,
                              graphs.UtilityFamily("reverse_rank", graphs.Alpha.inverse()),
                              (1.0, 1.0, 1.0))
    if name == "lazy-matrix":
        return matrix_workload(seed, size(750), size(7500), min(40, size(7500)),
                               (1.0, 0.5, 0.25), 0.1)
    raise KeyError(name)


NAMES = ("skim-distance", "skim-reach-ic", "skim-rank", "lazy-matrix")
