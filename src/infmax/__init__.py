"""Greedy influence maximization for submodular top-k utility aggregations.

The library covers three layers:

* aggregation: weighted top-k aggregation functions and per-element
  utility digests answering marginal-gain queries;
* oracles: reverse sorted access and forward search over explicit
  matrices or graph instance sets (distance, reverse-rank, reachability
  and survival-threshold utilities), plus brute-force baselines;
* maximizers: lazy greedy for explicit matrices and the sketch-based
  sampler (run_skim) that needs only oracle access.
"""

from .aggregation import (
    AggregationSpec,
    DigestTable,
    StaleStreamError,
    UtilityDigest,
    aggregate,
    dominates,
)
from .graphs import (
    Alpha,
    DirectedGraph,
    GraphInstanceSet,
    GraphProblem,
    RankTable,
    UtilityFamily,
    add_seed,
    forward_search,
    marg_gain,
    pairwise_utility,
    rev_sorted_stream,
    simulate_instances,
    to_utility_matrix,
)
from .greedy import GreedySequence, SeedRecord, lazy_greedy, sequence_items
from .matrix import SparseUtilityMatrix
from .oracles import (
    MatrixProblem,
    exact_greedy,
    exact_influence,
    matrix_forward_search,
    matrix_rev_sorted_stream,
    optimal_subset,
)
from .skim import SkimRun, default_sample_size, run_skim

__all__ = [
    "AggregationSpec",
    "Alpha",
    "DigestTable",
    "DirectedGraph",
    "GraphInstanceSet",
    "GraphProblem",
    "GreedySequence",
    "MatrixProblem",
    "RankTable",
    "SeedRecord",
    "SkimRun",
    "SparseUtilityMatrix",
    "StaleStreamError",
    "UtilityDigest",
    "UtilityFamily",
    "add_seed",
    "aggregate",
    "default_sample_size",
    "dominates",
    "exact_greedy",
    "exact_influence",
    "forward_search",
    "lazy_greedy",
    "marg_gain",
    "matrix_forward_search",
    "matrix_rev_sorted_stream",
    "optimal_subset",
    "pairwise_utility",
    "rev_sorted_stream",
    "run_skim",
    "sequence_items",
    "simulate_instances",
    "to_utility_matrix",
]
