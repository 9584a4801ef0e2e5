"""Greedy influence maximization for submodular top-k utility aggregations.

The library covers three layers:

* aggregation: weighted top-k aggregation functions and per-element
  utility digests answering marginal-gain queries;
* oracles: problem bundles over explicit matrices (MatrixProblem) or
  graph instance sets (GraphProblem: distance, reverse-rank, reachability
  and survival-threshold utilities), the one way into reverse sorted
  access and forward search; marg_gain and add_seed over either; and
  brute-force baselines;
* maximizers: lazy greedy for explicit matrices and the sketch-based
  sampler (run_skim) that needs only oracle access.
"""

from .aggregation import (
    AggregationSpec,
    DigestTable,
    UtilityDigest,
    aggregate,
    dominates,
)
from .graphs import (
    Alpha,
    DirectedGraph,
    GraphInstanceSet,
    GraphProblem,
    UtilityFamily,
    pairwise_utility,
    simulate_instances,
    to_utility_matrix,
)
from .greedy import GreedySequence, SeedRecord, lazy_greedy, sequence_items
from .matrix import SparseUtilityMatrix
from .oracles import (
    MatrixProblem,
    add_seed,
    exact_greedy,
    exact_influence,
    marg_gain,
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
    "SeedRecord",
    "SkimRun",
    "SparseUtilityMatrix",
    "UtilityDigest",
    "UtilityFamily",
    "add_seed",
    "aggregate",
    "default_sample_size",
    "dominates",
    "exact_greedy",
    "exact_influence",
    "lazy_greedy",
    "marg_gain",
    "optimal_subset",
    "pairwise_utility",
    "run_skim",
    "sequence_items",
    "simulate_instances",
    "to_utility_matrix",
]
