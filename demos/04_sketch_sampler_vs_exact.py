"""Sketch-based maximization against the exact per-step maxima.

The sampler touches utilities only through the two oracles, keeps
threshold samples of marginal influence per item, and still tracks the
exact greedy trajectory closely: each accepted seed passed a validation
against its own estimate, and here we compare against the true step
maxima computed from a materialized utility matrix.
"""

import random

import numpy as np

from infmax import (
    AggregationSpec,
    Alpha,
    GraphInstanceSet,
    GraphProblem,
    UtilityFamily,
    run_skim,
    to_utility_matrix,
)

rng = random.Random(21)
n = 40
edges = []
for _ in range(3 * n):
    s, d = rng.randrange(n), rng.randrange(n)
    if s != d:
        edges.append((s, d, 0.2 + 1.8 * rng.random()))
inst = GraphInstanceSet(n, [edges, edges[::2]])
family = UtilityFamily("distance", Alpha.exponential(1.0))
spec = AggregationSpec.maximum()

stats = {}
seq = run_skim(GraphProblem(inst, family, spec), k=32, rng_seed=3, stats=stats)

ref = to_utility_matrix(inst, family)
dense = np.zeros((ref.n_items, ref.n_elements))
for i in range(ref.n_items):
    dense[i, ref.elements[i]] = ref.utilities[i]

print(f"{n}-node graph, 2 instances, {inst.n_elements} elements, k=32")
print(f"forward-search yields: {stats['forward_yields']}, "
      f"reverse pops: {stats['rev_pops']}, exact validations: {stats['exact_evals']}")
print()
print("step  tau      item  estimate  exact gain  vs step max")
covered = np.zeros(ref.n_elements)
for step, (tau, rec) in enumerate(zip(stats["tau"][:12], seq)):
    item, est, gain = rec.item, rec.estimate, rec.gain
    best = np.maximum(dense - covered, 0.0).sum(axis=1).max()
    print(f"{step + 1:>4}  {tau:7.4f} {item:>5} {est:>9.3f} {gain:>11.3f}"
          f" {gain / best:>11.3f}")
    covered = np.maximum(covered, dense[item])
print(f"... {len(seq)} seeds selected, total influence {seq[-1].cumulative:.3f}")
