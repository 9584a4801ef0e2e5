"""Aim 3 as a standing test: peak memory that grows linearly with n.

Each case sets up one exponential instance of a random graph with
out-degree 3 and runs one SKIM solve (k=32, permutation ranks, gamma =
(1, 1/2)) under tracemalloc, at n and at 2n, and bounds the ratio of the
peaks.  A linear path reads about 2 and a quadratic one about 4.  At
n = 250 the linear part is about 2 MB, so a structure of n x n cells
must be large to move the ratio: with one n x n x 3 float64 array (24
bytes a cell) held by the problem every case fails, with 16 bytes a cell
only reverse rank does.

tracemalloc counts bytes, not time, so host load does not move a peak.
Repeated runs in one process agree within 1.3%, except that the first
traced run reads up to 20% higher, which a small warm-up run absorbs.
One seed's ratio is not stable: the peak comes within the first few
seeds of a run, from the reverse streams alive at that moment, and at
n = 250 single seeds read 1.6 to 3.4.  So each case sums the peaks of
SEEDS.  Other triples of seeds 0-9 read up to 3.0 on distance when this
test was written, so a change that keeps more streams alive early in a
run can fail a case without any n x n structure: measure more seeds, or
a larger n, before reading a failure as one.

The graph lazy, exact and --verify paths still build the n x n utility
matrix and read about 4; their cases arrive with the change that removes
it, as does a bound on reverse rank's n x n rank table alone.
"""

import gc
import random
import tracemalloc

import pytest

from conftest import random_graph
from infmax import (
    AggregationSpec,
    Alpha,
    GraphProblem,
    UtilityFamily,
    run_skim,
    simulate_instances,
)

FAMILIES = {
    "distance": UtilityFamily("distance", Alpha.exponential(1.0)),
    "reachability": UtilityFamily("reachability"),
    "survival": UtilityFamily("survival"),
    "reverse-rank": UtilityFamily("reverse_rank", Alpha.inverse()),
}
HALF = AggregationSpec((1.0, 0.5))
N = 250
SEEDS = (0, 1, 2)
# the summed ratios read 1.79 (distance), 2.07 (reachability), 1.85
# (survival) and 2.41 (reverse rank), so the closest case keeps a margin
# of 0.19
BOUND = 2.6


def skim_peak(family: UtilityFamily, n: int, seed: int) -> int:
    """tracemalloc's peak, in bytes, over set-up and one SKIM solve.

    The cyclic collector is off meanwhile: in a test session each
    collection walks every live object of the session, which made the
    traced runs a third slower, and a run leaves so little cyclic garbage
    that the summed peaks moved by under 0.3%."""
    base = random_graph(random.Random(seed), n)
    gc.disable()
    tracemalloc.start()
    try:
        problem = GraphProblem(simulate_instances(base, "exponential", 1, seed), family, HALF)
        run_skim(problem, k=32, rng_seed=seed, rank_mode="permutation")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_skim_peak_memory_grows_linearly(name):
    family = FAMILIES[name]
    skim_peak(family, 20, 0)  # warm-up: the first traced run reads highest
    small = sum(skim_peak(family, N, seed) for seed in SEEDS)
    large = sum(skim_peak(family, 2 * N, seed) for seed in SEEDS)
    assert large / small <= BOUND, (small, large)
