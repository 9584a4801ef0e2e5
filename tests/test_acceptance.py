"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import random

import numpy as np
import pytest

from conftest import column_utilities, random_instances, random_matrix, row
from infmax import (
    AggregationSpec,
    Alpha,
    DigestTable,
    GraphInstanceSet,
    GraphProblem,
    MatrixProblem,
    UtilityFamily,
    add_seed,
    aggregate,
    exact_greedy,
    exact_influence,
    lazy_greedy,
    marg_gain,
    optimal_subset,
    pairwise_utility,
    run_skim,
    sequence_items,
)

MAX = AggregationSpec.maximum()
HALF = AggregationSpec((1.0, 0.5))
INV = Alpha.inverse()


def report(num: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


# -- 1: toy-graph utility fixtures -------------------------------------------------


def test_criterion_1_toy_utilities():
    dist_fam = UtilityFamily("distance", INV)
    g_dist = GraphInstanceSet(4, [[(1, 0, 2.0), (2, 0, 1.0), (3, 0, 5.0)]])
    ok = pairwise_utility(g_dist, dist_fam, 1, 0) == 0.5
    ok = ok and pairwise_utility(g_dist, dist_fam, 2, 0) == 1.0
    ok = ok and pairwise_utility(g_dist, dist_fam, 3, 0) == 1.0 / 5.0

    rank_fam = UtilityFamily("reverse_rank", INV)
    g_rank = GraphInstanceSet(
        4, [[(0, 2, 1.0), (0, 1, 2.0), (3, 2, 1.0), (3, 0, 2.0), (3, 1, 3.0)]]
    )
    ok = ok and pairwise_utility(g_rank, rank_fam, 1, 0) == 1.0 / 3.0  # rank 3
    ok = ok and pairwise_utility(g_rank, rank_fam, 1, 3) == 1.0 / 4.0  # rank 4

    surv_fam = UtilityFamily("survival")
    g_surv = GraphInstanceSet(4, [[(0, 1, 2.0), (3, 1, 1.0)]])
    ok = ok and pairwise_utility(g_surv, surv_fam, 0, 1) == 2.0
    ok = ok and pairwise_utility(g_surv, surv_fam, 3, 1) == 1.0
    report(1, "toy utility fixtures", ok)


# -- 2: aggregation example ---------------------------------------------------------


def test_criterion_2_aggregation_example():
    values = [1.0, 0.5, 0.2]
    ok = aggregate(MAX, values) == 1.0
    ok = ok and aggregate(HALF, values) == 1.25
    report(2, "aggregation example", ok)


# -- 3: greedy guarantee against the exhaustive optimum ------------------------------


def guarantee_trial(matrix, spec, skim_problem, rng_seed):
    lazy_items = sequence_items(lazy_greedy(matrix, spec, 0.0))
    skim_items = sequence_items(run_skim(skim_problem, k=64, rng_seed=rng_seed))
    for s in (1, 2, 3, 4):
        _, opt = optimal_subset(matrix, spec, s)
        if opt <= 0:
            continue
        bound = 1.0 - (1.0 - 1.0 / s) ** s
        lazy_pref = exact_influence(matrix, spec, lazy_items[:s])
        if lazy_pref < bound * opt - 1e-9:
            return False
        skim_pref = exact_influence(matrix, spec, skim_items[: min(s, len(skim_items))])
        if skim_pref < (bound - 0.15) * opt - 1e-9:
            return False
    return True


def test_criterion_3_greedy_guarantee():
    from infmax import to_utility_matrix

    rng = random.Random(301)
    ok = True
    for trial in range(20):  # matrices
        spec = [MAX, HALF][trial % 2]
        m = random_matrix(rng, 10, 16, density=0.5)
        ok = ok and guarantee_trial(m, spec, MatrixProblem(m, spec), trial)
    for trial in range(20):  # graphs
        inst = random_instances(rng, 9, 2)
        fam = UtilityFamily("distance", Alpha.exponential(1.0))
        spec = [MAX, HALF][trial % 2]
        ref = to_utility_matrix(inst, fam)
        ok = ok and guarantee_trial(ref, spec, GraphProblem(inst, fam, spec), trial)
    report(3, "greedy 1-1/e guarantee", ok)


# -- 4: pruned forward search equals brute force --------------------------------------


def brute_positive_sets(ref, spec, seeds):
    base_vals = [column_utilities(ref, j, seeds) for j in range(ref.n_elements)]
    base = [aggregate(spec, vals) for vals in base_vals]
    out = {}
    for i in range(ref.n_items):
        if i in seeds:
            continue
        want = set()
        for j, u in row(ref, i):
            if aggregate(spec, base_vals[j] + [u]) - base[j] > 0:
                want.add(j)
        out[i] = want
    return out


def test_criterion_4_oracle_equivalence():
    from infmax import to_utility_matrix

    rng = random.Random(401)
    specs = [MAX, HALF, AggregationSpec((1.0, 1.0, 0.25))]
    families = [
        UtilityFamily("distance", Alpha.exponential(1.5)),
        UtilityFamily("reverse_rank", INV),
        UtilityFamily("reachability"),
        UtilityFamily("survival"),
    ]
    ok = True
    for inst, sizes in (
        (random_instances(rng, 50, 2), (0, 1, 3, 5)),
        (random_instances(rng, 24, 4), (0, 2, 4, 5)),
    ):
        for family_idx, family in enumerate(families):
            ref = to_utility_matrix(inst, family)
            problem = GraphProblem(inst, family, None)
            for size_idx, size in enumerate(sizes):
                spec = specs[(size_idx + family_idx) % len(specs)]
                seeds = rng.sample(range(inst.n), size)
                table = DigestTable(ref.n_elements, spec)
                for s in seeds:
                    for j, u in row(ref, s):
                        table[j].update(u)
                want = brute_positive_sets(ref, spec, seeds)
                for i in range(inst.n):
                    if i in seeds:
                        continue
                    got = {j for j, _, _ in problem.forward_stream(i, table)}
                    if got != want[i]:
                        ok = False
    report(4, "pruned search equals brute force", ok)


# -- 5: estimator unbiasedness ----------------------------------------------------------


def test_criterion_5_estimator_unbiasedness():
    from infmax import to_utility_matrix

    rng = random.Random(501)
    inst = random_instances(rng, 20, 1)
    fam = UtilityFamily("distance", Alpha.exponential(1.0))
    ref = to_utility_matrix(inst, fam)
    seeds = [3, 11]
    item = 7
    base_vals = [column_utilities(ref, j, seeds) for j in range(ref.n_elements)]
    margs = np.array(
        [
            aggregate(HALF, base_vals[j] + [u]) - aggregate(HALF, base_vals[j])
            for j, u in row(ref, item)
        ]
    )
    margs = margs[margs > 0]
    exact = margs.sum()
    tau = 0.5 * margs.max()
    draws = 10_000
    gen = np.random.default_rng(502)
    ranks = 1.0 - gen.random((draws, len(margs)))
    sampled = margs / ranks >= tau
    estimates = (np.maximum(margs, tau) * sampled).sum(axis=1)
    se = estimates.std(ddof=1) / math.sqrt(draws)
    ok = abs(estimates.mean() - exact) <= 3.0 * se
    report(5, "estimator unbiasedness", ok)


# -- 6: per-step quality against the exact maximum ---------------------------------------


def test_criterion_6_skim_step_quality():
    from infmax import to_utility_matrix

    rng = random.Random(601)
    total = good = 0
    for graph_trial in range(5):
        inst = random_instances(rng, 50, 4)
        fam = UtilityFamily("distance", Alpha.exponential(1.0))
        ref = to_utility_matrix(inst, fam)
        dense = np.zeros((ref.n_items, ref.n_elements))
        for i in range(ref.n_items):
            dense[i, ref.elements[i]] = ref.utilities[i]
        for rng_seed in range(4):
            seq = run_skim(GraphProblem(inst, fam, MAX), k=64, rng_seed=rng_seed)
            covered = np.zeros(ref.n_elements)
            for rec in seq:
                gains = np.maximum(dense - covered, 0.0).sum(axis=1)
                best = gains.max()
                total += 1
                if rec.gain >= 0.9 * best - 1e-9:
                    good += 1
                covered = np.maximum(covered, dense[rec.item])
    ok = good / total >= 0.95
    print(f"  step quality: {good}/{total} = {good / total:.4f}")
    report(6, "per-step quality >= 0.9 max in 95% of steps", ok)


# -- 7: near-linear growth of forward-search work ------------------------------------------


def test_criterion_7_near_linear_yields():
    rng = random.Random(701)
    fam = UtilityFamily("distance", Alpha.exponential(1.0))
    ratios = []
    for trial in range(5):
        yields = []
        for n in (64, 128):
            inst = random_instances(rng, n, 1, avg_degree=3.0)
            stats = {}
            run_skim(GraphProblem(inst, fam, MAX), k=16, rng_seed=trial, stats=stats)
            yields.append(stats["forward_yields"])
        ratios.append(yields[1] / yields[0])
    mean_ratio = sum(ratios) / len(ratios)
    print(f"  doubling ratios: {[round(r, 3) for r in ratios]} mean {mean_ratio:.3f}")
    ok = mean_ratio <= 2.6
    report(7, "near-linear forward-search yields", ok)


# -- 8: lazy greedy at epsilon=0 equals exact greedy ----------------------------------------


def test_criterion_8_lazy_equals_exact():
    rng = random.Random(801)
    ok = True
    for trial in range(50):
        spec = [MAX, HALF, AggregationSpec((1.0, 1.0))][trial % 3]
        m = random_matrix(rng, 8, 12, density=0.45, private=True)
        lazy = lazy_greedy(m, spec, 0.0)
        exact = exact_greedy(m, spec)
        if any(r.below_cutoff for r in lazy):
            ok = False
        if sequence_items(lazy) != sequence_items(exact):
            ok = False
        if not all(
            a.gain == pytest.approx(b.gain, abs=1e-9) for a, b in zip(lazy, exact)
        ):
            ok = False
    report(8, "lazy epsilon=0 equals exact greedy", ok)


# -- 9: per-step quality beyond coverage: top-l aggregations, all four families --------


# (family, gamma, average out-degree): at degree 3 two reachability seeds
# reach nearly every node, so its graphs are sparser to leave steps to test
STEP_QUALITY_CASES = {
    "distance": (UtilityFamily("distance", Alpha.exponential(1.0)), (1.0, 0.5), 3.0),
    "reverse-rank": (UtilityFamily("reverse_rank", INV), (1.0, 1.0, 1.0), 3.0),
    "survival": (UtilityFamily("survival"), (1.0, 0.5, 0.25), 3.0),
    "reachability": (UtilityFamily("reachability"), (1.0, 1.0), 1.0),
}


@pytest.mark.parametrize("family", sorted(STEP_QUALITY_CASES))
def test_criterion_9_skim_step_quality_beyond_coverage(family):
    # criterion 6 for l >= 2, where the step maximum does not vectorize: it
    # is marg_gain of every unselected item against the selected seeds
    fam, gamma, degree = STEP_QUALITY_CASES[family]
    spec = AggregationSpec(gamma)
    rng = random.Random(901)
    total = good = 0
    for graph_trial in range(3):
        problem = GraphProblem(random_instances(rng, 50, 2, degree), fam, spec)
        digests = DigestTable(problem.n_elements, spec)
        taken = set()
        for rec in run_skim(problem, k=64, rng_seed=graph_trial):
            if rec.below_cutoff:
                continue
            rest = (i for i in range(problem.n_items) if i not in taken)
            best = max(marg_gain(problem, i, digests) for i in rest)
            total += 1
            if rec.gain >= 0.9 * best - 1e-9:
                good += 1
            add_seed(problem, rec.item, digests, taken)
    print(f"  {family} gamma={gamma}: {good}/{total} = {good / total:.4f}")
    report(9, f"{family} per-step quality >= 0.9 max in 95% of steps", good / total >= 0.95)
