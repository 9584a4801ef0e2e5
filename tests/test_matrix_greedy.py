"""Sparse matrices and the lazy greedy maximizer."""

import math
import random

import pytest

from conftest import random_matrix
from infmax import (
    AggregationSpec,
    SparseUtilityMatrix,
    exact_greedy,
    exact_influence,
    lazy_greedy,
    optimal_subset,
    sequence_items,
)

MAX = AggregationSpec.maximum()
HALF = AggregationSpec((1.0, 0.5))


def two_by_two():
    # items a=0, b=1; elements x=0, y=1
    return SparseUtilityMatrix(2, 2, [(0, 0, 2.0), (1, 0, 1.0), (1, 1, 1.0)])


# -- matrix validation ---------------------------------------------------------


def test_matrix_rejects_duplicates():
    with pytest.raises(ValueError):
        SparseUtilityMatrix(2, 2, [(0, 0, 1.0), (0, 0, 2.0)])


def test_matrix_rejects_nonpositive_utility():
    with pytest.raises(ValueError):
        SparseUtilityMatrix(2, 2, [(0, 0, 0.0)])


@pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
def test_matrix_rejects_non_finite_utility(u):
    with pytest.raises(ValueError, match="positive and finite"):
        SparseUtilityMatrix(2, 2, [(0, 0, 1.0), (1, 1, u)])


@pytest.mark.parametrize("w", [math.nan, math.inf, 0.0])
def test_matrix_rejects_bad_element_weight(w):
    with pytest.raises(ValueError, match="element weights"):
        SparseUtilityMatrix(2, 2, [(0, 0, 1.0)], element_weights=[1.0, w])


def test_matrix_rejects_out_of_range():
    with pytest.raises(ValueError):
        SparseUtilityMatrix(2, 2, [(2, 0, 1.0)])


def test_matrix_rejects_bad_weights():
    with pytest.raises(ValueError):
        SparseUtilityMatrix(1, 2, [(0, 0, 1.0)], element_weights=[1.0])
    with pytest.raises(ValueError):
        SparseUtilityMatrix(1, 2, [(0, 0, 1.0)], element_weights=[1.0, 0.0])


def test_sorted_columns_break_ties_by_item():
    m = SparseUtilityMatrix(3, 1, [(0, 0, 0.5), (2, 0, 0.5), (1, 0, 0.9)])
    assert m.sorted_cols[0] == [(1, 0.9), (0, 0.5), (2, 0.5)]


# -- lazy greedy behaviour -------------------------------------------------------


def test_two_by_two_sequence():
    seq = lazy_greedy(two_by_two(), MAX, 0.0)
    assert [(r.item, r.gain) for r in seq] == [(0, 2.0), (1, 1.0)]
    assert [r.cumulative for r in seq] == [2.0, 3.0]


def test_single_item_gets_its_row_sum():
    m = SparseUtilityMatrix(1, 3, [(0, 0, 1.0), (0, 2, 0.25)])
    seq = lazy_greedy(m, HALF, 0.0)
    assert len(seq) == 1
    assert seq[0].item == 0
    assert seq[0].gain == pytest.approx(1.25)


def test_empty_matrix_gives_empty_sequence():
    m = SparseUtilityMatrix(3, 3, [])
    assert lazy_greedy(m, MAX, 0.0) == []


def test_invalid_epsilon_rejected():
    for eps in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            lazy_greedy(two_by_two(), MAX, eps)


def test_lazy_matches_exact_greedy_at_zero_epsilon():
    rng = random.Random(42)
    for trial in range(30):
        spec = rng.choice([MAX, HALF, AggregationSpec((1.0, 1.0))])
        m = random_matrix(rng, 10, 20, density=0.4, private=True)
        lazy = lazy_greedy(m, spec, 0.0)
        exact = exact_greedy(m, spec)
        assert not any(r.below_cutoff for r in lazy)
        assert sequence_items(lazy) == sequence_items(exact)
        for a, b in zip(lazy, exact):
            assert a.gain == pytest.approx(b.gain, abs=1e-9)


def test_selected_gain_meets_priority_contract():
    rng = random.Random(9)
    for eps in (0.0, 0.2, 0.5):
        m = random_matrix(rng, 12, 30, density=0.5)
        for rec in lazy_greedy(m, MAX, eps):
            if not rec.below_cutoff and rec.estimate is not None:
                assert rec.gain >= (1.0 - eps) * rec.estimate - 1e-12


def test_drop_path_flags_dominated_items():
    # one strong item dominating near-duplicates of itself: the duplicates'
    # residual gains fall under max/n^2 and must come back flagged, while the
    # selected portion agrees with exact greedy restricted to the same items
    entries = [(0, j, 1.0) for j in range(8)]
    entries += [(1, j, 0.999) for j in range(8)]
    entries += [(2, 0, 0.998)]
    entries += [(3, 8, 0.6)]  # private element, stays above the cutoff of 0.5
    m = SparseUtilityMatrix(4, 9, entries)
    seq = lazy_greedy(m, MAX, 0.0)
    flagged = [r.item for r in seq if r.below_cutoff]
    assert flagged  # the construction must actually force drops
    assert set(flagged) <= {1, 2}
    selected = sequence_items(seq)
    exact_items = sequence_items(exact_greedy(m, MAX))
    assert selected == [i for i in exact_items if i not in flagged]
    assert [r.item for r in seq[: len(selected)]] == selected  # flagged sit at the end


def test_prefix_guarantee_against_optimum():
    rng = random.Random(17)
    for trial in range(10):
        m = random_matrix(rng, 9, 14, density=0.5)
        spec = rng.choice([MAX, HALF])
        seq = lazy_greedy(m, spec, 0.0)
        items = sequence_items(seq)
        for s in (1, 2, 3, 4):
            if s > len(items):
                continue
            _, opt = optimal_subset(m, spec, s)
            prefix = exact_influence(m, spec, items[:s])
            bound = 1.0 - (1.0 - 1.0 / s) ** s
            assert prefix >= bound * opt - 1e-9


def test_work_accounting_bound():
    rng = random.Random(31)
    for eps in (0.2, 0.5):
        m = random_matrix(rng, 15, 40, density=0.5)
        stats = {}
        lazy_greedy(m, HALF, eps, stats=stats)
        log_range = math.log(m.n_items ** 2)
        rounds = 1.0 + (1.0 / eps) * (log_range / math.log(1.0 / (1.0 - eps)))
        assert stats["digest_ops"] <= 2 * m.m * rounds


def test_priorities_never_increase():
    # heap priorities are stale upper bounds; the recorded estimates along the
    # selected prefix must therefore be non-increasing
    rng = random.Random(3)
    m = random_matrix(rng, 12, 25, density=0.6)
    seq = lazy_greedy(m, HALF, 0.0)
    gains = [r.gain for r in seq if not r.below_cutoff]
    assert all(a >= b - 1e-9 for a, b in zip(gains, gains[1:]))


def test_element_weights_scale_influence():
    m = SparseUtilityMatrix(
        2, 2, [(0, 0, 1.0), (1, 1, 1.0)], element_weights=[3.0, 1.0]
    )
    seq = lazy_greedy(m, MAX, 0.0)
    assert sequence_items(seq) == [0, 1]
    assert seq[0].gain == pytest.approx(3.0)
    assert exact_influence(m, MAX, [0, 1]) == pytest.approx(4.0)
