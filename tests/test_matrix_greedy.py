"""Sparse matrices and the lazy greedy maximizer."""

import dataclasses
import heapq
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import exact_value, random_matrix, singleton_influence
from infmax import (
    AggregationSpec,
    SeedRecord,
    SparseUtilityMatrix,
    exact_greedy,
    exact_influence,
    lazy_greedy,
    optimal_subset,
    sequence_items,
)
from infmax.aggregation import UtilityDigest

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


def tuple_keyed_rows(n_items, n_elements, entries):
    """Reference constructor: the same checks in the same order, with the
    duplicate check keyed on (i, j) tuples."""
    rows = [[] for _ in range(n_items)]
    seen = set()
    for i, j, u in entries:
        if not (0 <= i < n_items) or not (0 <= j < n_elements):
            raise ValueError(f"entry ({i}, {j}) out of range")
        if not 0.0 < u < math.inf:
            raise ValueError(f"utility for ({i}, {j}) must be positive and finite")
        if (i, j) in seen:
            raise ValueError(f"duplicate entry ({i}, {j})")
        seen.add((i, j))
        rows[i].append((j, float(u)))
    return rows


def outcome(build, *args):
    try:
        return "rows", build(*args)
    except ValueError as e:
        return "error", str(e)


@settings(max_examples=300)
@given(st.integers(1, 4), st.integers(1, 4), st.lists(st.tuples(
    st.integers(-1, 4), st.integers(-1, 4),
    st.sampled_from([1.0, 0.5, 2.5, 3, 0.0, -1.0, math.nan, math.inf])), max_size=12))
# every cell once: a key that is not one-to-one in range reports a duplicate
@example(3, 4, [(i, j, 1.0 + j) for i in range(3) for j in range(4)])
@example(4, 3, [(i, j, 1.0 + i) for j in range(3) for i in range(4)])
# ids that agree under i * n_elements + j only when j is out of range
@example(2, 2, [(0, 2, 1.0), (1, 0, 1.0)])
# the first failing check decides the message
@example(2, 2, [(0, 0, 1.0), (0, 0, math.nan)])
@example(2, 2, [(2, 0, 0.0)])
def test_matrix_rows_and_errors_match_a_tuple_keyed_reference(n_items, n_elements, entries):
    got = outcome(lambda *a: SparseUtilityMatrix(*a).rows, n_items, n_elements, entries)
    assert got == outcome(tuple_keyed_rows, n_items, n_elements, entries)
    if got[0] == "rows":
        assert SparseUtilityMatrix(n_items, n_elements, entries).m == len(entries)
        assert all(type(u) is float for row in got[1] for _, u in row)


def test_sorted_columns_break_ties_by_item():
    m = SparseUtilityMatrix(3, 1, [(0, 0, 0.5), (2, 0, 0.5), (1, 0, 0.9)])
    assert m.sorted_cols[0] == [(1, 0.9), (0, 0.5), (2, 0.5)]


def test_columns_are_sorted_on_first_use_only():
    m = SparseUtilityMatrix(2, 2, [(1, 0, 0.9), (0, 0, 0.5), (1, 1, 0.3)])
    assert "cols" not in vars(m) and "sorted_cols" not in vars(m)
    lazy_greedy(m, HALF, 0.0)
    # lazy greedy reads neither
    assert "cols" not in vars(m) and "sorted_cols" not in vars(m)
    assert m.cols == [[(0, 0.5), (1, 0.9)], [(1, 0.3)]]
    assert m.cols is m.cols
    assert m.sorted_cols is m.sorted_cols


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


# -- lazy greedy against a full re-evaluation ------------------------------------


def full_reevaluation_lazy_greedy(matrix, spec, epsilon, stats):
    """Reference: the lazy greedy loop that re-prices every row entry of
    each popped item against the current digests."""
    if matrix.m == 0:
        stats["pops"] = 0
        return []
    digests = [UtilityDigest(spec) for _ in range(matrix.n_elements)]
    weights = matrix.element_weights
    heap = []
    max_single = 0.0
    for i in range(matrix.n_items):
        p = float(singleton_influence(matrix, i))  # gains are floats
        max_single = max(max_single, p)
        heapq.heappush(heap, (-p, i))
    cutoff = 0.0  # the first selection need only gain
    seq, dropped = [], []
    cumulative = 0.0
    pops = 0
    while heap:
        neg_p, i = heapq.heappop(heap)
        priority = -neg_p
        pops += 1
        row = matrix.rows[i]
        gain = sum((weights[j] * digests[j].marg(u) for j, u in row), 0.0)
        if gain <= cutoff:
            dropped.append(SeedRecord(i, priority, gain, cumulative, below_cutoff=True))
        elif gain >= (1.0 - epsilon) * priority:
            cutoff = max_single / (matrix.n_items ** 2)
            for j, u in row:
                digests[j].update(u)
            cumulative += gain
            seq.append(SeedRecord(i, priority, gain, cumulative))
        else:
            heapq.heappush(heap, (-gain, i))
    for rec in dropped:
        rec.cumulative = cumulative
    stats["pops"] = pops
    return seq + dropped


SPECS = [
    AggregationSpec((1.0,)),
    AggregationSpec((1.0, 0.5)),
    AggregationSpec((1.0, 0.5, 0.25)),
    AggregationSpec((1.0, 1.0, 1.0)),
    AggregationSpec((1.0, 0.5, 0.0)),  # trailing zero
    AggregationSpec((1.0, 0.0, 0.0)),
    AggregationSpec((1.0, 1e-300)),
]
# tied values, the smallest subnormal and values near the ends of the range
UTILITIES = st.one_of(
    st.sampled_from([0.25, 0.5, 1.0, 5e-324, 1e-300, 1e300]),
    st.floats(min_value=1e-3, max_value=10.0),
)


@st.composite
def utility_matrices(draw):
    n_items = draw(st.integers(1, 8))
    n_elements = draw(st.integers(1, 10))
    cells = draw(st.sets(st.tuples(st.integers(0, n_items - 1), st.integers(0, n_elements - 1)),
                         max_size=40))
    cells = draw(st.permutations(sorted(cells)))  # rows in any element order
    entries = [(i, j, draw(UTILITIES)) for i, j in cells]
    weights = draw(st.none() | st.lists(
        st.sampled_from([0.1, 0.5, 1.0, 3.0]) | st.floats(min_value=0.01, max_value=4.0),
        min_size=n_elements, max_size=n_elements))
    return SparseUtilityMatrix(n_items, n_elements, entries, weights)


@settings(max_examples=400)
@given(utility_matrices(), st.sampled_from(SPECS), st.sampled_from([0.0, 0.1, 0.5, 0.9]))
# utilities 16 orders of magnitude apart at element 0, where a gain taken
# as a difference of totals rounds to 0.0 and grows again after an update:
# every entry whose element was updated must be priced again
@example(SparseUtilityMatrix(3, 3, [(0, 0, 1e16), (1, 0, 2.0), (1, 1, 2e15), (2, 0, 1.0),
                                    (2, 2, 2e15 + 1.5)]), AggregationSpec((1.0, 1.0, 1.0)), 0.0)
# item 1 adds a value that is tiny next to element 0's total but still
# moves item 2's marginal there: every update counts
@example(SparseUtilityMatrix(3, 3, [(0, 0, 1e16), (1, 0, 1.0), (1, 1, 5e15), (2, 0, 2.0),
                                    (2, 2, 2e15)]), AggregationSpec((1.0, 1.0, 1.0)), 0.0)
def test_lazy_greedy_equals_full_reevaluation_bit_for_bit(m, spec, eps):
    got_stats, want_stats = {}, {}
    got = lazy_greedy(m, spec, eps, stats=got_stats)
    want = full_reevaluation_lazy_greedy(m, spec, eps, want_stats)

    def fields(seq):
        return [(dataclasses.astuple(r), type(r.gain), type(r.estimate)) for r in seq]

    assert fields(got) == fields(want)
    assert got_stats.get("pops") == want_stats.get("pops")


# -- lazy greedy at epsilon 0 against exact rationals ----------------------------


def exact_gain(matrix, spec, seen, i):
    """Item i's marginal influence in exact rationals, where seen[j] lists
    the utilities the selected items offer element j."""
    return sum(
        (Fraction(matrix.element_weights[j])
         * (exact_value(spec, seen[j] + [u]) - exact_value(spec, seen[j]))
         for j, u in matrix.rows[i]),
        Fraction(0),
    )


# no subnormal utility and no coefficient below 1e-3, so no product
# underflows; the digest's rounding bound excludes underflow
EXACT_SPECS = [s for s in SPECS if min(g for g in s.gamma if g > 0.0) >= 1e-3]
EXACT_UTILITIES = st.one_of(
    st.sampled_from([0.25, 0.5, 1.0, 1e-8, 1e16]),
    st.floats(min_value=1e-3, max_value=10.0),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 10.0), st.integers(-8, 15)),
)


@st.composite
def small_matrices(draw):
    n_items = draw(st.integers(1, 6))
    n_elements = draw(st.integers(1, 5))
    cells = draw(st.sets(st.tuples(st.integers(0, n_items - 1), st.integers(0, n_elements - 1)),
                         max_size=20))
    entries = [(i, j, draw(EXACT_UTILITIES)) for i, j in sorted(cells)]
    weights = draw(st.none() | st.lists(
        st.sampled_from([0.5, 1.0, 3.0]) | st.floats(min_value=0.01, max_value=4.0),
        min_size=n_elements, max_size=n_elements))
    return SparseUtilityMatrix(n_items, n_elements, entries, weights)


# after item 0, item 1 exactly gains 1e13 + 3 and item 2 gains 1e13 + 3.5;
# a gain taken as a difference of totals prices item 1's 0.5 * 6.0 at
# element 0 as (1e16 + 3) - 1e16, which rounds to 4, and picks item 1
CANCELLING = SparseUtilityMatrix(50, 3, [(0, 0, 1e16), (1, 0, 6.0), (1, 1, 1e13),
                                         (2, 2, 1e13 + 3.5)])


def assert_picks_exact_argmax_up_to_rounding(m, spec, seq):
    """Each selected record of seq is an exact argmax up to rounding.

    A computed item gain sums one w * marg(u) per row entry: each term
    passes through at most ell + 1 roundings in marg, one in the weight
    product and r - 1 in the row sum, so a gain is within a relative
    delta = (ell + r + 1) u / (1 - (ell + r + 1) u) of the exact one.  A
    lazy priority is an earlier computed gain, and exact gains only
    shrink, so the picked item's exact gain g and the exact maximum g*
    satisfy (1 + delta) g >= (1 - delta) g*, i.e. g* - g <= 2 delta g*.
    """
    r = max(len(row) for row in m.rows)
    t = spec.ell + r + 1
    delta = Fraction(t, 2**53 - t)
    seen = [[] for _ in range(m.n_elements)]
    remaining = set(range(m.n_items))
    cutoff = max(exact_gain(m, spec, seen, i) for i in remaining) / m.n_items**2
    for rec in seq:
        if rec.below_cutoff:
            break
        gains = {i: exact_gain(m, spec, seen, i) for i in remaining}
        best = max(gains.values())
        if best <= 2 * cutoff:
            break  # the drop cutoff governs the tail from here on
        picked = gains[rec.item]
        assert best - picked <= 2 * delta * best
        assert abs(Fraction(rec.gain) - picked) <= delta * picked
        remaining.remove(rec.item)
        for j, u in m.rows[rec.item]:
            seen[j].append(u)


@settings(max_examples=300)
@given(small_matrices(), st.sampled_from(EXACT_SPECS))
@example(CANCELLING, HALF)
def test_lazy_greedy_at_zero_epsilon_picks_an_exact_argmax_up_to_rounding(m, spec):
    assert_picks_exact_argmax_up_to_rounding(m, spec, lazy_greedy(m, spec, 0.0))


@settings(max_examples=300)
@given(small_matrices(), st.sampled_from(EXACT_SPECS))
@example(CANCELLING, HALF)
def test_exact_greedy_picks_an_exact_argmax_up_to_rounding(m, spec):
    assert_picks_exact_argmax_up_to_rounding(m, spec, exact_greedy(m, spec))


def test_exact_greedy_prices_gains_without_cancellation():
    for seq in (exact_greedy(CANCELLING, HALF), lazy_greedy(CANCELLING, HALF, 0.0)):
        assert [(r.item, r.gain) for r in seq[:3]] == [
            (0, 1e16), (2, 10000000000003.5), (1, 10000000000003.0)]


def test_digest_ops_counts_the_calls_digests_receive(monkeypatch):
    calls = [0]

    def counted(fn):
        def wrapper(self, x):
            calls[0] += 1
            return fn(self, x)
        return wrapper

    monkeypatch.setattr(UtilityDigest, "marg", counted(UtilityDigest.marg))
    monkeypatch.setattr(UtilityDigest, "update", counted(UtilityDigest.update))
    rng = random.Random(61)
    for spec in (MAX, HALF, AggregationSpec((1.0, 0.5, 0.0))):
        for eps in (0.0, 0.1, 0.5):
            m = random_matrix(rng, 15, 30, density=0.4)
            calls[0] = 0
            stats = {}
            lazy_greedy(m, spec, eps, stats=stats)
            assert stats["digest_ops"] == calls[0] > 0
