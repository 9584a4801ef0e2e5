"""Aggregation functions, domination order and utility digests."""

import math
import random

import pytest

from infmax import AggregationSpec, UtilityDigest, aggregate, dominates

MAX = AggregationSpec.maximum()
HALF = AggregationSpec((1.0, 0.5))


def brute_value(spec, values):
    """Direct evaluation of the aggregation on a full multiset."""
    top = sorted(values, reverse=True)[: spec.ell]
    return sum(g * v for g, v in zip(spec.gamma, top))


def random_multiset(rng, max_len=8, tie_prone=False):
    n = rng.randrange(0, max_len + 1)
    if tie_prone:
        return [rng.randrange(0, 5) / 4.0 for _ in range(n)]
    return [rng.random() * 3.0 for _ in range(n)]


def random_spec(rng):
    ell = rng.randrange(1, 5)
    gamma = [1.0]
    for _ in range(ell - 1):
        gamma.append(gamma[-1] * rng.choice([1.0, 0.75, 0.5, 0.0]))
    return AggregationSpec(tuple(gamma))


# -- spec validation ---------------------------------------------------------


def test_spec_rejects_bad_gamma():
    with pytest.raises(ValueError):
        AggregationSpec((0.5,))  # leading coefficient must be 1
    with pytest.raises(ValueError):
        AggregationSpec((1.0, 1.5))  # increasing
    with pytest.raises(ValueError):
        AggregationSpec((1.0, -0.1))  # negative
    with pytest.raises(ValueError):
        AggregationSpec(())


@pytest.mark.parametrize("gamma", [(math.nan,), (1.0, math.nan), (1.0, 0.5, math.nan)])
def test_spec_rejects_nan_gamma(gamma):
    with pytest.raises(ValueError):
        AggregationSpec(gamma)


def test_effective_ell_skips_trailing_zeros():
    assert AggregationSpec((1.0, 0.5, 0.0)).effective_ell == 2
    assert AggregationSpec((1.0,)).effective_ell == 1


# -- domination --------------------------------------------------------------


def test_dominates_elementwise():
    assert dominates([3, 1], [2, 1])


def test_dominates_pads_with_zero():
    assert not dominates([2], [1, 1])  # second largest 0 < 1


def test_dominates_reflexive():
    rng = random.Random(7)
    for _ in range(20):
        a = random_multiset(rng)
        assert dominates(a, a)


def test_domination_implies_higher_aggregate():
    rng = random.Random(11)
    hits = 0
    for _ in range(500):
        spec = random_spec(rng)
        a = random_multiset(rng, tie_prone=True)
        b = random_multiset(rng, tie_prone=True)
        if dominates(a, b):
            hits += 1
            assert aggregate(spec, a) >= aggregate(spec, b) - 1e-12
    assert hits > 20  # the generator must actually exercise the property


def test_union_preserves_domination_order():
    # growth invariance: a >= b implies F(a + c) >= F(b + c)
    rng = random.Random(13)
    hits = 0
    for _ in range(800):
        spec = random_spec(rng)
        a = random_multiset(rng, tie_prone=True)
        b = random_multiset(rng, tie_prone=True)
        c = random_multiset(rng, tie_prone=True)
        if dominates(a, b):
            hits += 1
            assert aggregate(spec, a + c) >= aggregate(spec, b + c) - 1e-12
    assert hits > 20


# -- aggregate ---------------------------------------------------------------


def test_aggregate_weighted_pair_example():
    # favourite counts in full, runner-up at half weight
    assert aggregate(HALF, [1.0, 0.5, 0.2]) == pytest.approx(1.25, abs=0)


def test_aggregate_max_example():
    assert aggregate(MAX, [1.0, 0.5, 0.2]) == 1.0


def test_aggregate_empty_is_zero():
    assert aggregate(HALF, []) == 0.0
    assert aggregate(MAX, []) == 0.0


def test_aggregate_singleton_identity():
    rng = random.Random(3)
    for _ in range(20):
        spec = random_spec(rng)
        x = rng.random() * 5
        assert aggregate(spec, [x]) == x


def test_aggregate_rejects_negative():
    with pytest.raises(ValueError):
        aggregate(MAX, [1.0, -0.5])


# -- digest examples ---------------------------------------------------------


def test_digest_init_state():
    d = UtilityDigest(HALF)
    assert d.val == 0.0
    assert d.thresh() == 0.0
    x = 0.7
    assert d.marg(x) == x  # single seed is worth its utility


def test_digest_thresh_weighted_pair():
    d = UtilityDigest(HALF)
    d.update(1.0)
    d.update(0.5)
    # values strictly above the 2nd largest gain, values at it do not
    assert d.thresh() == 0.5
    assert d.marg(0.5) == 0.0
    assert d.marg(0.5 + 1e-9) > 0.0


def test_digest_thresh_max_aggregation():
    d = UtilityDigest(MAX)
    d.update(0.7)
    assert d.thresh() == 0.7
    assert d.marg(0.7) == 0.0
    assert d.marg(0.8) == pytest.approx(0.1)


def test_digest_thresh_trailing_zero_gamma():
    d = UtilityDigest(AggregationSpec((1.0, 0.5, 0.0)))
    for x in (1.0, 0.6, 0.3):
        d.update(x)
    # the third slot carries weight 0, so only the 2nd largest matters
    assert d.thresh() == 0.6


def test_digest_marg_weighted_pair():
    d = UtilityDigest(HALF)
    d.update(1.0)
    d.update(0.5)
    # F({1, .8, .5}) = 1.4 against F({1, .5}) = 1.25
    assert d.marg(0.8) == pytest.approx(0.15, abs=1e-12)
    assert d.marg(0.5) == 0.0


def test_digest_marg_rejects_negative():
    d = UtilityDigest(MAX)
    with pytest.raises(ValueError):
        d.marg(-1.0)


def test_digest_add_marg_examples():
    d = UtilityDigest(HALF)
    d.update(1.0)
    # top two saturate at {1, 0.8}; 0.6 then adds nothing
    assert d.add_marg(0.8, 0.6) == pytest.approx(0.0, abs=1e-12)

    d2 = UtilityDigest(MAX)
    assert d2.add_marg(2.0, 3.0) == pytest.approx(1.0)

    d3 = UtilityDigest(HALF)
    d3.update(1.0)
    d3.update(0.4)
    for x in (0.0, 0.3, 0.7, 1.5):
        assert d3.add_marg(0.0, x) == d3.marg(x)


def test_digest_update_examples():
    d = UtilityDigest(HALF)
    d.update(0.5)
    assert d.top == [0.5]
    assert d.val == 0.5

    d = UtilityDigest(HALF)
    d.update(1.0)
    d.update(0.5)
    d.update(0.8)
    assert d.top == [1.0, 0.8]
    assert d.val == pytest.approx(1.4, abs=1e-12)


def test_digest_update_zero_is_noop():
    d = UtilityDigest(HALF)
    d.update(1.0)
    before = list(d.top)
    d.update(0.0)
    assert d.top == before


def test_digest_weighted_sequence_value():
    d = UtilityDigest(HALF)
    for x in (1.0, 0.5, 0.2):
        d.update(x)
    assert d.val == pytest.approx(1.25, abs=0)

    m = UtilityDigest(MAX)
    for x in (1.0, 0.5, 0.2):
        m.update(x)
    assert m.val == 1.0


# -- digest properties against the brute-force evaluation ---------------------


def test_digest_matches_brute_force_on_random_updates():
    rng = random.Random(101)
    for _ in range(300):
        spec = random_spec(rng)
        d = UtilityDigest(spec)
        seen = []
        for _ in range(rng.randrange(0, 12)):
            x = rng.randrange(0, 9) / 4.0
            probe = rng.randrange(0, 9) / 4.0
            expected_marg = brute_value(spec, seen + [probe]) - brute_value(spec, seen)
            assert abs(d.marg(probe) - expected_marg) < 1e-12
            gain = d.marg(x)
            before = d.val
            d.update(x)
            seen.append(x)
            assert abs(d.val - brute_value(spec, seen)) < 1e-12
            assert abs(d.val - before - gain) < 1e-12  # val grows by the quoted gain
            assert d.val >= before  # monotone


def test_digest_add_marg_matches_brute_force():
    rng = random.Random(55)
    for _ in range(300):
        spec = random_spec(rng)
        d = UtilityDigest(spec)
        seen = []
        for _ in range(rng.randrange(0, 6)):
            x = rng.randrange(0, 9) / 4.0
            d.update(x)
            seen.append(x)
        y = rng.randrange(0, 9) / 4.0
        x = rng.randrange(0, 9) / 4.0
        expected = brute_value(spec, seen + [y, x]) - brute_value(spec, seen + [y])
        assert abs(d.add_marg(y, x) - expected) < 1e-12


def test_insertion_has_diminishing_returns():
    rng = random.Random(23)
    for _ in range(500):
        spec = random_spec(rng)
        d = UtilityDigest(spec)
        for _ in range(rng.randrange(0, 6)):
            d.update(rng.randrange(0, 9) / 4.0)
        y = rng.randrange(0, 9) / 4.0
        x = rng.randrange(0, 9) / 4.0
        assert d.add_marg(y, x) <= d.marg(x) + 1e-12


def test_marginal_gain_preserves_utility_order():
    rng = random.Random(77)
    for _ in range(500):
        spec = random_spec(rng)
        d = UtilityDigest(spec)
        for _ in range(rng.randrange(0, 6)):
            d.update(rng.randrange(0, 9) / 4.0)
        x = rng.random() * 2
        x2 = x + rng.random()
        assert d.marg(x) <= d.marg(x2) + 1e-12


def test_digest_never_stores_more_than_ell():
    rng = random.Random(5)
    spec = AggregationSpec((1.0, 0.5, 0.25))
    d = UtilityDigest(spec)
    for _ in range(50):
        d.update(rng.random())
        assert len(d.top) <= spec.ell
        assert all(a >= b for a, b in zip(d.top, d.top[1:]))
        assert all(v > 0 for v in d.top)
