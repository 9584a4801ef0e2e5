"""Aggregation functions, domination order and utility digests."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import compensated_sum, exact_value
from infmax import AggregationSpec, DigestTable, UtilityDigest, aggregate, aggregation, dominates

MAX = AggregationSpec.maximum()
HALF = AggregationSpec((1.0, 0.5))


def brute_value(spec, values):
    """Direct evaluation of the aggregation on a full multiset, summed left
    to right (the order of sum() before Python 3.12)."""
    total = 0
    for g, v in zip(spec.gamma, sorted(values, reverse=True)[: len(spec.gamma)]):
        total += g * v
    return total


def digest_of(spec, values):
    """A fresh digest that has folded in values, in order."""
    d = UtilityDigest(spec)
    for v in values:
        d.update(v)
    return d


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


def test_spec_drops_trailing_zero_coefficients():
    # a zero coefficient weighs nothing, so the spec keeps none
    assert AggregationSpec((1.0, 0.5, 0.0)) == AggregationSpec((1.0, 0.5))
    assert AggregationSpec((1.0, 0.0, 0.0)).gamma == (1.0,)
    assert AggregationSpec((1, 1, 0)).gamma == (1.0, 1.0)
    assert AggregationSpec((1.0,)).gamma == (1.0,)


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


def test_aggregate_sums_left_to_right(monkeypatch):
    # a compensated sum, as sum() is from Python 3.12, gives 1 + 2**-52 here
    monkeypatch.setattr(aggregation, "sum", compensated_sum, raising=False)
    assert aggregate(AggregationSpec.top(3), [1e-16, 1.0, 1e-16]) == 1.0


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
    assert d.top == []
    assert d.thresh() == 0.0
    x = 0.7
    assert d.marg(x) == x  # single seed is worth its utility


def test_digest_table_is_a_plain_list_of_distinct_empty_digests():
    table = DigestTable(3, HALF)
    assert type(table) is list  # an exact list: the hot loops index it
    assert len({id(d) for d in table}) == 3
    assert all(type(d) is UtilityDigest and d.top == [] and d.gamma == HALF.gamma for d in table)


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


def test_digest_gains_are_floats():
    d = UtilityDigest(HALF)
    assert type(d.marg(0.0)) is float


def test_digest_marg_rejects_negative():
    d = UtilityDigest(MAX)
    with pytest.raises(ValueError):
        d.marg(-1.0)


def test_digest_update_examples():
    d = UtilityDigest(HALF)
    d.update(0.5)
    assert d.top == [0.5]
    assert aggregate(HALF, d.top) == 0.5

    d = UtilityDigest(HALF)
    d.update(1.0)
    d.update(0.5)
    d.update(0.8)
    assert d.top == [1.0, 0.8]
    assert aggregate(HALF, d.top) == pytest.approx(1.4, abs=1e-12)


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
    assert aggregate(HALF, d.top) == pytest.approx(1.25, abs=0)

    m = UtilityDigest(MAX)
    for x in (1.0, 0.5, 0.2):
        m.update(x)
    assert aggregate(MAX, m.top) == 1.0


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
            before = aggregate(spec, d.top)
            d.update(x)
            seen.append(x)
            after = aggregate(spec, d.top)
            assert abs(after - brute_value(spec, seen)) < 1e-12
            assert abs(after - before - gain) < 1e-12  # the value grows by the quoted gain
            assert after >= before  # monotone


def test_insertion_has_diminishing_returns():
    rng = random.Random(23)
    for _ in range(500):
        spec = random_spec(rng)
        d = UtilityDigest(spec)
        for _ in range(rng.randrange(0, 6)):
            d.update(rng.randrange(0, 9) / 4.0)
        y = rng.randrange(0, 9) / 4.0
        x = rng.randrange(0, 9) / 4.0
        assert digest_of(spec, d.top + [y]).marg(x) <= d.marg(x) + 1e-12


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
        assert len(d.top) <= len(spec.gamma)
        assert all(a >= b for a, b in zip(d.top, d.top[1:]))
        assert all(v > 0 for v in d.top)


# -- digest kernel against exact rationals ------------------------------------

# tie-prone grid values, ordinary floats, and values spread log-uniformly
# over 1e-8 ... 1e16, where a gain summed as a difference of totals
# cancels; nothing subnormal, whose products the rounding bound excludes
utilities = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 1e-8, 1e16]),
    st.floats(min_value=1e-8, max_value=3.0),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 10.0), st.integers(-8, 15)),
)


@st.composite
def specs(draw):
    # factors stay at or above 1e-3 (or are 0.0), so no product of a
    # coefficient and a utility difference underflows
    gamma = [1.0]
    for _ in range(draw(st.integers(0, 3))):
        factor = draw(st.one_of(st.sampled_from([1.0, 0.5, 0.0]), st.floats(1e-3, 1.0)))
        gamma.append(gamma[-1] * factor)  # a 0.0 factor makes the rest trailing zeros
    return AggregationSpec(tuple(gamma))


def order_statistic(ordered, i):
    return ordered[i - 1] if i <= len(ordered) else 0.0


def rounding_bound(spec):
    """Relative error bound of marg(): (m + 1) * u / (1 - (m + 1) * u) with
    u = 2**-53 and m <= ell terms, as derived in the UtilityDigest docstring."""
    return Fraction(len(spec.gamma) + 1, 2**53 - (len(spec.gamma) + 1))


def assert_prices_exactly(spec, d, x):
    """d.marg(x) has the exact gain's sign and lies within rounding_bound of it."""
    gain = d.marg(x)
    exact = exact_value(spec, d.top + [x]) - exact_value(spec, d.top)
    assert type(gain) is float
    assert (gain > 0.0) == (exact > 0) and gain >= 0.0
    assert abs(Fraction(gain) - exact) <= rounding_bound(spec) * exact


@settings(max_examples=400, deadline=None)
@given(
    spec=specs(),
    updates=st.lists(utilities, max_size=10),
    probes=st.lists(st.tuples(utilities, utilities), min_size=1, max_size=4),
)
# a total of 1e16 + 1 rounds back to 1e16, so a difference of totals
# prices 1.0 at 0.0; the difference sum prices it at exactly 1.0
@example(spec=AggregationSpec((1.0, 1.0, 1.0)), updates=[1e16], probes=[(2.0, 1.0)])
def test_digest_is_within_rounding_of_exact_rationals(spec, updates, probes):
    d = UtilityDigest(spec)
    seen = []
    for step in range(len(updates) + 1):
        top = list(d.top)
        ordered = sorted((u for u in seen if u > 0.0), reverse=True)
        assert top == ordered[: len(spec.gamma)]
        assert d.thresh() == order_statistic(ordered, len(spec.gamma))
        for y, x in probes:
            assert_prices_exactly(spec, d, x)
            # the gain of x once y is folded in, as move_down prices it
            assert_prices_exactly(spec, digest_of(spec, top + [y]), x)
        if step == len(updates):
            break
        x = updates[step]
        assert_prices_exactly(spec, d, x)
        d.update(x)
        seen.append(x)


@settings(max_examples=400)
@given(spec=specs(), x=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
@example(spec=AggregationSpec.maximum(), x=5e-324)
@example(spec=AggregationSpec((1.0, 0.5)), x=math.nextafter(2.0**-1022, 0.0))
@example(spec=AggregationSpec((1.0, 0.0)), x=1.7976931348623157e308)
def test_marg_against_an_empty_digest_is_the_utility(spec, x):
    # gamma_0 = 1, so SKIM's drain prices w * u against an empty digest
    # without calling marg; subnormal utilities included
    gain = UtilityDigest(spec).marg(x)
    assert type(gain) is float and gain == x


def test_gains_are_floats_for_integer_gamma_and_utilities():
    d = UtilityDigest(AggregationSpec((1, 1)))
    d.update(3)
    assert type(d.marg(5)) is float and d.marg(5) == 5.0
    assert type(d.marg(2)) is float and d.marg(2) == 2.0


@pytest.mark.parametrize("x", [-1.0, math.nan])
def test_digest_rejects_negative_and_nan_utilities(x):
    d = digest_of(HALF, [1.0, 0.5])
    with pytest.raises(ValueError):
        d.marg(x)
    with pytest.raises(ValueError):
        d.update(x)
