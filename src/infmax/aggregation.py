"""Weighted top-k aggregation functions and per-element utility digests.

An aggregation turns the multiset of pairwise utilities that a seed set
offers an element into a single value: a non-negative, non-increasing
weight vector gamma is dotted with the k largest utilities.  gamma=(1,)
is plain max coverage, gamma=(1,)*k is the sum of the k best values, and
anything in between (e.g. (1, 1/2, 1/3)) discounts lower-ranked seeds.

A UtilityDigest summarizes the utilities of the current seed set at one
element just well enough to answer marginal-gain queries in O(k); the
maximization algorithms keep one digest per element, in a plain list
indexed by element id (DigestTable), instead of the full utility
multiset.  A gain is summed from non-negative differences of the stored
values, never as a difference of two totals, so it is zero exactly when
the exact gain is and otherwise within a few units of rounding of it.
"""

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class AggregationSpec:
    """Weight vector of a top-k aggregation.

    gamma[i] is the coefficient of the (i+1)-th largest utility.  Validity:
    gamma[0] == 1 (a single seed is worth its utility), entries are
    non-negative and non-increasing, which makes the aggregation monotone
    under domination and gives diminishing returns for insertions.  The
    stored gamma is float and ends at its last positive coefficient: a
    trailing zero weighs nothing, so (1, 0.5, 0) and (1, 0.5) are one spec.
    """

    gamma: tuple[float, ...]

    def __post_init__(self):
        if not self.gamma:
            raise ValueError("gamma must be non-empty")
        if self.gamma[0] != 1.0:
            raise ValueError("leading gamma coefficient must be 1")
        prev = None
        for g in self.gamma:
            if not g >= 0:  # negated so that NaN fails too
                raise ValueError("gamma coefficients must be non-negative numbers")
            if prev is not None and g > prev:
                raise ValueError("gamma coefficients must be non-increasing")
            prev = g
        # float coefficients make every gain a float, whatever the utilities;
        # as gamma is non-increasing, its zeros are the trailing run dropped
        object.__setattr__(self, "gamma", tuple(float(g) for g in self.gamma if g > 0))

    @classmethod
    def maximum(cls) -> "AggregationSpec":
        """Classic max-coverage aggregation."""
        return cls((1.0,))

    @classmethod
    def top(cls, ell: int) -> "AggregationSpec":
        """Unweighted sum of the ell largest utilities."""
        return cls((1.0,) * ell)


def dominates(a: Iterable[float], b: Iterable[float]) -> bool:
    """Multiset domination: every order statistic of a is >= that of b."""
    sa = sorted(a, reverse=True)
    sb = sorted(b, reverse=True)
    if len(sb) > len(sa):
        sa = sa + [0.0] * (len(sb) - len(sa))
    return all(x >= y for x, y in zip(sa, sb))


def aggregate(spec: AggregationSpec, values: Iterable[float]) -> float:
    """Apply the aggregation to a multiset of non-negative utilities,
    summed left to right (sum() compensates from Python 3.12)."""
    ordered = sorted(values, reverse=True)
    if ordered and ordered[-1] < 0:
        raise ValueError("utilities must be non-negative")
    total = 0.0
    for g, v in zip(spec.gamma, ordered):
        total += g * v
    return total


class UtilityDigest:
    """Top-k summary of one element's seed utilities.

    Stores the largest positive utilities seen so far (descending), one
    for each coefficient of the spec, whose last one is positive, and the
    order statistic the searches test against; update() inserts a value,
    trims the list and refreshes it, and is the only method that builds a
    list.  The aggregated value itself is never stored:
    aggregate(spec, digest.top) computes it when wanted.

    marg(x) prices x as a sum of differences.  With v_0 >= v_1 >= ... the
    stored values (v_k = 0 past them) and p the place x takes (after its
    equals), the gain is

        gamma_p * (x - v_p) + sum_{p < k < ell} gamma_k * (v_{k-1} - v_k),

    since x takes slot p and each later value moves one slot down.  Every
    term is non-negative, and a difference of two ordered floats has the
    sign of the exact one, so marg(x) == 0.0 exactly when the true gain is
    zero.  No value is subtracted from a larger sum, so nothing cancels.
    With m <= ell terms, a term passes through at most m + 1 roundings
    (its difference, its product and at most m - 1 additions), each of
    relative size at most u = 2**-53.  As all terms are non-negative, the
    quoted gain is within a relative (m + 1) * u / (1 - (m + 1) * u) of the
    exact rational gain of the stored floats and coefficients, barring
    underflow of a product (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, ch. 3-4).
    """

    __slots__ = ("gamma", "eff", "top", "_thresh")

    def __init__(self, spec: AggregationSpec):
        self.gamma = spec.gamma
        self.eff = len(spec.gamma)
        self.top: list[float] = []
        self._thresh = 0.0

    def thresh(self) -> float:
        """Smallest utility that can still increase the aggregated value.

        Equals the boundary order statistic at the last positive gamma
        coefficient; an empty digest has threshold 0.
        """
        return self._thresh

    def marg(self, x: float) -> float:
        """Gain of adding one seed with utility x, without mutating."""
        if not x > self._thresh:  # NaN lands here too
            if not x >= 0:
                raise ValueError("utility must be a non-negative number")
            return 0.0
        top = self.top
        p = 0  # x's place: after every stored value >= x
        for v in top:
            if v < x:
                break
            p += 1
        # x > thresh puts p at or before the last coefficient, eff - 1; at
        # most eff values are stored, and no coefficient lies past them
        gamma, n = self.gamma, len(top)
        if p == n:
            return gamma[p] * x
        c = gamma[p] * (x - top[p])
        k = p + 1
        while k < n:
            c += gamma[k] * (top[k - 1] - top[k])
            k += 1
        if n < self.eff:
            c += gamma[n] * top[n - 1]  # the last stored value moves past v_n = 0
        return c

    def update(self, x: float) -> None:
        """Fold a new seed utility into the digest; zero is never stored."""
        if not x > self._thresh:  # zero, NaN, or past the last positive coefficient
            if not x >= 0:
                raise ValueError("utility must be a non-negative number")
            return
        top = self.top
        pos = 0
        for v in top:
            if v < x:
                break
            pos += 1
        top.insert(pos, x)
        eff = self.eff
        if len(top) > eff:
            top.pop()
        self._thresh = top[eff - 1] if len(top) == eff else 0.0


def DigestTable(n_elements: int, spec: AggregationSpec) -> list[UtilityDigest]:
    """One empty digest per element, in a plain list indexed by element id
    (CPython specializes indexing for exact lists only)."""
    return [UtilityDigest(spec) for _ in range(n_elements)]
