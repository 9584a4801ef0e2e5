"""Weighted top-k aggregation functions and per-element utility digests.

An aggregation turns the multiset of pairwise utilities that a seed set
offers an element into a single value: a non-negative, non-increasing
weight vector gamma is dotted with the k largest utilities.  gamma=(1,)
is plain max coverage, gamma=(1,)*k is the sum of the k best values, and
anything in between (e.g. (1, 1/2, 1/3)) discounts lower-ranked seeds.

A UtilityDigest summarizes the utilities of the current seed set at one
element just well enough to answer marginal-gain queries in O(k); the
maximization algorithms keep one digest per element instead of the full
utility multiset.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator


class StaleStreamError(RuntimeError):
    """Raised when a forward-search stream outlives the seed set it was built for."""


@dataclass(frozen=True)
class AggregationSpec:
    """Weight vector of a top-k aggregation.

    gamma[i] is the coefficient of the (i+1)-th largest utility.  Validity:
    gamma[0] == 1 (a single seed is worth its utility), entries are
    non-negative and non-increasing, which makes the aggregation monotone
    under domination and gives diminishing returns for insertions.
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

    @cached_property
    def ell(self) -> int:
        return len(self.gamma)

    @cached_property
    def effective_ell(self) -> int:
        """Index of the last strictly positive coefficient (trailing zeros are inert)."""
        k = len(self.gamma)
        while k > 1 and self.gamma[k - 1] == 0.0:
            k -= 1
        return k

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
    """Apply the aggregation to a multiset of non-negative utilities."""
    ordered = sorted(values, reverse=True)
    if ordered and ordered[-1] < 0:
        raise ValueError("utilities must be non-negative")
    return sum(g * v for g, v in zip(spec.gamma, ordered))


class UtilityDigest:
    """Top-k summary of one element's seed utilities.

    Stores the ell largest positive utilities seen so far (descending),
    the aggregated value and the two order statistics the searches test
    against; update() refreshes all three and is the only method that
    builds a list.  All queries are answered exactly because the
    aggregation never looks past the ell largest values.  marg() merges
    its probe value into the stored ones on the fly (the probe goes after
    its equals) and sums left to right, term for term as val is summed, so
    a quoted gain equals the growth of val bit for bit.
    """

    __slots__ = ("spec", "gamma", "ell", "top", "val", "_thresh", "_prune")

    def __init__(self, spec: AggregationSpec):
        self.spec = spec
        self.gamma = spec.gamma
        self.ell = spec.ell
        self.top: list[float] = []
        self.val = 0.0
        self._thresh = 0.0
        self._prune = 0.0

    def thresh(self) -> float:
        """Smallest utility that can still increase the aggregated value.

        Equals the boundary order statistic at the last positive gamma
        coefficient; an empty digest has threshold 0.
        """
        return self._thresh

    def prune_level(self) -> float:
        """ell-th largest stored value (0 while fewer than ell are stored)."""
        return self._prune

    def marg(self, x: float) -> float:
        """Gain of adding one seed with utility x, without mutating."""
        if x < 0:
            raise ValueError("utility must be non-negative")
        if x == 0.0 or x < self._thresh:
            return 0.0
        gamma, top = self.gamma, self.top
        s = 0
        k = 0  # x's place: after every stored value >= x
        for v in top:
            if v < x:
                break
            s += gamma[k] * v
            k += 1
        ell = self.ell
        if k == ell:
            return 0.0  # x falls past the ell-th place
        s += gamma[k] * x
        k += 1
        n = len(top)
        while k < ell and k <= n:  # the values after x move one place down
            s += gamma[k] * top[k - 1]
            k += 1
        return s - self.val

    def update(self, x: float) -> None:
        """Fold a new seed utility into the digest; zero is never stored."""
        if x < 0:
            raise ValueError("utility must be non-negative")
        if x == 0.0:
            return
        top, ell = self.top, self.ell
        pos = 0
        while pos < len(top) and top[pos] >= x:
            pos += 1
        if pos == ell:
            return  # x falls past the ell-th place
        top.insert(pos, x)
        del top[ell:]
        val = 0
        for g, v in zip(self.gamma, top):
            val += g * v
        self.val = val
        n, eff = len(top), self.spec.effective_ell
        self._thresh = top[eff - 1] if n >= eff else 0.0
        self._prune = top[ell - 1] if n == ell else 0.0


class DigestTable:
    """One digest per element plus a seed-set version counter.

    Forward-search streams capture the version at creation; consuming a
    stream after another seed has been committed raises StaleStreamError.
    """

    def __init__(self, n_elements: int, spec: AggregationSpec):
        self.spec = spec
        self.digests = [UtilityDigest(spec) for _ in range(n_elements)]
        self.version = 0

    def __len__(self) -> int:
        return len(self.digests)

    def __getitem__(self, j: int) -> UtilityDigest:
        return self.digests[j]

    def __iter__(self) -> Iterator[UtilityDigest]:
        return iter(self.digests)

    def mark_seed_added(self) -> None:
        """Commit the current seed addition; outstanding forward streams go stale."""
        self.version += 1

    def total_value(self, weights=None) -> float:
        if weights is None:
            return sum(d.val for d in self.digests)
        return sum(w * d.val for w, d in zip(weights, self.digests))
