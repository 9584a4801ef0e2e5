"""Tour of aggregation functions and utility digests.

The value a seed set offers one element is a weighted sum of the k best
pairwise utilities.  A digest keeps just those k values and answers
marginal-gain queries without ever rebuilding the full multiset.
"""

from infmax import AggregationSpec, UtilityDigest, aggregate, dominates

values = [1.0, 0.5, 0.2]

print("three seeds offer one element utilities", values)
print("max aggregation        :", aggregate(AggregationSpec.maximum(), values))
print("top-2, runner-up halved:", aggregate(AggregationSpec((1.0, 0.5)), values))
print("plain top-2 sum        :", aggregate(AggregationSpec.top(2), values))
print()

print("domination order (every order statistic at least as large):")
print("  {3,1} vs {2,1} ->", dominates([3, 1], [2, 1]))
print("  {2}   vs {1,1} ->", dominates([2], [1, 1]), " (second largest 0 < 1)")
print()

spec = AggregationSpec((1.0, 0.5))
digest = UtilityDigest(spec)
print("incremental digest under gamma =", spec.gamma)
for x in (0.5, 1.0, 0.2, 0.8):
    gain = digest.marg(x)
    digest.update(x)
    print(f"  update({x}): marginal gain {gain:.3f}, value {digest.val:.3f}, "
          f"stored top {digest.top}")
print()
print("threshold to improve further:", digest.thresh())
print("gain of adding 0.9          :", digest.marg(0.9))
after = UtilityDigest(spec)
for x in digest.top + [0.85]:
    after.update(x)
print("same, if 0.85 arrives first :", after.marg(0.9))
