"""The four graph utility families and their access oracles.

One toy graph, four readings of "how useful is node i to node j":
shrinking with distance, shrinking with distance rank, plain
reachability, and the largest edge lifetime that keeps j reachable.
Reverse sorted access streams items for one element by non-increasing
utility; the pruned forward search lists where an item still gains.
"""

from infmax import (
    AggregationSpec,
    Alpha,
    DigestTable,
    GraphInstanceSet,
    GraphProblem,
    UtilityFamily,
    add_seed,
    pairwise_utility,
)

#      0 --2.0--> 1 --1.0--> 2
#      0 --0.5--> 2          3 --3.0--> 1
edges = [(0, 1, 2.0), (1, 2, 1.0), (0, 2, 0.5), (3, 1, 3.0)]
inst = GraphInstanceSet(4, [edges])

families = {
    "distance (alpha = 1/x)": UtilityFamily("distance", Alpha.inverse()),
    "reverse rank (1/rank) ": UtilityFamily("reverse_rank", Alpha.inverse()),
    "reachability          ": UtilityFamily("reachability"),
    "survival threshold    ": UtilityFamily("survival"),
}

print("pairwise utility of item i (rows) to element j (columns):")
for name, fam in families.items():
    print(f"\n{name}")
    header = "      " + "".join(f"  j={j}" for j in range(4))
    print(header)
    for i in range(4):
        row = "".join(f" {pairwise_utility(inst, fam, i, j):>4.2f}" for j in range(4))
        print(f"  i={i}{row}")

problem = GraphProblem(inst, families["distance (alpha = 1/x)"], AggregationSpec.maximum())
print("\nreverse sorted access for element 2 (items by non-increasing utility):")
stream = problem.rev_stream(2)
while (t := stream.pop()) is not None:
    print(f"  item {t[0]} with utility {t[1]:.3f}")

print("\nforward search from node 0 before and after seeding node 1:")
digests = DigestTable(inst.n_elements, problem.spec)
print("  before:", [(j, u) for j, u, _ in problem.forward_stream(0, digests)])
gain = add_seed(problem, 1, digests)
print(f"  seeding node 1 gains {gain:.3f}")
stream = problem.forward_stream(0, digests)
pairs = [(j, u) for j, u, _ in stream]
print("  after :", pairs, f"({stream.visited} nodes settled, rest pruned)")
