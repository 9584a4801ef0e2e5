"""Graph instance sets, the four utility families, and their oracles."""

import hashlib
import math
import random
from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_instances, singleton_influence
from infmax import (
    AggregationSpec,
    Alpha,
    DigestTable,
    DirectedGraph,
    GraphInstanceSet,
    GraphProblem,
    UtilityFamily,
    add_seed,
    aggregate,
    marg_gain,
    pairwise_utility,
    simulate_instances,
    to_utility_matrix,
)
from infmax import graphs
from infmax.graphs import _WidestFrontier, ranks_from_distances

MAX = AggregationSpec.maximum()
HALF = AggregationSpec((1.0, 0.5))

INV = Alpha.inverse()
DIST_INV = UtilityFamily("distance", INV)
RANK_INV = UtilityFamily("reverse_rank", INV)
REACH = UtilityFamily("reachability")
SURV = UtilityFamily("survival")


def single(edges, n):
    return GraphInstanceSet(n, [list(edges)])


def digests_from_matrix(matrix, spec, seeds):
    table = DigestTable(matrix.n_elements, spec)
    for s in seeds:
        for j, u in matrix.rows[s]:
            table[j].update(u)
    return table


def drain(stream):
    out = []
    while (t := stream.pop()) is not None:
        out.append(t)
    return out


# -- types and validation -------------------------------------------------------


def test_family_validation():
    with pytest.raises(ValueError):
        UtilityFamily("distance")  # missing alpha
    with pytest.raises(ValueError):
        UtilityFamily("reachability", INV)  # alpha forbidden
    with pytest.raises(ValueError):
        UtilityFamily("nearest")


def table_step(points, x):
    """Value of the last breakpoint at or below x; the first value below all."""
    below = [v for bx, v in points if bx <= x]
    return below[-1] if below else points[0][1]


def test_alpha_forms():
    t = Alpha.threshold(2.0)
    assert t(2.0) == 1.0 and t(2.1) == 0.0
    e = Alpha.exponential(2.0)
    assert e(0.0) == 1.0
    assert e(2.0) == pytest.approx(math.exp(-1.0))
    assert INV(4.0) == 0.25
    assert INV(0.0) == 1.0  # clamped below 1 so self-distances stay finite
    tab = Alpha.table([(0.0, 1.0), (1.5, 0.5), (3.0, 0.0)])
    assert tab(0.0) == 1.0 and tab(1.4) == 1.0 and tab(1.5) == 0.5 and tab(5.0) == 0.0
    with pytest.raises(ValueError):
        Alpha.table([(0.0, 0.5), (1.0, 0.7)])  # increasing values
    # every kind maps an unreachable (infinite) distance or rank to zero,
    # threshold:inf included, and agrees with its formula bit for bit on
    # a grid holding 0, 1, the breakpoints and their neighbours
    steps = [(0.0, 1.0), (1.5, 0.5), (3.0, 0.0)]
    above_zero = [(1.0, 0.8), (2.5, 0.25)]
    kinds = [
        (Alpha.threshold(2.0), lambda x: 1.0 if x <= 2.0 else 0.0),
        (Alpha.threshold(math.inf), lambda x: 1.0),
        (Alpha.threshold(0.0), lambda x: 1.0 if x <= 0.0 else 0.0),
        (INV, lambda x: 1.0 / max(x, 1.0)),
        (Alpha.exponential(2.0), lambda x: math.exp(-x / 2.0)),
        (Alpha.exponential(0.3), lambda x: math.exp(-x / 0.3)),
        (Alpha.table(steps), lambda x: table_step(steps, x)),
        (Alpha.table(above_zero), lambda x: table_step(above_zero, x)),
    ]
    breaks = (0.0, 1.0, 1.5, 2.0, 2.5, 3.0)
    grid = [0.25, 0.5, 4.0, 7.0, 1e300, *breaks]
    grid += [math.nextafter(b, -math.inf) for b in breaks[1:]]
    grid += [math.nextafter(b, math.inf) for b in breaks]
    for alpha, formula in kinds:
        assert alpha(math.inf) == 0.0, alpha.kind
        for x in grid:
            assert alpha(x) == formula(x), (alpha.kind, x)
            assert type(alpha(x)) is float, (alpha.kind, x)


def test_alpha_rejects_nan():
    nan = math.nan
    for make in (
        lambda: Alpha.threshold(nan),
        lambda: Alpha.exponential(nan),
        lambda: Alpha.table([(nan, 1.0)]),
        lambda: Alpha.table([(0.0, 1.0), (nan, 0.5)]),
        lambda: Alpha.table([(0.0, nan)]),
        lambda: Alpha.table([(0.0, 1.0), (1.0, nan)]),
    ):
        with pytest.raises(ValueError):
            make()
    assert Alpha.threshold(math.inf)(1e300) == 1.0  # threshold:inf stays valid


def test_instance_set_rejects_bad_edges():
    with pytest.raises(ValueError):
        GraphInstanceSet(2, [[(0, 2, 1.0)]])
    with pytest.raises(ValueError):
        GraphInstanceSet(2, [[(0, 1, 0.0)]])


@pytest.mark.parametrize(
    "edge", [(0, 2, 1.0), (-1, 0, 1.0), (0, 1, 0.0), (0, 1, math.nan), (0, 1, math.inf)]
)
def test_graph_and_instance_set_share_the_edge_check(edge):
    with pytest.raises(ValueError, match=r"edge \(-?\d+, \d+\)"):
        DirectedGraph(2, (edge,))
    with pytest.raises(ValueError, match=r"edge \(-?\d+, \d+\)"):
        GraphInstanceSet(2, [[(0, 1, 1.0)], [edge]])


def test_element_ids_enumerate_node_instance_pairs():
    g = single([(0, 1, 1.0)], 3)
    gg = GraphInstanceSet(3, [[(0, 1, 1.0)], [(1, 2, 1.0)]])
    assert g.n_elements == 3 and gg.n_elements == 6
    assert gg.node_of(5) == 2 and gg.instance_of(5) == 1
    pairs = [(gg.node_of(e), gg.instance_of(e)) for e in range(gg.n_elements)]
    assert pairs == [(v, h) for h in range(2) for v in range(3)]  # e = h * n + v


# -- simulation -------------------------------------------------------------------


def test_fixed_model_copies_base():
    base = DirectedGraph(3, ((0, 1, 2.0), (1, 2, 0.5)))
    inst = simulate_instances(base, "fixed", 3, rng_seed=0)
    assert inst.count == 3
    assert all(edges == list(base.edges) for edges in inst.instances)


def test_ic_with_certain_edges_keeps_everything():
    base = DirectedGraph(3, ((0, 1, 1.0), (1, 2, 1.0)))
    inst = simulate_instances(base, "ic", 5, rng_seed=1)
    for edges in inst.instances:
        assert [(s, d) for s, d, _ in edges] == [(0, 1), (1, 2)]
        assert all(w == 1.0 for _, _, w in edges)


def test_ic_rejects_probability_above_one():
    base = DirectedGraph(2, ((0, 1, 1.5),))
    with pytest.raises(ValueError):
        simulate_instances(base, "ic", 1, rng_seed=0)


def test_ic_binomial_concentration():
    base = DirectedGraph(2, ((0, 1, 0.5),))
    inst = simulate_instances(base, "ic", 10000, rng_seed=7)
    present = sum(1 for edges in inst.instances if edges)
    assert abs(present - 5000) <= 150  # 3 sigma for Binomial(10^4, 1/2)


def test_simulation_is_deterministic():
    base = DirectedGraph(4, ((0, 1, 0.4), (1, 2, 0.7), (2, 3, 0.9)))
    a = simulate_instances(base, "ic", 20, rng_seed=3)
    b = simulate_instances(base, "ic", 20, rng_seed=3)
    assert a.instances == b.instances
    c = simulate_instances(base, "exponential", 4, rng_seed=5)
    d = simulate_instances(base, "exponential", 4, rng_seed=5)
    assert c.instances == d.instances


def test_exponential_lengths_are_positive():
    base = DirectedGraph(3, ((0, 1, 2.0), (1, 2, 0.3)))
    inst = simulate_instances(base, "exponential", 10, rng_seed=11)
    for edges in inst.instances:
        assert all(w > 0 for _, _, w in edges)


def pin_graph(seed, n, m, parallel=False):
    """Random base graph with non-dyadic rates in [0.05, 3]."""
    rng = random.Random(seed)
    edges = []
    for _ in range(m):
        s, d = rng.randrange(n), rng.randrange(n)
        if s != d:
            edges.append((s, d, rng.uniform(0.05, 3.0)))
    if parallel:
        edges.append(edges[0][:2] + (0.1,))
    return DirectedGraph(n, tuple(edges))


# SHA-256 of repr(simulate_instances(graph, "exponential", count, seed).instances):
# each instance takes one exponential draw per edge, in edge order
EXPONENTIAL_PINS = {
    "n7-parallel": (pin_graph(1, 7, 14, parallel=True), 2, 0,
                    "ad549128e25c6a35dc12bfa32638c2648339759691d201dbb33259ce06c35cba"),
    "n40": (pin_graph(2, 40, 160), 3, 11,
            "fd866d6a4edcd9fd892f189cbf7cbaa7abc556fd71e269facfda9ea54344d4d1"),
    "n300": (pin_graph(3, 300, 1200), 2, 2024,
             "044c1ad0f0ccc99fa5d122954340efe0b20f3acb0cdbf33ff6c1261f10f9b065"),
}


@pytest.mark.parametrize("name", sorted(EXPONENTIAL_PINS))
def test_exponential_lengths_are_pinned(name):
    base, count, seed, expected = EXPONENTIAL_PINS[name]
    inst = simulate_instances(base, "exponential", count, seed)
    assert hashlib.sha256(repr(inst.instances).encode()).hexdigest() == expected


def test_exponential_model_of_an_edgeless_graph():
    inst = simulate_instances(DirectedGraph(3, ()), "exponential", 2, rng_seed=0)
    assert inst.instances == [[], []]


# -- pairwise utilities (toy-graph fixtures) -----------------------------------------


def test_distance_utilities_with_inverse_alpha():
    # A=0, B=1, C=2, D=3 with direct edges into A
    g = single([(1, 0, 2.0), (2, 0, 1.0), (3, 0, 5.0)], 4)
    assert pairwise_utility(g, DIST_INV, 1, 0) == 0.5
    assert pairwise_utility(g, DIST_INV, 2, 0) == 1.0
    assert pairwise_utility(g, DIST_INV, 3, 0) == pytest.approx(0.2)


def test_reverse_rank_utilities_with_inverse_alpha():
    # A=0, B=1, C=2, D=3: A reaches C(1), B(2); D reaches C(1), A(2), B(3)
    g = single([(0, 2, 1.0), (0, 1, 2.0), (3, 2, 1.0), (3, 0, 2.0), (3, 1, 3.0)], 4)
    # rank of B by A counts {A, C, B}; rank of B by D counts everyone
    assert pairwise_utility(g, RANK_INV, 1, 0) == pytest.approx(1.0 / 3.0)
    assert pairwise_utility(g, RANK_INV, 1, 3) == pytest.approx(0.25)


def test_survival_utilities():
    g = single([(0, 1, 2.0), (3, 1, 1.0)], 4)
    assert pairwise_utility(g, SURV, 0, 1) == 2.0
    assert pairwise_utility(g, SURV, 3, 1) == 1.0


def test_survival_single_path_is_min_lifetime():
    g = single([(0, 1, 3.0), (1, 2, 2.0), (2, 3, 5.0)], 4)
    assert pairwise_utility(g, SURV, 0, 3) == 2.0


def test_unreachable_pairs_have_zero_utility():
    g = single([(0, 1, 1.0)], 3)
    for fam in (DIST_INV, RANK_INV, REACH, SURV):
        assert pairwise_utility(g, fam, 2, 0) == 0.0
    for fam in (DIST_INV, REACH, SURV):
        assert pairwise_utility(g, fam, 1, 0) == 0.0  # edge points the other way
    # rank utility is driven by the element node's own distances, so the
    # forward edge 0 -> 1 still ranks item 1 second for element 0
    assert pairwise_utility(g, RANK_INV, 1, 0) == 0.5


def test_reachability_includes_self():
    g = single([(0, 1, 1.0)], 2)
    assert pairwise_utility(g, REACH, 0, 0) == 1.0
    assert pairwise_utility(g, REACH, 0, 1) == 1.0


@st.composite
def tied_instance_sets(draw):
    """Up to two small instances with few distinct edge weights, so equal
    distances are common, and sparse enough to leave nodes unreachable."""
    n = draw(st.integers(1, 9))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                     st.sampled_from([0.5, 1.0, 1.5, 3.0]))
    instances = draw(st.lists(st.lists(edge, max_size=2 * n), min_size=1, max_size=2))
    return GraphInstanceSet(n, instances)


@given(tied_instance_sets())
def test_rank_table_equals_per_row_reference_ranks_bit_for_bit(inst):
    with mock.patch.object(graphs, "_RANK_BLOCK", 2):  # several blocks per table
        tables = inst.rank_table().tables
    for h, table in enumerate(tables):
        dist = inst.distances(h)
        want = np.vstack([ranks_from_distances(row) for row in dist])
        assert table.dtype == want.dtype and table.shape == want.shape
        assert table.tobytes() == want.tobytes()


def test_rank_table_diagonal_and_reference_agreement():
    rng = random.Random(13)
    inst = random_instances(rng, 12, 2)
    table = inst.rank_table()
    for h in range(2):
        for v in range(12):
            row = table.tables[h][v]
            assert row[v] == 1.0
            ranks = ranks_from_distances(inst.distances(h, source=v))
            finite = sorted(r for r in ranks if math.isfinite(r))
            assert finite == sorted(row[m] for m in range(12) if math.isfinite(row[m]))


# -- reverse sorted access ------------------------------------------------------------


def test_distance_rev_stream_on_path():
    alpha = Alpha.exponential(1.0)
    fam = UtilityFamily("distance", alpha)
    g = single([(0, 1, 1.0), (1, 2, 1.0)], 3)  # a -> b -> c
    got = drain(GraphProblem(g, fam, None).rev_stream(2))
    assert got == [
        (2, alpha(0.0)),
        (1, pytest.approx(alpha(1.0))),
        (0, pytest.approx(alpha(2.0))),
    ]


def test_rev_stream_isolated_node():
    g = single([(0, 1, 1.0)], 3)
    for fam in (DIST_INV, SURV, REACH, RANK_INV):
        got = drain(GraphProblem(g, fam, None).rev_stream(2))
        assert [i for i, _ in got] == [2]


def test_survival_rev_stream_parallel_edges():
    g = single([(0, 1, 2.0), (0, 1, 4.0)], 2)
    got = drain(GraphProblem(g, SURV, None).rev_stream(1))
    assert got[0][0] == 1  # the element's own node comes first
    assert got[1] == (0, 4.0)  # best parallel edge wins


def test_rev_streams_match_reference_columns():
    rng = random.Random(23)
    fams = [
        UtilityFamily("distance", Alpha.exponential(1.5)),
        UtilityFamily("distance", Alpha.threshold(2.5)),
        RANK_INV,
        REACH,
        SURV,
    ]
    for trial in range(6):
        inst = random_instances(rng, 14, 2)
        for fam in fams:
            ref = to_utility_matrix(inst, fam)
            for j in rng.sample(range(inst.n_elements), 6):
                got = drain(GraphProblem(inst, fam, None).rev_stream(j))
                utilities = [u for _, u in got]
                assert all(a >= b - 1e-12 for a, b in zip(utilities, utilities[1:]))
                assert sorted(got) == sorted(ref.cols[j])


def test_rev_stream_top_is_stable():
    g = single([(0, 1, 1.0), (2, 1, 3.0)], 3)
    s = GraphProblem(g, SURV, None).rev_stream(1)
    assert s.top() == s.top()
    first = s.pop()
    assert first[0] == 1
    assert s.top()[0] == 2
    s.close()
    assert s.pop() is None


@pytest.mark.parametrize("fam", [DIST_INV, RANK_INV, REACH, SURV], ids=lambda f: f.kind)
def test_streams_of_one_problem_share_no_state(fam):
    # the problem binds its family row once; every stream must still own
    # its frontier, so interleaved or successive streams cannot interfere
    inst = random_instances(random.Random(29), 12, 2)
    problem = GraphProblem(inst, fam, MAX)

    def fresh(j):
        rebuilt = GraphInstanceSet(inst.n, inst.instances)
        return drain(GraphProblem(rebuilt, fam, None).rev_stream(j))

    lengths = []
    for j in range(inst.n_elements):
        a, b = problem.rev_stream(j), problem.rev_stream(j)
        got = []
        while True:
            ta = a.pop()
            b.top()
            assert b.pop() == ta
            if ta is None:
                break
            got.append(ta)
        assert got == fresh(j)
        lengths.append(len(got))
    assert max(lengths) > 3  # the interleaving ran over several entries

    for j in range(inst.n_elements):
        drain(problem.rev_stream((j + 1) % inst.n_elements))
        assert drain(problem.rev_stream(j)) == fresh(j)


# -- forward search --------------------------------------------------------------------


def test_forward_search_empty_seed_set_reaches_everything():
    alpha = Alpha.exponential(1.0)
    fam = UtilityFamily("distance", alpha)
    g = single([(0, 1, 1.0), (1, 2, 1.0)], 3)
    table = DigestTable(3, MAX)
    got = [(j, u) for j, u, _ in GraphProblem(g, fam, None).forward_stream(0, table)]
    assert got == [(0, 1.0), (1, pytest.approx(alpha(1.0))), (2, pytest.approx(alpha(2.0)))]


def test_forward_search_prunes_at_covered_node():
    alpha = Alpha.exponential(1.0)
    fam = UtilityFamily("distance", alpha)
    g = single([(0, 1, 1.0), (1, 2, 1.0)], 3)
    table = DigestTable(3, MAX)
    problem = GraphProblem(g, fam, None)
    add_seed(problem, 1, table)  # seed b covers b and c
    stream = problem.forward_stream(0, table)
    got = [(j, u) for j, u, _ in stream]
    assert got == [(0, 1.0)]  # only a's own element still gains
    assert stream.visited == 2  # a and b settled, never reaches c


def test_pruned_search_equals_brute_force_sets():
    rng = random.Random(31)
    fams = [
        UtilityFamily("distance", Alpha.exponential(1.5)),
        UtilityFamily("distance", Alpha.threshold(2.0)),
        RANK_INV,
        REACH,
        SURV,
    ]
    specs = [MAX, HALF, AggregationSpec((1.0, 1.0, 0.5)), AggregationSpec((1.0, 0.0))]
    for trial in range(4):
        inst = random_instances(rng, 18, 2)
        for fam in fams:
            ref = to_utility_matrix(inst, fam)
            spec = specs[trial % len(specs)]
            for size in (0, 2, 4):
                seeds = rng.sample(range(inst.n), size)
                table = digests_from_matrix(ref, spec, seeds)
                for i in range(inst.n):
                    if i in seeds:
                        continue
                    got = {j for j, _, _ in GraphProblem(inst, fam, None).forward_stream(i, table)}
                    want = set()
                    for j in range(ref.n_elements):
                        base = ref.column_utilities(j, seeds)
                        plus = ref.column_utilities(j, seeds + [i])
                        if aggregate(spec, plus) - aggregate(spec, base) > 0:
                            want.add(j)
                    assert got == want, (fam.kind, spec.gamma, size, i)


# -- marginal gain and seed updates ------------------------------------------------------


def test_marg_gain_empty_set_is_singleton_influence():
    rng = random.Random(41)
    inst = random_instances(rng, 12, 2)
    fam = UtilityFamily("distance", Alpha.exponential(1.0))
    ref = to_utility_matrix(inst, fam)
    table = DigestTable(inst.n_elements, HALF)
    for i in range(inst.n):
        assert marg_gain(GraphProblem(inst, fam, None), i, table) == pytest.approx(
            singleton_influence(ref, i)
        )


def test_marg_gain_of_dominated_item_is_zero():
    g = single([(0, 1, 1.0)], 2)
    table = DigestTable(2, MAX)
    problem = GraphProblem(g, REACH, None)
    add_seed(problem, 0, table)
    assert marg_gain(problem, 1, table) == 0.0


def test_marg_gain_matches_brute_force_difference():
    rng = random.Random(47)
    from infmax import exact_influence

    inst = random_instances(rng, 12, 2)
    for fam in (SURV, REACH, UtilityFamily("distance", Alpha.exponential(1.2))):
        problem = GraphProblem(inst, fam, None)
        ref = to_utility_matrix(inst, fam)
        for size in (0, 2, 4):
            seeds = rng.sample(range(inst.n), size)
            table = digests_from_matrix(ref, HALF, seeds)
            base = exact_influence(ref, HALF, seeds)
            for i in range(inst.n):
                if i in seeds:
                    continue
                want = exact_influence(ref, HALF, seeds + [i]) - base
                assert marg_gain(problem, i, table) == pytest.approx(want, abs=1e-9)


def test_add_seed_returns_the_prior_marg_gain():
    rng = random.Random(53)
    inst = random_instances(rng, 10, 2)
    fam = UtilityFamily("distance", Alpha.exponential(1.0))
    table = DigestTable(inst.n_elements, HALF)
    problem = GraphProblem(inst, fam, None)
    seeds = set()
    for i in (3, 1, 7):
        before = marg_gain(problem, i, table)
        assert add_seed(problem, i, table, seeds) == pytest.approx(before)


def test_add_seed_rejects_double_add():
    g = single([(0, 1, 1.0)], 2)
    table = DigestTable(2, MAX)
    seeds = set()
    problem = GraphProblem(g, REACH, None)
    add_seed(problem, 0, table, seeds)
    with pytest.raises(ValueError):
        add_seed(problem, 0, table, seeds)


def test_add_seed_final_state_is_order_independent():
    rng = random.Random(59)
    from infmax import exact_influence

    inst = random_instances(rng, 9, 2)
    fam = SURV
    ref = to_utility_matrix(inst, fam)
    tops = []
    for order in ([0, 1, 2, 3, 4, 5, 6, 7, 8], [8, 2, 5, 0, 7, 1, 3, 6, 4]):
        table = DigestTable(inst.n_elements, HALF)
        for i in order:
            add_seed(GraphProblem(inst, fam, None), i, table)
        tops.append([d.top for d in table])
    assert tops[0] == tops[1]
    total = sum(aggregate(HALF, top) for top in tops[0])
    assert total == pytest.approx(exact_influence(ref, HALF, range(9)), abs=1e-9)


# -- structural properties ------------------------------------------------------------------


def test_survival_tree_paths_carry_the_threshold():
    rng = random.Random(61)
    inst = random_instances(rng, 15, 1)
    edges = inst.instances[0]
    for src in range(0, 15, 4):
        frontier = _WidestFrontier(inst.adj[0], src, inst.caps[0])
        while (step := frontier.next()) is not None:
            frontier.expand(step[0])
        label = frontier.label
        order = {v: k for k, v in enumerate(label)}  # settle order
        assert order[src] == 0
        for node, t in label.items():
            assert t == pairwise_utility(inst, SURV, src, node)
            if node == src:
                continue
            # an earlier-settled in-neighbour passes its label on through
            # one edge, so by induction on settle order some path from the
            # source has minimum lifetime exactly t
            assert any(
                d == node and order.get(p, math.inf) < order[node] and min(label[p], w) == t
                for p, d, w in edges
            )


def test_reachability_equals_unit_survival():
    rng = random.Random(67)
    base_edges = []
    for _ in range(40):
        s, d = rng.randrange(12), rng.randrange(12)
        if s != d:
            base_edges.append((s, d, 1.0))
    inst = GraphInstanceSet(12, [base_edges, base_edges[: len(base_edges) // 2]])
    for i in range(12):
        for j in range(inst.n_elements):
            assert pairwise_utility(inst, REACH, i, j) == pairwise_utility(
                inst, SURV, i, j
            )
    seqs = []
    for fam in (REACH, SURV):
        problem = GraphProblem(inst, fam, None)
        table = DigestTable(inst.n_elements, MAX)
        seeds: set[int] = set()
        seq = []
        for _ in range(5):
            gains = [
                (marg_gain(problem, i, table), -i)
                for i in range(12)
                if i not in seeds
            ]
            g, neg_i = max(gains)
            if g <= 0:
                break
            add_seed(problem, -neg_i, table, seeds)
            seq.append(-neg_i)
        seqs.append(seq)
    assert seqs[0] == seqs[1]


# -- networkx as a third reference -------------------------------------------------------

NX_FAMILIES = {
    "distance-exp": UtilityFamily("distance", Alpha.exponential(1.5)),
    "distance-threshold": UtilityFamily("distance", Alpha.threshold(1.0)),
    "reverse_rank": RANK_INV,
    "reachability": REACH,
    "survival": SURV,
}


def nx_graph(n, edges):
    g = nx.MultiDiGraph()
    g.add_nodes_from(range(n))
    g.add_weighted_edges_from(edges)
    return g


def nx_survival(n, edges, src):
    """Largest lifetime t at which each node stays reachable from src over
    the edges of lifetime >= t, by one descendants() query per lifetime."""
    best = [0.0] * n
    for t in sorted({w for _, _, w in edges}):
        for v in nx.descendants(nx_graph(n, [e for e in edges if e[2] >= t]), src) | {src}:
            best[v] = t
    return best


def nx_utilities(inst, family):
    """{(item, element): utility} of every positive utility, by networkx."""
    n, kind, alpha = inst.n, family.kind, family.alpha
    util = {}
    for h, edges in enumerate(inst.instances):
        g = nx_graph(n, edges)
        for s in range(n):
            if kind == "reverse_rank":  # s is the element node, ranking items
                dist = nx.single_source_dijkstra_path_length(g, s)
                for i, d in dist.items():
                    util[(i, h * n + s)] = alpha(sum(1 for e in dist.values() if e <= d))
                continue
            if kind == "distance":
                dist = nx.single_source_dijkstra_path_length(g, s)
                row = {v: alpha(d) for v, d in dist.items()}
            elif kind == "reachability":
                row = dict.fromkeys(nx.descendants(g, s) | {s}, 1.0)
            else:
                row = dict(enumerate(nx_survival(n, edges, s)))
            for v, u in row.items():
                util[(s, h * n + v)] = u
    return {key: u for key, u in util.items() if u > 0.0}


@st.composite
def instance_sets(draw):
    # dyadic weights keep every path sum exact, so utilities compare with ==
    n = draw(st.integers(1, 6))
    node = st.integers(0, n - 1)
    edge = st.tuples(node, node, st.integers(1, 16).map(lambda k: k / 8))
    return GraphInstanceSet(n, draw(st.lists(st.lists(edge, max_size=12), min_size=1, max_size=2)))


# n = 1 with an IC draw that kept no edge; a self-loop, parallel edges and
# an empty draw beside a non-empty one
NX_EXAMPLES = [
    GraphInstanceSet(1, [[]]),
    GraphInstanceSet(3, [[(0, 0, 0.5), (0, 1, 1.0), (0, 1, 0.25), (1, 2, 2.0)], []]),
]


def nx_examples(test):
    for inst in NX_EXAMPLES:
        test = example(inst=inst)(test)
    return test


@pytest.mark.parametrize("name", sorted(NX_FAMILIES))
@settings(max_examples=40)
@nx_examples
@given(inst=instance_sets())
def test_rev_streams_match_networkx(name, inst):
    family = NX_FAMILIES[name]
    ref = nx_utilities(inst, family)
    for j in range(inst.n_elements):
        got = drain(GraphProblem(inst, family, None).rev_stream(j))
        utilities = [u for _, u in got]
        assert utilities == sorted(utilities, reverse=True)
        assert sorted(got) == sorted((i, u) for (i, e), u in ref.items() if e == j)


@pytest.mark.parametrize("name", sorted(NX_FAMILIES))
@settings(max_examples=40)
@nx_examples
@given(inst=instance_sets())
def test_unpruned_forward_searches_match_networkx(name, inst):
    # empty digests prune nothing, so each search yields the item's whole row
    family = NX_FAMILIES[name]
    ref = nx_utilities(inst, family)
    for i in range(inst.n):
        table = DigestTable(inst.n_elements, MAX)
        got = [(j, u) for j, u, _ in GraphProblem(inst, family, None).forward_stream(i, table)]
        assert sorted(got) == sorted((e, u) for (s, e), u in ref.items() if s == i)
