"""Matrix-backed oracle streams and the brute-force baselines."""

import itertools
import random
from functools import partial

import pytest

from conftest import random_matrix, singleton_influence
from infmax import (
    AggregationSpec,
    Alpha,
    DigestTable,
    GraphInstanceSet,
    GraphProblem,
    MatrixProblem,
    SparseUtilityMatrix,
    UtilityFamily,
    add_seed,
    aggregate,
    exact_greedy,
    exact_influence,
    lazy_greedy,
    marg_gain,
    optimal_subset,
    sequence_items,
)
from infmax.oracles import ForwardStream, RevStream

MAX = AggregationSpec.maximum()
HALF = AggregationSpec((1.0, 0.5))


def brute_positive_set(matrix, spec, seeds, i):
    """Elements where item i strictly gains, by full enumeration."""
    out = set()
    for j in range(matrix.n_elements):
        base = matrix.column_utilities(j, seeds)
        plus = matrix.column_utilities(j, list(seeds) + [i])
        if aggregate(spec, plus) - aggregate(spec, base) > 0:
            out.add(j)
    return out


def digests_for(matrix, spec, seeds):
    table = DigestTable(matrix.n_elements, spec)
    for s in seeds:
        for j, u in matrix.rows[s]:
            table[j].update(u)
    return table


# -- reverse sorted access -----------------------------------------------------


def test_rev_stream_orders_by_utility():
    m = SparseUtilityMatrix(2, 1, [(0, 0, 0.2), (1, 0, 0.9)])
    s = MatrixProblem(m, MAX).rev_stream(0)
    assert s.pop() == (1, 0.9)
    assert s.pop() == (0, 0.2)
    assert s.pop() is None
    assert s.top() is None


def test_rev_stream_empty_column():
    m = SparseUtilityMatrix(2, 2, [(0, 0, 1.0)])
    s = MatrixProblem(m, MAX).rev_stream(1)
    assert s.top() is None
    assert s.pop() is None


def test_rev_stream_ties_by_ascending_item():
    m = SparseUtilityMatrix(3, 1, [(0, 0, 0.5), (2, 0, 0.5)])
    s = MatrixProblem(m, MAX).rev_stream(0)
    assert s.pop() == (0, 0.5)
    assert s.pop() == (2, 0.5)


def test_rev_stream_top_does_not_advance():
    m = SparseUtilityMatrix(2, 1, [(0, 0, 0.2), (1, 0, 0.9)])
    s = MatrixProblem(m, MAX).rev_stream(0)
    assert s.top() == s.top() == (1, 0.9)
    s.close()
    assert s.pop() is None


def test_rev_stream_unknown_element():
    m = SparseUtilityMatrix(2, 1, [(0, 0, 1.0)])
    with pytest.raises(ValueError):
        MatrixProblem(m, MAX).rev_stream(5)


def test_rev_stream_matches_sorted_column_on_random_matrices():
    rng = random.Random(19)
    for _ in range(20):
        m = random_matrix(rng, 8, 10, density=0.5)
        j = rng.randrange(m.n_elements)
        drained = []
        s = MatrixProblem(m, MAX).rev_stream(j)
        while (t := s.pop()) is not None:
            drained.append(t)
        utilities = [u for _, u in drained]
        assert utilities == sorted(utilities, reverse=True)
        assert sorted(drained) == sorted(
            (i, u) for i, u in m.cols[j]
        )


# -- the stream contract, shared by matrix and graph oracles --------------------


def matrix_problem():
    m = SparseUtilityMatrix(2, 2, [(0, 0, 1.0), (1, 0, 0.5), (0, 1, 1.0)])
    return MatrixProblem(m, MAX)


def graph_problem():
    inst = GraphInstanceSet(2, [[(0, 1, 1.0), (1, 0, 1.0)]])
    return GraphProblem(inst, UtilityFamily("distance", Alpha.exponential(1.0)), MAX)


def family_problem(family):
    inst = GraphInstanceSet(2, [[(0, 1, 1.0), (1, 0, 1.0)]])
    return GraphProblem(inst, family, MAX)


# every graph family's reverse stream is its frontier; each must keep the
# contract the matrix stream keeps ("graph" is the distance family)
GRAPH_FAMILIES = {
    "graph-reverse-rank": UtilityFamily("reverse_rank", Alpha.inverse()),
    "graph-reachability": UtilityFamily("reachability"),
    "graph-survival": UtilityFamily("survival"),
}


@pytest.mark.parametrize(
    "make",
    [matrix_problem, graph_problem] + [partial(family_problem, f) for f in GRAPH_FAMILIES.values()],
    ids=["matrix", "graph"] + list(GRAPH_FAMILIES),
)
def test_stream_contract(make):
    problem = make()
    s = problem.rev_stream(0)
    assert isinstance(s, RevStream)
    assert s.top() is not None
    assert s.top() == s.top()  # top is idempotent
    assert s.pop() == (0, 1.0)
    while s.pop() is not None:
        pass
    assert s.pop() is None and s.top() is None  # exhausted for good
    closed = problem.rev_stream(0)
    closed.top()
    closed.close()
    assert closed.pop() is None and closed.top() is None

    table = DigestTable(problem.n_elements, MAX)
    fwd = problem.forward_stream(0, table)
    assert isinstance(fwd, ForwardStream)
    assert next(fwd) == (0, 1.0, 1.0)
    assert fwd.visited >= 1

    # each yield carries the marginal its yield test computed, bit for bit
    yields = 0
    for spec, prior in ((MAX, 0.3), (HALF, 0.7), (HALF, 2.0)):
        table = DigestTable(problem.n_elements, spec)
        for digest in table:
            digest.update(prior)
        for i in range(problem.n_items):
            for j, u, c in problem.forward_stream(i, table):
                assert c == table[j].marg(u) and c > 0.0
                yields += 1
    assert yields > 0


def two_instance_graph():
    inst = GraphInstanceSet(2, [[(0, 1, 1.0)], [(1, 0, 1.0)]])  # 2 items, 4 elements
    return inst, UtilityFamily("distance", Alpha.exponential(1.0))


def matrix_id_problem():
    m = SparseUtilityMatrix(2, 3, [(0, 0, 1.0), (1, 2, 0.5)])
    return MatrixProblem(m, MAX)


def graph_id_problem():
    inst, fam = two_instance_graph()
    return GraphProblem(inst, fam, MAX)


@pytest.mark.parametrize("past_end", [False, True], ids=["-1", "n"])
@pytest.mark.parametrize("make", [matrix_id_problem, graph_id_problem], ids=["matrix", "graph"])
def test_out_of_range_ids_are_rejected(make, past_end):
    problem = make()
    j = problem.n_elements if past_end else -1
    i = problem.n_items if past_end else -1
    table = DigestTable(problem.n_elements, MAX)
    with pytest.raises(ValueError, match="unknown element"):
        problem.rev_stream(j)
    fwd_calls = [problem.forward_stream, partial(marg_gain, problem), partial(add_seed, problem)]
    for call in fwd_calls:
        with pytest.raises(ValueError, match="unknown item"):
            call(i, table)
    assert all(d.marg(1.0) == 1.0 for d in table)


def test_add_seed_keeps_the_seed_set_on_a_bad_item():
    inst, fam = two_instance_graph()
    seeds = {0}
    with pytest.raises(ValueError, match="unknown item"):
        add_seed(GraphProblem(inst, fam, MAX), 2, DigestTable(inst.n_elements, MAX), seeds)
    assert seeds == {0}


# -- forward search --------------------------------------------------------------


def test_forward_search_empty_seed_set_yields_row():
    m = SparseUtilityMatrix(2, 3, [(0, 0, 1.0), (0, 2, 0.5), (1, 1, 0.7)])
    table = DigestTable(3, MAX)
    got = [(j, u) for j, u, _ in MatrixProblem(m, MAX).forward_stream(0, table)]
    assert got == [(0, 1.0), (2, 0.5)]


def test_forward_search_saturated_elements_yield_nothing():
    m = SparseUtilityMatrix(2, 2, [(0, 0, 1.0), (0, 1, 0.5), (1, 0, 2.0), (1, 1, 3.0)])
    table = digests_for(m, MAX, [1])
    assert list(MatrixProblem(m, MAX).forward_stream(0, table)) == []


def test_forward_search_filters_by_marginal_gain():
    m = SparseUtilityMatrix(1, 2, [(0, 0, 2.0), (0, 1, 1.0)])
    table = DigestTable(2, MAX)
    table[0].update(3.0)
    table[1].update(0.5)
    assert [(j, u) for j, u, _ in MatrixProblem(m, MAX).forward_stream(0, table)] == [(1, 1.0)]


def covered_matrix_problem():
    # seeding item 1 covers element 0, where item 0 gains before it
    m = SparseUtilityMatrix(2, 2, [(0, 0, 1.0), (0, 1, 1.0), (1, 0, 2.0)])
    return MatrixProblem(m, MAX)


def two_node_cycle_problem():
    inst = GraphInstanceSet(2, [[(0, 1, 1.0), (1, 0, 1.0)]])
    return GraphProblem(inst, UtilityFamily("distance", Alpha.exponential(1.0)), MAX)


@pytest.mark.parametrize("make", [covered_matrix_problem, two_node_cycle_problem],
                         ids=["matrix", "graph"])
def test_forward_stream_sees_the_digests_of_its_first_read(make):
    problem = make()
    before = list(problem.forward_stream(0, DigestTable(problem.n_elements, MAX)))
    table = DigestTable(problem.n_elements, MAX)
    partly_read = problem.forward_stream(0, table)
    unread = problem.forward_stream(0, table)
    first = next(partly_read)
    add_seed(problem, 1, table)
    after = list(problem.forward_stream(0, table))
    assert after != before
    assert [first] + list(partly_read) == before  # finishes with its first read's triples
    assert list(unread) == after  # first read after the seed: the state after it


def test_forward_search_equals_brute_force_set():
    rng = random.Random(29)
    for _ in range(40):
        spec = rng.choice([MAX, HALF, AggregationSpec((1.0, 1.0, 1.0))])
        m = random_matrix(rng, 8, 12, density=0.5)
        seeds = rng.sample(range(8), rng.randrange(0, 5))
        table = digests_for(m, spec, seeds)
        for i in range(8):
            if i in seeds:
                continue
            got = {j for j, _, _ in MatrixProblem(m, spec).forward_stream(i, table)}
            assert got == brute_positive_set(m, spec, seeds, i)


def test_marginal_order_follows_utility_order():
    # corollary: within one element, a larger pairwise utility never has a
    # smaller marginal gain, whatever the seed set
    rng = random.Random(37)
    for _ in range(40):
        spec = rng.choice([MAX, HALF, AggregationSpec((1.0, 0.5, 0.25))])
        m = random_matrix(rng, 8, 10, density=0.7)
        seeds = rng.sample(range(8), rng.randrange(0, 5))
        table = digests_for(m, spec, seeds)
        for j in range(m.n_elements):
            col = sorted(m.cols[j], key=lambda t: t[1])
            margs = [table[j].marg(u) for _, u in col]
            assert all(a <= b + 1e-12 for a, b in zip(margs, margs[1:]))


# -- exact influence ---------------------------------------------------------------


def test_exact_influence_empty_set():
    m = random_matrix(random.Random(1), 4, 6)
    assert exact_influence(m, MAX, []) == 0.0


def test_exact_influence_weighted_element():
    # one element with utilities 1, 1/2, 1/5 from three seed items
    m = SparseUtilityMatrix(3, 1, [(0, 0, 1.0), (1, 0, 0.5), (2, 0, 0.2)])
    assert exact_influence(m, HALF, [0, 1, 2]) == pytest.approx(1.25, abs=0)
    assert exact_influence(m, MAX, [0, 1, 2]) == 1.0


def test_exact_influence_singleton_is_row_sum():
    rng = random.Random(8)
    m = random_matrix(rng, 5, 9, density=0.6)
    for i in range(5):
        assert exact_influence(m, HALF, [i]) == pytest.approx(
            singleton_influence(m, i)
        )


# -- exact greedy -------------------------------------------------------------------


def test_exact_greedy_single_item():
    m = SparseUtilityMatrix(1, 2, [(0, 0, 1.0), (0, 1, 2.0)])
    seq = exact_greedy(m, MAX)
    assert [(r.item, r.gain) for r in seq] == [(0, 3.0)]


def test_exact_greedy_two_by_two():
    m = SparseUtilityMatrix(2, 2, [(0, 0, 2.0), (1, 0, 1.0), (1, 1, 1.0)])
    assert sequence_items(exact_greedy(m, MAX)) == [0, 1]


def test_exact_greedy_agrees_with_lazy():
    rng = random.Random(12)
    m = random_matrix(rng, 8, 12, density=0.5, private=True)
    assert sequence_items(exact_greedy(m, HALF)) == sequence_items(
        lazy_greedy(m, HALF, 0.0)
    )


def test_exact_greedy_prefixes_are_concave():
    rng = random.Random(44)
    m = random_matrix(rng, 9, 12, density=0.6)
    seq = exact_greedy(m, HALF)
    gains = [r.gain for r in seq]
    assert all(g >= -1e-12 for g in gains)
    assert all(a >= b - 1e-9 for a, b in zip(gains, gains[1:]))
    cums = [r.cumulative for r in seq]
    assert all(a <= b + 1e-9 for a, b in zip(cums, cums[1:]))


# -- exhaustive optimum ---------------------------------------------------------------


def test_optimal_subset_full_size():
    rng = random.Random(2)
    m = random_matrix(rng, 5, 8, density=0.6)
    best, val = optimal_subset(m, HALF, 5)
    assert best == tuple(range(5))
    assert val == pytest.approx(exact_influence(m, HALF, range(5)))


def test_optimal_subset_singleton():
    rng = random.Random(6)
    m = random_matrix(rng, 6, 9, density=0.6)
    _, val = optimal_subset(m, MAX, 1)
    assert val == pytest.approx(
        max(exact_influence(m, MAX, [i]) for i in range(6))
    )


def test_optimal_subset_matches_reversed_enumeration():
    rng = random.Random(21)
    m = random_matrix(rng, 10, 10, density=0.5)
    _, val = optimal_subset(m, HALF, 3)
    combos = list(itertools.combinations(range(10), 3))
    alt = max(exact_influence(m, HALF, c) for c in reversed(combos))
    assert val == pytest.approx(alt, abs=0)


def test_optimal_subset_size_guard():
    m = SparseUtilityMatrix(21, 1, [(i, 0, 1.0) for i in range(21)])
    with pytest.raises(ValueError):
        optimal_subset(m, MAX, 2)
