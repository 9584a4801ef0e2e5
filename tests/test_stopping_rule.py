"""The one stopping rule of greedy.py, on lazy greedy, exact greedy and SKIM."""

import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infmax import (
    AggregationSpec,
    DigestTable,
    MatrixProblem,
    SkimRun,
    SparseUtilityMatrix,
    add_seed,
    exact_greedy,
    lazy_greedy,
    marg_gain,
    run_skim,
    sequence_items,
)
from infmax.cli import main

MAX = AggregationSpec.maximum()
# item 1 gains nothing once item 0 is selected, and item 2 has an empty row
RULE_MATRIX = SparseUtilityMatrix(3, 2, [(0, 0, 1.0), (1, 0, 0.5)])
MAXIMIZERS = ["lazy", "exact", "skim"]


def solve(name, matrix, spec=MAX, epsilon=0.0, stats=None):
    if name == "lazy":
        return lazy_greedy(matrix, spec, epsilon, stats=stats)
    if name == "exact":
        return exact_greedy(matrix, spec)
    return run_skim(MatrixProblem(matrix, spec), k=8, rng_seed=0,
                    rank_mode="permutation", stats=stats)


@pytest.mark.parametrize("second", [RULE_MATRIX, SparseUtilityMatrix(3, 2, [])],
                         ids=["same", "empty"])
@pytest.mark.parametrize("name", ["lazy", "skim"])
def test_a_reused_stats_dict_holds_the_last_run_alone(name, second):
    fresh, reused = {}, {}
    solve(name, second, stats=fresh)
    solve(name, RULE_MATRIX, stats=reused)
    solve(name, second, stats=reused)
    assert reused == fresh


def check_rule(seq, n_items):
    """The rule's invariants on one sequence."""
    assert all(type(r.gain) is float for r in seq)
    selected = [r for r in seq if not r.below_cutoff]
    flagged = seq[len(selected):]
    assert seq[: len(selected)] == selected  # flagged records come last
    cutoff = selected[0].gain / n_items ** 2 if selected else 0.0
    if selected:
        assert selected[0].gain > 0.0
    assert all(r.gain > cutoff for r in selected[1:])
    assert all(r.gain <= cutoff for r in flagged)
    final = selected[-1].cumulative if selected else 0.0
    assert all(r.cumulative == final for r in flagged)


@pytest.mark.parametrize("name", MAXIMIZERS)
def test_maximizers_end_the_sequence_by_one_rule(name):
    stats = {}
    seq = solve(name, RULE_MATRIX, stats=stats)
    got = [(r.item, r.gain, r.cumulative, r.below_cutoff) for r in seq]
    if name == "skim":  # the run ends once nothing is left to sample
        assert got == [(0, 1.0, 1.0, False)]
        assert stats["stop"] == "exhausted"
    else:
        assert got == [(0, 1.0, 1.0, False), (1, 0.0, 1.0, True), (2, 0.0, 1.0, True)]
    check_rule(seq, RULE_MATRIX.n_items)


def test_cli_csvs_agree_but_for_the_estimate(tmp_path, capsys):
    src = tmp_path / "m.txt"
    src.write_text("3 2\n0 0 1.0\n1 0 0.5\n")
    tables = []
    for name in MAXIMIZERS:
        assert main(["--input", str(src), "--kind", "matrix", "--algorithm", name]) == 0
        rows = capsys.readouterr().out.splitlines()
        tables.append([",".join(f for k, f in enumerate(r.split(",")) if k != 2) for r in rows])
    assert tables == [["rank,item,exact_gain,cumulative_influence", "1,0,1,1"]] * 3


# a commit that gains no more than first / n^2 is flagged and ends SKIM's run;
# a smallest-subnormal utility puts SKIM's first tau, top / 2k, at 0.0, which
# is raised to the smallest subnormal so that the item is still sampled
TWO_ITEMS = SparseUtilityMatrix(2, 3, [(0, 0, 1.0), (0, 1, 1.0), (1, 0, 0.5), (1, 2, 0.25)])
DISJOINT = SparseUtilityMatrix(2, 2, [(0, 0, 1.0), (1, 1, 0.5)])
SUBNORMAL = SparseUtilityMatrix(1, 1, [(0, 0, 5e-324)])


@pytest.mark.parametrize("name,matrix,items,stop", [
    ("lazy", TWO_ITEMS, [0], "cutoff"),
    ("lazy", DISJOINT, [0, 1], "exhausted"),
    ("skim", TWO_ITEMS, [0], "cutoff"),
    ("skim", DISJOINT, [0, 1], "exhausted"),
    ("skim", SUBNORMAL, [0], "exhausted"),
], ids=["lazy-cutoff", "lazy-exhausted", "skim-cutoff", "skim-exhausted", "skim-tau-underflow"])
def test_stop_reason(name, matrix, items, stop):
    stats = {}
    seq = solve(name, matrix, stats=stats)
    assert sequence_items(seq) == items
    assert stats["stop"] == stop
    check_rule(seq, matrix.n_items)


class BoundedRun(SkimRun):
    """A SkimRun that fails, instead of hanging, after 10,000 tau steps."""

    steps = 0

    def move_up(self):
        self.steps += 1
        if self.steps > 10_000:
            raise AssertionError(f"tau still {self.tau!r} after 10,000 steps")
        super().move_up()


@pytest.mark.parametrize("rank_mode", ["uniform", "permutation"])
def test_skim_decay_that_stalls_among_subnormals_ends(rank_mode):
    # with a utility among the smallest subnormals, halving still takes tau
    # to 0.0 by underflow within BoundedRun's step bound
    matrix = SparseUtilityMatrix(3, 3, [(0, 0, 1.0), (1, 1, 2.0), (2, 2, 1e-322)])
    stats = {}
    seq = BoundedRun(MatrixProblem(matrix, MAX), k=8, rank_mode=rank_mode, stats=stats).run()
    # items 1 and 0 are selected; item 2's gain is at or below the cutoff
    assert [(r.item, r.estimate, r.gain, r.cumulative, r.below_cutoff) for r in seq] == [
        (1, 2.0, 2.0, 2.0, False), (0, 1.0, 1.0, 3.0, False), (2, 1e-322, 1e-322, 3.0, True)]
    assert stats["stop"] == "cutoff"


@given(st.floats(min_value=math.ulp(0.0), allow_nan=False, allow_infinity=False,
                 allow_subnormal=True))
@example(math.ulp(0.0))
@example(sys.float_info.max)
def test_halving_lowers_every_positive_double(t):
    # why SKIM's tau, halved at each step, always reaches 0.0
    assert t * 0.5 < t


@st.composite
def sparse_matrices(draw):
    """Up to 6 x 5 and at most 60% dense, so empty rows are common."""
    n_items = draw(st.integers(1, 6))
    n_elements = draw(st.integers(1, 5))
    cells = draw(st.sets(st.tuples(st.integers(0, n_items - 1), st.integers(0, n_elements - 1)),
                         max_size=int(0.6 * n_items * n_elements)))
    utilities = st.sampled_from([0.25, 0.5, 1.0]) | st.floats(min_value=0.01, max_value=10.0)
    return SparseUtilityMatrix(n_items, n_elements,
                               [(i, j, draw(utilities)) for i, j in sorted(cells)])


@settings(max_examples=300)
@given(sparse_matrices(), st.sampled_from([(1.0,), (1.0, 0.5), (1.0, 1.0, 1.0)]),
       st.sampled_from([0.0, 0.1, 0.5]))
@example(SparseUtilityMatrix(1, 1, [(0, 0, 5.0)]), (1.0,), 0.0)
def test_every_maximizer_keeps_the_rule(matrix, gamma, epsilon):
    spec = AggregationSpec(gamma)
    for name in MAXIMIZERS:
        seq = solve(name, matrix, spec, epsilon)
        check_rule(seq, matrix.n_items)
        if matrix.n_items == 1 and matrix.m:
            assert sequence_items(seq) == [0]


def test_skim_is_not_exhausted_while_a_lapsed_entry_can_revive():
    # item 3's entry is L after item 1 is selected and waits in qhml for a
    # lower tau; qelements is empty and no estimate is positive at that point
    matrix = SparseUtilityMatrix(7, 1, [(1, 0, 1.0), (3, 0, 0.235)])
    spec = AggregationSpec((1.0, 0.5))
    stats = {}
    seq = run_skim(MatrixProblem(matrix, spec), k=2, rng_seed=4409, stats=stats)
    assert [(r.item, r.gain) for r in seq] == [(1, 1.0), (3, 0.1175)]
    assert sequence_items(seq) == sequence_items(lazy_greedy(matrix, spec, 0.0))
    assert stats["stop"] == "exhausted"


@settings(max_examples=1000)  # fewer draws miss the lapsed-entry case
@given(sparse_matrices(), st.sampled_from([(1.0,), (1.0, 0.5), (1.0, 1.0, 1.0)]),
       st.sampled_from([2, 3, 4, 8]), st.sampled_from(["uniform", "permutation"]),
       st.integers(0, 2**16))
@example(SparseUtilityMatrix(7, 1, [(1, 0, 1.0), (3, 0, 0.235)]), (1.0, 0.5), 2, "uniform", 4409)
def test_skim_exhausted_means_no_item_gains(matrix, gamma, k, rank_mode, rng_seed):
    problem = MatrixProblem(matrix, AggregationSpec(gamma))
    stats = {}
    seq = run_skim(problem, k, rng_seed=rng_seed, rank_mode=rank_mode, stats=stats)
    if stats["stop"] != "exhausted":
        return
    digests = DigestTable(matrix.n_elements, problem.spec)
    selected = sequence_items(seq)
    for i in selected:
        add_seed(problem, i, digests)
    rest = [i for i in range(matrix.n_items) if i not in selected]
    assert [marg_gain(problem, i, digests) for i in rest] == [0.0] * len(rest)
