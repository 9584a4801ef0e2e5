"""The paired-run verdict of scripts/pairs.py, on fixed numbers."""

import json

import pytest

from conftest import load_script

pairs = load_script("pairs")

PARENT = [0.150, 0.152, 0.149, 0.155, 0.151, 0.153, 0.150, 0.154, 0.152, 0.151]


def test_quartiles_interpolate_between_order_statistics():
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert pairs.quartiles([0.0, 4.0]) == (1.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        pairs.quartiles([1.0])


def test_clear_gain_is_claimed():
    change = [p - 0.008 for p in PARENT]
    v = pairs.verdict(PARENT, change, 0, 0)
    assert (v["pairs"], v["wins"], v["losses"]) == (10, 10, 0)
    assert v["median_gap"] == pytest.approx(0.008)
    assert v["parent_quartile_spread"] == pytest.approx(0.0025)
    assert v["gain"]


def test_nine_of_ten_wins_still_counts():
    change = [p - 0.008 for p in PARENT]
    change[3] = PARENT[3] + 0.001
    v = pairs.verdict(PARENT, change, 0, 0)
    assert (v["wins"], v["losses"]) == (9, 1) and v["gain"]


def test_eight_wins_or_a_tie_is_not_enough():
    change = [p - 0.008 for p in PARENT]
    change[3] = PARENT[3] + 0.001
    change[5] = PARENT[5] + 0.001
    assert not pairs.verdict(PARENT, change, 0, 0)["gain"]
    tied = [p - 0.008 for p in PARENT]
    tied[3] = PARENT[3]
    tied[5] = PARENT[5] + 0.001
    v = pairs.verdict(PARENT, tied, 0, 0)
    assert (v["wins"], v["losses"]) == (8, 1) and not v["gain"]


def test_median_gap_inside_the_parent_spread_is_not_a_gain():
    change = [p - 0.002 for p in PARENT]  # wins every pair, by less than Q3 - Q1
    v = pairs.verdict(PARENT, change, 0, 0)
    assert v["wins"] == 10 and not v["gain"]


def test_extra_failed_solves_turn_the_gain_off():
    change = [p - 0.008 for p in PARENT]
    assert pairs.verdict(PARENT, change, 2, 2)["gain"]
    v = pairs.verdict(PARENT, change, 0, 1)
    assert (v["wins"], v["parent_failed"], v["change_failed"]) == (10, 0, 1) and not v["gain"]
    with pytest.raises(ValueError):
        pairs.verdict(PARENT, change[:-1], 0, 0)


def test_parse_seeds():
    assert pairs.parse_seeds("2101-2104") == [2101, 2102, 2103, 2104]


END_TO_END = [
    {"name": "solve_s", "better": "lower", "bound": 0.2},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    {"name": "quality_s50", "better": "higher", "bound": 0.02},
]


def test_regressions_list_metrics_worse_than_their_relative_bound():
    parent = {"solve_s": 0.150, "peak_rss_mb": 160.0, "quality_s50": 0.99}
    change = {"solve_s": 0.175, "peak_rss_mb": 177.0, "quality_s50": 0.96}
    got = pairs.regressions(END_TO_END, parent, change)
    assert [r["metric"] for r in got] == ["peak_rss_mb", "quality_s50"]
    assert got[0]["relative_worse"] == pytest.approx(17.0 / 160.0)
    assert got[1]["relative_worse"] == pytest.approx(0.03 / 0.99)
    assert (got[1]["parent_median"], got[1]["change_median"], got[1]["bound"]) == (0.99, 0.96, 0.02)


def test_better_or_within_the_bound_is_not_a_regression():
    parent = {"solve_s": 0.150, "peak_rss_mb": 160.0, "quality_s50": 0.99}
    # faster, leaner and higher quality, each well past its bound
    better = {"solve_s": 0.100, "peak_rss_mb": 120.0, "quality_s50": 1.00}
    assert pairs.regressions(END_TO_END, parent, better) == []
    # worse in each direction, by just under the bound
    within = {"solve_s": 0.179, "peak_rss_mb": 175.9, "quality_s50": 0.971}
    assert pairs.regressions(END_TO_END, parent, within) == []


def test_a_zero_parent_median_tolerates_no_worsening():
    got = pairs.regressions(END_TO_END[:1], {"solve_s": 0.0}, {"solve_s": 0.001})
    assert [(r["metric"], r["relative_worse"]) for r in got] == [("solve_s", None)]
    assert pairs.regressions(END_TO_END[:1], {"solve_s": 0.0}, {"solve_s": 0.0}) == []


def fake_run_once(values):
    """run_once replaced by fixed end-to-end values per (tree, seed)."""
    def run_once(tree, workload, seed, seconds):
        setup_s, solve_s = values[(tree, seed)]
        metrics = {"setup_s": setup_s, "solve_s": solve_s, "peak_rss_mb": 100.0,
                   "quality_s50": 1.0, "pass_ratio": 1.0}
        return {"failed": 0, "attempted": 4,
                "metrics": {k: {"value": v} for k, v in metrics.items()}}
    return run_once


def test_metric_flag_picks_the_verdict_metric(monkeypatch, tmp_path, capsys):
    # set-up halves on every seed while solve_s barely moves; the trees
    # are keyed by absolute path, so a checkout named "parent" is no clash
    parent = str(tmp_path / "parent")
    values = {}
    for k, seed in enumerate(range(11, 21)):
        values[(parent, seed)] = (0.020 + 0.0002 * k, PARENT[k])
        values[(pairs.ROOT, seed)] = (0.010 + 0.0002 * k, PARENT[k] - 0.0001)
    monkeypatch.setattr(pairs, "run_once", fake_run_once(values))
    args = ["--parent", parent, "--workload", "lazy-matrix", "--seeds", "11-20", "--seconds", "1"]

    def doc(extra):
        out = tmp_path / "pairs.json"
        assert pairs.main(args + extra + ["--out", str(out)]) == 0
        capsys.readouterr()
        return json.loads(out.read_text())

    solve = doc([])
    assert solve["metric"] == "solve_s"
    assert solve["verdict"]["wins"] == 10 and not solve["verdict"]["gain"]
    setup = doc(["--metric", "setup_s"])
    assert setup["metric"] == "setup_s"
    v = setup["verdict"]
    assert (v["wins"], v["losses"], v["gain"]) == (10, 0, True)
    assert v["parent_median"] == pytest.approx(0.0209) and v["change_median"] == pytest.approx(0.0109)
    assert v["parent_quartile_spread"] == pytest.approx(0.0009)
    assert setup["pairs"] == solve["pairs"] and setup["regressions"] == []
    with pytest.raises(SystemExit):
        pairs.main(args + ["--metric", "quality_s50"])  # higher is better: no verdict
