"""The set-up peak comparison of scripts/setup_peak.py."""

import json

from conftest import load_script

setup_peak = load_script("setup_peak")


def test_tree_against_itself_reports_each_setup(capsys):
    code = setup_peak.main(["--parent", setup_peak.ROOT, "--workload", "skim-rank",
                            "--seeds", "3-4", "--scale", "0.05"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [row["seed"] for row in doc["setups"]] == [3, 4]
    for row in doc["setups"]:
        for side in ("parent", "change"):
            # two instances of a 12-node graph, one byte per rank
            assert row[side]["rank_table_bytes"] == 2 * 12 * 12
            assert row[side]["retained_bytes"] >= row[side]["rank_table_bytes"]
            assert row[side]["solve_peak_bytes"] > 0
            assert row[side]["peak_rss_rise_mb"] >= 0.0


def test_lazy_matrix_setup_reports_the_bytes_its_matrix_retains(capsys):
    code = setup_peak.main(["--parent", setup_peak.ROOT, "--workload", "lazy-matrix",
                            "--seeds", "3-3", "--scale", "0.05"])
    (row,) = json.loads(capsys.readouterr().out)["setups"]
    assert code == 0
    # 37 items of 40 entries each, at least one 8-byte reference per
    # entry to its element and one to its utility
    for side in ("parent", "change"):
        assert row[side]["rank_table_bytes"] == 0
        assert row[side]["retained_bytes"] >= 2 * 8 * 37 * 40
        assert row[side]["solve_peak_bytes"] > 0
        assert row[side]["peak_rss_rise_mb"] >= 0.0
