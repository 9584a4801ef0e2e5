"""The per-layer count comparison of scripts/layer_counts.py."""

import json

from conftest import load_script

layer_counts = load_script("layer_counts")


def metrics(values: dict) -> dict:
    """A run result's "metrics" dict; names ending in _s are timings."""
    return {name: {"value": v, "unit": "s" if name.endswith("_s") else "count"}
            for name, v in values.items()}


def test_only_count_metrics_that_differ_are_listed():
    parent = metrics({"graphs.fwd_settles": 120, "graphs.fwd_yields": 40, "graphs.fwd_s": 0.5})
    same = metrics({"graphs.fwd_settles": 120, "graphs.fwd_yields": 40, "graphs.fwd_s": 0.7})
    assert layer_counts.count_differences(parent, same) == []
    moved = metrics({"graphs.fwd_settles": 121, "graphs.fwd_yields": 40, "graphs.fwd_s": 0.5})
    assert layer_counts.count_differences(parent, moved) == [
        {"metric": "graphs.fwd_settles", "parent": 120, "change": 121}]


def test_a_metric_one_side_lacks_differs():
    parent = metrics({"graphs.fwd_yields": 40})
    change = metrics({"graphs.fwd_yields": 40, "skim.exact_evals": 3})
    assert layer_counts.count_differences(parent, change) == [
        {"metric": "skim.exact_evals", "parent": None, "change": 3}]


def test_tree_against_itself_has_no_difference(capsys):
    root = layer_counts.ROOT
    code = layer_counts.main(["--parent", root, "--workload", "skim-reach-ic",
                              "--seeds", "3-3", "--scale", "0.05"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["differences"] == [] and "graphs.fwd_settles" in doc["metrics"]
