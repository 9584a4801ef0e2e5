"""The per-layer count comparison of scripts/layer_counts.py."""

import importlib.util
import json
import os

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "layer_counts.py")
_spec = importlib.util.spec_from_file_location("layer_counts", _PATH)
layer_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layer_counts)


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
    root = os.path.dirname(os.path.dirname(os.path.abspath(_PATH)))
    code = layer_counts.main(["--parent", root, "--workload", "skim-reach-ic",
                              "--seeds", "3-3", "--scale", "0.05"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["differences"] == [] and "graphs.fwd_settles" in doc["metrics"]
