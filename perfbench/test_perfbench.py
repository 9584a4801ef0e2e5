"""Tests of the benchmark itself: python -m pytest perfbench"""

import dataclasses
import json
import os

import pytest

import run

run.load_library()

import checks  # noqa: E402
import infmax  # noqa: E402
import workloads  # noqa: E402

TINY = 0.1


def library_attributes() -> dict:
    """Every module-level object and class attribute of the infmax package."""
    found = {}
    for modname in ("aggregation", "graphs", "greedy", "matrix", "oracles", "skim"):
        mod = getattr(infmax, modname)
        for name, obj in vars(mod).items():
            found[(modname, name)] = obj
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for attr, val in vars(obj).items():
                    found[(modname, name, attr)] = val
    return found


def assert_unchanged(before: dict) -> None:
    after = library_attributes()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_untraced(name, monkeypatch):
    before = library_attributes()
    build = workloads.build
    problems = []

    def watched_build(*args, **kwargs):
        wl = build(*args, **kwargs)
        solve = wl.solve

        def watched_solve(problem, stats):
            assert_unchanged(before)  # nothing is wrapped while solves run
            problems.append(problem)
            return solve(problem, stats)

        wl.solve = watched_solve
        return wl

    monkeypatch.setattr(workloads, "build", watched_build)
    result = run.run(name, seed=3, seconds=0.0, trace=False, scale=TINY, inputs=2)
    assert_unchanged(before)
    assert all(type(p).__module__.startswith("infmax.") for p in problems)  # no proxy
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * run.MIN_ROUNDS
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.END_TO_END
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert all(v > 0 for v in values.values())
    assert values["pass_ratio"] == 1.0
    assert 0.5 < values["quality_s50"] < 1.5


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_traced(name, tmp_path):
    before = library_attributes()
    result = run.run(name, seed=3, seconds=0.0, trace=True, scale=TINY, inputs=1,
                     out_dir=str(tmp_path))
    assert_unchanged(before)  # everything the tracer patched is restored
    assert result["correct"]  # includes the cross-check against the library's stats
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.PER_LAYER
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values["aggregation.marg_calls"] > 0
    assert values["trace.overhead_ratio"] > 0
    if name == "lazy-matrix":
        assert values["greedy.heap_pops"] > 0 and values["matrix.build_s"] > 0
        assert values["graphs.fwd_searches"] == 0 and values["skim.next_seed_calls"] == 0
    else:
        assert values["graphs.fwd_yields"] > 0 and values["skim.exact_evals"] > 0
        assert values["greedy.heap_pops"] == 0
    assert (values["graphs.rank_table_mb"] > 0) == (name == "skim-rank")
    (trace_file,) = tmp_path.iterdir()
    assert trace_file.name.endswith(".trace.json.gz")


@pytest.fixture(scope="module")
def solved():
    wl = workloads.build("skim-distance", 5, TINY)
    seq = wl.solve(wl.setup(), {})
    return wl.reference(), seq


def test_check_accepts_library_output(solved):
    ref, seq = solved
    assert checks.check_sequence(ref, seq) == []


def _with(seq, pos, **changes):
    out = list(seq)
    out[pos] = dataclasses.replace(out[pos], **changes)
    return out


@pytest.mark.parametrize("corrupt", [
    lambda s: _with(s, 3, item=s[1].item),  # repeated item
    lambda s: _with(s, 2, cumulative=s[2].cumulative * 1.001),  # broken running sum
    lambda s: s[:2] + [s[3], s[2]] + s[4:],  # swapped steps: gains no longer exact
    lambda s: [dataclasses.replace(r, gain=r.gain * 1.01, cumulative=r.cumulative * 1.01)
               for r in s],  # consistent sums of wrong gains
])
def test_check_flags_corrupted_sequence(solved, corrupt):
    ref, seq = solved
    assert checks.check_sequence(ref, corrupt(seq))


def test_insert_gain_matches_aggregate():
    import numpy as np

    spec = infmax.AggregationSpec((1.0, 0.5, 0.25))
    gamma = np.array(spec.gamma)
    for values in ([], [3.0], [5.0, 1.0], [4.0, 2.0, 1.0]):
        tops = np.array([sorted(values, reverse=True) + [0.0] * (3 - len(values))])
        for x in (0.5, 1.5, 3.0, 6.0):
            _, g = checks.insert_gain(tops, np.array([x]), gamma)
            expected = infmax.aggregate(spec, values + [x]) - infmax.aggregate(spec, values)
            assert g[0] == pytest.approx(expected)


def test_benchmark_json_matches_run():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_missing_sources_fail_cleanly(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    with pytest.raises(SystemExit) as exc:
        run.load_library()
    assert exc.value.code not in (0, None)


def test_unknown_workload_is_rejected():
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "nope", "--seed", "1", "--seconds", "1"])
    assert exc.value.code == 2


def test_inputs_depend_only_on_seed():
    a = workloads.build("lazy-matrix", 7, TINY).reference()
    b = workloads.build("lazy-matrix", 7, TINY).reference()
    c = workloads.build("lazy-matrix", 8, TINY).reference()
    assert (a.utilities == b.utilities).all()
    assert a.utilities.shape != c.utilities.shape or (a.utilities != c.utilities).any()


def test_cross_check_flags_disagreement():
    import tracing

    counts = {("ev", "fwd_yields"): 5, ("ev", "rev_pops"): 3,
              ("calls", "next_seed", "forward_stream"): 2}
    stats = {"forward_yields": 5, "rev_pops": 3, "exact_evals": 2}
    assert tracing.solve_metrics(counts, stats, [], "skim")[1] == []
    _, errors = tracing.solve_metrics(counts, dict(stats, rev_pops=4), [], "skim")
    assert len(errors) == 1 and "rev_pops" in errors[0]


def test_lazy_reference_greedy_matches_plain_greedy(solved):
    ref, _ = solved
    chosen = []
    for _ in range(10):
        rest = [i for i in range(ref.n_items) if i not in chosen]
        chosen.append(max(rest, key=lambda i: checks.replay(ref, chosen + [i])[-1]))
    expected = checks.replay(ref, chosen).sum()
    assert checks.greedy_influence(ref, 10) == pytest.approx(expected, rel=1e-12)
