"""Paired benchmark runs of a parent checkout against this working tree.

Run from the repository root, with a clean copy of the parent commit
(for example from `git archive`) at PARENT:

    python3 scripts/pairs.py --parent PARENT --workload skim-reach-ic \\
        --seeds 2101-2110 --seconds 20 --out BENCH_pairs.json [--metric setup_s]

For each seed it runs `perfbench/run.py --trace 0` once in each tree,
alternating which side goes first (parent first on the first seed).
Each tree's run.py imports that tree's own sources.  It prints one JSON
object, and writes it to --out when given: every pair's end-to-end
values, each side's median and quartiles per metric, and the verdict on
--metric, a lower-is-better end-to-end metric of BENCHMARK.json: solve_s
by default, the metric speed claims are made on.

The verdict claims a gain only when the change wins at least nine in ten
pairs (a tie counts for neither side), its median beats the parent's by
more than the parent's own quartile spread (Q3 - Q1), and it fails no
more solves than the parent.

"regressions" lists every end-to-end metric of BENCHMARK.json whose
change median is worse than the parent's by more than the metric's bound,
read as a fraction of the parent's median, in the direction its "better"
names; an empty list means no metric regressed in this run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from trees import ROOT, parse_seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3), linear interpolation between order statistics."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(parent: list[float], change: list[float], parent_failed: int, change_failed: int) -> dict:
    """Whether change beats parent on a lower-is-better metric, pair by
    pair: parent[k] and change[k] were run back to back on the same seed.
    The failed counts are each side's failed solves over all pairs."""
    if len(parent) != len(change):
        raise ValueError("parent and change need one value per pair")
    wins = sum(c < p for p, c in zip(parent, change))
    losses = sum(c > p for p, c in zip(parent, change))
    p1, pmed, p3 = quartiles(parent)
    cmed = statistics.median(change)
    gap = pmed - cmed
    spread = p3 - p1
    return {
        "pairs": len(parent),
        "wins": wins,
        "losses": losses,
        "parent_median": pmed,
        "change_median": cmed,
        "median_gap": gap,
        "relative_gap": gap / pmed if pmed else None,
        "parent_quartile_spread": spread,
        "parent_failed": parent_failed,
        "change_failed": change_failed,
        "gain": 10 * wins >= 9 * len(parent) and gap > spread and change_failed <= parent_failed,
    }


def regressions(end_to_end: list[dict], parent: dict, change: dict) -> list[dict]:
    """The metrics of `end_to_end` (BENCHMARK.json entries) whose change
    median is worse than the parent median by more than bound * |parent|.
    `parent` and `change` map each metric name to that side's median."""
    out = []
    for m in end_to_end:
        name, p, c = m["name"], parent[m["name"]], change[m["name"]]
        worse = c - p if m["better"] == "lower" else p - c
        if worse > m["bound"] * abs(p):
            out.append({"metric": name, "parent_median": p, "change_median": c,
                        "relative_worse": worse / abs(p) if p else None, "bound": m["bound"]})
    return out


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in `tree`; returns its result object."""
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = quartiles(values)
    return {"q1": q1, "median": med, "q3": q3}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 2101-2110")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out", help="also write the JSON object here")
    p.add_argument("--metric", default="solve_s", help="metric of the verdict (default solve_s)")
    args = p.parse_args(argv)
    if len(args.seeds) < 2:
        p.error("at least two seeds are needed for quartiles")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]
    metrics = [m["name"] for m in end_to_end]
    lower = [m["name"] for m in end_to_end if m["better"] == "lower"]
    metric = args.metric
    if metric not in lower:
        p.error(f"--metric must be one of {', '.join(lower)}")
    trees = {"parent": os.path.abspath(args.parent), "change": ROOT}
    pairs = []
    for k, seed in enumerate(args.seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        results = {side: run_once(trees[side], args.workload, seed, args.seconds) for side in order}
        pair = {"seed": seed, "first": order[0]}
        for side in ("parent", "change"):
            r = results[side]
            pair[side] = {name: m["value"] for name, m in r["metrics"].items()}
            pair[side]["failed"] = r["failed"]
            pair[side]["attempted"] = r["attempted"]
        pairs.append(pair)
        print(f"seed {seed}: {metric} parent {pair['parent'][metric]:.6g}, "
              f"change {pair['change'][metric]:.6g}", file=sys.stderr)
    summaries = {
        side: {name: summary([pr[side][name] for pr in pairs]) for name in metrics}
        for side in ("parent", "change")
    }
    medians = {side: {name: q["median"] for name, q in summaries[side].items()}
               for side in ("parent", "change")}
    doc = {
        "workload": args.workload,
        "seconds": args.seconds,
        "metric": metric,
        "pairs": pairs,
        "summary": summaries,
        "regressions": regressions(end_to_end, medians["parent"], medians["change"]),
        "verdict": verdict([pr["parent"][metric] for pr in pairs],
                           [pr["change"][metric] for pr in pairs],
                           sum(pr["parent"]["failed"] for pr in pairs),
                           sum(pr["change"]["failed"] for pr in pairs)),
    }
    text = json.dumps(doc, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
