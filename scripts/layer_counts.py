"""Per-layer operation counts of traced benchmark runs, a parent checkout
against this tree.

Run from the repository root, with a clean copy of the parent commit
(for example from `git archive`) at PARENT:

    python3 scripts/layer_counts.py --parent PARENT --workload skim-reach-ic \\
        --seeds 3-5 [--scale 1.0]

For each seed it runs `run(workload, seed, 0.0, trace=True, scale=S,
inputs=1)` of a tree's own `perfbench/run.py`: one input, solved once
untraced and once traced.  Each tree runs in a child process that
imports that tree's own sources.  Every per-layer metric whose unit is
`count` (marg calls, forward-search settles and yields, queue pushes,
...) is compared between the two trees; timings and ratios are not.  It
prints one JSON object listing each differing (seed, metric) with both
values, and exits 1 when there is any.
"""

import argparse
import contextlib
import importlib.util
import json
import os
import sys

from trees import ROOT, import_tree, parse_seeds, run_child


def count_differences(parent: dict, change: dict) -> list[dict]:
    """The count-unit metrics whose values differ between two result
    "metrics" dicts of perfbench/run.py, with both values; a metric one
    side lacks reads as None there."""
    names = sorted({name for side in (parent, change)
                    for name, m in side.items() if m["unit"] == "count"})
    out = []
    for name in names:
        p, c = (side[name]["value"] if name in side else None for side in (parent, change))
        if p != c:
            out.append({"metric": name, "parent": p, "change": c})
    return out


def traced_metrics(tree: str, workload: str, seeds: list[int], scale: float) -> list[dict]:
    """Each seed's traced metrics, with `tree`'s sources imported in this process."""
    tree = import_tree(tree)
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(tree, "perfbench", "run.py"))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    results = []
    with contextlib.redirect_stdout(sys.stderr):  # run() reports on stdout
        for seed in seeds:
            r = bench.run(workload, seed, 0.0, trace=True, scale=scale, inputs=1)
            if not r["correct"]:
                raise SystemExit(f"seed {seed}: {r['failed']} of {r['attempted']} solves failed")
            results.append(r["metrics"])
    return results


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", help="checkout of the parent commit")
    p.add_argument("--tree", help=argparse.SUPPRESS)  # child: trace this tree only
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 3-5")
    p.add_argument("--scale", type=float, default=1.0)
    args = p.parse_args(argv)
    if args.tree is not None:
        print(json.dumps(traced_metrics(args.tree, args.workload, args.seeds, args.scale)))
        return 0
    if args.parent is None:
        p.error("--parent is required")
    parent, change = (run_child(__file__, tree, args.workload, args.seeds, args.scale)
                      for tree in (os.path.abspath(args.parent), ROOT))
    differences = [dict(seed=s, **d) for s, a, b in zip(args.seeds, parent, change)
                   for d in count_differences(a, b)]
    print(json.dumps({"workload": args.workload, "scale": args.scale,
                      "seeds": [args.seeds[0], args.seeds[-1]],
                      "metrics": sorted(name for name, m in change[0].items()
                                        if m["unit"] == "count"),
                      "differences": differences}, indent=1))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
