"""Set-up peak memory of benchmark inputs, a parent checkout against this tree.

Run from the repository root, with a clean copy of the parent commit
(for example from `git archive`) at PARENT:

    python3 scripts/setup_peak.py --parent PARENT --workload skim-rank \\
        --scale 8 --seeds 0-2

For each seed and each tree it builds `perfbench/workloads.build(workload,
seed, scale)` and sets it up once, in a fresh child process that imports
that tree's own sources, so no earlier set-up hides the peak.  It prints
one JSON object with, per seed and tree, the rise of the process's peak
RSS (`ru_maxrss`) over the set-up in MB, the bytes that the set-up
problem's reverse-rank tables hold (0 for a workload without them), the
bytes that the set-up problem retains (`retained_bytes`) and the peak of
one solve of that problem above them (`solve_peak_bytes`).  The last two
are measured with `tracemalloc` over a second set-up and its solve in the
same child, after the RSS reading, so tracing does not disturb the RSS
figure.
"""

import argparse
import gc
import json
import os
import resource
import sys
import tracemalloc

from trees import ROOT, import_tree, parse_seeds, run_child


def setup_peak(tree: str, workload: str, seed: int, scale: float) -> dict:
    """Two set-ups of `tree`'s workload in this process: the peak RSS rise
    over the first and the bytes its rank tables hold, then the bytes
    that the second set-up's problem holds once its garbage is freed and
    the traced peak of one solve of it above those bytes."""
    import_tree(tree)
    import workloads

    wl = workloads.build(workload, seed, scale)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    problem = wl.setup()
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tables = getattr(problem, "_ranks", None) or []  # a GraphProblem's; None unless reverse rank
    tracemalloc.start()  # counts only blocks allocated from here on
    problem = wl.setup()  # held while its bytes are read
    gc.collect()
    retained = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    wl.solve(problem, {})
    solve_peak = tracemalloc.get_traced_memory()[1] - retained
    tracemalloc.stop()
    return {"peak_rss_rise_mb": (after - before) / 1024.0,  # ru_maxrss is in KiB
            "rank_table_bytes": sum(t.nbytes for t in tables),
            "retained_bytes": retained,
            "solve_peak_bytes": solve_peak}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", help="checkout of the parent commit")
    p.add_argument("--tree", help=argparse.SUPPRESS)  # child: set up this tree only
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 0-2")
    p.add_argument("--scale", type=float, default=1.0)
    args = p.parse_args(argv)
    if args.tree is not None:
        (seed,) = args.seeds  # one set-up per child
        print(json.dumps(setup_peak(args.tree, args.workload, seed, args.scale)))
        return 0
    if args.parent is None:
        p.error("--parent is required")
    trees = {"parent": os.path.abspath(args.parent), "change": ROOT}
    rows = []
    for seed in args.seeds:
        row = {"seed": seed}
        for side, tree in trees.items():
            row[side] = run_child(__file__, tree, args.workload, [seed], args.scale)
        rows.append(row)
    print(json.dumps({"workload": args.workload, "scale": args.scale,
                      "seeds": [args.seeds[0], args.seeds[-1]], "setups": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
