"""Full-record fingerprints of benchmark solves, a parent checkout against this tree.

Run from the repository root, with a clean copy of the parent commit
(for example from `git archive`) at PARENT:

    python3 scripts/fingerprints.py --parent PARENT --workload lazy-matrix \\
        --seeds 0-39 [--scale 1.0]

For each seed s it builds `perfbench/workloads.build(workload, s, scale)`,
sets it up, solves it once and hashes the sequence with SHA-256: the
full-precision repr of (item, estimate, gain, cumulative, below_cutoff)
of every record.  Unlike the benchmark's own fingerprint this covers
the estimate.  Each tree is solved in a child process that imports that
tree's own sources.  It prints one JSON object and exits 1 when any seed
hashes differently in the two trees; each such seed is listed with the
index of its first differing record and that record from both trees
(null past the end of the shorter sequence).
"""

import argparse
import hashlib
import json
import os
import sys

from trees import ROOT, import_tree, parse_seeds, run_child


def record_texts(seq) -> list[str]:
    """The full-precision repr of each record's fields."""
    return [repr((r.item, r.estimate, r.gain, r.cumulative, r.below_cutoff)) for r in seq]


def hash_texts(texts: list[str]) -> str:
    """SHA-256 of the repr of the list of record tuples the texts print."""
    return hashlib.sha256(f"[{', '.join(texts)}]".encode()).hexdigest()


def sequence_hash(seq) -> str:
    return hash_texts(record_texts(seq))


def first_difference(a: list[str], b: list[str]) -> dict:
    """The index of the first record where a and b differ, and both records
    there (None past the end of a sequence); a and b must differ."""
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return {"index": i, "parent": a[i] if i < len(a) else None,
            "change": b[i] if i < len(b) else None}


def solve_records(tree: str, workload: str, seeds: list[int], scale: float) -> list[list[str]]:
    """Record texts of the solves, one list per seed, with `tree`'s sources
    imported in this process."""
    import_tree(tree)
    import workloads

    solves = []
    for seed in seeds:
        wl = workloads.build(workload, seed, scale)
        solves.append(record_texts(wl.solve(wl.setup(), {})))
    return solves


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", help="checkout of the parent commit")
    p.add_argument("--tree", help=argparse.SUPPRESS)  # child: solve this tree only
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 0-39")
    p.add_argument("--scale", type=float, default=1.0)
    args = p.parse_args(argv)
    if args.tree is not None:
        print(json.dumps(solve_records(args.tree, args.workload, args.seeds, args.scale)))
        return 0
    if args.parent is None:
        p.error("--parent is required")
    parent, change = (run_child(__file__, tree, args.workload, args.seeds, args.scale)
                      for tree in (os.path.abspath(args.parent), ROOT))
    mismatches = [{"seed": s, "parent": hash_texts(a), "change": hash_texts(b),
                   "first_diff": first_difference(a, b)}
                  for s, a, b in zip(args.seeds, parent, change) if a != b]
    print(json.dumps({"workload": args.workload, "scale": args.scale,
                      "seeds": [args.seeds[0], args.seeds[-1]], "inputs": len(args.seeds),
                      "mismatches": mismatches}, indent=1))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
