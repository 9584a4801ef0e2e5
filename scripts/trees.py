"""What the scripts that compare a parent checkout with this tree share:
the seed-range argument, the child process that runs one tree, and the
import of that tree's own sources inside it.

A comparing script runs itself once per tree in a child process, with
`--tree TREE` and its other arguments; the child calls import_tree(TREE)
first and prints one JSON value, which run_child returns.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list[int]:
    """'0-39' as the list of seeds from 0 to 39."""
    lo, hi = map(int, text.split("-"))
    return list(range(lo, hi + 1))


def run_child(script: str, tree: str, workload: str, seeds: list[int], scale: float):
    """The JSON value that `script --tree tree` prints for these seeds,
    run in a child process without PYTHONPATH, so that it imports the
    tree's sources and no others."""
    cmd = [sys.executable, os.path.abspath(script), "--tree", tree, "--workload", workload,
           "--seeds", f"{seeds[0]}-{seeds[-1]}", "--scale", str(scale)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, env=env).stdout
    return json.loads(out)


def import_tree(tree: str) -> str:
    """Put `tree`'s src and perfbench first on sys.path and import its
    infmax; exits if infmax came from anywhere else.  Returns the tree's
    absolute path."""
    tree = os.path.abspath(tree)
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "perfbench")]
    import infmax

    src = os.path.join(tree, "src")
    if not os.path.abspath(infmax.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported infmax from {infmax.__file__}, not {src}")
    return tree
