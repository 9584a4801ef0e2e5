"""Command-line surface: ingest a matrix or graph, run a maximizer, emit CSV.

Input formats are plain whitespace-separated text.  Matrix files start
with a header line "n_items n_elements" followed by one "item element
utility" triple per line.  Graph files start with "n_nodes n_edges"
followed by exactly n_edges lines "src dst weight".  Results are written
as a CSV table with one row per selected seed; identical configuration
and rng seed produce byte-identical output.
"""

import argparse
import math
import sys

from .aggregation import AggregationSpec, DigestTable
from .graphs import (
    Alpha,
    DirectedGraph,
    GraphProblem,
    UtilityFamily,
    simulate_instances,
    to_utility_matrix,
)
from .greedy import GreedySequence, lazy_greedy, sequence_items
from .matrix import SparseUtilityMatrix
from .oracles import (
    MatrixProblem,
    add_seed,
    exact_greedy,
    exact_influence,
    marg_gain,
    optimal_subset,
)
from .skim import SkimRun, default_sample_size


def _tokens(line: str, n: int, path: str, lineno: int) -> list[str]:
    parts = line.split()
    if len(parts) != n:
        raise ValueError(f"{path}:{lineno}: expected {n} fields, got {len(parts)}")
    return parts


def _to_int(tok: str, path: str, lineno: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: {tok!r} is not an integer") from None


def _number(tok: str, where: str) -> float:
    try:
        return float(tok)
    except ValueError:
        raise ValueError(f"{where}: {tok!r} is not a number") from None


def _prefixed(where: str, call, *args):
    """call(*args), its ValueError's message prefixed with where the
    arguments came from: the flag or the input file."""
    try:
        return call(*args)
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None


def _to_float(tok: str, path: str, lineno: int) -> float:
    x = _number(tok, f"{path}:{lineno}")
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"{path}:{lineno}: {tok!r} is not finite")
    return x


def _read_lines(path: str) -> list[str]:
    try:
        with open(path) as fh:
            return fh.read().splitlines()
    except OSError as e:
        raise ValueError(f"{path}: cannot read: {e.strerror}") from None


def _read_triples(path: str, graph: bool) -> tuple[int, int, list]:
    """The two header integers and the "int int positive-number" lines of a
    matrix or graph file.  A graph header's second integer promises the
    number of lines."""
    lines = _read_lines(path)
    if not lines:
        raise ValueError(f"{path}:1: empty file")
    a, b = (_to_int(t, path, 1) for t in _tokens(lines[0], 2, path, 1))
    if graph and len(lines) - 1 != b:
        raise ValueError(f"{path}: header promises {b} edges, found {len(lines) - 1} lines")
    what = "edge weight" if graph else "utility"
    triples = []
    for off, line in enumerate(lines[1:], start=2):
        if not line.strip():
            raise ValueError(f"{path}:{off}: blank line")
        x_tok, y_tok, w_tok = _tokens(line, 3, path, off)
        x = _to_int(x_tok, path, off)
        y = _to_int(y_tok, path, off)
        w = _to_float(w_tok, path, off)
        if w <= 0:
            raise ValueError(f"{path}:{off}: {what} must be positive")
        triples.append((x, y, w))
    return a, b, triples


def read_matrix(path: str) -> SparseUtilityMatrix:
    """Read and strictly validate a matrix file."""
    n_items, n_elements, entries = _read_triples(path, graph=False)
    return _prefixed(path, SparseUtilityMatrix, n_items, n_elements, entries)


def read_graph(path: str) -> DirectedGraph:
    """Read and strictly validate a graph file."""
    n, _, edges = _read_triples(path, graph=True)
    return _prefixed(path, DirectedGraph, n, tuple(edges))


def emit_results(sequence: GreedySequence, path: str) -> None:
    """Write the selected seeds as a CSV table (12 significant digits)."""
    out = ["rank,item,estimated_gain,exact_gain,cumulative_influence"]
    rank = 0
    for rec in sequence:
        if rec.below_cutoff:
            continue
        rank += 1
        est = "" if rec.estimate is None else f"{rec.estimate:.12g}"
        out.append(
            f"{rank},{rec.item},{est},{rec.gain:.12g},{rec.cumulative:.12g}"
        )
    text = "\n".join(out) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise ValueError(f"{path}: cannot write: {e.strerror}") from None


def parse_alpha(spec: str) -> Alpha:
    """threshold:T, inverse, exp:sigma or table:path as an alpha map.  Only
    table's file is read here; any other spec is split once, as
    kind[:number], and Alpha judges the kind and its parameter."""
    kind, colon, rest = spec.partition(":")
    if kind != "table" or not colon:
        return _prefixed("--alpha", Alpha, kind, _number(rest, "--alpha") if colon else None)
    points = []
    for lineno, line in enumerate(_read_lines(rest), start=1):
        if not line.strip():
            continue
        x_tok, v_tok = _tokens(line, 2, rest, lineno)
        points.append((_to_float(x_tok, rest, lineno), _to_float(v_tok, rest, lineno)))
    return _prefixed("--alpha", Alpha.table, points)


def _aggregation(gamma: str | None) -> AggregationSpec:
    """--gamma's weights, or max coverage without it."""
    if gamma is None:
        return AggregationSpec.maximum()
    weights = tuple(_number(t, "--gamma") for t in gamma.split(","))
    return _prefixed("--gamma", AggregationSpec, weights)


def _verify_report(problem: MatrixProblem, sequence: GreedySequence, out) -> None:
    """Compare each selected seed's gain against the exact per-step maximum."""
    matrix, spec = problem.matrix, problem.spec
    digests = DigestTable(problem.n_elements, spec)
    taken = set()
    for rec in sequence:
        if rec.below_cutoff:
            continue
        rest = (i for i in range(problem.n_items) if i not in taken)
        best = max((marg_gain(problem, i, digests) for i in rest), default=0.0)
        ratio = 1.0 if best == 0.0 else rec.gain / best
        out.write(
            f"verify seed {len(taken) + 1} item {rec.item} "
            f"gain {rec.gain:.12g} max {best:.12g} ratio {ratio:.6f}\n"
        )
        add_seed(problem, rec.item, digests, taken)
    selected = sequence_items(sequence)
    total = exact_influence(matrix, spec, selected)
    final = sequence[-1].cumulative if sequence else 0.0
    out.write(f"verify influence {final:.12g} recomputed {total:.12g}\n")
    if matrix.n_items <= 20:
        for s in range(1, min(4, len(selected)) + 1):
            _, opt = optimal_subset(matrix, spec, s)
            pref = exact_influence(matrix, spec, selected[:s])
            bound = 1.0 - (1.0 - 1.0 / s) ** s
            out.write(
                f"verify prefix {s} influence {pref:.12g} optimum {opt:.12g} "
                f"bound {bound:.6f}\n"
            )


def run(args: argparse.Namespace) -> int:
    """Execute the run the parsed arguments describe; returns the exit status."""
    # --epsilon is checked even where --k or --algorithm exact leaves it
    # unused; only SKIM's sample size needs it positive
    skim = args.algorithm == "skim"
    if not (0.0 < args.epsilon < 1.0 if skim else 0.0 <= args.epsilon < 1.0):
        raise ValueError(f"--epsilon: epsilon must lie in {'(0, 1)' if skim else '[0, 1)'}")
    if args.k is not None and not skim:
        raise ValueError("--k applies only to --algorithm skim")
    if args.rng_seed < 0:  # checked here: numpy's error would surface under another flag
        raise ValueError("--rng-seed: seed must be a non-negative integer")
    spec = _aggregation(args.gamma)
    matrix = instances = None
    if args.kind == "matrix":
        for flag in ("family", "alpha", "model", "instances"):
            if getattr(args, flag) is not None:
                raise ValueError(f"--{flag} applies only to graph inputs")
        matrix = read_matrix(args.input)
        n_items = matrix.n_items
    else:
        if args.family is None:
            raise ValueError("graph inputs need --family")
        alpha = parse_alpha(args.alpha) if args.alpha is not None else None
        family = _prefixed("--alpha", UtilityFamily, args.family.replace("-", "_"), alpha)
        count = 1 if args.instances is None else args.instances
        if count < 1:  # checked here: simulate_instances's errors name the input file
            raise ValueError("--instances: instance count must be at least 1")
        model = args.model or "fixed"
        instances = _prefixed(args.input, simulate_instances, read_graph(args.input),
                              model, count, args.rng_seed)
        n_items = instances.n

    if args.verify and n_items > 1000:
        raise ValueError("verify refuses more than 1000 items (greedy baseline)")
    if instances is not None and (args.verify or not skim):
        matrix = to_utility_matrix(instances, family)

    if skim:  # only SKIM reads the oracles, so only it builds a graph's bundle
        problem = (MatrixProblem(matrix, spec) if instances is None
                   else GraphProblem(instances, family, spec))
        k = args.k
        if k is None:
            k = default_sample_size(args.epsilon, problem.n_items, problem.n_elements)
        sequence = _prefixed("--k", SkimRun, problem, k, args.rng_seed).run()
    elif args.algorithm == "lazy":
        sequence = lazy_greedy(matrix, spec, args.epsilon)
    else:
        sequence = exact_greedy(matrix, spec)

    emit_results(sequence, args.output)
    if args.verify:
        _verify_report(MatrixProblem(matrix, spec), sequence, sys.stdout)
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="infmax",
        description="Greedy influence maximization over matrices or graph instances.",
    )
    p.add_argument("--input", required=True)
    p.add_argument("--kind", required=True, choices=["matrix", "graph"])
    p.add_argument(
        "--algorithm", default="skim", choices=["skim", "lazy", "exact"],
        help="skim (default) needs only oracle access; lazy and exact work on "
        "the full utility matrix, which graph input builds first (quadratic in "
        "the node count), and exact recomputes every gain at every step",
    )
    p.add_argument("--family", choices=["distance", "reverse-rank", "reachability", "survival"])
    p.add_argument("--alpha", help="threshold:T | inverse (takes no parameter) | exp:sigma "
                   "(exp:inf maps reachable nodes to 1, unreachable ones to 0) | table:path")
    p.add_argument("--gamma", help="comma-separated aggregation weights, e.g. 1,0.5")
    p.add_argument("--model", choices=["ic", "exponential", "fixed"], help="default fixed")
    p.add_argument("--instances", type=int, help="graph instances to draw (default 1)")
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument(
        "--epsilon", type=float, default=0.1,
        help="lazy greedy's acceptance slack, and what sets SKIM's sample size "
        "when --k is absent (default 0.1); checked even when unused: in (0, 1) "
        "for skim, in [0, 1) otherwise",
    )
    p.add_argument("--k", type=int, help="SKIM's sample size (--algorithm skim only)")
    p.add_argument("--output", default="-")
    p.add_argument(
        "--verify", action="store_true",
        help="check each selection against the exact per-step maximum: builds "
        "the full utility matrix and is quadratic, so for small inputs only",
    )
    return p


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return run(args)
    except ValueError as e:
        print(f"infmax: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
