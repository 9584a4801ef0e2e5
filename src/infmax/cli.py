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
import os
import sys
from dataclasses import dataclass

from .aggregation import AggregationSpec, DigestTable
from .graphs import (
    Alpha,
    DirectedGraph,
    GraphProblem,
    UtilityFamily,
    simulate_instances,
    to_utility_matrix,
)
from .greedy import GreedySequence, lazy_greedy
from .matrix import SparseUtilityMatrix
from .oracles import MatrixProblem, exact_greedy, exact_influence, optimal_subset
from .skim import run_skim

ENV_SEED = "INFMAX_SEED"

FAMILY_NAMES = {
    "distance": "distance",
    "reverse-rank": "reverse_rank",
    "reverse_rank": "reverse_rank",
    "reachability": "reachability",
    "survival": "survival",
    "survival-threshold": "survival",
}


class ParseError(ValueError):
    pass


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    input: str
    kind: str  # matrix | graph
    algorithm: str = "skim"  # skim | lazy | exact
    family: str | None = None
    alpha: str | None = None
    gamma: tuple[float, ...] | None = None
    ell: int | None = None
    model: str = "fixed"
    instances: int = 1
    rng_seed: int = 0
    epsilon: float = 0.1
    k: int | None = None
    lam: float = 0.5
    output: str = "-"
    verify: bool = False


def _tokens(line: str, n: int, path: str, lineno: int) -> list[str]:
    parts = line.split()
    if len(parts) != n:
        raise ParseError(f"{path}:{lineno}: expected {n} fields, got {len(parts)}")
    return parts


def _to_int(tok: str, path: str, lineno: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: {tok!r} is not an integer") from None


def _to_float(tok: str, path: str, lineno: int) -> float:
    try:
        x = float(tok)
    except ValueError:
        raise ParseError(f"{path}:{lineno}: {tok!r} is not a number") from None
    if math.isnan(x) or math.isinf(x):
        raise ParseError(f"{path}:{lineno}: {tok!r} is not finite")
    return x


def _read_lines(path: str) -> list[str]:
    try:
        with open(path) as fh:
            return fh.read().splitlines()
    except OSError as e:
        raise ParseError(f"{path}: cannot read: {e.strerror}") from None


def parse_input(path: str, kind: str) -> SparseUtilityMatrix | DirectedGraph:
    """Read and strictly validate a matrix or graph file."""
    lines = _read_lines(path)
    if not lines:
        raise ParseError(f"{path}:1: empty file")
    if kind == "matrix":
        n_items, n_elements = (
            _to_int(t, path, 1) for t in _tokens(lines[0], 2, path, 1)
        )
        entries = []
        for off, line in enumerate(lines[1:], start=2):
            if not line.strip():
                raise ParseError(f"{path}:{off}: blank line")
            i_tok, j_tok, u_tok = _tokens(line, 3, path, off)
            i = _to_int(i_tok, path, off)
            j = _to_int(j_tok, path, off)
            u = _to_float(u_tok, path, off)
            if u <= 0:
                raise ParseError(f"{path}:{off}: utility must be positive")
            entries.append((i, j, u))
        try:
            return SparseUtilityMatrix(n_items, n_elements, entries)
        except ValueError as e:
            raise ParseError(f"{path}: {e}") from None
    if kind == "graph":
        n, m = (_to_int(t, path, 1) for t in _tokens(lines[0], 2, path, 1))
        if len(lines) - 1 != m:
            raise ParseError(
                f"{path}: header promises {m} edges, found {len(lines) - 1} lines"
            )
        edges = []
        for off, line in enumerate(lines[1:], start=2):
            s_tok, d_tok, w_tok = _tokens(line, 3, path, off)
            s = _to_int(s_tok, path, off)
            d = _to_int(d_tok, path, off)
            w = _to_float(w_tok, path, off)
            if w <= 0:
                raise ParseError(f"{path}:{off}: edge weight must be positive")
            edges.append((s, d, w))
        try:
            return DirectedGraph(n, tuple(edges))
        except ValueError as e:
            raise ParseError(f"{path}: {e}") from None
    raise ConfigError(f"unknown input kind {kind!r}")


def write_graph(path: str, graph: DirectedGraph) -> None:
    with open(path, "w") as fh:
        fh.write(f"{graph.n} {len(graph.edges)}\n")
        for s, d, w in graph.edges:
            fh.write(f"{s} {d} {float(w)!r}\n")  # repr round-trips exactly


def write_matrix(path: str, matrix: SparseUtilityMatrix) -> None:
    with open(path, "w") as fh:
        fh.write(f"{matrix.n_items} {matrix.n_elements}\n")
        for i, row in enumerate(matrix.rows):
            for j, u in row:
                fh.write(f"{i} {j} {float(u)!r}\n")


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
            raise ConfigError(f"{path}: cannot write: {e.strerror}") from None


def parse_alpha(spec: str) -> Alpha:
    """Alpha maps are given as threshold:T, inverse, exp:sigma or table:path."""
    if spec == "inverse":
        return Alpha.inverse()
    if spec.startswith("threshold:"):
        return Alpha.threshold(float(spec.split(":", 1)[1]))
    if spec.startswith("exp:"):
        return Alpha.exponential(float(spec.split(":", 1)[1]))
    if spec.startswith("table:"):
        path = spec.split(":", 1)[1]
        points = []
        for lineno, line in enumerate(_read_lines(path), start=1):
            if not line.strip():
                continue
            x_tok, v_tok = _tokens(line, 2, path, lineno)
            x = _to_float(x_tok, path, lineno)
            points.append((x, _to_float(v_tok, path, lineno)))
        return Alpha.table(points)
    raise ConfigError(f"cannot parse alpha spec {spec!r}")


def _aggregation(config: RunConfig) -> AggregationSpec:
    if config.gamma is not None:
        if config.ell is not None and config.ell != len(config.gamma):
            raise ConfigError("ell disagrees with the length of gamma")
        return AggregationSpec(tuple(config.gamma))
    if config.ell is not None:
        return AggregationSpec.top(config.ell)
    return AggregationSpec.maximum()


def _verify_report(matrix: SparseUtilityMatrix, spec, sequence: GreedySequence, out) -> None:
    """Compare each selected seed's gain against the exact per-step maximum."""
    if matrix.n_items > 1000:
        raise ConfigError("verify refuses more than 1000 items (greedy baseline)")
    digests = DigestTable(matrix.n_elements, spec)
    weights = matrix.element_weights
    selected = []  # in selection order
    taken = set()
    for rec in sequence:
        if rec.below_cutoff:
            continue
        best = 0.0
        for i in range(matrix.n_items):
            if i in taken:
                continue
            gain = sum(weights[j] * digests[j].marg(u) for j, u in matrix.rows[i])
            best = max(best, gain)
        ratio = 1.0 if best == 0.0 else rec.gain / best
        out.write(
            f"verify seed {len(selected) + 1} item {rec.item} "
            f"gain {rec.gain:.12g} max {best:.12g} ratio {ratio:.6f}\n"
        )
        for j, u in matrix.rows[rec.item]:
            digests[j].update(u)
        selected.append(rec.item)
        taken.add(rec.item)
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


def run(config: RunConfig) -> int:
    """Execute one configured maximization run; returns the exit status."""
    spec = _aggregation(config)
    if config.kind == "matrix":
        if config.family is not None or config.alpha is not None:
            raise ConfigError("utility families apply only to graph inputs")
        matrix = parse_input(config.input, "matrix")
        problem = MatrixProblem(matrix, spec)
    elif config.kind == "graph":
        if config.family is None:
            raise ConfigError("graph inputs need --family")
        kind = FAMILY_NAMES.get(config.family)
        if kind is None:
            raise ConfigError(f"unknown utility family {config.family!r}")
        alpha = parse_alpha(config.alpha) if config.alpha is not None else None
        family = UtilityFamily(kind, alpha)
        base = parse_input(config.input, "graph")
        instances = simulate_instances(
            base, config.model, config.instances, config.rng_seed
        )
        matrix = None
        problem = GraphProblem(instances, family, spec)
    else:
        raise ConfigError(f"unknown input kind {config.kind!r}")

    needs_matrix = config.verify or config.algorithm in ("lazy", "exact")
    if needs_matrix and matrix is None:
        matrix = to_utility_matrix(problem.instances, problem.family)

    if config.algorithm == "skim":
        sequence = run_skim(
            problem,
            k=config.k,
            lam=config.lam,
            epsilon=config.epsilon,
            rng_seed=config.rng_seed,
        )
    elif config.algorithm == "lazy":
        sequence = lazy_greedy(matrix, spec, config.epsilon)
    elif config.algorithm == "exact":
        sequence = exact_greedy(matrix, spec)
    else:
        raise ConfigError(f"unknown algorithm {config.algorithm!r}")

    emit_results(sequence, config.output)
    if config.verify:
        _verify_report(matrix, spec, sequence, sys.stdout)
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
    p.add_argument("--family", help="distance | reverse-rank | reachability | survival")
    p.add_argument("--alpha", help="threshold:T | inverse | exp:sigma | table:path")
    p.add_argument("--gamma", help="comma-separated aggregation weights, e.g. 1,0.5")
    p.add_argument("--ell", type=int, help="use the unweighted top-ell aggregation")
    p.add_argument("--model", default="fixed", choices=["ic", "exponential", "fixed"])
    p.add_argument("--instances", type=int, default=1)
    p.add_argument("--rng-seed", type=int, default=None)
    p.add_argument(
        "--epsilon", type=float, default=0.1,
        help="lazy greedy's acceptance slack, and what sets SKIM's sample size "
        "when --k is absent (default 0.1; run_skim's own default is 0.2, kept "
        "apart so that CSVs written without --k do not change)",
    )
    p.add_argument("--k", type=int)
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--output", default="-")
    p.add_argument(
        "--verify", action="store_true",
        help="check each selection against the exact per-step maximum: builds "
        "the full utility matrix and is quadratic, so for small inputs only",
    )
    return p


def config_from_args(args: argparse.Namespace) -> RunConfig:
    seed = args.rng_seed
    if seed is None:
        seed = int(os.environ.get(ENV_SEED, "0"))
    gamma = None
    if args.gamma is not None:
        gamma = tuple(float(t) for t in args.gamma.split(","))
    return RunConfig(
        input=args.input,
        kind=args.kind,
        algorithm=args.algorithm,
        family=args.family,
        alpha=args.alpha,
        gamma=gamma,
        ell=args.ell,
        model=args.model,
        instances=args.instances,
        rng_seed=seed,
        epsilon=args.epsilon,
        k=args.k,
        lam=args.lam,
        output=args.output,
        verify=args.verify,
    )


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return run(config_from_args(args))
    except (ParseError, ConfigError, ValueError) as e:
        print(f"infmax: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
