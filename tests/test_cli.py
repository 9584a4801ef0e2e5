"""Input parsing, CSV emission and end-to-end CLI runs."""

import hashlib
import importlib
import math
import pkgutil
import random
import re
from pathlib import Path

import numpy as np
import pytest

import infmax
import test_skim
from conftest import compensated_sum, random_graph, row
from infmax import Alpha, DirectedGraph, GraphInstanceSet, SeedRecord, SparseUtilityMatrix
from infmax.cli import (
    build_arg_parser,
    emit_results,
    main,
    parse_alpha,
    read_graph,
    read_matrix,
    run,
)


def write(path, text):
    path.write_text(text)
    return str(path)


def cli_args(*argv):
    return build_arg_parser().parse_args(argv)


def write_graph(path: str, graph: DirectedGraph) -> None:
    with open(path, "w") as fh:
        fh.write(f"{graph.n} {len(graph.edges)}\n")
        for s, d, w in graph.edges:
            fh.write(f"{s} {d} {float(w)!r}\n")  # repr round-trips exactly


def write_matrix(path: str, matrix: SparseUtilityMatrix) -> None:
    with open(path, "w") as fh:
        fh.write(f"{matrix.n_items} {matrix.n_elements}\n")
        for i in range(matrix.n_items):
            for j, u in row(matrix, i):
                fh.write(f"{i} {j} {float(u)!r}\n")


# -- parsing ---------------------------------------------------------------------


def test_parse_matrix(tmp_path):
    p = write(tmp_path / "m.txt", "2 2\n0 0 2.0\n1 0 1.0\n1 1 1.0\n")
    m = read_matrix(p)
    assert m.n_items == 2 and m.n_elements == 2 and m.m == 3


def test_parse_matrix_reports_line_numbers(tmp_path):
    p = write(tmp_path / "m.txt", "2 2\n0 0 2.0\n1 0\n")
    with pytest.raises(ValueError, match=r":3"):
        read_matrix(p)


def test_parse_matrix_rejects_duplicates(tmp_path):
    p = write(tmp_path / "m.txt", "2 2\n0 0 2.0\n0 0 1.0\n")
    with pytest.raises(ValueError, match="duplicate"):
        read_matrix(p)


def test_parse_matrix_rejects_nonpositive_utility(tmp_path):
    p = write(tmp_path / "m.txt", "2 2\n0 0 0\n")
    with pytest.raises(ValueError, match=r":2"):
        read_matrix(p)


def test_parse_graph(tmp_path):
    p = write(tmp_path / "g.txt", "2 2\n0 1 1.5\n1 0 0.5\n")
    g = read_graph(p)
    assert g.n == 2 and len(g.edges) == 2


def test_parse_graph_checks_edge_count(tmp_path):
    p = write(tmp_path / "g.txt", "2 3\n0 1 1.0\n")
    with pytest.raises(ValueError, match="promises 3"):
        read_graph(p)


def test_parse_graph_rejects_bad_weight(tmp_path):
    p = write(tmp_path / "g.txt", "2 1\n0 1 -2\n")
    with pytest.raises(ValueError, match=r":2"):
        read_graph(p)
    p2 = write(tmp_path / "g2.txt", "2 1\n0 1 inf\n")
    with pytest.raises(ValueError, match=r"g2.txt:2: 'inf' is not finite"):
        read_graph(p2)


def test_graph_round_trip(tmp_path):
    rng = random.Random(3)
    g = random_graph(rng, 12)
    # a weight not exact in 12 digits, and a numpy scalar
    g = DirectedGraph(g.n, g.edges + ((0, 1, 0.1 + 0.2), (1, 2, np.float64(1.0) / 3.0)))
    p = tmp_path / "g.txt"
    write_graph(str(p), g)
    back = read_graph(str(p))
    assert back.n == g.n
    assert list(back.edges) == list(g.edges)


def test_matrix_round_trip(tmp_path):
    p = write(tmp_path / "m.txt", "3 2\n0 0 0.25\n2 1 1.75\n1 0 0.5\n")
    m = read_matrix(p)
    # a utility not exact in 12 digits, and a numpy scalar
    entries = [(i, j, u) for i in range(m.n_items) for j, u in row(m, i)]
    entries += [(0, 1, 0.1 + 0.2), (1, 1, np.float64(2.0) / 3.0)]
    m = SparseUtilityMatrix(m.n_items, m.n_elements, entries)
    q = tmp_path / "m2.txt"
    write_matrix(str(q), m)
    back = read_matrix(str(q))
    assert back.elements == m.elements and back.utilities == m.utilities
    assert back.n_items == m.n_items


def test_parse_alpha_forms(tmp_path):
    assert parse_alpha("inverse")(2.0) == 0.5
    assert parse_alpha("threshold:1.5")(1.5) == 1.0
    assert parse_alpha("exp:2.0")(2.0) == pytest.approx(math.exp(-1))
    t = write(tmp_path / "alpha.txt", "0 1.0\n2 0.5\n4 0\n")
    tab = parse_alpha(f"table:{t}")
    assert tab(1.0) == 1.0 and tab(2.0) == 0.5 and tab(9.0) == 0.0
    # every form builds the map Alpha's own constructors build, bit for bit
    points = [(0.0, 1.0), (2.0, 0.5), (4.0, 0.0)]
    forms = {
        "inverse": Alpha.inverse(),
        "threshold:1.5": Alpha.threshold(1.5),
        "threshold:0": Alpha.threshold(0.0),
        "threshold:inf": Alpha.threshold(math.inf),
        "exp:2.0": Alpha.exponential(2.0),
        "exp:1e-3": Alpha.exponential(1e-3),
        "exp: 2": Alpha.exponential(2.0),
        f"table:{t}": Alpha.table(points),
    }
    grid = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 1e300, math.inf]
    for spec, want in forms.items():
        got = parse_alpha(spec)
        assert (got.kind, got.param) == (want.kind, want.param), spec
        assert [got(x) for x in grid] == [want(x) for x in grid], spec
    with pytest.raises(ValueError, match=r"^--alpha: unknown alpha kind 'log'$"):
        parse_alpha("log:2")


def test_parse_alpha_table_reports_bad_line(tmp_path):
    t = write(tmp_path / "alpha.txt", "0 1.0\n2 nan\n")
    with pytest.raises(ValueError, match=r"alpha.txt:2"):
        parse_alpha(f"table:{t}")


@pytest.mark.parametrize(
    "flags",
    [
        ["--alpha", "exp:nan"],
        ["--alpha", "threshold:nan"],
        ["--alpha", "exp:1", "--gamma", "1,nan"],
    ],
)
def test_nan_parameters_fail(tmp_path, capsys, flags):
    src = write(tmp_path / "g.txt", "2 1\n0 1 1.0\n")
    out = tmp_path / "r.csv"
    argv = [
        "--input", src, "--kind", "graph", "--family", "distance", "--k", "4",
        "--output", str(out),
    ]
    assert main(argv + flags) == 2
    assert "infmax:" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv + ["--alpha", "threshold:inf"]) == 0


# -- emission ---------------------------------------------------------------------


def test_emit_empty_sequence(tmp_path):
    out = tmp_path / "r.csv"
    emit_results([], str(out))
    assert out.read_text() == "rank,item,estimated_gain,exact_gain,cumulative_influence\n"


def test_emit_single_seed(tmp_path):
    out = tmp_path / "r.csv"
    emit_results([SeedRecord(3, None, 5.0, 5.0)], str(out))
    lines = out.read_text().splitlines()
    assert lines[1] == "1,3,,5,5"


def test_emit_skips_below_cutoff_and_keeps_prefix_sums(tmp_path):
    seq = [
        SeedRecord(1, 2.5, 2.0, 2.0),
        SeedRecord(0, 1.25, 1.0, 3.0),
        SeedRecord(2, 0.5, 0.1, 3.0, below_cutoff=True),
    ]
    out = tmp_path / "r.csv"
    emit_results(seq, str(out))
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    rows = [line.split(",") for line in lines[1:]]
    cumulative = 0.0
    for row in rows:
        cumulative += float(row[3])
        assert float(row[4]) == pytest.approx(cumulative)


def test_emit_uses_12_significant_digits(tmp_path):
    gain = 1.0 / 3.0
    out = tmp_path / "r.csv"
    emit_results([SeedRecord(0, gain, gain, gain)], str(out))
    assert "0.333333333333" in out.read_text()


# -- end-to-end runs ----------------------------------------------------------------


def test_exact_run_on_fixture(tmp_path):
    src = write(tmp_path / "m.txt", "2 2\n0 0 2.0\n1 0 1.0\n1 1 1.0\n")
    out = tmp_path / "r.csv"
    status = run(cli_args("--input", src, "--kind", "matrix", "--algorithm", "exact",
                          "--output", str(out)))
    assert status == 0
    lines = out.read_text().splitlines()
    assert lines[1].startswith("1,0,")
    assert lines[2].startswith("2,1,")


def test_skim_runs_are_byte_identical(tmp_path):
    rng = random.Random(7)
    base = random_graph(rng, 15)
    g = type(base)(base.n, tuple((s, d, min(w / 2.0, 1.0)) for s, d, w in base.edges))
    src = tmp_path / "g.txt"
    write_graph(str(src), g)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        args = cli_args(
            "--input", str(src), "--kind", "graph", "--algorithm", "skim",
            "--family", "distance", "--alpha", "exp:1.0", "--model", "ic",
            "--instances", "2", "--rng-seed", "11", "--k", "8", "--output", str(out),
        )
        assert run(args) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# Every SHA-256 pin below was recorded with numpy 2.4.6, scipy 1.17.1 and
# CPython 3.11.7.  numpy does not promise Generator streams stable across
# versions (NEP 19), and from Python 3.12 builtin sum() adds floats with
# compensation, so another version may change a pinned byte.

# SHA-256 of the CSV for each (family, model) on the graph built by
# pinned_graph; any change to an oracle that alters a byte of output shows here
PINNED_CSV = {
    ("distance", "ic"): "1dbc23a0fb73ee3f444b641948700baf870b16a9e17f3f0e5b9ee41c75de22aa",
    ("distance", "exponential"): "ae381521309239b7da7f00f90383338ff63617615ff1893524d991322df70914",
    ("reverse-rank", "ic"): "4eeb495f1ae76fd7979a2d95bcfb7f865f10d8a400608a6c486fde64b2e6b36a",
    ("reverse-rank", "exponential"): "f20f35b1020a9c4080af998aa9a3a180de0f74b80dc75486ea578b88669e85a0",
    ("reachability", "ic"): "61a31cd2a112166b0e6a15458c04066b08d8b3f6640386a19d789b91931fe97d",
    ("reachability", "exponential"): "4675b267088df2b89e1a1aced74ffdc6bfba9ae85290dbb4e2a08fd041abd2c1",
    ("survival", "ic"): "61a31cd2a112166b0e6a15458c04066b08d8b3f6640386a19d789b91931fe97d",
    ("survival", "exponential"): "5e2c0027c4dcc71e2e39ebfd6fc499f8c6c65a6122639a8e9cbd0858058b66d7",
}
PINNED_ALPHA = {"distance": "exp:2.0", "reverse-rank": "inverse"}


@pytest.fixture(scope="module")
def pinned_graph(tmp_path_factory):
    # weights are dyadic and lie in (0, 1], valid as IC probabilities and
    # exponential rates alike, and read back from write_graph's file exactly
    rng = random.Random(2016)
    n = 30
    edges = []
    for _ in range(90):
        s, d = rng.randrange(n), rng.randrange(n)
        if s != d:
            edges.append((s, d, rng.randrange(8, 65) / 64.0))
    path = tmp_path_factory.mktemp("pinned") / "g.txt"
    write_graph(str(path), DirectedGraph(n, tuple(edges)))
    return str(path)


@pytest.mark.parametrize("family,model", sorted(PINNED_CSV))
def test_cli_output_is_pinned(pinned_graph, tmp_path, family, model):
    out = tmp_path / "r.csv"
    argv = [
        "--input", pinned_graph, "--kind", "graph", "--family", family,
        "--model", model, "--instances", "2", "--gamma", "1,0.5",
        "--rng-seed", "5", "--output", str(out),
    ]
    if family in PINNED_ALPHA:
        argv += ["--alpha", PINNED_ALPHA[family]]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_CSV[(family, model)]


# SHA-256 of the CSV for alphas that reach 0 at a finite distance or rank,
# so the graph oracles settle zero-utility nodes; the table has a 0 tail
# and a blank line, which the reader skips
ZERO_TAIL_TABLE = "1 1.0\n3 0.5\n\n6 0.25\n10 0\n"
PINNED_ZERO_TAIL_CSV = {
    ("distance", "lazy"): "739c7eab270dc78dc2529cf2038971a4d32d0c7c00d618bbbd960a557ccb0a8e",
    ("distance", "skim"): "739c7eab270dc78dc2529cf2038971a4d32d0c7c00d618bbbd960a557ccb0a8e",
    ("reverse-rank", "lazy"): "f526ff818687c242bca52d1154981a266e184c9629485ffa828a2d3c8db8058a",
    ("reverse-rank", "skim"): "4ce5c39311855a36259e2b546d30abc8858a1bc77312a1dc852e3e14b53af6e8",
}


@pytest.mark.parametrize("family,algorithm", sorted(PINNED_ZERO_TAIL_CSV))
def test_cli_zero_tail_alpha_output_is_pinned(pinned_graph, tmp_path, family, algorithm):
    if family == "distance":
        alpha = "threshold:1.5"
    else:
        alpha = "table:" + write(tmp_path / "alpha.txt", ZERO_TAIL_TABLE)
    out = tmp_path / "r.csv"
    argv = [
        "--input", pinned_graph, "--kind", "graph", "--family", family,
        "--alpha", alpha, "--model", "exponential", "--instances", "2",
        "--gamma", "1,0.5", "--rng-seed", "5", "--algorithm", algorithm,
        "--output", str(out),
    ]
    assert main(argv) == 0
    assert len(out.read_text().splitlines()) > 3  # several seeds, not a trivial run
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == PINNED_ZERO_TAIL_CSV[(family, algorithm)]


# SHA-256 of the CSV followed by the verify lines, for lazy greedy with
# --verify on pinned_graph; covers the reference utility matrix, lazy greedy
# and the verify report, none of which the skim pins run
PINNED_LAZY_VERIFY = {
    "distance": "79351c5e13f6d93b9a8778c1544b9320a1057864de7a2495c644a3c71ee1d55a",
    "reverse-rank": "4b0abd56611d34b48ec613e944df0ae90cca027bae2a048f45aaf3a0f4bd3138",
    "reachability": "0d26d8d3f216de9da5b1b05f0829bf737f7fa3e918700fdfc0248a6390c6d822",
    "survival": "b5355b0a5248b0bc7f33b98dac93f2f953ac526cad28c76da75ccd6b1b5eb6e8",
}


@pytest.mark.parametrize("family", sorted(PINNED_LAZY_VERIFY))
def test_cli_lazy_verify_output_is_pinned(pinned_graph, tmp_path, capsys, family):
    out = tmp_path / "r.csv"
    argv = [
        "--input", pinned_graph, "--kind", "graph", "--family", family,
        "--model", "exponential", "--instances", "2", "--gamma", "1,0.5,0",
        "--rng-seed", "5", "--algorithm", "lazy", "--verify", "--output", str(out),
    ]
    if family in PINNED_ALPHA:
        argv += ["--alpha", PINNED_ALPHA[family]]
    assert main(argv) == 0
    report = capsys.readouterr().out
    assert report.count("verify seed") == len(out.read_text().splitlines()) - 1
    digest = hashlib.sha256(out.read_bytes() + report.encode()).hexdigest()
    assert digest == PINNED_LAZY_VERIFY[family]


# SHA-256 of the CSV for each algorithm on the matrix built by pinned_matrix;
# skim runs without --k, so its sample size comes from --epsilon
PINNED_MATRIX_CSV = {
    "exact": "25d4e7b66ba1374056416eafec87bbe8582ddc471e76087913e4a48636bc3f5e",
    "lazy": "98acddbbecba1e53b2a99d3096f1f859932f728f369e066a439d79def1376336",
    "skim": "ad8196b6c55733acd702ec84738515c4648c42d36ee185a412ee4413fbd7e485",
    "skim-epsilon": "547e38fb2c839fee1de41f793d7a6a154564784974751b3507ca1fe9990bd995",
}
MATRIX_FLAGS = {
    "exact": ["--algorithm", "exact"],
    "lazy": ["--algorithm", "lazy"],
    "skim": ["--algorithm", "skim"],
    "skim-epsilon": ["--algorithm", "skim", "--epsilon", "0.3"],
}


@pytest.fixture(scope="module")
def pinned_matrix(tmp_path_factory):
    # dyadic utilities, so write_matrix's file reads back exactly
    rng = random.Random(2014)
    cells = sorted(rng.sample(range(24 * 40), 200))
    entries = [(c // 40, c % 40, rng.randrange(1, 65) / 16.0) for c in cells]
    path = tmp_path_factory.mktemp("pinned") / "m.txt"
    write_matrix(str(path), SparseUtilityMatrix(24, 40, entries))
    return str(path)


@pytest.mark.parametrize("name", sorted(PINNED_MATRIX_CSV))
def test_cli_matrix_output_is_pinned(pinned_matrix, tmp_path, name):
    out = tmp_path / "r.csv"
    argv = [
        "--input", pinned_matrix, "--kind", "matrix", "--gamma", "1,0.5",
        "--rng-seed", "5", "--output", str(out),
    ]
    assert main(argv + MATRIX_FLAGS[name]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_MATRIX_CSV[name]


# SHA-256 of the CSV followed by the verify lines, for exact greedy with
# --verify on pinned_graph
PINNED_EXACT_VERIFY = {
    "distance": "39f92924d4a7aec756971b1dcb1bec3c553b75b72e8b9294194991253c9e5adf",
    "reverse-rank": "78fe36b39b5f4fd76f3b45ecbfdfa9f0ed4e2f32bb9a30fa3a210eb65047c971",
    "reachability": "8eb1e184d6866ac5a432432d547d433b623e6c6b3d6cb12188ab9723cd9f02e3",
    "survival": "fa4ba5256bc722e4a382ef951669b8e27d855f40f4609842fd3850299a73b42e",
}


@pytest.mark.parametrize("family", sorted(PINNED_EXACT_VERIFY))
def test_cli_exact_verify_output_is_pinned(pinned_graph, tmp_path, capsys, family):
    out = tmp_path / "r.csv"
    argv = [
        "--input", pinned_graph, "--kind", "graph", "--family", family,
        "--model", "exponential", "--instances", "2", "--gamma", "1,0.5,0",
        "--rng-seed", "5", "--algorithm", "exact", "--verify", "--output", str(out),
    ]
    if family in PINNED_ALPHA:
        argv += ["--alpha", PINNED_ALPHA[family]]
    assert main(argv) == 0
    report = capsys.readouterr().out
    digest = hashlib.sha256(out.read_bytes() + report.encode()).hexdigest()
    assert digest == PINNED_EXACT_VERIFY[family]


def test_pins_hold_with_a_compensated_sum_outside_greedy(
    pinned_graph, pinned_matrix, tmp_path, capsys, monkeypatch
):
    # From Python 3.12, sum() adds floats with compensation.  Only
    # greedy.lazy_greedy may still sum gains with it (ROADMAP item 13), so
    # with the 3.12 sum as every other module's global, every pin holds:
    # a new float sum() there fails here on 3.11 already
    for mod in pkgutil.iter_modules(infmax.__path__, "infmax."):
        if mod.name != "infmax.greedy":
            module = importlib.import_module(mod.name)
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    monkeypatch.setattr(infmax, "sum", compensated_sum, raising=False)
    for family, model in sorted(PINNED_CSV):
        test_cli_output_is_pinned(pinned_graph, tmp_path, family, model)
    for family, algorithm in sorted(PINNED_ZERO_TAIL_CSV):
        test_cli_zero_tail_alpha_output_is_pinned(pinned_graph, tmp_path, family, algorithm)
    for family in sorted(PINNED_LAZY_VERIFY):
        test_cli_lazy_verify_output_is_pinned(pinned_graph, tmp_path, capsys, family)
    for name in sorted(PINNED_MATRIX_CSV):
        test_cli_matrix_output_is_pinned(pinned_matrix, tmp_path, name)
    for family in sorted(PINNED_EXACT_VERIFY):
        test_cli_exact_verify_output_is_pinned(pinned_graph, tmp_path, capsys, family)
    pinned_skim = test_skim.test_skim_sequences_are_pinned
    for param in pinned_skim.pytestmark[0].args[1]:
        pinned_skim(*param.values)


@pytest.mark.parametrize("algorithm", ["lazy", "exact"])
def test_lazy_and_exact_build_no_rank_table(pinned_graph, tmp_path, monkeypatch, algorithm):
    # both solve on the reference matrix; only the graph oracles, which
    # SKIM alone reads, need reverse rank's tables
    argv = [
        "--input", pinned_graph, "--kind", "graph", "--family", "reverse-rank",
        "--alpha", "inverse", "--model", "exponential", "--instances", "2",
        "--gamma", "1,0.5", "--rng-seed", "5", "--algorithm", algorithm,
    ]
    expected, out = tmp_path / "expected.csv", tmp_path / "r.csv"
    assert main(argv + ["--output", str(expected)]) == 0

    def refuse(self):
        raise AssertionError("rank table built")

    monkeypatch.setattr(GraphInstanceSet, "rank_table", refuse)
    assert main(argv + ["--output", str(out)]) == 0
    assert out.read_bytes() == expected.read_bytes()


# every reader and configuration error: (kind, file text, extra flags,
# the one stderr line with {path} for the input file); each exits 2 and
# writes no output
M_OK = "2 2\n0 0 2.0\n1 0 1.0\n"
G_OK = "2 1\n0 1 0.5\n"
ERRORS = {
    "empty-file": ("matrix", "", [], "{path}:1: empty file"),
    "bad-integer": ("matrix", "2 x\n", [], "{path}:1: 'x' is not an integer"),
    "bad-number": ("matrix", "2 2\n0 0 abc\n", [], "{path}:2: 'abc' is not a number"),
    "field-count": ("matrix", "2 2\n0 0 2.0\n1 0\n", [], "{path}:3: expected 3 fields, got 2"),
    "header-field-count": ("graph", "2\n", ["--family", "reachability"],
                           "{path}:1: expected 2 fields, got 1"),
    "blank-matrix-line": ("matrix", "2 2\n0 0 2.0\n\n1 0 1.0\n", [], "{path}:3: blank line"),
    "blank-graph-line": ("graph", "2 2\n0 1 0.5\n\n", ["--family", "reachability"],
                         "{path}:3: blank line"),
    "zero-utility": ("matrix", "2 2\n0 0 0\n", [], "{path}:2: utility must be positive"),
    "negative-weight": ("graph", "2 1\n0 1 -2\n", ["--family", "reachability"],
                        "{path}:2: edge weight must be positive"),
    "nan-utility": ("matrix", "2 2\n0 0 nan\n", [], "{path}:2: 'nan' is not finite"),
    "inf-weight": ("graph", "2 1\n0 1 inf\n", ["--family", "reachability"],
                   "{path}:2: 'inf' is not finite"),
    "edge-count": ("graph", "2 3\n0 1 1.0\n", ["--family", "reachability"],
                   "{path}: header promises 3 edges, found 1 lines"),
    "duplicate": ("matrix", "2 2\n0 0 2.0\n0 0 1.0\n", [], "{path}: duplicate entry (0, 0)"),
    "item-out-of-range": ("matrix", "2 2\n5 0 1.0\n", [], "{path}: entry (5, 0) out of range"),
    "node-out-of-range": ("graph", "2 1\n0 7 1.0\n", ["--family", "reachability"],
                          "{path}: edge (0, 7) out of range"),
    "bad-alpha": ("graph", G_OK, ["--family", "distance", "--alpha", "log:2"],
                  "--alpha: unknown alpha kind 'log'"),
    "inverse-parameter": ("graph", G_OK, ["--family", "distance", "--alpha", "inverse:2"],
                          "--alpha: inverse alpha takes no parameter"),
    "exp-no-sigma": ("graph", G_OK, ["--family", "distance", "--alpha", "exp"],
                     "--alpha: exponential alpha needs sigma > 0"),
    "threshold-no-t": ("graph", G_OK, ["--family", "distance", "--alpha", "threshold"],
                       "--alpha: threshold alpha needs T >= 0"),
    "bad-gamma": ("matrix", M_OK, ["--gamma", "1,x"], "--gamma: 'x' is not a number"),
    "bad-alpha-number": ("graph", G_OK, ["--family", "distance", "--alpha", "threshold:abc"],
                         "--alpha: 'abc' is not a number"),
    "bad-alpha-sigma": ("graph", G_OK, ["--family", "distance", "--alpha", "exp:"],
                        "--alpha: '' is not a number"),
    "matrix-family": ("matrix", M_OK, ["--family", "distance"],
                      "--family applies only to graph inputs"),
    "matrix-model": ("matrix", M_OK, ["--model", "ic"], "--model applies only to graph inputs"),
    "matrix-instances": ("matrix", M_OK, ["--instances", "0"],
                         "--instances applies only to graph inputs"),
    "zero-instances": ("graph", G_OK, ["--family", "reachability", "--instances", "0"],
                       "--instances: instance count must be at least 1"),
    "gamma-leading": ("matrix", M_OK, ["--gamma", "0.5"],
                      "--gamma: leading gamma coefficient must be 1"),
    "alpha-nan": ("graph", G_OK, ["--family", "distance", "--alpha", "threshold:nan"],
                  "--alpha: threshold alpha needs T >= 0"),
    "k-one": ("matrix", M_OK, ["--k", "1"], "--k: sample-size parameter k must be at least 2"),
    "skim-epsilon-one": ("matrix", M_OK, ["--epsilon", "1"],
                         "--epsilon: epsilon must lie in (0, 1)"),
    "lazy-epsilon-one": ("matrix", M_OK, ["--algorithm", "lazy", "--epsilon", "1"],
                         "--epsilon: epsilon must lie in [0, 1)"),
    "skim-k-epsilon-one": ("matrix", M_OK, ["--epsilon", "1", "--k", "8"],
                           "--epsilon: epsilon must lie in (0, 1)"),
    "exact-epsilon-five": ("matrix", M_OK, ["--algorithm", "exact", "--epsilon", "5"],
                           "--epsilon: epsilon must lie in [0, 1)"),
    "ic-probability": ("graph", "2 1\n0 1 1.5\n", ["--family", "reachability", "--model", "ic"],
                       "{path}: ic edge probabilities must lie in [0, 1]"),
    "graph-no-family": ("graph", G_OK, [], "graph inputs need --family"),
    "matrix-negative-seed": ("matrix", M_OK, ["--rng-seed", "-1"],
                             "--rng-seed: seed must be a non-negative integer"),
    "graph-negative-seed": ("graph", G_OK, ["--family", "reachability", "--rng-seed", "-1"],
                            "--rng-seed: seed must be a non-negative integer"),
    "distance-no-alpha": ("graph", G_OK, ["--family", "distance"],
                          "--alpha: distance utility requires an alpha map"),
    "reachability-alpha": ("graph", G_OK, ["--family", "reachability", "--alpha", "inverse"],
                           "--alpha: reachability utility takes no alpha map"),
    "lazy-k": ("matrix", M_OK, ["--algorithm", "lazy", "--k", "1"],
               "--k applies only to --algorithm skim"),
    "exact-k": ("matrix", M_OK, ["--algorithm", "exact", "--k", "8"],
                "--k applies only to --algorithm skim"),
    "verify-too-large": ("graph", "1001 1\n0 1 0.5\n", ["--family", "reachability", "--verify"],
                         "verify refuses more than 1000 items (greedy baseline)"),
}


@pytest.mark.parametrize("case", sorted(ERRORS))
def test_errors_exit_2_with_one_line(tmp_path, capsys, case):
    kind, text, flags, message = ERRORS[case]
    src = write(tmp_path / "in.txt", text)
    out = tmp_path / "r.csv"
    assert main(["--input", src, "--kind", kind, "--output", str(out)] + flags) == 2
    captured = capsys.readouterr()
    assert captured.err == "infmax: " + message.format(path=src) + "\n"
    assert captured.out == "" and not out.exists()


def test_ic_model_weights_must_be_probabilities(tmp_path):
    src = write(tmp_path / "g.txt", "2 1\n0 1 1.5\n")
    args = cli_args(
        "--input", src, "--kind", "graph", "--algorithm", "skim",
        "--family", "reachability", "--model", "ic",
    )
    with pytest.raises(ValueError):
        run(args)


def test_matrix_kind_rejects_family():
    args = cli_args("--input", "x", "--kind", "matrix", "--family", "distance")
    with pytest.raises(ValueError, match=r"^--family applies only to graph inputs$"):
        run(args)


def test_graph_kind_requires_family(tmp_path):
    src = write(tmp_path / "g.txt", "2 1\n0 1 1.0\n")
    with pytest.raises(ValueError, match=r"^graph inputs need --family$"):
        run(cli_args("--input", src, "--kind", "graph"))


def test_gamma_flag_builds_weighted_aggregation(tmp_path):
    src = write(tmp_path / "m.txt", "3 1\n0 0 1.0\n1 0 0.5\n2 0 0.2\n")
    out = tmp_path / "r.csv"
    args = cli_args(
        "--input", src, "--kind", "matrix", "--algorithm", "exact",
        "--gamma", "1,0.5", "--output", str(out),
    )
    run(args)
    rows = out.read_text().splitlines()[1:]
    # item 2 gains 0.0 under gamma=(1, 0.5): flagged by the stopping rule
    assert [r.split(",")[1] for r in rows] == ["0", "1"]
    assert float(rows[-1].split(",")[4]) == pytest.approx(1.25)


def test_verify_refuses_large_inputs_before_any_work(tmp_path, capsys):
    src = write(tmp_path / "g.txt", "1001 1\n0 1 0.5\n")
    out = tmp_path / "r.csv"
    assert main([
        "--input", src, "--kind", "graph", "--family", "reachability",
        "--verify", "--output", str(out),
    ]) == 2
    assert "verify refuses more than 1000 items" in capsys.readouterr().err
    assert not out.exists()


def test_verify_reports_per_seed_ratios(tmp_path, capsys):
    rng = random.Random(13)
    g = random_graph(rng, 30)
    src = tmp_path / "g.txt"
    write_graph(str(src), g)
    args = cli_args(
        "--input", str(src), "--kind", "graph", "--algorithm", "skim",
        "--family", "distance", "--alpha", "exp:1.0", "--rng-seed", "5",
        "--epsilon", "0.1", "--k", "64", "--output", str(tmp_path / "r.csv"), "--verify",
    )
    assert run(args) == 0
    report = capsys.readouterr().out
    ratios = [
        float(line.split("ratio ")[1])
        for line in report.splitlines()
        if line.startswith("verify seed")
    ]
    assert ratios
    slack = 0.25
    assert all(r >= 1.0 - args.epsilon - slack for r in ratios)
    influence_lines = [l for l in report.splitlines() if l.startswith("verify influence")]
    assert len(influence_lines) == 1
    reported, recomputed = influence_lines[0].split()[2::2]
    assert float(reported) == pytest.approx(float(recomputed), rel=1e-9)


# SHA-256 of the CSV followed by the verify lines on a matrix of at most 20
# items, the only size at which the report adds its prefix-optimum lines
PINNED_SMALL_VERIFY = {
    "exact": "a64fbf942077a4140bf44a34a1f62a38346aa85f6a1ee1c74511d75970d31441",
    "lazy": "de905140ae73f4b2048052e09937ec5b417c32b1ded2af918f778d66f0337d71",
}


@pytest.mark.parametrize("algorithm", sorted(PINNED_SMALL_VERIFY))
def test_verify_reports_prefix_optima_on_small_inputs(tmp_path, capsys, algorithm):
    # dyadic utilities; greedy misses the optimum at prefixes 3 and 4
    rng = random.Random(2053)
    cells = sorted(rng.sample(range(10 * 16), 50))
    entries = [(c // 16, c % 16, rng.randrange(1, 33) / 8.0) for c in cells]
    src = tmp_path / "m.txt"
    write_matrix(str(src), SparseUtilityMatrix(10, 16, entries))
    out = tmp_path / "r.csv"
    assert main([
        "--input", str(src), "--kind", "matrix", "--gamma", "1,0.5",
        "--algorithm", algorithm, "--epsilon", "0", "--verify", "--output", str(out),
    ]) == 0
    report = capsys.readouterr().out
    prefixes = [l.split() for l in report.splitlines() if l.startswith("verify prefix")]
    assert [int(p[2]) for p in prefixes] == [1, 2, 3, 4]
    for _, _, s, _, pref, _, opt, _, bound in prefixes:
        s = int(s)
        exact_bound = 1.0 - (1.0 - 1.0 / s) ** s
        assert bound == f"{exact_bound:.6f}"
        # greedy at epsilon 0 holds the (1 - (1 - 1/s)**s) guarantee
        assert float(pref) >= exact_bound * float(opt)
    digest = hashlib.sha256(out.read_bytes() + report.encode()).hexdigest()
    assert digest == PINNED_SMALL_VERIFY[algorithm]


def test_main_exit_codes(tmp_path, capsys):
    src = write(tmp_path / "m.txt", "2 2\n0 0 2.0\n1 0 1.0\n1 1 1.0\n")
    out = tmp_path / "r.csv"
    assert main([
        "--input", src, "--kind", "matrix", "--algorithm", "exact",
        "--output", str(out),
    ]) == 0
    bad = write(tmp_path / "bad.txt", "2 2\n0 0\n")
    assert main(["--input", bad, "--kind", "matrix"]) == 2
    missing = str(tmp_path / "nope.txt")
    assert main(["--input", missing, "--kind", "matrix"]) == 2
    assert main(["--input", str(tmp_path), "--kind", "matrix"]) == 2  # a directory
    graph = write(tmp_path / "g.txt", "2 1\n0 1 1.0\n")
    assert main([
        "--input", graph, "--kind", "graph", "--family", "distance",
        "--alpha", f"table:{missing}",
    ]) == 2
    tiny = write(tmp_path / "tiny.txt", "2 1\n0 1 1e-310\n")  # positive and finite
    assert main([
        "--input", tiny, "--kind", "graph", "--family", "distance",
        "--alpha", "exp:1", "--model", "exponential",
    ]) == 2
    huge = write(tmp_path / "huge.txt", "2 1\n0 1 1e-308\n")  # 1/rate is finite, a drawn length not
    for seed in ("1", "3"):
        assert main([
            "--input", huge, "--kind", "graph", "--family", "distance", "--alpha", "exp:1",
            "--model", "exponential", "--instances", "4", "--rng-seed", seed,
        ]) == 2
    unwritable = str(tmp_path / "no-such-dir" / "r.csv")
    assert main(["--input", src, "--kind", "matrix", "--output", unwritable]) == 2
    err = capsys.readouterr().err
    assert err.count(f"infmax: {missing}: cannot read") == 2
    assert f"infmax: {tiny}: edge (0, 1) has rate 1e-310, too small: 1/rate overflows\n" in err
    overflow = f"infmax: {huge}: edge (0, 1) has rate 1e-308, too small: a drawn length overflows\n"
    assert err.count(overflow) == 2
    assert f"infmax: {unwritable}: cannot write: " in err
    assert "Traceback" not in err


def test_readme_documents_every_flag():
    # the flags named in README's "## Command line" section are exactly the
    # parser's options, so a removed or added flag shows up as a stale doc
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", section))
    options = {o for a in build_arg_parser()._actions for o in a.option_strings}
    assert documented == options - {"-h", "--help"}


def test_stdout_output(tmp_path, capsys):
    src = write(tmp_path / "m.txt", "1 1\n0 0 5.0\n")
    assert main(["--input", src, "--kind", "matrix", "--algorithm", "exact"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "rank,item,estimated_gain,exact_gain,cumulative_influence"
    assert out.splitlines()[1] == "1,0,,5,5"
