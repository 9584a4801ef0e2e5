"""Per-layer instrumentation for traced benchmark runs.

Nothing here touches the library until Tracer.install() runs, and
Tracer.uninstall() puts every patched attribute back, so untraced runs
execute the library exactly as shipped.

Layers are the library's modules.  A call into a layer's public entry
point opens a frame; the frame's duration minus the time of the frames
it encloses is that layer's self time.  Solves, next_seed, move_up,
move_down and each forward search also leave a span (id, parent id,
name, layer, start, end) in memory; the far more numerous digest,
reverse-stream and queue calls are kept as counters and times keyed by
the name of the enclosing frame.
"""

import contextlib
import gzip
import heapq
import json
import time
import types
from collections import Counter, defaultdict

from infmax import aggregation, graphs, greedy, matrix, skim

AGG_OPS = ("marg", "add_marg", "update", "thresh", "prune_level")
REV_OPS = ("rev_top", "rev_pop", "rev_close")


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stack = [["bench", "bench", 0.0, None]]  # layer, name, child seconds, span id
        self.calls = Counter()  # (parent name, op) -> calls into the layer
        self.op_s = defaultdict(float)  # (parent name, op) -> seconds, children included
        self.self_s = defaultdict(float)  # layer -> seconds, children excluded
        self.events = Counter()  # outcomes: yields, settles, sampled pops, queue ops
        self.spans = []
        self.run = None  # the SkimRun being traced, to classify reverse-stream pops
        self._undo = []
        self._raw_marg = aggregation.UtilityDigest.marg

    # -- frames ----------------------------------------------------------

    def timed(self, layer, op, fn, span=False, after=None):
        """Wrap fn as a call into `layer`.

        Calls made from inside the same layer pass straight through
        (a layer calling itself is not a call into it), except spans,
        which nest.  after(result) runs on counted calls only.
        """
        stack, clock = self.stack, self.clock
        calls, op_s, self_s, spans = self.calls, self.op_s, self.self_s, self.spans

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == layer and not span:
                return fn(*args, **kwargs)
            key = (parent[1], op)
            calls[key] += 1
            sid = None
            if span:
                sid = len(spans)
                spans.append(None)
            frame = [layer, op, 0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                parent[2] += dt
                self_s[layer] += dt - frame[2]
                op_s[key] += dt
                if span:
                    spans[sid] = (sid, parent[3], op, layer, t0, t1)
            if after is not None:
                after(out)
            return out

        return wrapper

    def counted(self, event, fn, after=None):
        """Wrap fn to count calls without opening a frame."""
        events = self.events

        def wrapper(*args, **kwargs):
            events[event] += 1
            out = fn(*args, **kwargs)
            if after is not None:
                after(out)
            return out

        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, name, make):
        orig = vars(owner).get(name)
        if orig is None:
            return  # entry point absent in this version of the library
        setattr(owner, name, make(orig))
        self._undo.append((owner, name, orig))

    def install(self):
        for cls in (aggregation.UtilityDigest, aggregation.DigestTable):
            for op in AGG_OPS:
                after = self._count_zero if op == "marg" else None
                self._patch(cls, op, lambda f, op=op, after=after:
                            self.timed("aggregation", op, f, after=after))
        self._patch(skim.SkimRun, "__init__", self._capture_run)
        for op in ("next_seed", "move_up", "move_down"):
            self._patch(skim.SkimRun, op, lambda f, op=op: self.timed("skim", op, f, span=True))
        self._patch(skim.LazyMaxQueue, "push", lambda f: self.counted("queue_push", f))
        self._patch(skim.LazyMaxQueue, "pop", lambda f: self.counted(
            "queue_pop_calls", f, after=self._count_pop))
        self._patch(skim, "heapq", lambda m: self._counting_heapq("skim_"))
        self._patch(greedy, "heapq", lambda m: self._counting_heapq("greedy_"))
        self._patch(graphs, "simulate_instances",
                    lambda f: self.timed("graphs", "simulate_instances", f))
        self._patch(graphs.GraphInstanceSet, "rank_table",
                    lambda f: self.timed("graphs", "rank_table", f, after=self._table_bytes))
        self._patch(matrix.SparseUtilityMatrix, "__init__",
                    lambda f: self.timed("matrix", "build", f))

    def uninstall(self):
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    def _count_zero(self, gain):
        if gain == 0.0:
            self.events["marg_zero"] += 1

    def _count_pop(self, entry):
        if entry is not None:
            self.events["queue_pop"] += 1

    def _table_bytes(self, table):
        self.events["rank_table_bytes"] += sum(t.nbytes for t in table.tables)

    def _capture_run(self, init):
        def wrapper(run, *args, **kwargs):
            self.run = run
            return init(run, *args, **kwargs)

        return wrapper

    def _counting_heapq(self, prefix):
        ns = types.SimpleNamespace(**{k: getattr(heapq, k) for k in heapq.__all__})
        ns.heappush = self.counted(prefix + "heappush", heapq.heappush)
        ns.heappop = self.counted(prefix + "heappop", heapq.heappop)
        return ns

    # -- benchmark frames and the oracle bundle proxy ---------------------

    def solve(self, layer, fn, *args):
        """Run one solve inside a span of the maximizer's layer."""
        return self.timed(layer, "solve", fn, span=True)(*args)

    @contextlib.contextmanager
    def frame(self, name):
        """Attribute calls made inside the block to a benchmark frame `name`."""
        self.stack.append(["bench", name, 0.0, None])
        try:
            yield
        finally:
            self.stack.pop()

    def sampled(self, j, top) -> bool:
        """Whether a reverse-stream pop of `top` at element j became a sample:
        the item is no seed and still has positive marginal utility there."""
        run = self.run
        i, u = top
        return i not in run.seeds and run.problem.weight(j) * self._raw_marg(run.digests[j], u) > 0.0

    # -- reporting --------------------------------------------------------

    def snapshot(self) -> dict:
        snap = {("calls",) + k: v for k, v in self.calls.items()}
        snap.update({("op_s",) + k: v for k, v in self.op_s.items()})
        snap.update({("self", k): v for k, v in self.self_s.items()})
        snap.update({("ev", k): v for k, v in self.events.items()})
        return snap

    def write(self, path, extra):
        doc = dict(extra)
        doc["span_fields"] = ["id", "parent", "name", "layer", "start_s", "end_s"]
        doc["spans"] = self.spans
        doc["calls_by_parent"] = [[p, op, n, self.op_s[(p, op)]] for (p, op), n in self.calls.items()]
        doc["self_s_by_layer"] = dict(self.self_s)
        doc["events"] = dict(self.events)
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


class ProblemProxy:
    """Counting proxy around the oracle bundle that run_skim consumes."""

    def __init__(self, tracer, problem):
        self._tracer = tracer
        self._problem = problem
        self.rev_stream = tracer.timed("graphs", "rev_stream", self._rev_stream)
        self.forward_stream = tracer.timed("graphs", "forward_stream", self._forward_stream)

    def __getattr__(self, name):
        return getattr(self._problem, name)

    def _rev_stream(self, j):
        return RevStreamProxy(self._tracer, j, self._problem.rev_stream(j))

    def _forward_stream(self, i, digests):
        return ForwardStreamProxy(self._tracer, self._problem.forward_stream(i, digests))


class RevStreamProxy:
    def __init__(self, tracer, j, stream):
        self._tracer = tracer
        self._j = j
        self.top = tracer.timed("graphs", "rev_top", stream.top)
        self._pop = tracer.timed("graphs", "rev_pop", stream.pop)
        self.close = tracer.timed("graphs", "rev_close", stream.close)

    def pop(self):
        t = self._pop()
        if t is not None and self._tracer.sampled(self._j, t):
            self._tracer.events["rev_pops"] += 1
        return t


class ForwardStreamProxy:
    def __init__(self, tracer, stream):
        self._tracer = tracer
        self._stream = stream
        self._next = tracer.timed("graphs", "fwd_next", stream.__next__)
        self._parent = tracer.stack[-2][3]  # span open when forward_stream() was called
        self._t0 = tracer.clock()

    def __iter__(self):
        return self

    def __next__(self):
        tr = self._tracer
        try:
            out = self._next()
        except StopIteration:
            tr.events["fwd_settles"] += getattr(self._stream, "visited", 0)
            sid = len(tr.spans)
            tr.spans.append((sid, self._parent, "forward_search", "graphs", self._t0, tr.clock()))
            raise
        tr.events["fwd_yields"] += 1
        return out


def diff(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def _sum(d, kind, op=None, parent=None):
    return sum(v for k, v in d.items() if k[0] == kind
               and (op is None or k[-1] == op) and (parent is None or k[1] == parent))


def _ratio(a, b):
    return a / b if b else 0.0


def solve_metrics(d: dict, stats: dict, seq, kind: str):
    """Per-layer metrics of one traced solve, from a snapshot difference.

    Returns the metrics and the list of disagreements between the
    benchmark's own counts and the library's `stats` dict.
    """
    ev = {k[1]: v for k, v in d.items() if k[0] == "ev"}
    layer_self = {k[1]: v for k, v in d.items() if k[0] == "self"}
    marg = _sum(d, "calls", "marg")
    fwd_next_s = _sum(d, "op_s", "fwd_next")
    fwd_children_s = _sum(d, "op_s", parent="fwd_next")
    settles = ev.get("fwd_settles", 0)
    yields = ev.get("fwd_yields", 0)
    exact = _sum(d, "calls", "forward_stream", parent="next_seed")
    selected = sum(1 for r in seq if not r.below_cutoff)
    skim_heappops = ev.get("skim_heappop", 0)
    queue_pops = ev.get("queue_pop", 0)
    greedy_pops = ev.get("greedy_heappop", 0)
    digest_ops = marg + _sum(d, "calls", "update")
    m = {
        "aggregation.marg_calls": marg,
        "aggregation.add_marg_calls": _sum(d, "calls", "add_marg"),
        "aggregation.update_calls": _sum(d, "calls", "update"),
        "aggregation.thresh_calls": _sum(d, "calls", "thresh"),
        "aggregation.self_s": layer_self.get("aggregation", 0.0),
        "aggregation.marg_zero_frac": _ratio(ev.get("marg_zero", 0), marg),
        "graphs.rev_streams": _sum(d, "calls", "rev_stream"),
        "graphs.rev_pops": ev.get("rev_pops", 0),
        "graphs.rev_s": sum(_sum(d, "op_s", op) for op in REV_OPS),
        "graphs.fwd_searches": _sum(d, "calls", "forward_stream"),
        "graphs.fwd_yields": yields,
        "graphs.fwd_settles": settles,
        "graphs.fwd_s": fwd_next_s - fwd_children_s,
        "graphs.fwd_yield_ratio": _ratio(yields, settles),
        "skim.next_seed_calls": _sum(d, "calls", "next_seed"),
        "skim.exact_evals": exact,
        "skim.accept_ratio": _ratio(selected, exact) if kind == "skim" else 0.0,
        "skim.tau_steps": _sum(d, "calls", "move_up"),
        "skim.move_down_calls": _sum(d, "calls", "move_down"),
        "skim.move_down_s": _sum(d, "op_s", "move_down"),
        "skim.move_up_s": _sum(d, "op_s", "move_up"),
        "skim.queue_pushes": ev.get("queue_push", 0),
        "skim.queue_pops": queue_pops,
        "skim.queue_stale_ratio": _ratio(skim_heappops - queue_pops, skim_heappops),
        "skim.self_s": layer_self.get("skim", 0.0),
        "greedy.heap_pops": greedy_pops,
        "greedy.reevals": greedy_pops - selected if kind == "lazy" else 0,
        "greedy.digest_ops": digest_ops if kind == "lazy" else 0,
        "greedy.self_s": layer_self.get("greedy", 0.0),
    }
    if kind == "skim":
        expected = {"graphs.fwd_yields": "forward_yields", "graphs.rev_pops": "rev_pops",
                    "skim.exact_evals": "exact_evals"}
    else:
        expected = {"greedy.heap_pops": "pops", "greedy.digest_ops": "digest_ops"}
    errors = [f"{name}={m[name]} but stats[{key!r}]={stats.get(key)}"
              for name, key in expected.items() if m[name] != stats.get(key)]
    return m, errors


def setup_metrics(d: dict) -> dict:
    """Per-layer metrics of one traced set-up."""
    ev = {k[1]: v for k, v in d.items() if k[0] == "ev"}
    return {
        "graphs.simulate_s": _sum(d, "op_s", "simulate_instances"),
        "graphs.rank_table_s": _sum(d, "op_s", "rank_table"),
        "graphs.rank_table_mb": ev.get("rank_table_bytes", 0) / 1e6,
        "matrix.build_s": _sum(d, "op_s", "build"),
    }
