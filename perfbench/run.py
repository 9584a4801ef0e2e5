"""infmax benchmark: one workload per process, measured end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload skim-distance --seed 1 --seconds 20 --trace 0

The load generator is a closed loop with one caller: one process, one
thread, and the next solve starts only after the previous one returned.
A run builds INPUTS inputs from sub-seeds of --seed (untimed), sets each
up SETUP_REPEATS times, then solves them round-robin until --seconds
have passed.  Each timing is rescaled to a reference host speed by
SpeedClock; the reported figure is the median over an input's repeats,
averaged over the inputs.  The median absorbs bursts of CPU contention
on a shared host, and averaging several inputs keeps one unusual input
from moving the figure.  See WORKLOADS.md for the workloads, metrics
and what each per-layer metric should move.

--trace 0 reports the end-to-end metrics and installs nothing in the
library.  --trace 1 spends the first half of the time untraced and the
second half with tracing.Tracer installed, reports the per-layer
metrics and writes the spans and counters to .perfbench-out/.  Every
solve's output is checked afterwards against code independent of the
library (checks.py); the last stdout line is one JSON object.
"""

import argparse
import gc
import heapq
import itertools
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INPUTS = 8
SETUP_REPEATS = 3
MIN_ROUNDS = 2
QUALITY_STEPS = 50

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
    "quality_s50": "ratio",
    "pass_ratio": "ratio",
}
PER_LAYER = {
    "aggregation.marg_calls": "count",
    "aggregation.add_marg_calls": "count",
    "aggregation.update_calls": "count",
    "aggregation.thresh_calls": "count",
    "aggregation.self_s": "s",
    "aggregation.marg_zero_frac": "ratio",
    "graphs.simulate_s": "s",
    "graphs.rank_table_s": "s",
    "graphs.rank_table_mb": "MB",
    "graphs.rev_streams": "count",
    "graphs.rev_pops": "count",
    "graphs.rev_s": "s",
    "graphs.fwd_searches": "count",
    "graphs.fwd_yields": "count",
    "graphs.fwd_settles": "count",
    "graphs.fwd_s": "s",
    "graphs.fwd_yield_ratio": "ratio",
    "matrix.build_s": "s",
    "skim.next_seed_calls": "count",
    "skim.exact_evals": "count",
    "skim.accept_ratio": "ratio",
    "skim.tau_steps": "count",
    "skim.move_down_calls": "count",
    "skim.move_down_s": "s",
    "skim.move_up_s": "s",
    "skim.queue_pushes": "count",
    "skim.queue_pops": "count",
    "skim.queue_stale_ratio": "ratio",
    "skim.self_s": "s",
    "greedy.heap_pops": "count",
    "greedy.reevals": "count",
    "greedy.digest_ops": "count",
    "greedy.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def load_library() -> None:
    """Put the checkout's own sources first on sys.path; fail without them."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "infmax", "__init__.py")):
        raise SystemExit(f"perfbench: no infmax sources under {src}")
    sys.path.insert(0, src)
    import infmax

    if not os.path.abspath(infmax.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported infmax from {infmax.__file__}, not {src}")


REFERENCE_CALIBRATION_S = 0.040


class _Cell:
    __slots__ = ("top", "val")

    def __init__(self):
        self.top = []
        self.val = 0.0

    def insert(self, x, gamma=(1.0, 0.5, 0.25)):
        pos = 0
        while pos < len(self.top) and self.top[pos] >= x:
            pos += 1
        out = self.top[:pos] + [x] + self.top[pos:]
        del out[len(gamma):]
        return out, sum(g * v for g, v in zip(gamma, out)) - self.val


def calibration_s() -> float:
    """Wall time of a fixed pure-Python loop shaped like the library's
    inner loops (slotted objects, list splicing, generator sums, heap and
    dict traffic); it shares no code with the library."""
    t0 = time.perf_counter()
    cells = [_Cell() for _ in range(512)]
    heap, seen = [], {}
    for i in range(12000):
        cell = cells[(i * 7919) & 511]
        out, gain = cell.insert(((i * 2654435761) % 1000) / 1000.0)
        if gain > 0.05:
            cell.top = out
            cell.val += gain
        heapq.heappush(heap, (-gain, i))
        if len(heap) > 256:
            heapq.heappop(heap)
        seen[i & 1023] = seen.get(i & 1023, 0) + 1
    return time.perf_counter() - t0


class SpeedClock:
    """Times calls in seconds at a fixed reference interpreter speed.

    The host is shared: over 20 s windows the median of one fixed solve
    moved by +-18% while the same solve divided by an adjacent run of
    calibration_s() moved by +-3.5 to 7%.  Each call is therefore timed
    between two calibration loops and rescaled by REFERENCE_CALIBRATION_S
    over their mean, i.e. reported as if the host ran at reference speed.
    """

    def __init__(self):
        self.last = calibration_s()
        self.last_wall = 0.0  # unscaled seconds of the latest call

    def time(self, fn, *args):
        before = self.last
        t0 = time.perf_counter()
        out = fn(*args)
        wall = time.perf_counter() - t0
        self.last = calibration_s()
        self.last_wall = wall
        return out, wall * REFERENCE_CALIBRATION_S / ((before + self.last) / 2.0)


def per_input(samples: list[list[float]]) -> float:
    """Median of each input's samples, averaged over the inputs."""
    return statistics.fmean(statistics.median(s) for s in samples)


def fingerprint(seq) -> tuple:
    return tuple((r.item, r.gain, r.cumulative, r.below_cutoff) for r in seq)


class Run:
    """One benchmark run: inputs, their problems, and every solve's outcome."""

    def __init__(self, workload, seed, scale, inputs):
        import workloads

        self.wls = [workloads.build(workload, seed * inputs + b, scale) for b in range(inputs)]
        # keep the inputs out of the collector's way: the per-solve
        # gc.collect() and any collection inside a solve then scan only
        # the library's own objects, not however many inputs a run holds
        gc.collect()
        gc.freeze()
        self.problems = [None] * inputs
        self.clock = SpeedClock()
        self.first = [None] * inputs  # first output of each input, checked in full
        # (fingerprint, instrumentation disagreements) of every solve
        self.outputs = [[] for _ in range(inputs)]
        self.solve_wall = []  # unscaled seconds of every solve, for the summary

    def setup(self, times, tracer=None) -> list[dict]:
        """Set every input up once, appending to times[b]; traced, returns
        each set-up's layer metrics."""
        import tracing

        layers = []
        for b, wl in enumerate(self.wls):
            self.problems[b] = None  # one copy alive at a time
            gc.collect()
            if tracer is None:
                self.problems[b], dt = self.clock.time(wl.setup)
            else:
                before = tracer.snapshot()
                with tracer.frame("setup"):
                    self.problems[b], dt = self.clock.time(wl.setup)
                layers.append(tracing.setup_metrics(tracing.diff(tracer.snapshot(), before)))
            times[b].append(dt)
        return layers

    def solve_rounds(self, seconds, min_rounds, tracer=None):
        """Solve the inputs round-robin until `seconds` have passed and every
        input was solved `min_rounds` times; returns each input's solve
        times and, traced, layer metrics."""
        import tracing

        times = [[] for _ in self.wls]
        layers = [[] for _ in self.wls]
        end = time.perf_counter() + seconds
        for rounds in itertools.count():
            for b, (wl, problem) in enumerate(zip(self.wls, self.problems)):
                if rounds >= min_rounds and time.perf_counter() >= end:
                    return times, layers
                stats = {}
                gc.collect()
                errors = []
                if tracer is None:
                    seq, dt = self.clock.time(wl.solve, problem, stats)
                else:
                    before = tracer.snapshot()
                    layer = "skim" if wl.kind == "skim" else "greedy"
                    if wl.kind == "skim":
                        problem = tracing.ProblemProxy(tracer, problem)
                    seq, dt = self.clock.time(tracer.solve, layer, wl.solve, problem, stats)
                    m, errors = tracing.solve_metrics(
                        tracing.diff(tracer.snapshot(), before), stats, seq, wl.kind)
                    layers[b].append(m)
                times[b].append(dt)
                self.solve_wall.append(self.clock.last_wall)
                if self.first[b] is None:
                    self.first[b] = seq
                self.outputs[b].append((fingerprint(seq), errors))

    def check(self):
        """Check every solve; returns (attempted, failed, quality_s50, problems)."""
        import checks

        attempted = failed = 0
        quality = []
        problems = []
        for b, wl in enumerate(self.wls):
            ref = wl.reference()
            found = checks.check_sequence(ref, self.first[b])
            problems += [f"input {b}: {p}" for p in found]
            expected = fingerprint(self.first[b])
            for out, errors in self.outputs[b]:
                attempted += 1
                failed += bool(found or errors) or out != expected
                problems += [f"input {b}: instrumentation: {e}" for e in errors]
            if any(out != expected for out, _ in self.outputs[b]):
                problems.append(f"input {b}: repeated solves returned different sequences")
            quality.append(checks.quality(ref, self.first[b], QUALITY_STEPS))
        return attempted, failed, statistics.fmean(quality), problems


def run(workload, seed, seconds, trace, scale=1.0, inputs=INPUTS, out_dir=None):
    """Run one workload; returns the result object printed as the last line."""
    import tracing

    r = Run(workload, seed, scale, inputs)
    setup_times = [[] for _ in range(inputs)]
    if not trace:
        for _ in range(SETUP_REPEATS):
            r.setup(setup_times)
        times, _ = r.solve_rounds(seconds, MIN_ROUNDS)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed, quality, problems = r.check()
        values = {
            "setup_s": per_input(setup_times),
            "solve_s": per_input(times),
            "peak_rss_mb": peak_rss_mb,
            "quality_s50": quality,
            "pass_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END
    else:
        r.setup(setup_times)
        plain, _ = r.solve_rounds(seconds / 2.0, 1)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            setup_layers = r.setup(setup_times, tracer)
            traced, solve_layers = r.solve_rounds(seconds / 2.0, 1, tracer)
        finally:
            tracer.uninstall()
        attempted, failed, quality, problems = r.check()
        values = {name: statistics.fmean(m[name] for m in setup_layers)
                  for name in setup_layers[0]}
        for name in solve_layers[0][0]:
            values[name] = per_input([[m[name] for m in ms] for ms in solve_layers])
        values["trace.overhead_ratio"] = per_input(traced) / per_input(plain)
        units = PER_LAYER
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            tracer.write(os.path.join(out_dir, f"{workload}-seed{seed}.trace.json.gz"),
                         {"workload": workload, "seed": seed, "inputs": inputs,
                          "metrics": values})
    gc.unfreeze()
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(f"{workload} seed={seed}: {inputs} inputs, {attempted} solves, "
          f"fail_ratio={failed}/{attempted}, unscaled median solve wall time "
          f"{statistics.median(r.solve_wall):.4g} s")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    load_library()
    import workloads

    if args.workload not in workloads.NAMES:
        p.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 out_dir=os.path.join(ROOT, ".perfbench-out"))
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
