"""Spans around the calls into fedsim's modules, and their per-layer summary.

The traced pass replaces the module and class attributes the program looks
up at call time with wrappers that record one span per call: a name, a
start, an end and the span that was open when the call began. Spans stay in
flat in-memory arrays and are written out once, after the pass. Nothing in
`src/` is edited; the wrappers are removed when the pass ends.
"""

from __future__ import annotations

import math
import statistics
import time
from array import array
from contextlib import contextmanager

# Highest percentile first; the tail reported is the first one that still
# leaves at least TAIL_MIN_BEYOND samples above it.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


class Tracer:
    """Flat span store. Span i starts before span i+1, so children of a
    span always follow it, in the order they started."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)

        names, parents, starts, ends, open_ = self.name, self.parent, self.start, self.end, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_.pop()

        return traced

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,parent,start_s,end_s\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.parent[i]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n")


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children must appear in the order they started (true of Tracer). Child
    intervals that overlap are counted once.
    """
    covered = [0.0] * len(start)
    reach = [-math.inf] * len(start)
    for i in range(len(start)):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        if end[i] > lo:
            covered[p] += end[i] - lo
            reach[p] = end[i]
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


def tail_percentile(samples) -> tuple[float, float] | None:
    """(percentile, value) of the highest ladder percentile that leaves at
    least TAIL_MIN_BEYOND samples strictly beyond its nearest rank, or None
    when there are too few samples for any of them."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return pct, ordered[rank - 1]
    return None


def summarize(tracer: Tracer) -> dict[str, dict]:
    """Per span name: calls, total seconds, self seconds and durations."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
           for name in tracer.names}
    for i, nid in enumerate(tracer.name):
        entry = out[tracer.names[nid]]
        dur = tracer.end[i] - tracer.start[i]
        entry["calls"] += 1
        entry["total_s"] += dur
        entry["self_s"] += selfs[i]
        entry["durations"].append(dur)
    return out


def child_count(tracer: Tracer, child: str, parent: str) -> int:
    """Spans named `child` opened directly inside a span named `parent`."""
    if child not in tracer._ids or parent not in tracer._ids:
        return 0
    cid, pid = tracer._ids[child], tracer._ids[parent]
    return sum(1 for i, nid in enumerate(tracer.name)
               if nid == cid and tracer.parent[i] >= 0 and tracer.name[tracer.parent[i]] == pid)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass (see BENCHMARK.json)."""
    s = summarize(tracer)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}

    def get(name):
        return s.get(name, empty)

    def mean_us(name):
        e = get(name)
        return e["total_s"] / e["calls"] * 1e6 if e["calls"] else 0.0

    def p50_ms(durations):
        return statistics.median(durations) * 1e3 if durations else 0.0

    commit, plain = get("algorithms.commit_round"), get("algorithms.plain_round")
    rounds = commit["durations"] + plain["durations"]
    tail = tail_percentile(rounds)
    sample_round = get("participation.sample_round")
    return {
        "objectives.stoch_grad_local.calls": get("objectives.stoch_grad_local")["calls"],
        "objectives.stoch_grad_local.total_s": get("objectives.stoch_grad_local")["total_s"],
        "objectives.stoch_grad_local.mean_us": mean_us("objectives.stoch_grad_local"),
        "objectives.eval.calls": get("objectives.eval")["calls"],
        "objectives.eval.total_s": get("objectives.eval")["total_s"],
        "core.rng_stream.calls": get("core.rng_stream")["calls"],
        "core.rng_stream.total_s": get("core.rng_stream")["total_s"],
        "participation.sample_round.calls": sample_round["calls"],
        "participation.sample_round.self_s": sample_round["self_s"],
        "participation.sca_draws_per_round": (
            child_count(tracer, "core.rng_stream", "participation.sample_round") / sample_round["calls"]
            if sample_round["calls"] else 0.0),
        "algorithms.client_local_update.calls": get("algorithms.client_local_update")["calls"],
        "algorithms.client_local_update.self_s": get("algorithms.client_local_update")["self_s"],
        "algorithms.run_round.samples": len(rounds),
        "algorithms.run_round.p50_ms": p50_ms(rounds),
        "algorithms.run_round.tail_pct": tail[0] if tail else 0.0,
        "algorithms.run_round.tail_ms": tail[1] * 1e3 if tail else 0.0,
        "algorithms.run_round.self_s": commit["self_s"] + plain["self_s"],
        "algorithms.commit_round.p50_ms": p50_ms(commit["durations"]),
        "algorithms.plain_round.p50_ms": p50_ms(plain["durations"]),
        "algorithms.control_variate_init.s": get("algorithms.control_variate_init")["total_s"],
        "data.make_blobs.s": get("data.make_blobs")["total_s"],
        "data.partition_by_similarity.s": get("data.partition_by_similarity")["total_s"],
        "harness.build_objective.s": get("harness.build_objective")["total_s"],
        "diagnostics.window_stats.calls": get("diagnostics.window_stats")["calls"],
        "diagnostics.window_stats.total_s": get("diagnostics.window_stats")["total_s"],
        "diagnostics.window_stats.mean_us": mean_us("diagnostics.window_stats"),
        "diagnostics.sample_window.total_s": get("diagnostics.sample_window")["total_s"],
        "diagnostics.history_observe.total_s": get("diagnostics.history_observe")["total_s"],
        "diagnostics.monte_carlo_stats.self_s": get("diagnostics.monte_carlo_stats")["self_s"],
        "diagnostics.assumption_suite.self_s": get("diagnostics.assumption_suite")["self_s"],
        "harness.run_once.self_s": get("harness.run_once")["self_s"],
        "harness.run_record_csv.s": get("harness.run_record_csv")["total_s"],
    }


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class _ObjectiveProxy:
    """Delegates to the built objective; the oracle calls are traced."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self.stoch_grad_local = tracer.wrap("objectives.stoch_grad_local", inner.stoch_grad_local)
        self.eval_global = tracer.wrap("objectives.eval", inner.eval_global)
        self.grad_global = tracer.wrap("objectives.eval", inner.grad_global)
        self.test_metric = tracer.wrap("objectives.eval", inner.test_metric)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@contextmanager
def installed(tracer: Tracer):
    """Route fedsim's public calls through the tracer for the duration.

    Schedulers are wrapped at the class, not behind a proxy, because
    `assumption_suite` branches on `isinstance(scheduler, ...)`.
    """
    from fedsim import algorithms, cli, core, data, diagnostics, harness, participation

    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    try:
        rng = tracer.wrap("core.rng_stream", core.rng_stream)
        for mod in (algorithms, participation, data, diagnostics):
            if getattr(mod, "rng_stream", None) is core.rng_stream:
                patch(mod, "rng_stream", rng)

        build = tracer.wrap("harness.build_objective", harness.build_objective)
        patch(harness, "build_objective", lambda cfg: _ObjectiveProxy(build(cfg), tracer))
        patch(harness, "make_blobs", tracer.wrap("data.make_blobs", harness.make_blobs))
        patch(harness, "partition_by_similarity",
              tracer.wrap("data.partition_by_similarity", harness.partition_by_similarity))
        patch(harness, "run_once", tracer.wrap("harness.run_once", harness.run_once))
        patch(harness, "run_record_csv", tracer.wrap("harness.run_record_csv", harness.run_record_csv))

        patch(algorithms, "control_variate_init",
              tracer.wrap("algorithms.control_variate_init", algorithms.control_variate_init))
        patch(algorithms, "client_local_update",
              tracer.wrap("algorithms.client_local_update", algorithms.client_local_update))
        run_round = algorithms.Simulation.run_round
        commit = tracer.wrap("algorithms.commit_round", run_round)
        plain = tracer.wrap("algorithms.plain_round", run_round)

        def traced_round(sim, r):
            return (commit if (r + 1) % sim.window_len == 0 else plain)(sim, r)

        patch(algorithms.Simulation, "run_round", traced_round)

        for cls in _subclasses(participation.Scheduler):
            if "sample_round" in cls.__dict__:
                patch(cls, "sample_round", tracer.wrap("participation.sample_round", cls.__dict__["sample_round"]))

        suite = tracer.wrap("diagnostics.assumption_suite", diagnostics.assumption_suite)
        patch(diagnostics, "assumption_suite", suite)
        patch(cli, "assumption_suite", suite)
        patch(diagnostics, "monte_carlo_stats",
              tracer.wrap("diagnostics.monte_carlo_stats", diagnostics.monte_carlo_stats))
        patch(diagnostics, "sample_window", tracer.wrap("diagnostics.sample_window", diagnostics.sample_window))
        patch(diagnostics, "window_stats", tracer.wrap("diagnostics.window_stats", diagnostics.window_stats))
        patch(diagnostics.ParticipationHistory, "observe",
              tracer.wrap("diagnostics.history_observe", diagnostics.ParticipationHistory.observe))
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
