"""Tests of the benchmark's own logic: span self time, the tail percentile
rule, config-derived step counts, the output digest comparison and the
reference-second timer.

    python3 -m pytest perfbench
"""

import json
import os
import signal
import time

import pytest

import speed
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_self_time_subtracts_the_union_of_child_intervals():
    #            0 parent [0, 10]   1 child [1, 3]   2 grandchild [1.5, 2.5]   3 child [2, 5]
    start = [0.0, 1.0, 1.5, 2.0]
    end = [10.0, 3.0, 2.5, 5.0]
    parent = [-1, 0, 1, 0]
    assert tracing.self_times(start, end, parent) == pytest.approx([6.0, 1.0, 1.0, 3.0])


def test_tracer_links_nested_calls_and_their_self_time():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: [inner(), inner()])
    outer()
    outer()
    assert list(tracer.parent) == [-1, 0, 0, -1, 3, 3]
    summary = tracing.summarize(tracer)
    assert summary["outer"]["calls"] == 2 and summary["inner"]["calls"] == 4
    assert summary["outer"]["self_s"] == pytest.approx(
        summary["outer"]["total_s"] - summary["inner"]["total_s"])


@pytest.mark.parametrize("n, pct", [(19, None), (20, 50.0), (100, 90.0), (300, 90.0),
                                    (1000, 99.0), (25000, 99.9), (100000, 99.99)])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, pct):
    samples = list(range(n, 0, -1))
    tail = tracing.tail_percentile(samples)
    if pct is None:
        assert tail is None
        return
    assert tail[0] == pct
    assert sum(s > tail[1] for s in samples) >= tracing.TAIL_MIN_BEYOND


def _work(workload):
    ops = workloads.operations(workload, ROOT)
    return [op.work(op.prepare(0)) for op in ops]


def test_steps_come_from_the_config():
    (desk,) = _work("desk")
    assert desk.steps == 300 * 10 * 30 + 50 * 30 == 91_500
    assert desk.windows == 300 // 20
    amp = workloads.RunOp(ROOT, "synthetic_amp_scaffold")
    assert amp.work(amp.prepare(0)).steps == 5000 * 10 + 2 * 10 == 50_020
    fedavg = workloads.RunOp(ROOT, "synthetic_fedavg")
    assert fedavg.work(fedavg.prepare(0)).steps == 50_000
    assert fedavg.work(fedavg.prepare(0)).windows == 5000
    assert sum(w.steps for w in _work("synthetic")) == 2 * 50_020 + 3 * 50_000
    cyclic, sca = _work("verify")
    assert cyclic.counts["participation.sample_round.calls"] == workloads.VERIFY_TRIALS * 5
    assert sca.counts["participation.sample_round.calls"] == workloads.VERIFY_TRIALS * 15


def test_digest_comparison_flags_changed_bytes_exit_codes_and_shape():
    out = workloads.Output("sca", b"check,statistic\nx,False\n", 1)
    ref = {"sha256": out.sha256, "exit": 1}
    assert workloads.check_output(out, 2, ref) == []
    assert workloads.check_output(out, 2, None) == []
    changed = workloads.Output("sca", b"check,statistic\nx,True\n", 1)
    assert "sha256" in workloads.check_output(changed, 2, ref)[0]
    assert "exit code" in workloads.check_output(workloads.Output("sca", out.csv, 0), 2, ref)[0]
    assert "CSV lines" in workloads.check_output(out, 3, None)[0]
    assert out.failed_checks() == {"x"}


def test_reference_covers_every_operation_on_both_seeds():
    with open(os.path.join(ROOT, "perfbench", "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    for workload in workloads.WORKLOADS:
        names = {op.name for op in workloads.operations(workload, ROOT)}
        for seed in ("0", "1"):
            assert set(reference[workload][seed]) == names


def test_benchmark_json_lists_every_per_layer_metric_with_its_unit():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    emitted = [*tracing.layer_metrics(tracing.Tracer()), "cli.import_s", "trace.overhead_s"]
    assert listed == {name: run._unit(name) for name in emitted}


def test_installed_wrappers_are_removed_after_the_traced_pass():
    from fedsim import algorithms, cli, diagnostics, harness, participation

    watched = [(harness, "run_once"), (harness, "build_objective"), (cli, "assumption_suite"),
               (algorithms, "rng_stream"), (algorithms.Simulation, "run_round"),
               (participation.CyclicScheduler, "sample_round"), (diagnostics, "window_stats")]
    before = [vars(owner)[attr] for owner, attr in watched]
    with tracing.installed(tracing.Tracer()):
        assert all(vars(owner)[attr] is not b for (owner, attr), b in zip(watched, before))
    assert [vars(owner)[attr] for owner, attr in watched] == before


def test_reference_seconds_scale_each_slice_by_the_kernel_time_before_it():
    slicer = speed.Slicer()
    slicer._add(0.02, speed.KERNEL_REF_S)       # machine at reference speed
    slicer._add(0.02, 2 * speed.KERNEL_REF_S)   # machine twice as slow
    assert slicer.seconds == pytest.approx(0.04)
    assert slicer.ref_seconds == pytest.approx(0.03)
    assert slicer.slices == 2


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_slicer_cuts_the_block_and_leaves_no_timer_or_handler_behind():
    before = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with speed.Slicer() as slicer:
        _spin(0.2)
    elapsed = time.perf_counter() - t0
    assert slicer.slices >= 0.2 / speed.SLICE_S / 2
    # Steal time, if any, is in `elapsed` but in neither of the two.
    assert 0.1 < slicer.seconds < slicer.seconds + slicer.kernel_seconds <= elapsed
    assert slicer.ref_seconds > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_slicer_counts_the_span_before_entry_when_given_a_start():
    since = time.perf_counter()
    _spin(0.05)
    with speed.Slicer(since=since) as slicer:
        pass
    assert slicer.seconds >= 0.05 and slicer.slices == 2


def test_pass_time_sums_a_statistic_of_each_operation():
    import run

    passes = [[workloads.Timing(1.0, 2.0), workloads.Timing(5.0, 1.0)],
              [workloads.Timing(3.0, 4.0), workloads.Timing(4.0, 9.0)],
              [workloads.Timing(2.0, 3.0), workloads.Timing(9.0, 2.0)]]
    assert run.pass_time(passes) == 2.0 + 5.0
    assert run.pass_time(passes, "ref_seconds", min) == 2.0 + 1.0
