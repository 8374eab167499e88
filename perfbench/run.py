"""fedsim benchmark: one workload per invocation, timed or traced.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 28 --trace 0

Run from the root of a checkout; fedsim is imported from its `src/`.
`--trace 0` times untraced passes and prints the end-to-end metrics;
`--trace 1` adds traced passes and prints the per-layer metrics. Either
way every output byte is checked, and the last stdout line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. Full records
and the spans of the last traced pass land in `.perfbench/`.

`--write-reference` reruns every workload on seeds 0 and 1 and rewrites
`perfbench/reference.json`; only a change meant to alter output bytes
should do that.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SEEDS = (0, 1)

# Fresh-interpreter set-up samples per run; the median is reported.
SETUP_PROBES = 5
IMPORT_PROBES = 3


def import_fedsim():
    """Import fedsim from this checkout's src/, never from anywhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import fedsim

    if not os.path.abspath(fedsim.__file__).startswith(src + os.sep):
        raise ImportError(f"fedsim resolved to {fedsim.__file__}, not under {src}")


def machine_record() -> dict:
    import numpy
    import scipy

    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_start": os.getloadavg(),
    }


def probe(workload: str, seed: int) -> dict:
    """One set-up sample from a fresh interpreter: seconds and reference
    seconds from spawn to ready, and import seconds (see probe.py)."""
    spawned = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed),
                             repr(spawned)], stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or not line:
        raise RuntimeError(f"set-up probe for {workload} exited with code {code}")
    return json.loads(line)


def load_reference(workload: str, seed: int) -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed), {})


def pass_time(passes: list[list], key: str = "seconds", stat=statistics.median) -> float:
    """Sum over operations of `stat` over each operation's times in the
    passes. With one operation per pass and the median this is the median
    pass; with several, a burst of machine noise in one pass moves it less."""
    return sum(stat(getattr(t, key) for t in times) for times in zip(*passes))


def timed(workload, ops, prepared, work, checker, seed, seconds) -> tuple[dict, dict]:
    import workloads

    checker.add(workloads.run_pass(ops, prepared)[1])  # warm-up
    passes, setups = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        times, outputs = workloads.run_pass(ops, prepared, sliced=True)
        passes.append(times)
        checker.add(outputs)
        if len(setups) < SETUP_PROBES:
            setups.append(probe(workload, seed))
    while len(setups) < SETUP_PROBES:
        setups.append(probe(workload, seed))
    # Contention on a shared host only ever adds time, and what the kernel
    # does not cancel shows as slow passes: take each operation's fastest.
    wall_s = pass_time(passes, "ref_seconds", min)
    metrics = {
        "setup_s": (statistics.median(s["setup_ref_s"] for s in setups), "s"),
        "wall_s": (wall_s, "s"),
        "steps_per_s": (work.steps / wall_s, "1/s"),
        "windows_per_s": (work.windows / wall_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": ((checker.attempted - checker.failed) / checker.attempted, "ratio"),
    }
    samples = {"pass_seconds": _columns(passes, "seconds"),
               "pass_ref_seconds": _columns(passes, "ref_seconds"),
               "setups": setups,
               "measured_wall_s": pass_time(passes),
               "measured_setup_s": statistics.median(s["setup_s"] for s in setups)}
    return metrics, samples


def _columns(passes, key: str) -> list[list[float]]:
    """One time per operation per pass, for the record."""
    return [[getattr(t, key) for t in times] for times in passes]


def traced(workload, ops, prepared, work, checker, seed, seconds) -> tuple[dict, dict, list[str]]:
    import tracing
    import workloads

    checker.add(workloads.run_pass(ops, prepared)[1])  # warm-up
    plain, spanned, layers, imports = [], [], [], []
    count_problems = []
    start = time.perf_counter()
    while not spanned or time.perf_counter() - start < seconds:
        times, outputs = workloads.run_pass(ops, prepared)
        plain.append(times)
        checker.add(outputs)
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            times, outputs = workloads.run_pass(ops, prepared)
        spanned.append(times)
        checker.add(outputs)
        layer = tracing.layer_metrics(tracer)
        for key in workloads.COUNTED:
            if layer[key] != work.counts.get(key, 0):
                count_problems.append(f"{key}: traced {layer[key]}, config says {work.counts.get(key, 0)}")
        layers.append(layer)
        if len(imports) < IMPORT_PROBES:
            imports.append(probe(workload, seed)["import_s"])
    while len(imports) < IMPORT_PROBES:
        imports.append(probe(workload, seed)["import_s"])
    tracer.write_csv(os.path.join(workloads.scratch_dir(), f"spans-{workload}-seed{seed}.csv"))

    metrics = {key: (statistics.median(layer[key] for layer in layers), _unit(key))
               for key in layers[0]}
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    metrics["trace.overhead_s"] = (pass_time(spanned) - pass_time(plain), "s")
    return metrics, {"untraced_pass_seconds": _columns(plain, "seconds"),
                     "traced_pass_seconds": _columns(spanned, "seconds")}, count_problems


def _unit(key: str) -> str:
    if key.endswith((".calls", ".samples")):
        return "count"
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_pct", "%"), ("_per_round", "ratio")):
        if key.endswith(suffix):
            return unit
    return "s"


def write_reference() -> None:
    """Record every workload's output digests on the reference seeds."""
    import workloads

    reference = {}
    for workload in workloads.WORKLOADS:
        ops = workloads.operations(workload, ROOT)
        for seed in REFERENCE_SEEDS:
            _, outputs = workloads.run_pass(ops, [op.prepare(seed) for op in ops])
            entry = reference.setdefault(workload, {}).setdefault(str(seed), {})
            for out in outputs:
                if isinstance(out, Exception):
                    raise out
                entry[out.op] = {"sha256": out.sha256, "exit": out.exit_code}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("desk", "synthetic", "verify"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    try:
        import_fedsim()
        import workloads
    except ImportError as exc:
        print(f"error: cannot import fedsim from this checkout: {exc}", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference()
        return 0

    machine = machine_record()
    print("machine: " + json.dumps(machine), flush=True)
    try:
        ops = workloads.operations(args.workload, ROOT)
        prepared = [op.prepare(args.seed) for op in ops]
        reference = load_reference(args.workload, args.seed)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    work = sum((op.work(arg) for op, arg in zip(ops, prepared)), workloads.Work())
    checker = workloads.Checker(ops, prepared, reference)

    count_problems = []
    if args.trace:
        metrics, samples, count_problems = traced(args.workload, ops, prepared, work, checker,
                                                  args.seed, args.seconds)
    else:
        metrics, samples = timed(args.workload, ops, prepared, work, checker, args.seed, args.seconds)

    for op, failing in checker.verdicts.items():
        known = workloads.KNOWN_DEFECTS.get(op, set())
        for check in sorted(failing & known):
            print(f"known defect: verify {op}: {check} FAIL (cyclic closed form applied to sca)")
        for check in sorted(failing - known):
            print(f"note: verify {op}: {check} FAIL at seed {args.seed} (a verdict, not an operation failure)")
    for problem in checker.problems + count_problems:
        print(f"problem: {problem}")
    print(f"fail_ratio = {checker.failed}/{checker.attempted} operations"
          f" (reference digests {'checked' if reference else 'absent for this seed; passes compared'})")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if "measured_wall_s" in samples:
        print(f"measured on this machine: median pass {samples['measured_wall_s']:.6g} s,"
              f" setup {samples['measured_setup_s']:.6g} s (the metrics are in reference seconds)")

    correct = checker.failed == 0 and not count_problems
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "samples": samples,
              "problems": checker.problems + count_problems,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(workloads.scratch_dir(),
                           f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": checker.attempted, "failed": checker.failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
