"""Set-up probe, run in a fresh interpreter per sample.

    python3 perfbench/probe.py <workload> <seed> <spawned>

`spawned` is the parent's `time.perf_counter()` just before it started
this interpreter (the clock is system-wide). The probe imports fedsim, then
does the construction the workload's first operation does before its first
timed round or window, and prints one JSON line: `setup_s`, seconds from
`spawned` to ready; `setup_ref_s`, the same in reference seconds (see
speed.py); and `import_s`, the import time of `fedsim.cli`.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import speed  # noqa: E402


def main() -> None:
    workload, seed, spawned = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    with speed.Slicer(since=spawned) as slicer:
        import fedsim.cli  # noqa: F401  (the import every `fedsim` command pays)

        import_s = time.perf_counter() - _T0 - slicer.kernel_seconds
        import workloads

        op = workloads.operations(workload, root)[0]
        op.setup(op.prepare(seed))
    print(json.dumps({"setup_s": slicer.seconds, "setup_ref_s": slicer.ref_seconds,
                      "import_s": import_s}), flush=True)


if __name__ == "__main__":
    main()
