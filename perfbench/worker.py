"""One pass of one workload, in a fresh process; prints a JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1
        --spawn-time T --work-dir DIR [--span-file PATH]

`--spawn-time` is the parent's `time.monotonic()` just before it started
this process, so the set-up laps cover interpreter start, import, input
generation and oracle precomputation.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


class Stopwatch:
    """Set-up time as named laps, so each step can be taken at its fastest
    pass.  Each lap is scaled to the reference host speed (see `speed`)."""

    def __init__(self, start: float):
        self.start = start
        self.last = start
        self.scaler = None
        self.laps: list[tuple[str, float]] = []

    def lap(self, label: str) -> None:
        seconds = time.monotonic() - self.last
        if self.scaler is None:  # the first lap has no reference reading before it
            self.scaler = speed.Scaler()
            seconds *= speed.REFERENCE_S / self.scaler.previous
        else:
            seconds = self.scaler.scale(seconds)
        self.laps.append((label, seconds))
        self.last = time.monotonic()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--span-file", help="where a traced pass writes its spans")
    args = ap.parse_args()
    watch = Stopwatch(args.spawn_time)
    watch.lap("interpreter")

    sys.path[:0] = [SRC, HERE]
    import ternaryforms.cli  # noqa: F401  (every layer module must be loaded before patching)

    recorder = None
    if args.trace:
        from tracing import Recorder

        recorder = Recorder(f"{args.workload}:{args.seed}:{os.getpid()}")
        recorder.install()

    from workloads import WORKLOADS, Ledger

    watch.lap("import")
    workload = WORKLOADS[args.workload]()
    workload.setup(args.work_dir, args.seed, watch)
    watch.lap("set-up")
    ledger = Ledger()
    setup_s = time.monotonic() - watch.start
    start = time.perf_counter()
    workload.run(ledger)
    wall_s = time.perf_counter() - start
    extra = workload.after(ledger)
    ledger.settle()

    result = {
        "setup_s": setup_s,
        "setup_laps": watch.laps,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "latencies_ms": ledger.latencies_ms,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "notes": ledger.notes,
        "extra": extra,
    }
    if recorder is not None:
        result["per_layer"] = recorder.metrics()
        if args.workload == "verify-all":
            result["stages"] = recorder.stages("verify.verify_all")
            result["span_table"] = recorder.stage_table()
        if args.span_file:
            recorder.dump(args.span_file)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
