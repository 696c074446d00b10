"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  Every pass runs in a fresh single-threaded worker process, one at a
time, with a cold genus cache and cold in-process memos.

--trace 0  runs a fixed number of passes per workload and reports the
           end-to-end metrics; `--seconds` only caps the run (see
           `end_to_end`).  Each pass makes the same requests; a request's
           latency is its fastest pass, each pass's time scaled to a
           reference host speed (`speed.py`).  wall_s is the sum of those
           latencies, query_p50_ms and query_p97_ms their percentiles.
           setup_s is the sum over set-up steps of each step's fastest
           pass, scaled alike; peak_rss_mb is the median over passes.
--trace 1  runs two untraced and two traced passes, alternating, asserts
           that every count metric repeats exactly between the two traced
           passes, and reports the per-layer metrics (times are the mean
           of the two).  trace.overhead_s is wall_s traced minus untraced.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A harness error (missing program, crashed
worker, overrun, non-repeating counts) exits nonzero without that line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

# Untraced passes per run.  Fixed, so every commit's reading is the fastest
# of the same number of samples.
PASSES = {"genus-sweep": 8, "density-sweep": 3, "cli-queries": 3}
MIN_PASSES = 3
DEADLINE_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p97_ms": "ms",
}


class HarnessError(RuntimeError):
    pass


def per_layer_unit(name: str) -> str:
    if name.endswith("points_per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith(("hit_ratio", "reduce_per_class")):
        return "ratio"
    return "count"


def self_test() -> None:
    """A corrupted answer, a raised ResourceLimitError and a nonzero exit
    code must each land in `failed`; a right answer must not.  In the
    defect probe a refusal is not an operation, but a wrong value is a
    failed one."""
    sys.path[:0] = [SRC, HERE]
    from fractions import Fraction

    from ternaryforms.local import ResourceLimitError
    from workloads import Ledger, cli_check, probe_defect

    def refuse(*_):
        raise ResourceLimitError("self-test")

    ledger = Ledger()
    ledger.call("right answer", 1, lambda: 4, lambda r, _: int(r != 4))
    ledger.call("corrupted answer", 1, lambda: 5, lambda r, _: int(r != 4))
    ledger.call("resource limit", 1, refuse, lambda r, _: 0)
    ledger.call("exit code 3", 1, lambda: (3, "{}"), cli_check(lambda data: True))
    answers = {"refused": refuse, "right": lambda n: Fraction(9, 4), "wrong": lambda n: Fraction(2)}
    probe_defect(ledger, list(answers), 32, lambda f, n: answers[f](n))
    ledger.settle()
    if (ledger.attempted, ledger.failed) != (6, 4):
        raise HarnessError(f"failure accounting self-test: {ledger.failed}/{ledger.attempted}, expected 4/6")


def run_pass(workload: str, seed: int, index: int, trace: bool, deadline: float, span_file=None) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise HarnessError("run deadline reached before the pass started")
    env = {k: v for k, v in os.environ.items() if k != "TERNARY_CACHE"}
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)), "--work-dir", WORK_DIR,
    ]
    if span_file:
        cmd += ["--span-file", span_file]
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawn-time", repr(spawn)], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{workload} pass {index} overran the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise HarnessError(f"{workload} pass {index} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def request_latencies(passes: list[dict]) -> list[float]:
    """One latency per distinct request: the fastest of the passes that made it.

    Every pass makes the same requests in a fresh process.  The host's CPU
    speed flips between states up to 2x apart every few seconds, so most
    requests run wholly in one state; the fastest of several independent
    passes is the least-disturbed reading.  The worker has already scaled
    each latency for the slower drift that `speed` describes.
    """
    by_request: dict[str, float] = {}
    for p in passes:
        for label, ms in p["latencies_ms"]:
            by_request[label] = min(ms, by_request.get(label, ms))
    return list(by_request.values())


def setup_time(passes: list[dict]) -> float:
    """Set-up as the sum over its steps of each step's fastest pass, for
    the reason `request_latencies` gives."""
    fastest: dict[str, float] = {}
    for p in passes:
        for label, dt in p["setup_laps"]:
            fastest[label] = min(dt, fastest.get(label, dt))
    return sum(fastest.values())


def end_to_end(workload: str, seed: int, seconds: int, deadline: float) -> tuple[list[dict], dict]:
    """Run PASSES[workload] passes.  `--seconds` caps the run: after
    MIN_PASSES, a pass that would end past it is not started.  The counts
    are sized so the cap binds only on a program far slower than when the
    benchmark was defined, whose wall_s is past its bound anyway."""
    passes: list[dict] = []
    start = time.monotonic()
    while len(passes) < PASSES[workload]:
        passes.append(run_pass(workload, seed, len(passes), False, deadline))
        elapsed = time.monotonic() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    latencies = request_latencies(passes)
    metrics = {
        "wall_s": sum(latencies) / 1000,
        "setup_s": setup_time(passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "query_p50_ms": statistics.median(latencies),
        "query_p97_ms": percentile(latencies, 97),
    }
    return passes, metrics


def traced(workload: str, seed: int, deadline: float) -> tuple[list[dict], dict]:
    runs, plain = [], []
    for tag in "ab":  # untraced and traced passes alternate, so drift hits both alike
        plain.append(run_pass(workload, seed, len(runs) + len(plain), False, deadline))
        span_file = os.path.join(WORK_DIR, f"spans-{workload}-{tag}.jsonl.gz")
        runs.append(run_pass(workload, seed, len(runs) + len(plain), True, deadline, span_file=span_file))
    a, b = (r["per_layer"] for r in runs)
    differ = [k for k in a if per_layer_unit(k) in ("count", "bytes", "ratio") and a[k] != b[k]]
    if differ:
        raise HarnessError("count metrics differ between two traced passes: " + ", ".join(
            f"{k} {a[k]} vs {b[k]}" for k in differ))
    metrics = {k: (a[k] + b[k]) / 2 if per_layer_unit(k) in ("s", "ms", "1/s") else a[k] for k in a}
    metrics["trace.overhead_s"] = (sum(request_latencies(runs)) - sum(request_latencies(plain))) / 1000
    return [*plain, *runs], metrics


def report(workload, seed, trace, passes, metrics) -> None:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    mode = "traced, per-layer" if trace else "untraced, end-to-end"
    print(f"workload {workload}  seed {seed}  passes {len(passes)}  ({mode})")
    for name, value in metrics.items():
        unit = per_layer_unit(name) if trace else END_TO_END[name]
        print(f"  {name:<44} {value:>16.6g} {unit}")
    print(f"  {'fail_frac':<44} {failed / attempted:>16.6g} ({failed} of {attempted} operations)")
    calls = sum(len(p["latencies_ms"]) for p in passes)
    print(f"  query latencies: {calls} calls into the program, {len(request_latencies(passes))} distinct requests")
    print(f"  timed phase as run, median over passes: {statistics.median(p['wall_s'] for p in passes):.4f} s")
    if not trace and len(passes) < PASSES[workload]:
        print(f"  capped by --seconds after {len(passes)} of {PASSES[workload]} passes")
    for key in ("wall_s", "setup_s", "peak_rss_mb"):
        print(f"  per pass {key}: " + " ".join(f"{p[key]:.4g}" for p in passes))
    if trace:
        unexercised = [k for k, v in metrics.items() if v == 0]
        if unexercised:
            print("  not exercised on this workload (reported as 0): " + ", ".join(unexercised))
    for p in passes:
        for note in p["notes"]:
            print(f"  FAILED {note}")
    extras = {json.dumps(p["extra"], sort_keys=True) for p in passes}
    for extra in sorted(extras):
        print(f"  {extra}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": v, "unit": per_layer_unit(k) if trace else END_TO_END[k]} for k, v in metrics.items()
        },
    }))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=PASSES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not os.path.isfile(os.path.join(SRC, "ternaryforms", "__init__.py")):
            raise HarnessError(f"no program to benchmark: {SRC}/ternaryforms is missing")
        self_test()
        os.makedirs(WORK_DIR, exist_ok=True)
        if args.trace:
            passes, metrics = traced(args.workload, args.seed, deadline)
        else:
            passes, metrics = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report(args.workload, args.seed, args.trace, passes, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
