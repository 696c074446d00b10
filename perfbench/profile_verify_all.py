"""One-shot stage profile of `verify_all()` (not a gated workload).

    python3 perfbench/profile_verify_all.py

Runs `verify_all()` once, with a fresh genus cache file, in a fresh traced
worker process, then prints the time of each stage and the per-layer
metrics.  It takes several minutes.  The spans are kept in
`.perfbench_work/spans-verify-all.jsonl.gz`.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main() -> int:
    if not os.path.isfile(os.path.join(run.SRC, "ternaryforms", "__init__.py")):
        print(f"perfbench: no program to profile under {run.SRC}", file=sys.stderr)
        return 1
    os.makedirs(run.WORK_DIR, exist_ok=True)
    spans = os.path.join(run.WORK_DIR, "spans-verify-all.jsonl.gz")
    result = run.run_pass("verify-all", 0, 0, True, time.monotonic() + 3600, span_file=spans)
    wall = result["wall_s"]
    print(f"verify_all: {wall:.2f} s, setup {result['setup_s']:.2f} s, "
          f"peak RSS {result['peak_rss_mb']:.1f} MB, "
          f"{'pass' if result['failed'] == 0 else 'FAIL'}")
    print("\nstages (direct calls made by verify_all, inclusive time):")
    for name, info, seconds in result["stages"]:
        label = f"{name} p={info}" if info is not None else name
        print(f"  {label:<40} {seconds:10.3f} s {100 * seconds / wall:6.1f} %")
    print("\nspans by self time (name, calls, inclusive s, self s):")
    for name, calls, inclusive, self_s in result["span_table"]:
        print(f"  {name:<40} {calls:8d} {inclusive:10.3f} {self_s:10.3f}")
    print("\nper-layer metrics:")
    for name, value in result["per_layer"].items():
        print(f"  {name:<44} {value:>16.6g} {run.per_layer_unit(name)}")
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
