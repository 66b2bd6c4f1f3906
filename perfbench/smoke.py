"""Tiny-size smoke run of every workload, untraced and traced.

    python3 perfbench/smoke.py

Runs ``run.py`` on a 150-movie corpus for 2 seconds per workload and
asserts that each run exits 0, that its correctness checks pass, that the
result line carries every metric ``BENCHMARK.json`` names (end-to-end with
``--trace 0``, per-layer with ``--trace 1``) and that the report prints the
workload's own named metrics.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

REPORTED = {
    "browse": ("search_p50_ms", "search_p90_ms", "walk_complete_ratio"),
    "compare": ("search_p50_ms", "compare_p50_ms", "compare_p90_ms"),
    "read_write": ("write_p50_ms", "write_p90_ms", "walk_complete_ratio", "generator_lag_ms"),
}
COMMON = ("setup_s", "throughput_rps", "error_ratio", "server_rss_mb")


def smoke(workload: str, trace: int) -> None:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", str(trace), "--movies", "150"],
        capture_output=True, text=True, timeout=300,
    )
    report = done.stdout.strip().splitlines()
    if done.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {done.returncode}\n{done.stdout}\n{done.stderr}")
    result = json.loads(report[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{workload}: unexpected result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise SystemExit(f"{workload}: correctness checks failed: {result}")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    for metric in wanted:
        value = result["metrics"].get(metric["name"])
        if value is None or value["unit"] != metric["unit"]:
            raise SystemExit(f"{workload} trace={trace}: metric {metric['name']} missing or mis-united")
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        raise SystemExit(f"{workload} trace={trace}: extra metrics in the result line")
    text = "\n".join(report[:-1])
    for name in REPORTED[workload] + COMMON:
        if f"  {name} " not in text:
            raise SystemExit(f"{workload}: report does not print {name}")
    if trace and "tracing overhead" not in text:
        raise SystemExit(f"{workload}: traced run does not report the tracing overhead")
    print(f"ok  {workload:<10} trace={trace} attempted={result['attempted']}")


def main() -> int:
    for workload in REPORTED:
        for trace in (0, 1):
            smoke(workload, trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
