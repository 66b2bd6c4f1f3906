"""XSACT end-to-end benchmark: drive ``repro-xsact serve`` over HTTP.

One run::

    python3 perfbench/run.py --workload browse --seed 1 --seconds 15 --trace 0

builds a 1000-movie IMDB corpus from the seed, saves it as a v2 snapshot,
boots ``serve`` on it several times (set-up time), plays the workload's
seeded trace for ``--seconds`` after a warm-up prefix, checks the answers
against an in-process build of the same corpus and prints every metric.  The
last line of standard output is one JSON object with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``).  The exit code is 1
when a correctness check failed, 2 when the benchmark could not run.

``--trace 1`` runs the workload twice on the same seed: untraced, then with
the span recorder installed in the server (``traced_serve.py``).  It prints
the span tree and reports the tracing overhead between the two runs.

Steadiness check::

    python3 perfbench/run.py --steady --workload all --runs 10 --seconds 15

runs each workload once per seed and prints each end-to-end metric's median,
quartiles and spread against the bound ``BENCHMARK.json`` sets for it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from server import ROOT, BenchError, clock

SETUP_BOOTS = 3
WORK_DIR = ROOT / ".perfbench_work"

# The result line of an untraced run: the metrics every workload has.
END_TO_END = (
    ("setup_s", "s"),
    ("search_p50_ms", "ms"),
    ("server_rss_mb", "MiB"),
)


def _percentile(values: List[float], fraction: float) -> float:
    """The ``fraction`` quantile, smoothed: the mean of the order statistics
    within 5 percentage points of it.

    Latencies over HTTP cluster on the kernel's 4 ms timer ticks, so a plain
    order statistic jumps from one cluster to the next between runs; the
    band average moves smoothly with the share of samples in each cluster.
    """
    ordered = sorted(values)
    if not ordered:
        raise BenchError("no samples to take a percentile of")
    last = len(ordered) - 1
    low = round(max(0.0, fraction - 0.05) * last)
    high = round(min(1.0, fraction + 0.05) * last)
    return statistics.fmean(ordered[low : high + 1])


def _pin_hash_seed(seed: int) -> None:
    """Re-run this process with ``PYTHONHASHSEED`` fixed by ``seed``.

    Python salts ``str`` hashes per process, and the ``single_swap`` DFS
    breaks score ties in set iteration order, so on some corpora (seed 8:
    "action revenge", top 10, DoD 198 or 178) ``/compare`` answers differ
    between two processes.  The server inherits this environment, so with a
    fixed salt it and the in-process reference compute the same answer and a
    run depends on its seed alone.
    """
    wanted = str(seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        os.environ["PYTHONHASHSEED"] = wanted
        os.execv(sys.executable, [sys.executable] + sys.argv)


def _source_id() -> str:
    """The git commit when run from a clone, else a hash of ``src/``."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def client_metrics(run) -> Dict[str, Tuple[float, str, int]]:
    """Every end-to-end metric of one run: name -> (value, unit, samples)."""
    low, high = run.window
    tally = run.tally
    in_window = [s for s in tally.samples if low <= s.start < high]
    metrics: Dict[str, Tuple[float, str, int]] = {
        "setup_s": (statistics.median(run.setup), "s", len(run.setup)),
    }
    for kind in ("search", "compare", "write"):
        if kind == "write":  # timed from the due time; the schedule is the window
            latencies = [s.latency for s in tally.samples if s.kind == kind and s.end - s.latency >= low]
        else:
            latencies = [s.latency for s in in_window if s.kind == kind]
        if not latencies:
            continue
        metrics[f"{kind}_p50_ms"] = (1000.0 * _percentile(latencies, 0.5), "ms", len(latencies))
        metrics[f"{kind}_p90_ms"] = (1000.0 * _percentile(latencies, 0.9), "ms", len(latencies))
    done = sum(1 for s in tally.samples + tally.gone if low <= s.end <= high)
    metrics["throughput_rps"] = (done / (high - low), "1/s", done)
    metrics["error_ratio"] = (tally.failed / max(1, tally.attempted), "ratio", tally.attempted)
    walks = [completed for start, completed in tally.walks if low <= start < high]
    if walks:
        metrics["walk_complete_ratio"] = (sum(walks) / len(walks), "ratio", len(walks))
    if tally.lags:
        metrics["generator_lag_ms"] = (1000.0 * _percentile(tally.lags, 0.9), "ms", len(tally.lags))
    metrics["server_rss_mb"] = (run.rss_mb, "MiB", 1)
    return metrics


def _mean_latency(run) -> Tuple[List[float], float]:
    low, high = run.window
    latencies = [
        s.end - s.start for s in run.tally.samples + run.tally.gone if low <= s.start and s.end <= high
    ]
    return latencies, sum(latencies) / max(1, len(latencies))


def run_once(args) -> int:
    from workloads import Bench

    out = sys.stdout
    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        started = clock()
        bench = Bench(args.workload, args.seed, args.seconds, workdir, movies=args.movies)
        print(
            f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
            f"movies={args.movies} source={_source_id()} nproc={os.cpu_count()} "
            f"python={platform.python_version()} hash_seed={os.environ['PYTHONHASHSEED']}",
            file=out,
        )
        print(f"inputs built in {clock() - started:.2f} s", file=out)
        plain = bench.run(boots=SETUP_BOOTS if args.trace == 0 else 1)
        metrics = client_metrics(plain)
        print("end-to-end (untraced run):", file=out)
        for name, (value, unit, samples) in metrics.items():
            print(f"  {name:<22} {value:>12.4f} {unit:<6} n={samples}", file=out)
        print("phases: " + ", ".join(f"{k} {v:.1f} s" for k, v in plain.phases.items()), file=out)
        tally = plain.tally
        attempted, failed = tally.attempted, tally.failed
        if args.trace == 0:
            result = {name: {"value": metrics[name][0], "unit": unit} for name, unit in END_TO_END}
        else:
            traced = bench.run(boots=1, traced=True)
            result = _layer_result(traced, plain, metrics, out)
            attempted += traced.tally.attempted
            failed += traced.tally.failed
            tally.errors += traced.tally.errors
        for error in tally.errors:
            print(f"FAILED: {error}", file=out)
        print(f"run took {clock() - started:.1f} s", file=out)
    except BenchError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0 if failed == 0 else 1


def _layer_result(traced, plain, metrics, out) -> Dict[str, dict]:
    import layers

    latencies, traced_mean = _mean_latency(traced)
    _, plain_mean = _mean_latency(plain)
    values, tree, requests = layers.span_metrics(traced.spans_path, traced.window, latencies)
    values["trace.overhead_pct"] = 100.0 * (traced_mean / plain_mean - 1.0) if plain_mean else 0.0
    for name in layers.CLIENT:
        values[name] = metrics[name][0] if name in metrics else 0.0
    layers.print_tree(tree, requests, out)
    print("per-layer metrics:", file=out)
    result = {}
    for name, unit in layers.metric_units():
        result[name] = {"value": values[name], "unit": unit}
        print(f"  {name:<42} {values[name]:>12.4f} {unit}", file=out)
    print(
        f"tracing overhead: mean request latency {plain_mean * 1000:.3f} ms untraced, "
        f"{traced_mean * 1000:.3f} ms traced ({values['trace.overhead_pct']:+.1f}%)",
        file=out,
    )
    if "generator_lag_ms" in metrics:
        print(f"write generator lag p90: {values['generator_lag_ms']:.3f} ms", file=out)
    return result


def steady(args) -> int:
    """Run workloads over consecutive seeds; print medians and spreads."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    verdict = 0
    for workload in names:
        values: Dict[str, List[float]] = {}
        for seed in range(args.seed, args.seed + args.runs):
            began = clock()
            done = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0", "--movies", str(args.movies)],
                capture_output=True, text=True, timeout=900,
            )
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED (exit {done.returncode})\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
                return 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(
                f"{workload} seed {seed} ({clock() - began:.0f} s): "
                + " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()),
                flush=True,
            )
        print(f"{workload}: {'metric':<16} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>8} {'bound':>6}")
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            bound = bounds[name]
            state = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            if name == "setup_s":
                state += " (not gated)"
            elif spread > bound:
                verdict = 1
            print(f"  {name:<16} {median:>10.4f} {q1:>10.4f} {q3:>10.4f} {spread:>8.3f} {bound:>6.2f}  {state}", flush=True)
    return verdict


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="browse, compare, read_write (or all with --steady)")
    parser.add_argument("--seed", type=int, default=1, help="input seed (first seed with --steady)")
    parser.add_argument("--seconds", type=float, default=15.0, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--movies", type=int, default=1000, help="corpus size (smaller for smoke runs)")
    parser.add_argument("--steady", action="store_true", help="repeat over seeds; print spreads")
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload with --steady")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"benchmark error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.steady:
        return steady(args)
    _pin_hash_seed(args.seed)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
