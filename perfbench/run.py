"""gspencer benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload {paper-verify,cohomology-grid,solve-stream}
                             --seed N --seconds S --trace {0,1}

Run from the repository root; the library is imported from ./src.  Every pass
runs in a fresh interpreter (worker.py).  Times are in reference seconds
(speedclock.py): raw time corrected for how fast the shared host ran the work.
--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced and one
traced pass and prints the per-layer metrics.  Human-readable lines come first; the last stdout line is
the JSON result.  See perfbench/README.md for the metric glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 5  # set-up-only processes before and again after the passes
RUN_LIMIT_S = 175  # a whole run, every worker included, ends within this

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
              ("op_p50_ms", "ms"), ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    pass


def spawn(deadline: float, workload: str, seed: int, seconds: float, trace: int,
          *extra: str) -> dict:
    """Run one worker process, killed at the monotonic deadline; its report."""
    t_spawn = time.monotonic()
    cmd = [sys.executable, "-I", str(WORKER), workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace),
           "--spawned-at", repr(t_spawn), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        raise BenchError(f"run exceeded {RUN_LIMIT_S}s: {workload}") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def end_to_end(deadline: float, workload: str, seed: int, seconds: float,
               smoke: tuple[str, ...]):
    """Passes until --seconds of raw time is used; each op's median over the passes.

    Op times are in reference seconds, so a busy phase of the shared host
    does not inflate them; the median over the run's passes smooths what the
    speed correction leaves.  wall_s is the sum of the ops' medians (an op's
    time runs from the previous op's completion, so they add up to a pass).
    Set-up is sampled before and after the passes and in every pass process,
    and its median is reported.
    """
    def setup_sample() -> float:
        return spawn(deadline, workload, seed, 0.0, 0, "--setup-only", *smoke)["setup_s"]

    setups = [setup_sample() for _ in range(SETUP_SAMPLES)]
    reports, raw_walls, walls, latencies = [], [], [], []
    while not raw_walls or sum(raw_walls) + statistics.median(raw_walls) <= seconds:
        rep = spawn(deadline, workload, seed, seconds - sum(raw_walls), 0, *smoke)
        reports.append(rep)
        setups.append(rep["setup_s"])
        raw_walls.extend(rep["raw_walls"])
        walls.extend(rep["walls"])
        latencies.extend(rep["latencies"])
    setups += [setup_sample() for _ in range(SETUP_SAMPLES)]
    ops = reports[0]["attempted"] // len(reports[0]["walls"])
    if latencies[0]:
        best = [statistics.median(op_times) for op_times in zip(*latencies)]
    else:  # claims are not timed one by one: the median pass's mean claim time
        best = [statistics.median(walls) / ops] * ops
    wall = sum(best)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "ops_per_s": ops / wall,
        "op_p50_ms": 1000.0 * statistics.median(best),
        "op_p90_ms": 1000.0 * statistics.quantiles(best, n=10)[-1],
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reports),
    }
    units = dict(END_TO_END)
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, reports


def per_layer(deadline: float, workload: str, seed: int, smoke: tuple[str, ...]):
    plain = spawn(deadline, workload, seed, 0.0, 0, *smoke)
    traced = spawn(deadline, workload, seed, 0.0, 1, *smoke)
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = traced["walls"][0] / plain["walls"][0]
    return {k: {"value": layers[k], "unit": unit} for k, unit in LAYER_METRICS}, [plain, traced]


def provenance(seed: int, trace: int, load_start) -> dict:
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_rev": rev, "seed": seed, "traced": bool(trace),
            "loadavg_start": list(load_start), "loadavg_end": list(os.getloadavg())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced grid and stream, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gspencer" / "__init__.py").is_file():
        print(f"error: no gspencer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    load_start = os.getloadavg()
    smoke = ("--smoke",) if args.smoke else ()
    try:
        if args.trace:
            metrics, reports = per_layer(deadline, args.workload, args.seed, smoke)
        else:
            metrics, reports = end_to_end(deadline, args.workload, args.seed, args.seconds, smoke)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    warm_start = [name for r in reports for name, (hits, _, size) in r["caches_at_start"].items()
                  if hits or size]
    for r in reports:
        for msg in r["messages"]:
            print(f"check failed: {msg}")
    if warm_start:
        print(f"check failed: caches not empty at start: {sorted(set(warm_start))}")
    walls = [round(w, 3) for r in reports for w in r["walls"]]
    raw_walls = [round(w, 3) for r in reports for w in r["raw_walls"]]
    slowdowns = [round(r["slowdown"], 2) for r in reports]
    print(f"{args.workload}: {attempted} ops attempted, {failed} failed, "
          f"failed_ratio {failed / attempted:.6g}, pass walls {walls} s "
          f"(raw {raw_walls} s, host slowdown {slowdowns})")
    counts = [r["counts"] for r in reports if r["counts"]]
    if counts:
        print(f"{args.workload}: solved/obstructed per pass {counts[0][0]}/{counts[0][1]}")
    print(f"{args.workload}: caches at end {reports[-1]['caches_at_end']} (hits, misses, size)")
    for name, m in metrics.items():
        print(f"{args.workload}  {name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"provenance": provenance(args.seed, args.trace, load_start)}))
    print(json.dumps({"correct": failed == 0 and not warm_start, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
