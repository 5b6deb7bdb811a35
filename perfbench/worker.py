"""One benchmark process: import, set up, run the timed phase, check, report.

    python3 -I perfbench/worker.py WORKLOAD --seed N --seconds S --trace 0|1
                                   --spawned-at T [--setup-only] [--smoke]

Started by run.py in a fresh interpreter for every pass, so the library's
``lru_cache``s start empty.  Prints one JSON report as the last stdout line.
A cold workload (paper-verify, cohomology-grid) runs its timed phase once; the
warm solve-stream replays its query stream until ``--seconds`` of raw time is
used.  A SpeedClock samples the machine's speed from the start of ``main``
to the end of the last pass; set-up (from ``--spawned-at``, run.py's
``time.monotonic()`` just before the spawn), pass and op times are reported
in its reference seconds, and the raw pass times alongside.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

from speedclock import SpeedClock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# lru_cache'd constructors that must be empty when the process is ready.
FIRST_USE = (("gspencer.prolong", "build_graded_algebra"),
             ("gspencer.spencer", "standard_complex"),
             ("gspencer.models", "space_form_algebra"),
             ("gspencer.models", "conformal_algebra"),
             ("gspencer.models", "cr_algebra"))


def cache_infos() -> dict[str, list[int]]:
    out = {}
    for module, name in FIRST_USE:
        info = getattr(sys.modules[module], name).cache_info()
        out[name] = [info.hits, info.misses, info.currsize]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    clock = SpeedClock()
    clock.start()
    wl = WORKLOADS[args.workload]()

    for name in wl.modules:
        importlib.import_module(name)
    gspencer = sys.modules["gspencer"]
    if Path(gspencer.__file__).resolve().parent != SRC / "gspencer":
        print(f"gspencer imported from {gspencer.__file__}, not {SRC}", file=sys.stderr)
        return 3
    caches_at_start = cache_infos()

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.start()
    wl.setup(args.smoke)
    if tracer:
        tracer.stop()
    ready = time.monotonic()
    report = {"setup_raw_s": ready - args.spawned_at, "caches_at_start": caches_at_start}
    if args.setup_only:
        clock.stop()
        report["setup_s"] = clock.span(args.spawned_at, ready)
        print(json.dumps(report))
        return 0

    wl.prepare(args.seed)
    passes, raw_walls = [], []
    attempted = failed = 0
    messages: list[str] = []
    first = None
    while True:
        if tracer:
            tracer.start()
        t0, ends, output = wl.run()
        if tracer:
            tracer.stop()
        passes.append((t0, ends))
        raw_walls.append(ends[-1] - t0)
        if first is None:
            first = output
            n, bad, msgs = wl.check(output)
        else:  # a replay must reproduce the checked first pass exactly
            n = len(output)
            bad = sum(1 for a, b in zip(first, output) if a != b)
            msgs = [f"replay differs from the first pass in {bad} ops"] if bad else []
        attempted += n
        failed += bad
        messages.extend(msgs)
        if not wl.warm or sum(raw_walls) + statistics.median(raw_walls) > args.seconds:
            break
    clock.stop()

    walls, latencies = [], []
    for t0, ends in passes:
        marks = [clock.at(t) for t in [t0, *ends]]
        walls.append(marks[-1] - marks[0])
        latencies.append([b - a for a, b in zip(marks, marks[1:])] if wl.per_op else [])

    if tracer:
        report["layers"] = tracer.metrics()
        tracer.uninstall()
    report.update(
        setup_s=clock.span(args.spawned_at, ready), slowdown=clock.slowdown(),
        walls=walls, raw_walls=raw_walls, latencies=latencies, attempted=attempted, failed=failed,
        messages=messages[:20],
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        caches_at_end=cache_infos(),
        counts=list(getattr(wl, "counts", ())))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
