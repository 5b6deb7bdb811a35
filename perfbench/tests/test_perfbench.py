"""Tests of the benchmark itself: metric coverage, trace invariants, restoration
of wrapped functions and the correctness gates.

    python3 -m pytest -q perfbench/tests

The paper-verify run is full size (about half a minute): its claim table is
fixed by the command line and cannot be reduced.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import speedclock  # noqa: E402
import tracer as tracer_mod  # noqa: E402
from workloads import CohomologyGrid, PaperVerify, SolveStream  # noqa: E402


def bench(workload: str, trace: int, *extra: str) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def assert_metrics(result: dict, expected: tuple) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(expected)
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload,extra", [("cohomology-grid", ("--smoke",)),
                                            ("solve-stream", ("--smoke",)),
                                            ("paper-verify", ())])
def test_end_to_end_metrics_and_provenance(workload, extra):
    lines, result = bench(workload, 0, *extra)
    assert_metrics(result, run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    prov = json.loads(lines[-2])["provenance"]
    assert set(prov) == {"python", "nproc", "git_rev", "seed", "traced",
                         "loadavg_start", "loadavg_end"}
    assert prov["seed"] == 1 and prov["traced"] is False
    assert any("failed_ratio 0," in line for line in lines)


@pytest.mark.parametrize("workload", ["cohomology-grid", "solve-stream"])
def test_traced_metrics_and_self_time(workload):
    _, result = bench(workload, 1, "--smoke")
    assert_metrics(result, tracer_mod.LAYER_METRICS)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    self_sum = sum(m[f"{layer}.self_s"] for layer in tracer_mod.LAYERS)
    assert self_sum <= m["trace.wall_s"]
    assert self_sum + m["cli.self_s"] == pytest.approx(m["trace.wall_s"], rel=1e-6)
    assert m["prolong.insertion_calls"] == m["prolong.step_calls"] == 0
    assert m["trace.overhead_ratio"] > 0


def test_every_wrapped_function_is_restored():
    import gspencer
    from gspencer import linalg, spencer, models

    def snapshot():
        owners = [m for n, m in sys.modules.items()
                  if n == "gspencer" or n.startswith("gspencer.")]
        owners += [linalg.Subspace, gspencer.GradedLieAlgebra]
        return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}

    before = snapshot()
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        assert spencer.kernel_of_rows is not before[(id(spencer), "kernel_of_rows")]
        tr.start()
        cplx = spencer.standard_complex(models.conformal_algebra(3), 2)
        spencer.cohomology_dims(cplx, 1, 2, 0)
        tr.stop()
    finally:
        tr.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tr.metrics()["spencer.cohomology_calls"] == 1


def test_corrupted_expected_paper_verify_is_a_failure():
    want = PaperVerify.expected()
    output = (0, "\n".join(want) + "\n48/48 claims pass in 1.0s\n")
    assert PaperVerify().check(output) == (48, 0, [])
    corrupted = list(want)
    corrupted[5] = corrupted[5].replace(",pass", ",FAIL")
    attempted, failed, msgs = PaperVerify().check(output, corrupted)
    assert (attempted, failed) == (48, 1) and msgs


def test_corrupted_expected_cohomology_grid_is_a_failure():
    want = CohomologyGrid.expected()
    output = [key + value for key, value in want.items()]
    assert CohomologyGrid().check(output, want)[1] == 0
    key = next(k for k, v in want.items() if v[2] > 0)
    corrupted = dict(want)
    dim_c, dim_z, dim_b, dim_h = want[key]
    corrupted[key] = (dim_c, dim_z, dim_b - 1, dim_h + 1)
    attempted, failed, msgs = CohomologyGrid().check(output, corrupted)
    assert failed == 1 and msgs
    # an output that breaks dimH = dimZ - dimB fails even against its own table
    bad = [row if row[:5] != key else row[:8] + (row[8] + 1,) for row in output]
    bad_table = {row[:5]: row[5:] for row in bad}
    assert CohomologyGrid().check(bad, bad_table)[1] == 1


def test_corrupted_expected_solve_stream_counts_is_a_failure():
    import gspencer  # noqa: F401
    wl = SolveStream()
    wl.setup(smoke=True)
    wl.prepare(1)
    _, _, output = wl.run()
    n = len(output)
    _, failed, _ = wl.check(output, {"seed": 2, "queries": n, "solved": 0, "obstructed": 0})
    assert failed == 0
    solved, obstructed = wl.counts
    _, failed, msgs = wl.check(output, {"seed": 1, "queries": n,
                                        "solved": solved + 1, "obstructed": obstructed - 1})
    assert failed == 1 and msgs


def test_speed_clock_counts_work_in_reference_seconds():
    clock = speedclock.SpeedClock()
    clock.start()
    t0 = time.monotonic()
    n = 0
    while time.monotonic() - t0 < 0.5:
        speedclock.kernel()
        n += 1
    t1 = time.monotonic()
    clock.stop()
    assert len(clock.starts) >= 5
    # the samples' own time counts nothing, and reference time never runs back
    for a, b in zip(clock.starts, clock.ends):
        assert clock.span(a, b) == pytest.approx(0.0, abs=1e-12)
    marks = [clock.at(t) for t in sorted(clock.starts + clock.ends + [t0, t1])]
    assert marks == sorted(marks)
    # n kernels take n reference kernel times, however fast the machine ran
    assert clock.span(t0, t1) == pytest.approx(n * speedclock.REF_KERNEL_S, rel=0.35)
