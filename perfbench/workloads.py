"""The three benchmark workloads: inputs, the timed phase and the output checks.

Each workload runs in a fresh interpreter (see worker.py).  ``setup`` is the
work a user pays before the first answer, ``prepare`` makes the inputs
(untimed), ``run`` is the timed phase and ``check`` compares its outputs with
the expected files in ``expected/``.  ``run`` returns (start, op completion
times, outputs) as raw ``time.monotonic()`` readings, which worker.py turns
into reference seconds; an op's time runs from the previous op's completion
to its own, so the op times add up to the pass and the grid's algebra and
complex construction is charged to the entry that first needs it.
paper-verify's claims are not timed one by one: it reports one completion.  Library functions
are looked up through their modules at call time, so the tracer's wrappers
see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import re
import time
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "expected"

# The nondeterministic timing line paper-verify prints after its table.
_PASS_LINE = re.compile(r"^\d+/\d+ claims pass in [0-9.]+s$")

# (family, constructor args, W dims, p range, q range, levels).  p = 3 on
# conformal(7) and p = 2 on space_form(6, 0) are left out: their cochain spaces
# are zero-dimensional.  W = 7 is left out so that several cold passes fit in
# one run (it alone took 10 of the 18 s a pass took with it).
COHOMOLOGY_GRID = (
    ("conformal", (7,), range(5, 7), range(0, 3), range(1, 4), range(0, 3)),
    ("space_form", (6, 0), range(2, 7), range(0, 2), range(1, 4), range(0, 2)),
)
SMOKE_GRID = (
    ("conformal", (4,), range(3, 5), range(0, 3), range(1, 3), range(0, 2)),
    ("space_form", (4, 0), range(2, 4), range(0, 2), range(1, 3), range(0, 2)),
)

# (family, constructor args, W dim); queries cycle over these in order.
STREAM_COMPLEXES = (("conformal", (5,), 4), ("conformal", (5,), 5), ("space_form", (6, 0), 4))
STREAM_QUERIES = 150
SMOKE_QUERIES = 30


def _algebra(family: str, args: tuple):
    from gspencer import models
    ctor = {"conformal": models.conformal_algebra, "space_form": models.space_form_algebra}
    return ctor[family](*args)


# ---------------------------------------------------------------------------
# paper-verify: cold `gspencer paper-verify --format csv`, one op per claim row
# ---------------------------------------------------------------------------

class PaperVerify:
    name = "paper-verify"
    modules = ("gspencer", "gspencer.cli")
    warm = False
    per_op = False

    def setup(self, smoke: bool) -> None:
        pass

    def prepare(self, seed: int) -> None:
        pass

    def run(self):
        from gspencer import cli
        buf = io.StringIO()
        t0 = time.monotonic()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["paper-verify", "--format", "csv"])
        return t0, [time.monotonic()], (rc, buf.getvalue())

    @staticmethod
    def expected() -> list[str]:
        return (EXPECTED / "paper_verify.csv").read_text(encoding="utf-8").splitlines()

    def check(self, output, expected=None) -> tuple[int, int, list[str]]:
        """(attempted, failed, messages); one op per expected claim row."""
        rc, text = output
        want = self.expected() if expected is None else expected
        got = text.splitlines()
        if got and _PASS_LINE.match(got[-1]):
            got = got[:-1]
        msgs = []
        if rc != 0:
            msgs.append(f"paper-verify exited {rc}")
        if got[:1] != want[:1]:
            msgs.append("csv header differs")
        failed = 0
        for i, row in enumerate(want[1:], start=1):
            if i >= len(got) or got[i] != row:
                failed += 1
                msgs.append(f"claim row {i} differs")
        if len(got) > len(want):
            failed += len(got) - len(want)
            msgs.append(f"{len(got) - len(want)} unexpected rows")
        if failed == 0 and msgs:
            failed = 1
        return len(want) - 1, failed, msgs


# ---------------------------------------------------------------------------
# cohomology-grid: cold cohomology_dims table, one op per entry
# ---------------------------------------------------------------------------

class CohomologyGrid:
    name = "cohomology-grid"
    modules = ("gspencer",)
    warm = False
    per_op = True

    def setup(self, smoke: bool) -> None:
        self.grid = SMOKE_GRID if smoke else COHOMOLOGY_GRID

    def prepare(self, seed: int) -> None:
        pass

    def run(self):
        from gspencer import spencer
        rows, ends = [], []
        t0 = time.monotonic()
        for family, args, ws, ps, qs, levels in self.grid:
            alg = _algebra(family, args)
            label = f"{family}({','.join(map(str, args))})"
            for w in ws:
                cplx = spencer.standard_complex(alg, w)
                for level in levels:
                    for p in ps:
                        for q in qs:
                            e = spencer.cohomology_dims(cplx, p, q, level)
                            rows.append((label, w, level, p, q,
                                         e.dim_space, e.dim_z, e.dim_b, e.dim_h))
                            ends.append(time.monotonic())
        return t0, ends, rows

    @staticmethod
    def expected() -> dict[tuple, tuple]:
        with open(EXPECTED / "cohomology_grid.csv", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            return {(r[0],) + tuple(map(int, r[1:5])): tuple(map(int, r[5:]))
                    for r in reader}

    def check(self, output, expected=None) -> tuple[int, int, list[str]]:
        """Expected table, dimH = dimZ - dimB, and rank-nullity inside the grid."""
        want = self.expected() if expected is None else expected
        by_key = {row[:5]: row[5:] for row in output}
        failed, msgs = 0, []
        for row in output:
            key, (dim_c, dim_z, dim_b, dim_h) = row[:5], row[5:]
            bad = []
            if want.get(key) != (dim_c, dim_z, dim_b, dim_h):
                bad.append(f"expected {want.get(key)}")
            if dim_h != dim_z - dim_b:
                bad.append("dimH != dimZ - dimB")
            label, w, level, p, q = key
            up = by_key.get((label, w, level, p + 1, q - 1))
            if up is not None and dim_b != up[0] - up[1]:
                bad.append(f"rank-nullity: dimB {dim_b} != {up[0]} - {up[1]}")
            if bad:
                failed += 1
                msgs.append(f"{key} {row[5:]}: " + "; ".join(bad))
        return len(output), failed, msgs


# ---------------------------------------------------------------------------
# solve-stream: warm complexes, seeded closed-loop query stream
# ---------------------------------------------------------------------------

class SolveStream:
    name = "solve-stream"
    modules = ("gspencer",)
    warm = True   # replays the stream in one process: the memoized read path
    per_op = True

    def setup(self, smoke: bool) -> None:
        """Build the complexes and their first cohomology: the warm state."""
        from gspencer import spencer
        self.n_queries = SMOKE_QUERIES if smoke else STREAM_QUERIES
        self.complexes = []
        for family, args, w in STREAM_COMPLEXES:
            cplx = spencer.standard_complex(_algebra(family, args), w)
            height = cplx.algebra.height
            for p in range(0, height + 1):
                for q in (1, 2):
                    spencer.cohomology_dims(cplx, p, q, 0)
            self.complexes.append(cplx)

    def prepare(self, seed: int) -> None:
        """Seeded queries in a fixed order: complex i % 3, kinds in rotation.

        a: is_coboundary of an exact coboundary d(y)
        b: is_coboundary of a random cocycle, class_representative if obstructed
        c: solve_to_top from a random order-0 form
        The conformal complexes alternate b and c, the space-form complex a
        and b.  The rotation fixes the mix, so the seed moves only the
        coefficients.  It also keeps the cheap queries (a third, all on the
        space form) apart from the percentiles: p50 falls inside the 13-35 ms
        cluster and p90 inside the slowest one (b on conformal W = 5).
        """
        from gspencer import obstruction, spencer
        self.seed = seed
        rng = random.Random(seed)
        self.queries = []
        for i in range(self.n_queries):
            cplx = self.complexes[i % len(self.complexes)]
            top = cplx.algebra.height - 1
            kinds = "bc" if cplx.algebra.height == 2 else "ab"
            kind = kinds[(i // len(self.complexes)) % len(kinds)]
            if kind == "a":
                y = spencer.random_integer_cochain(cplx, top + 1, 1, 0, rng)
                arg = spencer.spencer_d(y)
            elif kind == "b":
                arg = spencer.random_cocycle(cplx, top, 2, 0, rng)
            else:
                form = obstruction.cochain_to_form(spencer.random_cocycle(cplx, 1, 1, 0, rng))
                arg = obstruction.AdmissibleTuple((form,))
            self.queries.append((kind, cplx, arg))

    def run(self):
        from gspencer import obstruction, spencer
        out, ends = [], []
        t0 = time.monotonic()
        for kind, cplx, arg in self.queries:
            if kind == "c":
                result = obstruction.solve_to_top(cplx, arg)
            else:
                y = spencer.is_coboundary(cplx, arg)
                result = (y, spencer.class_representative(cplx, arg) if y is None else None)
            out.append(result)
            ends.append(time.monotonic())
        return t0, ends, out

    @staticmethod
    def expected() -> dict:
        return json.loads((EXPECTED / "solve_stream.json").read_text(encoding="utf-8"))

    def check(self, output, expected=None) -> tuple[int, int, list[str]]:
        """Solutions re-verify, obstructions are nonzero, default-seed counts match."""
        from gspencer import obstruction, spencer
        failed, msgs = 0, []
        solved = obstructed = 0
        for i, ((kind, cplx, arg), result) in enumerate(zip(self.queries, output)):
            if kind == "c":
                tup, cert = result
                if cert is None:
                    solved += 1
                    ok = all(r.is_zero() for r in obstruction.admissibility_residuals(cplx, tup))
                else:
                    obstructed += 1
                    ok = not cert.class_rep.is_zero()
            else:
                y, rep = result
                if y is not None:
                    solved += 1
                    ok = spencer.spencer_d(y) == arg
                else:
                    obstructed += 1
                    ok = kind == "b" and not rep.is_zero()
            if not ok:
                failed += 1
                msgs.append(f"query {i} ({kind}) failed its check")
        want = self.expected() if expected is None else expected
        if self.seed == want["seed"] and len(output) == want["queries"]:
            if (solved, obstructed) != (want["solved"], want["obstructed"]):
                msgs.append(f"seed {self.seed}: {solved} solved / {obstructed} obstructed, "
                            f"expected {want['solved']} / {want['obstructed']}")
                failed = max(failed, 1)
        self.counts = (solved, obstructed)
        return len(output), failed, msgs


WORKLOADS = {w.name: w for w in (PaperVerify, CohomologyGrid, SolveStream)}
