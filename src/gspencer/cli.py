"""Command-line surface.

Exit codes: 0 success, 1 validation or precondition failure (including
non-cocycle inputs to solve), 2 obstruction found by solve, 3 parse/IO/flag
errors.  All outputs are byte-deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import models
from .algebra import (GradedLieAlgebra, adjoint_columns, effectiveness_report, grading_report,
                      jacobi_report)
from .claims import paper_claims
from .errors import InputError, ParseError, PreconditionError, ValidationError
from .fileio import parse_algebra, parse_cochain, serialize_cochain
from .prolong import LinearLieAlgebra, build_graded_algebra
from .spencer import cohomology_dims, is_coboundary, class_representative, standard_complex

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_OBSTRUCTED = 2
EXIT_USAGE = 3


def _emit_table(header: list[str], rows: list[list[str]], fmt: str) -> None:
    if fmt == "csv":
        import csv
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return
    widths = [max(len(header[i]), max((len(r[i]) for r in rows), default=0))
              for i in range(len(header))]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _linear_algebra_from_flags(args) -> LinearLieAlgebra:
    if args.algebra:
        alg = parse_algebra(_read_text(args.algebra))
        n = alg.component_dim(-1)
        # ad[j][i] = [e_i, v_j], column j of the i-th degree-0 generator
        ad = [adjoint_columns(alg, 0, [(j, 1)]) for j in range(n)]
        return LinearLieAlgebra(n, [[(t, j, x) for j in range(n) for t, x in ad[j][i]]
                                    for i in range(alg.component_dim(0))])
    if args.family in ("so", "co"):
        if args.dim is None:
            raise InputError(f"--family {args.family} needs --dim")
        return (models.so_generators if args.family == "so" else models.co_generators)(args.dim)
    if args.family == "glC":
        if args.m is None:
            raise InputError("--family glC needs --m")
        return models.glc_generators(args.m)
    raise InputError("choose --family {so,co,glC} or --algebra FILE")


def _graded_algebra_from_flags(args) -> GradedLieAlgebra:
    if args.algebra:
        return parse_algebra(_read_text(args.algebra))
    fam = args.family
    if fam == "space-form":
        if args.dim is None:
            raise InputError("--family space-form needs --dim")
        return models.space_form_algebra(args.dim, args.k0)
    if fam == "conformal":
        if args.dim is None:
            raise InputError("--family conformal needs --dim")
        return models.conformal_algebra(args.dim)
    if fam == "cr":
        if args.m is None or args.k is None:
            raise InputError("--family cr needs --m and --k")
        order = 2 if args.max_order is None else args.max_order
        alg, _ = models.cr_algebra(args.m, args.k, order)
        return alg
    raise InputError("choose --family {space-form,conformal,cr} or --algebra FILE")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    alg = parse_algebra(_read_text(args.path), validate=False)
    problems = []
    for v in jacobi_report(alg):
        problems.append(f"Jacobi fails on ({', '.join(v.names)})")
    for g in grading_report(alg):
        problems.append(f"grading violated by [{g.names[0]},{g.names[1]}]")
    for note in effectiveness_report(alg):
        print(f"note: {note}")
    if problems:
        print(f"FAIL {alg.name}: {len(problems)} violation(s)")
        for pmsg in problems:
            print("  " + pmsg)
        return EXIT_VALIDATION
    print(f"PASS {alg.name}: dim {alg.dim}, height {alg.height}, {alg.grading_kind}")
    return EXIT_OK


def cmd_prolong(args) -> int:
    h0 = _linear_algebra_from_flags(args)
    max_order = 4 if args.max_order is None else args.max_order
    result = build_graded_algebra(h0, max_order)
    rows = []
    cumulative = h0.v_dim + result.orders[0].dim
    reached_zero = False
    for p in range(1, max(result.orders) + 1):
        dim = result.orders[p].dim
        cumulative += dim
        verdict = ""
        if dim == 0 and not reached_zero:
            verdict = "finite type"
            reached_zero = True
        elif p == max(result.orders) and not result.finite_type:
            verdict = f"not finite by order {result.truncation_order}"
        rows.append([str(p), str(dim), str(cumulative), verdict])
    _emit_table(["order", "dim", "cumulative", "verdict"], rows, args.format)
    return EXIT_OK


def _parse_p_range(spec: str) -> list[int]:
    try:
        if ".." not in spec:
            return [int(spec)]
        lo, hi = map(int, spec.split("..", 1))
    except ValueError:
        raise InputError(f"--p must be an integer or lo..hi, got {spec!r}") from None
    if lo > hi:
        raise InputError(f"--p range {spec!r} is empty: lo exceeds hi")
    return list(range(lo, hi + 1))


def cmd_cohomology(args) -> int:
    alg = _graded_algebra_from_flags(args)
    if args.w_dim is None or not 1 <= args.w_dim <= alg.component_dim(-1):
        raise InputError("--w-dim out of range")
    cplx = standard_complex(alg, args.w_dim)
    rows = []
    for p in _parse_p_range(args.p):
        entry = cohomology_dims(cplx, p, args.q, args.level)
        rows.append([str(p), str(args.q), str(args.level),
                     str(entry.dim_z), str(entry.dim_b), str(entry.dim_h)])
    _emit_table(["p", "q", "level", "dimZ", "dimB", "dimH"], rows, args.format)
    return EXIT_OK


def cmd_solve(args) -> int:
    alg = _graded_algebra_from_flags(args)
    z = parse_cochain(_read_text(args.cochain), alg)
    if z.q != 2:
        raise InputError("solve expects a curvature candidate with q = 2")
    cplx = z.frame
    try:
        y = is_coboundary(cplx, z)
    except PreconditionError as exc:
        print(f"not a cocycle: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    code = EXIT_OK
    if y is None:
        y, code = class_representative(cplx, z), EXIT_OBSTRUCTED
        print("OBSTRUCTED")
    out_text = serialize_cochain(y)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(out_text)
        except OSError as exc:
            raise InputError(f"cannot write {args.output}: {exc}") from None
    else:
        sys.stdout.write(out_text)
    return code


def cmd_paper_verify(args) -> int:
    start = time.monotonic()
    rows = []
    failures = 0
    for claim, expected, computed in paper_claims():
        ok = expected == computed
        if not ok:
            failures += 1
        rows.append([claim, expected, computed, "pass" if ok else "FAIL"])
    _emit_table(["claim", "expected", "computed", "verdict"], rows, args.format)
    elapsed = time.monotonic() - start
    # timing goes to stderr so that stdout stays byte-deterministic
    print(f"{len(rows) - failures}/{len(rows)} claims pass in {elapsed:.1f}s", file=sys.stderr)
    return EXIT_OK if failures == 0 else EXIT_VALIDATION


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gspencer",
                                 description="exact Spencer cohomology toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate an algebra file")
    p_val.add_argument("path")
    p_val.set_defaults(func=cmd_validate)

    def add_source_flags(p, linear: bool):
        p.add_argument("--family", choices=["so", "co", "glC"] if linear
                       else ["space-form", "conformal", "cr"])
        p.add_argument("--algebra", help="algebra file as the source")
        p.add_argument("--dim", type=int, help="vector space dimension")
        p.add_argument("--m", type=int, help="complex dimension for glC/cr")
        p.add_argument("--k", type=int, help="CR codimension")
        p.add_argument("--k0", type=int, default=0, help="space form curvature")
        p.add_argument("--max-order", type=int, default=None, dest="max_order",
                       help="truncation order (default: 4 for prolong, 2 for cr)")
        p.add_argument("--format", choices=["text", "csv"], default="text")

    p_pro = sub.add_parser("prolong", help="prolongation dimension table")
    add_source_flags(p_pro, linear=True)
    p_pro.set_defaults(func=cmd_prolong)

    p_coh = sub.add_parser("cohomology", help="cohomology dimension table")
    add_source_flags(p_coh, linear=False)
    p_coh.add_argument("--w-dim", type=int, dest="w_dim")
    p_coh.add_argument("--p", default="0..2", help="p or lo..hi")
    p_coh.add_argument("--q", type=int, default=2)
    p_coh.add_argument("--level", type=int, default=0)
    p_coh.set_defaults(func=cmd_cohomology)

    p_sol = sub.add_parser("solve", help="solve for the next form or certify obstruction")
    add_source_flags(p_sol, linear=False)
    p_sol.add_argument("--cochain", required=True)
    p_sol.add_argument("--output")
    p_sol.set_defaults(func=cmd_solve)

    p_pv = sub.add_parser("paper-verify", help="run the built-in claim suite")
    p_pv.add_argument("--format", choices=["text", "csv"], default="text")
    p_pv.set_defaults(func=cmd_paper_verify)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        for d in exc.diagnostics:
            print("  " + d, file=sys.stderr)
        return EXIT_VALIDATION
    except PreconditionError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
