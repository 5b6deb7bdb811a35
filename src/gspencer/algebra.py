"""Graded and quasi-graded Lie algebras given by structure constants.

An algebra of height k decomposes as the sum of components of degrees
-1, 0, ..., k-1.  For the graded kind every bracket respects degrees; the
quasi-graded kind waives the rule only for pairs of degree-(-1) elements.
Structure constants are stored once, for i < j only, as integer rows over a
common denominator; antisymmetry is synthesized on access.

Elements are plain tuples of Fraction over the full basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import InputError
from .linalg import (ClearedRow, PairRow, Subspace, ZERO, clear_denominators, combine, dense,
                     kernel_of_rows, nonzero_pairs)


def check_names_and_truncation(names: Sequence[str], height: int,
                               truncated_at: int | None) -> None:
    """Reject basis names that cannot round-trip through a file and truncation
    degrees outside 0..height-1."""
    for nm in names:
        if not nm or any(ch in "+*,=[]" or ch.isspace() for ch in nm):
            raise InputError(f"basis name {nm!r} is empty or has whitespace or + * , = [ ]")
    if truncated_at is not None and not 0 <= truncated_at <= height - 1:
        raise InputError(f"truncation degree {truncated_at} outside 0..{height - 1}")


class GradedLieAlgebra:
    """A (quasi-)graded Lie algebra of depth 1 presented by structure constants.

    ``truncated_at`` marks algebras that are finite truncations of an infinite
    prolongation: brackets that would land above that degree are stored as
    zero, and the diagnostic reports skip checks they cannot decide.

    ``table`` maps pairs i < j to {target: constant}, read with ``Fraction(c)``
    unless int or Fraction; ``constants()`` gives it back.  Each nonzero bracket
    is stored once, as ``_rows[(i, j)] = (den, ((target, int), ...))`` with
    sorted targets, den > 0 the lcm of the constants' denominators.
    """

    __slots__ = ("name", "names", "degrees", "height", "grading_kind",
                 "truncated_at", "_rows", "_component_cache", "_index_in_component")

    def __init__(self, name: str, names: Sequence[str], degrees: Sequence[int],
                 height: int, table: Mapping[tuple[int, int], Mapping[int, Fraction]],
                 grading_kind: str = "graded", truncated_at: int | None = None):
        if grading_kind not in ("graded", "quasi_graded"):
            raise InputError(f"unknown grading kind {grading_kind!r}")
        if height < 1:
            raise InputError("height must be at least 1")
        if len(names) != len(degrees):
            raise InputError("names and degrees must have equal length")
        if len(set(names)) != len(names):
            raise InputError("duplicate basis name")
        check_names_and_truncation(names, height, truncated_at)
        n = len(names)
        for d in degrees:
            if d < -1 or d > height - 1:
                raise InputError(f"degree {d} outside -1..{height - 1}")
        rows: dict[tuple[int, int], tuple[int, tuple[tuple[int, int], ...]]] = {}
        for (i, j), coeffs in table.items():
            if not (0 <= i < n and 0 <= j < n):
                raise InputError("structure constant index out of range")
            if i >= j:
                raise InputError("structure constants must be keyed with i < j")
            try:
                entry = [(t, c if type(c) is int or type(c) is Fraction else Fraction(c))
                         for t, c in coeffs.items()]
            except (TypeError, ValueError, OverflowError):
                raise InputError("structure constant is not a rational number") from None
            den, ints = clear_denominators(entry)
            if not all(0 <= t < n for t in ints):
                raise InputError("structure constant target out of range")
            if ints:
                rows[(i, j)] = (den, tuple(sorted(ints.items())))
        self.name = name
        self.names = tuple(names)
        self.degrees = tuple(degrees)
        self.height = height
        self.grading_kind = grading_kind
        self.truncated_at = truncated_at
        self._rows = rows
        self._component_cache: dict[int, tuple[int, ...]] = {}
        self._index_in_component = {}
        for d in range(-1, height):
            idxs = tuple(i for i, deg in enumerate(degrees) if deg == d)
            self._component_cache[d] = idxs
            for pos, i in enumerate(idxs):
                self._index_in_component[i] = pos

    # -- basic structure ----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.names)

    def component_indices(self, d: int) -> tuple[int, ...]:
        return self._component_cache.get(d, ())

    def component_dim(self, d: int) -> int:
        return len(self.component_indices(d))

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise InputError(f"unknown basis element {name!r}") from None

    def bracket_basis(self, i: int, j: int) -> dict[int, Fraction]:
        """[e_i, e_j] as {target: Fraction}, its nonzero constants."""
        den, row = self._rows.get((i, j) if i < j else (j, i), (1, ()))
        return {t: Fraction(c, den if i < j else -den) for t, c in row}

    def constants(self) -> dict[tuple[int, int], dict[int, Fraction]]:
        """The nonzero structure constants as {(i, j): {target: Fraction}} for i < j,
        the table the constructor takes."""
        return {pair: {t: Fraction(c, den) for t, c in row}
                for pair, (den, row) in self._rows.items()}

    def bracket(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Bilinear extension of the structure constants; exactly antisymmetric."""
        rows = self._rows
        y_terms = nonzero_pairs(y)
        terms = []
        for i, xi in nonzero_pairs(x):
            for j, yj in y_terms:
                stored = rows.get((i, j) if i < j else (j, i))
                if stored:
                    den, row = stored
                    terms.append((row, Fraction(xi * yj, den if i < j else -den)))
        return dense(combine(terms), self.dim)

    def bracket_sum(self, terms: Iterable[tuple[Fraction, int, ClearedRow, int, ClearedRow]],
                    d: int) -> list[tuple[int, Fraction]]:
        """The degree-d part of the sum of coef * [x, y] over the (coef, dx, x, dy, y)
        terms, as sorted (component coordinate, value) pairs; coef is an int or a
        Fraction, and x and y are given cleared of denominators, as the
        `clear_denominators` (den, {coordinate: int}) of their pairs in the
        degree-dx and degree-dy components.

        Callers clear each operand once where it is made, however many terms it
        enters; the sum keeps int numerators over one running denominator, as
        `combine` does, reading the stored integer rows of the structure constants.
        """
        rows = self._rows
        acc: dict[int, int] = {}
        den = 1
        for coef, dx, (sx, xi), dy, (sy, yi) in terms:
            xs, ys = self.component_indices(dx), self.component_indices(dy)
            cn, cd = coef.numerator, coef.denominator * sx * sy
            for k, u in xi.items():
                i, cu = xs[k], cn * u
                for m, v in yi.items():
                    j = ys[m]
                    stored = rows.get((i, j) if i < j else (j, i))
                    if stored:
                        rd, row = stored
                        rd *= cd
                        if den % rd:
                            mult = rd // gcd(den, rd)
                            den *= mult
                            acc = {t: c * mult for t, c in acc.items()}
                        f = cu * v * (den // rd)
                        if i > j:  # [e_i, e_j] = -[e_j, e_i]: the sign goes on f, not rd
                            f = -f
                        for t, c in row:
                            acc[t] = acc.get(t, 0) + f * c
        pos, deg = self._index_in_component, self.degrees
        return sorted((pos[t], Fraction(c, den)) for t, c in acc.items() if c and deg[t] == d)

    # -- coordinates --------------------------------------------------------

    def component_part(self, x: Sequence[Fraction], d: int) -> tuple[Fraction, ...]:
        """Coordinates of x restricted to the degree-d component basis."""
        return tuple(x[i] for i in self.component_indices(d))

    def embed_component(self, d: int, comp: Sequence[Fraction]) -> tuple[Fraction, ...]:
        idxs = self.component_indices(d)
        if len(comp) != len(idxs):
            raise InputError("component vector has wrong length")
        out = [ZERO] * self.dim
        for pos, i in enumerate(idxs):
            out[i] = Fraction(comp[pos])
        return tuple(out)

    def basis_element(self, i: int) -> tuple[Fraction, ...]:
        out = [ZERO] * self.dim
        out[i] = Fraction(1)
        return tuple(out)

    def max_represented_degree(self) -> int:
        return self.height - 1 if self.truncated_at is None else self.truncated_at

    def __repr__(self) -> str:
        return f"GradedLieAlgebra({self.name!r}, dim={self.dim}, height={self.height})"


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

class JacobiViolation(NamedTuple):
    triple: tuple[int, int, int]
    names: tuple[str, str, str]
    residual: tuple[Fraction, ...]


class GradingViolation(NamedTuple):
    pair: tuple[int, int]
    names: tuple[str, str]
    expected_degree: int
    stray: tuple[Fraction, ...]


def jacobi_report(a: GradedLieAlgebra) -> list[JacobiViolation]:
    """Exhaustive Jacobi check on basis triples; empty list means pass.

    For truncated algebras, triples whose evaluation needs a bracket landing
    above the truncation degree are skipped (they are not decidable from the
    stored constants).
    """
    out: list[JacobiViolation] = []
    top = a.max_represented_degree()
    truncated = a.truncated_at is not None
    n = a.dim
    deg = a.degrees
    # the stored rows scaled to the lcm L of their denominators, both orientations;
    # a double bracket then sums ints scaled by L^2
    scale = lcm(*(den for den, _ in a._rows.values()))
    table: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for (i, j), (den, row) in a._rows.items():
        m = scale // den
        table[(i, j)] = [(t, m * c) for t, c in row]
        table[(j, i)] = [(t, -m * c) for t, c in row]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if truncated and (deg[i] + deg[j] > top or deg[j] + deg[k] > top
                                  or deg[i] + deg[k] > top
                                  or deg[i] + deg[j] + deg[k] > top):
                    continue
                acc: dict[int, int] = {}
                for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
                    for t, c in table.get((y, z), ()):
                        for s, e in table.get((x, t), ()):
                            acc[s] = acc.get(s, 0) + c * e
                if any(acc.values()):
                    out.append(JacobiViolation(
                        (i, j, k), (a.names[i], a.names[j], a.names[k]),
                        dense(((s, Fraction(v, scale * scale)) for s, v in acc.items()), n)))
    return out


def grading_report(a: GradedLieAlgebra) -> list[GradingViolation]:
    """Check the declared grading rule on each nonzero bracket, pairs in sorted
    order; empty list means pass."""
    out: list[GradingViolation] = []
    top = a.max_represented_degree()
    truncated = a.truncated_at is not None
    deg = a.degrees
    for (i, j), (den, row) in sorted(a._rows.items()):
        if a.grading_kind == "quasi_graded" and deg[i] == -1 and deg[j] == -1:
            continue
        d = deg[i] + deg[j]
        if truncated and d > top:
            continue
        # no basis element has a degree d outside -1..height-1: all of the row is stray
        stray = [(t, Fraction(c, den)) for t, c in row if deg[t] != d]
        if stray:
            out.append(GradingViolation((i, j), (a.names[i], a.names[j]), d,
                                        dense(stray, a.dim)))
    return out


def effectiveness_report(a: GradedLieAlgebra) -> list[str]:
    """Flag nonzero X of degree >= 0 with [X, h^{-1}] = 0 (not an error)."""
    v_idx = a.component_indices(-1)
    flags = []
    for d in range(0, a.max_represented_degree() + 1):
        idxs = a.component_indices(d)
        rows: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
        for vi in v_idx:
            for pos, i in enumerate(idxs):
                for out_i, c in a.bracket_basis(i, vi).items():
                    rows.setdefault((vi, out_i), []).append((pos, c))
        ker = kernel_of_rows(rows.values(), len(idxs)) if rows else Subspace.full(len(idxs))
        if ker.dim:
            flags.append(f"degree {d}: {ker.dim}-dimensional subspace acts trivially on the "
                         f"degree -1 component")
    return flags


def adjoint_columns(a: GradedLieAlgebra, d: int,
                    w_row: PairRow) -> list[list[tuple[int, Fraction]]]:
    """Columns of ad(w) from the degree-d component to degree d-1, one per basis
    element e_i of degree d: the degree-(d-1) part of [e_i, w] as sorted
    (component coordinate, value) pairs.

    w is given by its (coordinate, value) pairs in the degree-(-1) component.
    """
    w = clear_denominators(w_row)
    return [a.bracket_sum(((1, d, (1, {i: 1}), -1, w),), d - 1)
            for i in range(a.component_dim(d))]


def annihilated_rows(ann_rows: Sequence[PairRow],
                     column_sets: Sequence[Sequence[PairRow]]) -> list[PairRow]:
    """The sparse rows r·M for every set M of sparse columns and sparse
    annihilator row r, zero rows dropped.

    Their common kernel is the set of x with M x inside the subspace that the
    rows annihilate, for every M.
    """
    lookups = [dict(terms) for terms in ann_rows]
    rows = []
    for cols in column_sets:
        for r in lookups:
            row = [(j, s) for j, col in enumerate(cols)
                   if (s := sum((x * r[k] for k, x in col if k in r), ZERO))]
            if row:
                rows.append(row)
    return rows


def g_sharp_subalgebra(a: GradedLieAlgebra, w: Subspace) -> Subspace:
    """Basis of {X in h^0 : [X, W] subset of W}, computed as a kernel.

    W is a subspace of the degree-(-1) component (component coordinates);
    the result is a subspace of the degree-0 component.
    """
    if w.ambient_dim != a.component_dim(-1):
        raise InputError("W must live in the degree -1 component")
    ad_w = [adjoint_columns(a, 0, row) for row in w.rows]
    return kernel_of_rows(annihilated_rows(deterministic_rows_annihilating(w), ad_w),
                          a.component_dim(0))


def deterministic_rows_annihilating(s: Subspace) -> tuple[PairRow, ...]:
    """Sparse rows r with r·v = 0 exactly for v in s, spanning the full annihilator."""
    return kernel_of_rows(s.rows, s.ambient_dim).rows
