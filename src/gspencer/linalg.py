"""Exact linear algebra over the rationals.

Everything here is built on arbitrary-precision rationals, so ranks, kernels
and complements are exact.  Every result is canonical (reduced row echelon
forms, greedy complements in basis order), which makes it bit-reproducible
across runs and platforms.

Row reduction and sparse sums (`combine`) work on integers: a row's
denominators are cleared once and its integer entries gcd-normalized, a sum
keeps int numerators over one running denominator, and a Fraction is built
only for each nonzero entry of a result.  Results, and the rows a `Subspace`
stores, are sparse too: dense vectors appear only at the public functions
that take or return them.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Collection, Iterable, Optional, Sequence

from .errors import InputError, InternalInvariantError

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# sparse rows and the integer row reduction engine
# ---------------------------------------------------------------------------

# A sparse row lists the (column, value) pairs of its nonzero entries, in any order.
PairRow = Collection[tuple[int, Fraction]]
# A reduced row: its (column, value) pairs sorted by column, the first one its pivot, value 1.
EchelonRow = tuple[tuple[int, Fraction], ...]
# A row cleared of denominators (`clear_denominators`): (den, {column: int}), the row times den.
ClearedRow = tuple[int, dict[int, int]]


def nonzero_pairs(v: Sequence[Fraction]) -> list[tuple[int, Fraction]]:
    """The sparse row of a dense vector."""
    return [(k, x) for k, x in enumerate(v) if x]


def dense(row: Iterable[tuple[int, Fraction]], n: int) -> tuple[Fraction, ...]:
    """The length-n dense vector of a sparse row."""
    out = [ZERO] * n
    for k, x in row:
        out[k] = x
    return tuple(out)


def transpose(rows: Sequence[PairRow], ncols: int) -> list[list[tuple[int, Fraction]]]:
    """Sparse rows of the transpose of the matrix with the given sparse rows and
    ncols columns; each row lists its pairs in increasing column order."""
    out: list[list[tuple[int, Fraction]]] = [[] for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row:
            out[j].append((i, x))
    return out


def combine(terms: Iterable[tuple[PairRow, Fraction]], divisor: int = 1
            ) -> list[tuple[int, Fraction]]:
    """The sparse row sum of c * row over the (row, c) pairs of ints or Fractions, divided
    by the int divisor, sorted by column; a product's denominator raises the running one
    only if it does not divide it."""
    acc: dict[int, int] = {}
    den = 1
    for row, c in terms:
        if c:
            cn, cd = c.numerator, c.denominator * divisor
            for k, x in row:
                d = cd * x.denominator
                if den % d:
                    m = d // gcd(den, d)
                    den *= m
                    acc = {j: v * m for j, v in acc.items()}
                acc[k] = acc.get(k, 0) + cn * x.numerator * (den // d)
    return sorted((k, Fraction(v, den)) for k, v in acc.items() if v)


def clear_denominators(row: PairRow) -> ClearedRow:
    """(den, entries): den is the lcm of the row's denominators, and entries maps
    the column of each nonzero value x (int or Fraction) to the int den * x."""
    den = 1
    for _, x in row:
        d = x.denominator
        if d != 1:
            den = den * d // gcd(den, d)
    if den == 1:  # the common integer row: no scaling
        return 1, {k: n for k, x in row if (n := x.numerator)}
    return den, {k: n * (den // x.denominator) for k, x in row if (n := x.numerator)}


def clear_rows(rows: Iterable[tuple[object, PairRow]]
               ) -> tuple[int, dict[object, list[tuple[int, int]]]]:
    """(den, {key: [(column, int), ...]}) for (key, row) pairs: den is the lcm of
    all the rows' denominators, and each row's nonzero entries times den are
    listed in its order; a row with no nonzero entry gets no key."""
    den, entries = clear_denominators([((key, k), x) for key, row in rows for k, x in row])
    out: dict[object, list[tuple[int, int]]] = {}
    for (key, k), n in entries.items():
        out.setdefault(key, []).append((k, n))
    return den, out


def _clear_column(r: dict[int, int], piv: dict[int, int], c: int) -> None:
    """Make the integer row r zero at column c with the row piv (nonzero there),
    in place, then divide r by the gcd of its entries."""
    a = r.pop(c)
    pv = piv[c]
    g = gcd(a, pv)
    a, m = a // g, pv // g
    if m != 1:
        for k in r:
            r[k] *= m
    for k, y in piv.items():
        if k != c:
            v = r.get(k, 0) - a * y
            if v:
                r[k] = v
            else:
                del r[k]
    g = gcd(*r.values())
    if g > 1:
        for k in r:
            r[k] //= g


def _echelon(rows: Iterable[PairRow]) -> dict[int, dict[int, int]]:
    """The forward phase of the one eliminator: integer echelon rows keyed by their
    pivot, the reduced echelon form's pivots.  Each row's denominators are cleared
    once; a new row is cleared at kept pivots while its leftmost column is one,
    then takes that column as its own.  Kept rows are never touched."""
    kept: dict[int, dict[int, int]] = {}
    for row in rows:
        r = clear_denominators(row)[1]
        while r:
            c = min(r)
            piv = kept.get(c)
            if piv is None:
                kept[c] = r
                break
            _clear_column(r, piv, c)
    return kept


def rank_of_rows(rows: Iterable[PairRow]) -> int:
    """The rank of the matrix with the given sparse rows."""
    return len(_echelon(rows))


def _rref_rows(rows: Iterable[PairRow]) -> tuple[list[EchelonRow], list[int]]:
    """Reduced row echelon form of sparse rows: the nonzero reduced rows, top to
    bottom, and their pivot columns.

    `_echelon`, then back-substitution in decreasing pivot order: each row is
    cleared at the pivots right of its own, whose rows are reduced by then.  The
    kept rows divided by their pivot entries are the unique reduced echelon form.
    """
    kept = _echelon(rows)
    pivots = sorted(kept)
    for c in reversed(pivots):
        r = kept[c]
        for k in [k for k in r if k > c and k in kept]:
            _clear_column(r, kept[k], k)
    out = []
    for c in pivots:
        r = kept[c]
        pv = r.pop(c)
        out.append(((c, ONE),) + tuple((k, Fraction(v, pv)) for k, v in sorted(r.items())))
    return out, pivots


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class RMatrix:
    """Dense matrix of rationals with dimensions fixed at construction."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence], rows: int | None = None, cols: int | None = None):
        grid = tuple(tuple(x if isinstance(x, Fraction) else Fraction(x) for x in row)
                     for row in data)
        if rows is None:
            rows = len(grid)
        if cols is None:
            cols = len(grid[0]) if grid else 0
        if len(grid) != rows or any(len(r) != cols for r in grid):
            raise InputError("ragged or mismatched matrix data")
        self.rows = rows
        self.cols = cols
        self.data = grid

    @classmethod
    def _exact(cls, grid: tuple[tuple[Fraction, ...], ...], rows: int, cols: int) -> "RMatrix":
        """The matrix of a grid of Fractions with the given shape, unchecked."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.data = rows, cols, grid
        return m

    @classmethod
    def identity(cls, n: int) -> "RMatrix":
        return cls(tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)), n, n)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RMatrix) and self.data == other.data \
            and self.rows == other.rows and self.cols == other.cols

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        return f"RMatrix({self.rows}x{self.cols})"


def rref(m: RMatrix) -> RMatrix:
    """Reduced row echelon form (deterministic, zero rows kept at bottom)."""
    red, _ = _rref_rows(nonzero_pairs(v) for v in m.data)
    pad = ((ZERO,) * m.cols,) * (m.rows - len(red))
    return RMatrix._exact(tuple(dense(row, m.cols) for row in red) + pad, m.rows, m.cols)


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """A linear subspace of Q^n held as its reduced row-echelon basis.

    ``rows`` are the basis vectors as sparse echelon rows: each lists its
    nonzero (coordinate, value) pairs sorted by coordinate.  ``pivot_rows``
    are strictly increasing coordinates of Q^n; row ``b`` starts with the pair
    (``pivot_rows[b]``, 1), is 0 at every other pivot coordinate and 0 left of
    its own.  The canonical form makes equality of subspaces a direct
    comparison and pins down every downstream choice (complements, coset
    representatives).  ``basis`` is the same basis as a dense dim x n
    `RMatrix`, built on first access.
    """

    __slots__ = ("ambient_dim", "rows", "pivot_rows", "_basis", "_integer_view")

    def __init__(self, ambient_dim: int, rows: Sequence[EchelonRow], pivot_rows: tuple[int, ...]):
        self.ambient_dim = ambient_dim
        self.rows = tuple(rows)
        self.pivot_rows = pivot_rows
        self._basis = None
        self._integer_view = None

    @classmethod
    def from_vectors(cls, ambient_dim: int, rows: Iterable[PairRow]) -> "Subspace":
        """The span of sparse rows, each the (coordinate, value) pairs of one vector."""
        rows = list(rows)
        try:
            outside = any(not 0 <= k < ambient_dim for row in rows for k, _ in row)
        except (TypeError, ValueError):
            raise InputError("expected sparse rows of (coordinate, value) pairs") from None
        if outside:
            raise InputError("vector coordinate outside the ambient dimension")
        red, pivots = _rref_rows(rows)
        return cls(ambient_dim, red, tuple(pivots))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, (), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, tuple(((i, ONE),) for i in range(ambient_dim)),
                   tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.pivot_rows)

    @property
    def basis(self) -> RMatrix:
        if self._basis is None:
            n = self.ambient_dim
            self._basis = RMatrix._exact(tuple(dense(row, n) for row in self.rows), self.dim, n)
        return self._basis

    def basis_vectors(self) -> tuple[tuple[Fraction, ...], ...]:
        return self.basis.data

    def reduce(self, terms: Iterable[tuple[int, Fraction]]) -> list[tuple[int, Fraction]]:
        """Canonical coset representative, modulo this subspace, of the vector
        with the given (coordinate, value) pairs, as pairs sorted by coordinate.

        Subtracts basis vectors so the result vanishes on all pivot rows.
        """
        r = dict(terms)
        for row, prow in zip(self.rows, self.pivot_rows):
            c = r.get(prow)
            if c:
                for k, x in row:
                    r[k] = r.get(k, ZERO) - c * x
        return sorted((k, x) for k, x in r.items() if x)

    def coordinates(self, terms: Iterable[tuple[int, Fraction]]
                    ) -> Optional[list[tuple[int, Fraction]]]:
        """Coordinates in the echelon basis of the vector v with the given
        (coordinate, value) pairs, as (basis index, value) pairs in the order
        of v's pivot terms, or None if v is outside.

        The pairs list v's nonzero ints or Fractions, each coordinate once
        (zero values are harmless).  The basis is reduced, so v's coordinates
        are its entries at the pivot rows, and v is inside exactly when
        subtracting that combination of the basis rows leaves a zero residual,
        which cancels at the pivot rows and is formed L times over elsewhere,
        against the rows scaled by the lcm L of their denominators (built on
        first use): integer input takes only int operations.
        """
        if self._integer_view is None:
            # one clearing over every row's off-pivot entries, keyed by pivot
            scale, entries = clear_rows((row[0][0], row[1:]) for row in self.rows)
            self._integer_view = scale, {pc: (b, entries.get(pc, ()))
                                         for b, pc in enumerate(self.pivot_rows)}
        scale, scaled = self._integer_view
        coords = []
        residual: dict[int, int | Fraction] = {}
        for k, x in terms:
            hit = scaled.get(k)
            if hit is None:
                residual[k] = residual.get(k, 0) + scale * x
            elif x:
                coords.append((hit[0], x))
                for kr, y in hit[1]:
                    residual[kr] = residual.get(kr, 0) - x * y
        if any(residual.values()):
            return None
        return coords

    def contains(self, v: Sequence[Fraction]) -> bool:
        if len(v) != self.ambient_dim:
            raise InputError("vector length does not match ambient dimension")
        return self.coordinates(nonzero_pairs(v)) is not None

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.pivot_rows == other.pivot_rows
                and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.pivot_rows, self.rows))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def kernel_of_rows(rows: Sequence[PairRow], ncols: int) -> Subspace:
    """Null space of the linear map given by sparse rows; dimension is ncols - rank."""
    # Eliminating with the columns reversed takes each pivot as far right as it
    # goes, so a reduced row has no entries right of its pivot.  The kernel
    # vector of free column f is then 1 at f, 0 at the other free columns and
    # nonzero elsewhere only at pivot columns right of f.  Listed by f, these
    # vectors already are the kernel's reduced row-echelon basis, pivots = free.
    last = ncols - 1
    red, rev_pivots = _rref_rows([(last - c, x) for c, x in row] for row in rows)
    pivot_set = {last - c for c in rev_pivots}
    free = tuple(c for c in range(ncols) if c not in pivot_set)
    kernel = {f: [(f, ONE)] for f in free}
    for row in reversed(red):  # increasing original pivots keep each kernel row sorted
        pc = last - row[0][0]
        for c, x in row[1:]:
            kernel[last - c].append((pc, -x))
    return Subspace(ncols, [tuple(kernel[f]) for f in free], free)


def kernel_basis(m: RMatrix) -> Subspace:
    """Null space of m; dimension is cols(m) - rank(m)."""
    return kernel_of_rows([nonzero_pairs(v) for v in m.data], m.cols)


def solve_particular(rows: Sequence[PairRow], ncols: int, targets: Sequence[PairRow]
                     ) -> Optional[list[list[tuple[int, Fraction]]]]:
    """Particular solutions of rows·x = t, free variables zero, for sparse rows and
    sparse targets t (one entry per row index), from one elimination of [rows | T^T];
    each solution as sorted (column, value) pairs.  None if a target lies outside
    the image of the rows."""
    aug = [list(row) for row in rows]
    for k, t in enumerate(targets):
        for i, x in t:
            aug[i].append((ncols + k, x))
    red, pivots = _rref_rows(aug)
    if pivots and pivots[-1] >= ncols:
        return None
    sols: list[list[tuple[int, Fraction]]] = [[] for _ in targets]
    for row, pc in zip(red, pivots):
        for c, x in row:
            if c >= ncols:
                sols[c - ncols].append((pc, x))
    return sols


def solve_linear(m: RMatrix, b: Sequence[Fraction]) -> Optional[tuple[tuple[Fraction, ...], Subspace]]:
    """One exact solution of m·x = b plus the kernel, or None if inconsistent.

    The particular solution sets all free variables to zero.
    """
    if len(b) != m.rows:
        raise InputError("right-hand side length does not match row count")
    rows = [nonzero_pairs(row) for row in m.data]
    sols = solve_particular(rows, m.cols, [nonzero_pairs(b)])
    return None if sols is None else (dense(sols[0], m.cols), kernel_of_rows(rows, m.cols))


Solver = Callable[[Sequence[PairRow]], Optional[list[list[tuple[int, Fraction]]]]]


class LinearMap:
    """A linear map on a subspace, for queries that may repeat.

    `solve(targets)` returns the images of vectors given as sorted (coordinate,
    value) pairs, or None if one lies outside the domain, and `domain()` returns
    the domain.  A query is its vector cleared of denominators (`ClearedRow`).
    The first query is answered by `solve` alone, so a one-off query costs one
    elimination with one right-hand side.  The second fixes the image of each
    echelon row of the domain and clears all images over one common
    denominator; from then on a query is one `Subspace.coordinates` call and
    one integer sum.  Both ways give the same pairs: the map is linear and
    `Fraction`s are canonical."""

    __slots__ = ("_domain", "_solve", "_queried", "domain", "images")

    def __init__(self, domain: Callable[[], Subspace], solve: Solver):
        self._domain, self._solve, self._queried = domain, solve, False
        self.domain: Optional[Subspace] = None
        # (scale, rows): the image of echelon row b of the domain is rows[b] / scale,
        # rows[b] absent for a zero image
        self.images: Optional[tuple[int, dict[object, list[tuple[int, int]]]]] = None

    def apply(self, v: ClearedRow) -> Optional[list[tuple[int, Fraction]]]:
        """The image, as sorted pairs, of the vector v given cleared of
        denominators, `(den, {coordinate: int})` as `clear_denominators` returns
        it, or None if v is outside the domain."""
        den, entries = v
        if self.images is None:
            if not self._queried:
                self._queried = True
                # the image of den * v, divided by den once
                sols = self._solve([entries.items()])
                if sols is None:
                    return None
                return sols[0] if den == 1 else [(k, x / den) for k, x in sols[0]]
            self.domain = self._domain()
            sols = self._solve(self.domain.rows)
            if sols is None:
                raise InternalInvariantError("an echelon row of the domain has no image")
            self.images = clear_rows(enumerate(sols))
        coords = self.domain.coordinates(entries.items())
        if coords is None:
            return None
        # the coordinates of den * v are ints: the image is their combination of
        # the integer rows, over den * scale
        scale, rows = self.images
        acc: dict[int, int] = {}
        for b, x in coords:
            for k, y in rows.get(b, ()):
                acc[k] = acc.get(k, 0) + x * y
        den *= scale
        return sorted((k, Fraction(n, den)) for k, n in acc.items() if n)


def split_map(domain: Subspace, parts: Sequence[Subspace], keep: Sequence[int]) -> LinearMap:
    """The map sending each vector of domain, the direct sum of parts, to its
    components in the parts listed in keep: the component in parts[keep[i]] at
    coordinates shifted by i times the ambient dimension.

    Components come from a transposed solve, with the parts' basis vectors as
    columns."""
    n = domain.ambient_dim
    rows = [row for s in parts for row in s.rows]
    cols = transpose(rows, n)
    shift = [n * keep.index(s) if s in keep else None for s, part in enumerate(parts)
             for _ in part.rows]

    def solve(targets: Sequence[PairRow]) -> Optional[list[list[tuple[int, Fraction]]]]:
        sols = solve_particular(cols, len(rows), targets)
        return None if sols is None else [
            combine(([(k + shift[j], x) for k, x in rows[j]], c)
                    for j, c in sol if shift[j] is not None) for sol in sols]

    return LinearMap(lambda: domain, solve)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise InputError("ambient dimensions differ")
    return Subspace.from_vectors(a.ambient_dim, a.rows + b.rows)


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Exact intersection: the A x with (x, y) in the kernel of [A | B], since A x = B(-y)."""
    if a.ambient_dim != b.ambient_dim:
        raise InputError("ambient dimensions differ")
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    # [A | B] has the basis vectors as columns: its rows are the transpose of theirs
    ker = kernel_of_rows(transpose(a.rows + b.rows, a.ambient_dim), a.dim + b.dim)
    return Subspace.from_vectors(
        a.ambient_dim, [combine((a.rows[j], x) for j, x in kv if j < a.dim) for kv in ker.rows])


def deterministic_complement(s: Subspace, superspace: Subspace) -> Subspace:
    """Greedy complement of s inside superspace.

    Keeps each vector of the superspace's echelon basis that is independent
    of s and the vectors kept before it: these are the pivot columns of
    [s | superspace], with both bases as columns, past s.  The result is
    reproducible and satisfies complement + s = superspace with zero
    intersection.
    """
    if s.ambient_dim != superspace.ambient_dim:
        raise InputError("ambient dimensions differ")
    sup = superspace.rows
    pivots = sorted(_echelon(transpose(s.rows + sup, s.ambient_dim)))
    if len(pivots) != superspace.dim:
        raise InputError("first subspace is not contained in the second")
    return Subspace.from_vectors(s.ambient_dim, [sup[c - s.dim] for c in pivots if c >= s.dim])
