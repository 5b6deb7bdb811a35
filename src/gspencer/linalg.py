"""Exact dense linear algebra over the rationals.

Everything here is built on arbitrary-precision rationals, so ranks, kernels
and complements are exact.  All tie-breaking is fixed (leftmost pivot column,
topmost eligible row, greedy complements in basis order), which makes every
result bit-reproducible across runs and platforms.

Row reduction internally clears denominators and works on integer rows with
gcd normalization; only the final normalization reintroduces fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence

from .errors import InputError

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# vectors: plain tuples of Fraction
# ---------------------------------------------------------------------------

def vec(values: Iterable) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


def vzero(n: int) -> tuple[Fraction, ...]:
    return (ZERO,) * n


def vadd(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Sequence[Fraction], b: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(x - y for x, y in zip(a, b))


def vscale(c: Fraction, a: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(c * x for x in a)


def vlincomb(coeffs: Sequence[Fraction], vectors: Sequence[Sequence[Fraction]],
             n: int) -> tuple[Fraction, ...]:
    """The length-n vector sum of coeffs[i] * vectors[i]."""
    out = [ZERO] * n
    for c, v in zip(coeffs, vectors):
        if c:
            for i, x in enumerate(v):
                if x:
                    out[i] += c * x
    return tuple(out)


def is_zero_vec(a: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in a)


# ---------------------------------------------------------------------------
# integer row reduction engine
# ---------------------------------------------------------------------------

def _clear_row(row: Sequence[Fraction]) -> list[int]:
    den = 1
    for x in row:
        d = x.denominator
        if d != 1:
            den = den * d // gcd(den, d)
    if den == 1:
        return [x.numerator for x in row]
    return [int(x * den) for x in row]


def _normalize_int_row(row: list[int]) -> None:
    g = 0
    for v in row:
        if v:
            g = gcd(g, v)
            if g == 1:
                return
    if g > 1:
        for j, v in enumerate(row):
            if v:
                row[j] = v // g


def _int_row_reduce(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan over integer rows.  Returns (reduced rows, pivot columns).

    Pivot choice: leftmost column, topmost eligible row.  After the call,
    pivot rows are in order and every pivot column is zero elsewhere; pivot
    entries are not normalized to 1 (callers divide when converting back).
    """
    nrows = len(rows)
    pivots: list[int] = []
    pr = 0
    for c in range(ncols):
        sel = -1
        for i in range(pr, nrows):
            if rows[i][c]:
                sel = i
                break
        if sel < 0:
            continue
        if sel != pr:
            rows[pr], rows[sel] = rows[sel], rows[pr]
        piv = rows[pr]
        pv = piv[c]
        for i in range(nrows):
            if i == pr:
                continue
            ri = rows[i]
            a = ri[c]
            if a:
                # piv has zeros strictly before c, so the head is only scaled
                for j in range(c):
                    if ri[j]:
                        ri[j] = ri[j] * pv
                for j in range(c, ncols):
                    ri[j] = ri[j] * pv - piv[j] * a
                _normalize_int_row(ri)
        pivots.append(c)
        pr += 1
        if pr == nrows:
            break
    return rows[:pr], pivots


def _rref_rows(rows: Sequence[Sequence[Fraction]], ncols: int) -> tuple[list[tuple[Fraction, ...]], list[int]]:
    """Reduced row echelon form of the given rows (zero rows dropped)."""
    int_rows = [_clear_row(r) for r in rows]
    red, pivots = _int_row_reduce(int_rows, ncols)
    out = []
    for row, c in zip(red, pivots):
        pv = row[c]
        out.append(tuple(Fraction(v, pv) if v else ZERO for v in row))
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
    def zeros(cls, rows: int, cols: int) -> "RMatrix":
        return cls(((ZERO,) * cols,) * rows, rows, cols)

    @classmethod
    def identity(cls, n: int) -> "RMatrix":
        return cls(tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)), n, n)

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence[Fraction]], nrows: int) -> "RMatrix":
        if not cols:
            return cls.zeros(nrows, 0)
        return cls(tuple(tuple(col[i] for col in cols) for i in range(nrows)), nrows, len(cols))

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.data)

    def mat_vec(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        if len(v) != self.cols:
            raise InputError("dimension mismatch in mat_vec")
        out = []
        for row in self.data:
            s = ZERO
            for a, b in zip(row, v):
                if a and b:
                    s += a * b
            out.append(s)
        return tuple(out)

    def mat_mul(self, other: "RMatrix") -> "RMatrix":
        if self.cols != other.rows:
            raise InputError("dimension mismatch in mat_mul")
        ot = tuple(zip(*other.data))
        return RMatrix(
            tuple(tuple(sum((a * b for a, b in zip(row, col) if a and b), ZERO) for col in ot)
                  for row in self.data),
            self.rows, other.cols)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RMatrix) and self.data == other.data \
            and self.rows == other.rows and self.cols == other.cols

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        return f"RMatrix({self.rows}x{self.cols})"


def rref(m: RMatrix) -> RMatrix:
    """Reduced row echelon form (deterministic, zero rows kept at bottom)."""
    red, _ = _rref_rows(m.data, m.cols)
    pad = [vzero(m.cols)] * (m.rows - len(red))
    return RMatrix(list(red) + pad, m.rows, m.cols)


def rank(m: RMatrix) -> int:
    _, pivots = _rref_rows(m.data, m.cols)
    return len(pivots)


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """A linear subspace of Q^n held as a reduced row-echelon basis.

    ``basis`` is the dim x n matrix whose rows are the basis vectors.  The
    canonical form makes equality of subspaces a direct comparison and pins
    down every downstream choice (complements, coset representatives).
    ``pivot_rows`` are strictly increasing coordinates of Q^n; basis row ``b``
    has entry 1 at ``pivot_rows[b]``, 0 at every other pivot coordinate and 0
    left of its own.
    """

    __slots__ = ("ambient_dim", "basis", "pivot_rows", "_sparse_rows")

    def __init__(self, ambient_dim: int, basis: RMatrix, pivot_rows: tuple[int, ...]):
        self.ambient_dim = ambient_dim
        self.basis = basis
        self.pivot_rows = pivot_rows
        self._sparse_rows = None

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence[Fraction]]) -> "Subspace":
        vs = [tuple(x if isinstance(x, Fraction) else Fraction(x) for x in v) for v in vectors]
        for v in vs:
            if len(v) != ambient_dim:
                raise InputError("vector length does not match ambient dimension")
        red, pivots = _rref_rows(vs, ambient_dim)
        return cls(ambient_dim, RMatrix(red, len(red), ambient_dim), tuple(pivots))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, RMatrix.zeros(0, ambient_dim), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, RMatrix.identity(ambient_dim), tuple(range(ambient_dim)))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def basis_vectors(self) -> tuple[tuple[Fraction, ...], ...]:
        return self.basis.data

    def reduce(self, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Canonical coset representative of v modulo this subspace.

        Subtracts basis vectors so the result vanishes on all pivot rows.
        """
        if len(v) != self.ambient_dim:
            raise InputError("vector length does not match ambient dimension")
        r = list(v)
        for b, prow in enumerate(self.pivot_rows):
            c = r[prow]
            if c:
                for i, x in enumerate(self.basis.data[b]):
                    if x:
                        r[i] -= c * x
        return tuple(r)

    def coordinates(self, terms: Iterable[tuple[int, Fraction]]) -> Optional[tuple[Fraction, ...]]:
        """Coordinates in the echelon basis of the vector v with the given
        (coordinate, value) pairs, or None if v is outside.

        The pairs list v's nonzero entries, each coordinate once (zero values
        are harmless).  The basis is reduced, so v's coordinates are its
        entries at the pivot rows, and v is inside exactly when subtracting
        that combination of the basis rows leaves a zero residual.
        """
        if self._sparse_rows is None:
            # each row's nonzero terms off the pivot rows: a row is 1 at its own
            # pivot and 0 at the others, so the residual there is zero by construction
            pivots = set(self.pivot_rows)
            self._sparse_rows = (
                {prow: b for b, prow in enumerate(self.pivot_rows)},
                tuple([(k, x) for k, x in enumerate(row) if x and k not in pivots]
                      for row in self.basis.data))
        pivot_of, rows = self._sparse_rows
        coords = [ZERO] * len(rows)
        residual: dict[int, Fraction] = {}
        for k, x in terms:
            b = pivot_of.get(k)
            if b is None:
                residual[k] = residual.get(k, ZERO) + x
            else:
                coords[b] = x
                for kr, y in rows[b]:
                    residual[kr] = residual.get(kr, ZERO) - x * y
        if any(residual.values()):
            return None
        return tuple(coords)

    def contains(self, v: Sequence[Fraction]) -> bool:
        return is_zero_vec(self.reduce(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(c) for c in other.basis_vectors())

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.pivot_rows == other.pivot_rows
                and self.basis == other.basis)

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.pivot_rows, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def kernel_of_rows(rows: Sequence[Sequence[Fraction]], ncols: int) -> Subspace:
    """Null space of the linear map given by rows; dimension is ncols - rank."""
    # Eliminating with the columns reversed takes each pivot as far right as it
    # goes, so a reduced row has no entries right of its pivot.  The kernel
    # vector of free column f is then 1 at f, 0 at the other free columns and
    # nonzero elsewhere only at pivot columns right of f.  Listed by f, these
    # vectors already are the kernel's reduced row-echelon basis, pivots = free.
    last = ncols - 1
    red, rev_pivots = _rref_rows([row[::-1] for row in rows], ncols)
    pivots = [last - c for c in rev_pivots]
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    vectors = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for row, pc in zip(red, pivots):
            x = row[last - f]
            if x:
                v[pc] = -x
        vectors.append(tuple(v))
    return Subspace(ncols, RMatrix(vectors, len(vectors), ncols), tuple(free))


def kernel_basis(m: RMatrix) -> Subspace:
    """Null space of m; dimension is cols(m) - rank(m)."""
    return kernel_of_rows(m.data, m.cols)


def solve_particular(rows: Sequence[Sequence[Fraction]], ncols: int,
                     b: Sequence[Fraction]) -> Optional[tuple[Fraction, ...]]:
    """Deterministic particular solution of rows·x = b, free variables zero."""
    if len(b) != len(rows):
        raise InputError("right-hand side length does not match row count")
    aug = [tuple(row) + (bi,) for row, bi in zip(rows, b)]
    red, pivots = _rref_rows(aug, ncols + 1)
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = red[i][ncols]
    return tuple(x)


def solve_linear(m: RMatrix, b: Sequence[Fraction]) -> Optional[tuple[tuple[Fraction, ...], Subspace]]:
    """One exact solution of m·x = b plus the kernel, or None if inconsistent.

    The particular solution sets all free variables to zero.
    """
    x = solve_particular(m.data, m.cols, b)
    return None if x is None else (x, kernel_basis(m))


def direct_sum_split(v: Sequence[Fraction], parts: Sequence[Subspace]
                     ) -> Optional[list[tuple[Fraction, ...]]]:
    """v's component in each subspace of the direct sum of parts, or None if v is outside it."""
    cols = [b for s in parts for b in s.basis_vectors()]
    # with no basis vectors at all the system still has one (empty) row per entry of v
    sol = solve_particular(list(zip(*cols)) or [()] * len(v), len(cols), v)
    if sol is None:
        return None
    out = []
    start = 0
    for s in parts:
        out.append(vlincomb(sol[start:start + s.dim], s.basis_vectors(), len(v)))
        start += s.dim
    return out


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise InputError("ambient dimensions differ")
    return Subspace.from_vectors(a.ambient_dim, a.basis_vectors() + b.basis_vectors())


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Exact intersection, via the kernel of [A | -B]."""
    if a.ambient_dim != b.ambient_dim:
        raise InputError("ambient dimensions differ")
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    neg_b = [vscale(-ONE, v) for v in b.basis.data]
    rows = list(zip(*a.basis.data, *neg_b))
    ker = kernel_of_rows(rows, a.dim + b.dim)
    return Subspace.from_vectors(a.ambient_dim, [vlincomb(kv[:a.dim], a.basis.data, a.ambient_dim)
                                                 for kv in ker.basis_vectors()])


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
    sup = superspace.basis_vectors()
    _, pivots = _rref_rows(list(zip(*s.basis.data, *sup)), s.dim + superspace.dim)
    if len(pivots) != superspace.dim:
        raise InputError("first subspace is not contained in the second")
    return Subspace.from_vectors(s.ambient_dim, [sup[c - s.dim] for c in pivots if c >= s.dim])
