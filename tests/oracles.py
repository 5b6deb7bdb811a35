"""Helpers on library objects that only the tests need: matrices from and to
their (i, j, x) entries, matrix products, the zero matrix, subspace inclusion
and degree projection, written on the public fields so that the library keeps
no code of its own for them; and dense references for the prolongation's
contraction and the CR maps, which the library computes on sparse terms."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Sequence

from gspencer.algebra import GradedLieAlgebra
from gspencer.errors import InputError
from gspencer.linalg import RMatrix, Subspace, dense, nonzero_pairs
from gspencer.models import ComplexStructureData
from gspencer.spencer import Cochain, standard_complex

ZERO = Fraction(0)


def matrix(entries, n: int) -> RMatrix:
    """The n x n matrix with the given (i, j, x) entries, repeats summed."""
    rows = [[ZERO] * n for _ in range(n)]
    for i, j, x in entries:
        rows[i][j] += x
    return RMatrix(rows)


def entries_of(m: RMatrix) -> list[tuple[int, int, Fraction]]:
    """The (i, j, x) entries of a matrix's nonzero values, row-major."""
    return [(i, j, x) for i, row in enumerate(m.data) for j, x in enumerate(row) if x]


def zeros(rows: int, cols: int) -> RMatrix:
    return RMatrix(((ZERO,) * cols,) * rows, rows, cols)


def mat_mul(a: RMatrix, b: RMatrix) -> RMatrix:
    if a.cols != b.rows:
        raise InputError("dimension mismatch in mat_mul")
    bt = tuple(zip(*b.data))
    return RMatrix(tuple(tuple(sum((x * y for x, y in zip(row, col)), ZERO) for col in bt)
                         for row in a.data), a.rows, b.cols)


def alternating_sum(x: Cochain) -> dict[tuple[int, ...], list[tuple[int, Fraction]]]:
    """The values of (dx)(w_0..w_q) = sum_i (-1)^i [w_i, x(w_0..^w_i..w_q)] from dense
    brackets of the embedded W basis vectors and stored values: per tuple, the
    sorted nonzero pairs of the degree-(p-2) part, not reduced modulo any
    annihilator."""
    c = x.frame
    a = c.algebra
    n = a.component_dim(x.p - 1)
    w_full = [a.embed_component(-1, v) for v in c.w.basis_vectors()]
    out = {}
    for tup in combinations(range(c.n_w), x.q + 1):
        acc = (ZERO,) * a.dim
        for i, t in enumerate(tup):
            val = x.values.get(tup[:i] + tup[i + 1:])
            if val:
                b = a.bracket(w_full[t], a.embed_component(x.p - 1, dense(val, n)))
                acc = tuple(u + (-1) ** i * v for u, v in zip(acc, b))
        part = nonzero_pairs(a.component_part(acc, x.p - 2))
        if part:
            out[tup] = part
    return out


def contains_subspace(big: Subspace, small: Subspace) -> bool:
    if big.ambient_dim != small.ambient_dim:
        raise InputError("ambient dimensions differ")
    return all(big.coordinates(row) is not None for row in small.rows)


def project_degree(a: GradedLieAlgebra, x: Sequence[Fraction], p: int) -> tuple[Fraction, ...]:
    """Zero out all coefficients of basis elements of degree != p."""
    if p < -1 or p > a.height - 1:
        raise InputError(f"degree {p} outside -1..{a.height - 1}")
    return tuple(c if a.degrees[i] == p else ZERO for i, c in enumerate(x))


def column(m: RMatrix, j: int) -> tuple[Fraction, ...]:
    return tuple(row[j] for row in m.data)


def mat_vec(m: RMatrix, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    if len(v) != m.cols:
        raise InputError("dimension mismatch in mat_vec")
    return tuple(sum((a * b for a, b in zip(row, v)), ZERO) for row in m.data)


def contraction(n: int, p: int, t: Sequence[Fraction], j: int) -> tuple[Fraction, ...]:
    """T(e_j, ...) for a dense T in V (x) S^{p+1}V*, landing in V (x) S^p V*: the value
    at (i, m) is T's at (i, sorted((j,) + m)), monomials in lexicographic order."""
    rank = {m: r for r, m in enumerate(combinations_with_replacement(range(n), p + 1))}
    width = len(rank)
    return tuple(t[i * width + rank[tuple(sorted((j,) + m))]]
                 for i in range(n) for m in combinations_with_replacement(range(n), p))


# ---------------------------------------------------------------------------
# dense references for cr_extend_cochain and cr_j_residual
# ---------------------------------------------------------------------------

def minor_det(vectors: Sequence[Sequence[Fraction]], rows: tuple[int, ...]) -> Fraction:
    """det of the minor (vectors[c][rows[r]]), by cofactor expansion along vectors[0]."""
    if not rows:
        return Fraction(1)
    s = ZERO
    for pos, row in enumerate(rows):
        if vectors[0][row]:
            term = vectors[0][row] * minor_det(vectors[1:], rows[:pos] + rows[pos + 1:])
            s += -term if pos % 2 else term
    return s


def evaluate(x: Cochain, vectors: Sequence[Sequence[Fraction]]) -> tuple[Fraction, ...]:
    """Multilinear alternating evaluation of x on dense W-coordinate vectors, as a
    dense component vector."""
    n = x.frame.algebra.component_dim(x.p - 1)
    out = [ZERO] * n
    for tup, row in x.values.items():
        det = minor_det(vectors, tup)
        for k, v in row:
            out[k] += det * v
    return tuple(out)


def mult_i(data: ComplexStructureData, d: int, comp: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Multiplication by i on a dense degree-d component vector: J as a matrix in
    degree -1; in degree d >= 0 the layer vector as an n x width matrix M, mapped to
    J M and read back in the layer's basis."""
    n = 2 * data.m_tilde
    j = matrix(data.j, n)
    if d == -1:
        return mat_vec(j, comp)
    layer = data.prolongation.orders[d]
    width = layer.ambient_dim // n
    flat = [sum((c * b[k] for c, b in zip(comp, layer.basis_vectors())), ZERO)
            for k in range(layer.ambient_dim)]
    jm = [sum((j.data[i][a] * flat[a * width + m] for a in range(n)), ZERO)
          for i in range(n) for m in range(width)]
    coords = layer.coordinates(nonzero_pairs(jm))
    if coords is None:
        raise InputError("layer is not closed under J")
    return dense(coords, layer.dim)


def cr_extend_cochain(x: Cochain, data: ComplexStructureData) -> Cochain:
    """`models.cr_extend_cochain` on unit vectors, with J's columns as dense vectors."""
    a = x.frame.algebra
    n_w = len(data.w_indices)
    n_v = a.component_dim(-1)
    j = matrix(data.j, n_v)
    unit = [tuple(Fraction(int(t == i)) for t in range(n_v)) for i in range(n_v)]

    def eval_w(u, v):
        return evaluate(x, [u[:n_w], v[:n_w]])

    vals = {}
    for i, jdx in combinations(range(n_v), 2):
        if jdx < n_w:
            vals[(i, jdx)] = x.values.get((i, jdx), ())
        elif i < n_w:
            base = eval_w(column(j, jdx), unit[i])
            vals[(i, jdx)] = nonzero_pairs(mult_i(data, x.p - 1, base))
        else:
            vals[(i, jdx)] = nonzero_pairs([-c for c in eval_w(column(j, i), column(j, jdx))])
    return Cochain(standard_complex(a, n_v), x.p, 2, 0, vals)


def cr_j_residual(t: Cochain, data: ComplexStructureData) -> tuple[Fraction, ...]:
    """`models.cr_j_residual` on unit vectors, with J applied as a matrix."""
    n_v = 2 * data.m_tilde
    j = matrix(data.j, n_v)
    n_w = len(data.w_indices)
    outside_u = [s for s in range(n_v) if s not in data.u_indices]

    def ev(u, v):
        return evaluate(t, [u[:n_w], v[:n_w]])

    unit = RMatrix.identity(n_v)
    out = []
    for i, jdx in combinations(data.u_indices, 2):
        u1, u2 = column(unit, i), column(unit, jdx)
        ju1, ju2 = column(j, i), column(j, jdx)
        lhs = [x - y for x, y in zip(ev(u1, u2), ev(ju1, ju2))]
        out.extend(lhs[s] for s in outside_u)
        out.extend(x + y + z for x, y, z in zip(lhs, mat_vec(j, ev(ju1, u2)),
                                                mat_vec(j, ev(u1, ju2))))
    return tuple(out)
