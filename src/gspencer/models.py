"""Constructors for the worked model geometries.

Basis orders are frozen so regression output is stable:

* space forms: coordinate vectors e_1..e_n first (degree -1), then the
  antisymmetric units A_ij = E_ij - E_ji for i < j in lexicographic order
  (degree 0);
* conformal: e_1..e_n, then A_ij (i < j lex) followed by the scaling element
  I (degree 0), then the dual vectors e^1..e^n (degree 1);
* complex/CR: real coordinates of C^m arranged so the first blocks are the
  CR-distribution directions and their J-images, then the transverse
  directions and their J-images; W drops the last k coordinates.

The natural pairing used to lower/raise indices is the standard inner
product of the coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import NamedTuple

from .algebra import GradedLieAlgebra
from .errors import InputError, InternalInvariantError
from .linalg import ONE, PairRow, Subspace, combine, dense, kernel_of_rows
from .prolong import (LinearLieAlgebra, MatrixEntries, ProlongationResult, build_graded_algebra,
                      matrix_commutator)
from .spencer import Cochain, SpencerComplex, standard_complex


def _antisym_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _antisym(i: int, j: int) -> MatrixEntries:
    """The entries of A_ij = E_ij - E_ji."""
    return ((i, j, 1), (j, i, -1))


def so_generators(n: int) -> LinearLieAlgebra:
    """so_n with the A_ij = E_ij - E_ji basis, i < j lexicographic."""
    if n < 2:
        raise InputError("need n >= 2")
    return LinearLieAlgebra(n, [_antisym(i, j) for i, j in _antisym_pairs(n)])


def co_generators(n: int) -> LinearLieAlgebra:
    """co_n = so_n + R*I, scaling element last."""
    if n < 2:
        raise InputError("need n >= 2")
    return LinearLieAlgebra(n, conformal_deg0_matrices(n))


def conformal_deg0_matrices(n: int) -> list[MatrixEntries]:
    """The degree-0 basis of the conformal model as matrix entries (A_ij then I)."""
    return [_antisym(i, j) for i, j in _antisym_pairs(n)] + [tuple((s, s, 1) for s in range(n))]


def _so_brackets(n: int, mats: list[MatrixEntries],
                 off: int) -> dict[tuple[int, int], dict[int, Fraction]]:
    """Table entries [X_a, X_b], a < b, formed from the matrices' nonzero entries; the
    X and the A_ij basis their antisymmetric commutators decompose over both start at off."""
    pair_index = {ij: off + idx for idx, ij in enumerate(_antisym_pairs(n))}
    table = {}
    for a, b in combinations(range(len(mats)), 2):
        comm = matrix_commutator(mats[a], mats[b])
        entry = {}
        for (i, k), v in comm.items():
            if v and (i == k or comm.get((k, i)) != -v):
                raise InternalInvariantError("matrix is not antisymmetric")
            if v and i < k:
                entry[pair_index[(i, k)]] = v
        if entry:
            table[(off + a, off + b)] = entry
    return table


def _vector_action(mats: list[MatrixEntries],
                   off: int) -> dict[tuple[int, int], dict[int, Fraction]]:
    """Table entries [e_k, X_a] = -X_a e_k, the X_a numbered from off."""
    table = {}
    for a, m in enumerate(mats):
        for t, k, x in m:
            table.setdefault((k, off + a), {})[t] = -x
    return table


@lru_cache(maxsize=None)
def space_form_algebra(n_tilde: int, k0: int) -> GradedLieAlgebra:
    """Isometry-model algebra of the curvature-k0 space form: V + so(V).

    Brackets: [A, v] = A v and [v1, v2] = k0 (v2 (x) <v1,.> - v1 (x) <v2,.>).
    Graded for k0 = 0, quasi-graded otherwise; height 1.
    """
    if n_tilde < 2:
        raise InputError("need n >= 2")
    n = n_tilde
    pairs = _antisym_pairs(n)
    names = [f"e{i + 1}" for i in range(n)] + [f"A{i + 1}_{j + 1}" for i, j in pairs]
    degrees = [-1] * n + [0] * len(pairs)
    off = n
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    if k0:
        for idx, (i, j) in enumerate(pairs):
            # [e_i, e_j] = k0 (E_ji - E_ij) = -k0 * A_ij
            table[(i, j)] = {off + idx: Fraction(-k0)}
    mats = [_antisym(i, j) for i, j in pairs]
    table.update(_vector_action(mats, off))
    table.update(_so_brackets(n, mats, off))
    kind = "graded" if k0 == 0 else "quasi_graded"
    return GradedLieAlgebra(f"space_form({n},{k0})", names, degrees, 1, table, kind)


@lru_cache(maxsize=None)
def conformal_algebra(n_tilde: int) -> GradedLieAlgebra:
    """The graded algebra V + co(V) + V* of the conformal sphere model.

    The bracket of a dual vector with a vector is
    [a, v] = v (x) a - (a (x) v) flipped through the inner product + a(v) I.
    """
    if n_tilde < 2:
        raise InputError("need n >= 2")
    n = n_tilde
    pairs = _antisym_pairs(n)
    n_so = len(pairs)
    names = [f"e{i + 1}" for i in range(n)]
    names += [f"A{i + 1}_{j + 1}" for i, j in pairs] + ["I"]
    names += [f"f{i + 1}" for i in range(n)]
    degrees = [-1] * n + [0] * (n_so + 1) + [1] * n
    off0 = n
    off1 = n + n_so + 1
    i_idx = off0 + n_so
    mats = conformal_deg0_matrices(n)
    table = _vector_action(mats, off0)  # [e_k, X] = -X e_k, X in co(V)
    # [e_l, f^k] = -(sgn * A_{min,max} + delta_{kl} I)
    for l in range(n):
        for k in range(n):
            entry: dict[int, Fraction] = {}
            if l != k:
                a, b = min(l, k), max(l, k)
                a_pos = pairs.index((a, b))
                sgn = ONE if l < k else -ONE  # [f^k, e_l] = sgn*A_ab + ...
                entry[off0 + a_pos] = -sgn
            else:
                entry[i_idx] = -ONE
            table[(l, off1 + k)] = entry
    table.update(_so_brackets(n, mats, off0))  # degree 0 commutators
    # [X, f^k] = sum_l (-X[k][l]) f^l
    for a_idx, m in enumerate(mats):
        for k, l, x in m:
            table.setdefault((off0 + a_idx, off1 + k), {})[off1 + l] = -x
    return GradedLieAlgebra(f"conformal({n})", names, degrees, 2, table, "graded")


def r21_submodule(n: int) -> Subspace:
    """Kernel of complete antisymmetrization in W* (x) Lambda^2 W*.

    Coordinates are (a, (i < j)) with a major; the alternation rows are
    indexed by strictly increasing triples.
    """
    if n < 2:
        raise InputError("need n >= 2")
    pairs = list(combinations(range(n), 2))
    pair_rank = {pq: i for i, pq in enumerate(pairs)}
    dim = n * len(pairs)

    # r < s < t, so each of the three terms sits at its own coordinate (a, (i, j)), i < j
    rows = [[(a * len(pairs) + pair_rank[(i, j)], sgn)
             for a, i, j, sgn in ((r, s, t, ONE), (s, r, t, -ONE), (t, r, s, ONE))]
            for r, s, t in combinations(range(n), 3)]
    return kernel_of_rows(rows, dim)


# ---------------------------------------------------------------------------
# CR / complex structure models
# ---------------------------------------------------------------------------

class ComplexStructureData(NamedTuple):
    """A complex structure on V = R^{2m} and the frame-block arrangement.

    ``j`` lists the nonzero entries (i, j, x) of J, which squares to -I exactly.
    U and its complement refer to the blocks of the fixed coordinate
    arrangement: the first 2(m-k) coordinates span U, the next k span the
    U-complement inside W, and the final k coordinates span the W-complement
    in V.  ``mult_i_cols`` memoizes multiplication by i per degree; its owner
    passes a fresh dict.
    """

    j: MatrixEntries
    m_tilde: int
    k: int
    u_indices: tuple[int, ...]
    u_perp_indices: tuple[int, ...]
    w_indices: tuple[int, ...]
    w_perp_indices: tuple[int, ...]
    prolongation: ProlongationResult
    mult_i_cols: dict[int, list[list[tuple[int, Fraction]]]]

    def __repr__(self) -> str:
        # the last two fields, the prolongation and the memo, are left out
        shown = ", ".join(f"{name}={v!r}" for name, v in zip(self._fields[:-2], self))
        return f"ComplexStructureData({shown})"

    def mult_i(self, d: int, pairs: PairRow) -> list[tuple[int, Fraction]]:
        """Multiplication by i on a degree-d component value given by its (coordinate,
        value) pairs, as sorted pairs: J itself in degree -1, J on the value index of
        the prolongation layer in degree d >= 0."""
        cols = self.mult_i_cols.get(d)
        if cols is None:
            # J e_c is column c of J
            cols = [[(i, x) for i, c2, x in self.j if c2 == c] for c in range(2 * self.m_tilde)]
            if d >= 0:
                layer = self.prolongation.orders[d]
                width = layer.ambient_dim // len(cols)
                j_cols, cols = cols, []
                for row in layer.rows:
                    # entry (a, m) of the row moves to (i, m), times J[i][a]
                    terms = []
                    for pos, v in row:
                        a, m = divmod(pos, width)
                        terms.append(([(i * width + m, c) for i, c in j_cols[a]], v))
                    coords = layer.coordinates(combine(terms))
                    if coords is None:
                        raise InternalInvariantError("layer is not closed under J")
                    cols.append(coords)
            self.mult_i_cols[d] = cols
        return combine((cols[b], x) for b, x in pairs)


def _cr_j(m_tilde: int, k: int) -> MatrixEntries:
    """The entries of J on R^{2m}: J e_a = e_b and J e_b = -e_a for each block pair
    (a, b), namely (i, g+i) for i < g = m - k and (2g+i, 2g+k+i) for i < k."""
    g = m_tilde - k
    blocks = [(i, g + i) for i in range(g)] + [(2 * g + i, 2 * g + k + i) for i in range(k)]
    return tuple(e for a, b in blocks for e in ((b, a, ONE), (a, b, -ONE)))


def glc_generators(m_tilde: int, k: int | None = None) -> LinearLieAlgebra:
    """gl_m(C) as a real subalgebra of gl_{2m}(R): the centralizer of J.

    With k given, J uses the CR frame arrangement for codimension k;
    otherwise the standard arrangement (k = 0 blocks) is used.
    """
    if m_tilde < 1:
        raise InputError("need m >= 1")
    n = 2 * m_tilde
    # the rows of XJ - JX over the entries X[r][c] at coordinate r * n + c, each
    # J[a][b] = x adding x X[t][a] at (t, b) and -x X[b][t] at (a, t)
    rows: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for a, b, x in _cr_j(m_tilde, 0 if k is None else k):
        for t in range(n):
            rows.setdefault((t, b), []).append((t * n + a, x))
            rows.setdefault((a, t), []).append((b * n + t, -x))
    ker = kernel_of_rows([r for row in rows.values() if (r := combine(((row, ONE),)))], n * n)
    return LinearLieAlgebra(n, [[divmod(k, n) + (x,) for k, x in row] for row in ker.rows])


@lru_cache(maxsize=None)
def cr_algebra(m_tilde: int, k: int, max_order: int) -> tuple[GradedLieAlgebra, ComplexStructureData]:
    """Truncated maximal prolongation of gl_m(C) in the CR frame arrangement.

    W is the span of all but the last k coordinates; the complex structure
    maps the W-complement into the U-complement inside W.
    """
    if not 1 <= k <= m_tilde - 1:
        raise InputError("need 1 <= k <= m_tilde - 1")
    if max_order < 1:
        raise InputError("need max_order >= 1")
    h0 = glc_generators(m_tilde, k)
    result = build_graded_algebra(h0, max_order)
    g = m_tilde - k
    data = ComplexStructureData(
        j=_cr_j(m_tilde, k), m_tilde=m_tilde, k=k,
        u_indices=tuple(range(2 * g)),
        u_perp_indices=tuple(range(2 * g, 2 * g + k)),
        w_indices=tuple(range(2 * m_tilde - k)),
        w_perp_indices=tuple(range(2 * m_tilde - k, 2 * m_tilde)),
        prolongation=result, mult_i_cols={})
    return result.assembled, data


def cr_w_complex(algebra: GradedLieAlgebra, data: ComplexStructureData) -> SpencerComplex:
    return standard_complex(algebra, len(data.w_indices))


def cr_expected_layer_dim(m_tilde: int, p: int) -> int:
    """Real dimension of the degree-p prolongation layer of gl_m(C)."""
    return 2 * m_tilde * comb(m_tilde + p, p + 1)


def _evaluate_2(x: Cochain, u: PairRow, v: PairRow) -> list[tuple[int, Fraction]]:
    """x(u, v) for a 2-cochain x and vectors u, v given by their (coordinate, value)
    pairs in V, as sorted pairs: each stored value times the sign that sorts its
    tuple.  Tuples with a coordinate outside W, or a repeated one, are never stored."""
    return combine((x.values.get((a, b) if a < b else (b, a), ()), s * t if a < b else -s * t)
                   for a, s in u for b, t in v)


def cr_extend_cochain(x: Cochain, data: ComplexStructureData) -> Cochain:
    """Extend a 2-cochain on W to one on all of V, compatibly with J.

    On two W-complement directions the value is minus the value on their
    J-images; on the mixed pairs it is (-i) times the value at the J-image,
    using multiplication by i on the target component.
    """
    if x.q != 2 or x.level != 0:
        raise InputError("extension is defined for q = 2, level 0 cochains")
    if data.prolongation.assembled is not x.frame.algebra:
        raise InputError("cochain does not belong to this CR model")
    a = x.frame.algebra
    n_w = len(data.w_indices)
    if x.frame.n_w != n_w:
        raise InputError("cochain is not defined on the CR subspace W")
    n_v = a.component_dim(-1)
    full = standard_complex(a, n_v)
    d = x.p - 1
    j_unit = [data.mult_i(-1, [(c, ONE)]) for c in range(n_v)]  # J e_c
    vals: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for i, jdx in combinations(range(n_v), 2):
        if jdx < n_w:
            vals[(i, jdx)] = x.values.get((i, jdx), ())
        elif i < n_w:
            # value(e_i, e_j) = + i * x(J e_j, e_i), j in the W-complement
            vals[(i, jdx)] = data.mult_i(d, _evaluate_2(x, j_unit[jdx], [(i, ONE)]))
        else:
            vals[(i, jdx)] = [(k, -c) for k, c in _evaluate_2(x, j_unit[i], j_unit[jdx])]
    return Cochain(full, x.p, 2, 0, vals)


def cr_j_residual(t: Cochain, data: ComplexStructureData) -> tuple[Fraction, ...]:
    """The two J-compatibility conditions on a V-valued 2-cochain, as one linear map.

    For each pair u1 < u2 of U basis vectors, with L = T(u1,u2) - T(J u1, J u2),
    it lists the components of L outside U, then L + J T(J u1, u2) + J T(u1, J u2).
    """
    n, pairs = cr_j_residual_pairs(t, data)
    return dense(pairs, n)


def cr_j_residual_pairs(t: Cochain, data: ComplexStructureData
                        ) -> tuple[int, list[tuple[int, Fraction]]]:
    """`cr_j_residual` as its length and its sorted nonzero (coordinate, value) pairs."""
    if t.q != 2 or t.p != 0:
        raise InputError("expected a V-valued 2-cochain, p = 0 and q = 2")
    n_v = 2 * data.m_tilde
    # the place of each coordinate outside U among them; a block per U pair lists
    # those components of L, then all of the second condition
    outside_u = {s: i for i, s in enumerate(s for s in range(n_v) if s not in data.u_indices)}
    width = len(outside_u) + n_v

    def ev(u: PairRow, v: PairRow) -> list[tuple[int, Fraction]]:
        return _evaluate_2(t, u, v)

    def j(v: PairRow) -> list[tuple[int, Fraction]]:
        return data.mult_i(-1, v)

    out: list[tuple[int, Fraction]] = []
    for b, (i, jdx) in enumerate(combinations(data.u_indices, 2)):
        u1, u2 = [(i, ONE)], [(jdx, ONE)]
        ju1, ju2 = j(u1), j(u2)
        lhs = combine(((ev(u1, u2), ONE), (ev(ju1, ju2), -ONE)))
        rhs = combine(((lhs, ONE), (j(ev(ju1, u2)), ONE), (j(ev(u1, ju2)), ONE)))
        out.extend((b * width + outside_u[s], x) for s, x in lhs if s in outside_u)
        out.extend((b * width + len(outside_u) + s, x) for s, x in rhs)
    return comb(len(data.u_indices), 2) * width, out


def cr_integrability_test(t: Cochain, data: ComplexStructureData) -> bool:
    """The J-compatibility conditions on a W-valued 2-cochain.

    True iff, for all u1, u2 in U: T(u1,u2) - T(J u1, J u2) lies in U and
    equals -J T(J u1, u2) - J T(u1, J u2), i.e. iff the J-residual vanishes.
    """
    return not cr_j_residual_pairs(t, data)[1]
