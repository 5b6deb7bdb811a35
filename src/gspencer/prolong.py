"""Maximal transitive prolongation of a linear Lie algebra h^0 < gl(V).

The degree-p component (p >= 1) is realized inside V (x) S^{p+1} V*, stored in
"multilinear value" coordinates: an element T is the table of values
T(e_{m_1}, ..., e_{m_{p+1}}) indexed by the target coordinate i and the
nondecreasing index tuple (m_1 <= ... <= m_{p+1}).  Evaluation at a basis
vector is then a plain lookup, and the step

    h^{p+1} = { T in V (x) S^{p+2} V* : T(e_j, -) in h^p for every j }

reduces to one exact kernel computation.  Monomial tuples are enumerated in
graded-lexicographic order and coordinates are target-major, fixing every
output bit-for-bit.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import comb, prod
from typing import Iterable, NamedTuple, Optional, Sequence

from .algebra import GradedLieAlgebra
from .errors import InputError, InternalInvariantError
from .linalg import PairRow, Subspace, ZERO, clear_denominators, combine, kernel_of_rows


@lru_cache(maxsize=None)
def monomials(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Nondecreasing index tuples of length d over 0..n-1, lex order."""
    if d == 0:
        return ((),)
    return tuple(combinations_with_replacement(range(n), d))


@lru_cache(maxsize=None)
def mono_rank(n: int, d: int) -> dict[tuple[int, ...], int]:
    return {m: i for i, m in enumerate(monomials(n, d))}


def sym_space_dim(n: int, p: int) -> int:
    """Coordinate dimension of V (x) S^{p+1} V* for dim V = n."""
    return n * len(monomials(n, p + 1))


def coord_index(n: int, p: int, i: int, mono: tuple[int, ...]) -> int:
    return i * len(monomials(n, p + 1)) + mono_rank(n, p + 1)[mono]


# A matrix as the (i, j, x) triples of its nonzero entries x at row i, column j.
MatrixEntries = tuple[tuple[int, int, Fraction], ...]


class _LinearLieAlgebraFields(NamedTuple):
    v_dim: int
    generators: tuple[MatrixEntries, ...]


class LinearLieAlgebra(_LinearLieAlgebraFields):
    """A matrix Lie algebra h^0 < gl(V) given by a spanning set of matrices.

    Each generator is given as an iterable of (i, j, x) entries in any order,
    x an int or Fraction, and stored as its nonzero entries sorted by (i, j),
    repeats summed, so equal algebras are equal records and hash equal.
    """

    __slots__ = ()

    def __new__(cls, v_dim: int, generators: Iterable[Iterable[tuple[int, int, Fraction]]]):
        if type(v_dim) is not int or v_dim < 1:
            raise InputError(f"v_dim must be a positive int, got {v_dim!r}")
        gens = []
        try:
            for g in generators:
                flat = []
                for i, j, x in g:
                    if not (type(i) is int and type(j) is int and 0 <= i < v_dim
                            and 0 <= j < v_dim and type(x) in (int, Fraction)):
                        raise InputError(f"bad generator entry {(i, j, x)!r} for v_dim {v_dim}")
                    flat.append((i * v_dim + j, x))
                gens.append(tuple(divmod(k, v_dim) + (x,) for k, x in combine(((flat, 1),))))
        except (TypeError, ValueError):
            raise InputError("each generator must be an iterable of (i, j, x) entries") from None
        return tuple.__new__(cls, (v_dim, tuple(gens)))

    def span(self) -> Subspace:
        n = self.v_dim
        return Subspace.from_vectors(n * n, [[(i * n + j, x) for i, j, x in g]
                                             for g in self.generators])

    def check(self) -> Subspace:
        """Verify independence of the generators and closure under commutator.

        Returns the generators' span.  Only pairs a < b are commuted, since
        [b, a] = -[a, b] and [a, a] = 0, from integer multiples of a and b.
        """
        sp = self.span()
        if sp.dim != len(self.generators):
            raise InputError("generators are linearly dependent")
        n = self.v_dim
        terms = [[ij + (c,) for ij, c in
                  clear_denominators([((i, j), x) for i, j, x in g])[1].items()]
                 for g in self.generators]
        for ta, tb in combinations(terms, 2):
            comm = matrix_commutator(ta, tb)
            if sp.coordinates((i * n + k, v) for (i, k), v in comm.items()) is None:
                raise InputError("generators are not closed under commutator")
        return sp


def matrix_commutator(x_terms: Sequence[tuple[int, int, Fraction]],
                      y_terms: Sequence[tuple[int, int, Fraction]]
                      ) -> dict[tuple[int, int], Fraction]:
    """The entries (i, k) -> v of XY - YX, for matrices X and Y given by their
    nonzero entries (i, j, x) (ints or Fractions); some v may be zero."""
    comm: dict[tuple[int, int], Fraction] = {}
    for a_terms, b_terms, sign in ((x_terms, y_terms, 1), (y_terms, x_terms, -1)):
        for i, j, x in a_terms:
            for j2, k, y in b_terms:
                if j == j2:
                    comm[(i, k)] = comm.get((i, k), 0) + sign * x * y
    return comm


def _drop(mono: tuple[int, ...], j: int) -> tuple[int, ...]:
    """The monomial with one occurrence of j removed (j must occur)."""
    k = mono.index(j)
    return mono[:k] + mono[k + 1:]


# A layer vector T as den * T's nonzero terms (i, mono, c), c an int; the same
# terms grouped by each index k their monomial holds as k -> [(i, mono minus
# k, c)], the terms of den * T(e_k, ...); and den.
LayerTerms = tuple[list[tuple[int, tuple[int, ...], int]],
                   dict[int, list[tuple[int, tuple[int, ...], int]]], int]


def layer_terms(n: int, p: int, t: PairRow) -> LayerTerms:
    """The terms of T in V (x) S^{p+1}V*, given by its nonzero pairs, flat and
    grouped by index, with integer coefficients over T's denominator."""
    den, entries = clear_denominators(t)
    ms = monomials(n, p + 1)
    width = len(ms)
    terms = [(k // width, ms[k % width], c) for k, c in entries.items()]
    by_index: dict[int, list[tuple[int, tuple[int, ...], int]]] = {}
    for i, mono, c in terms:
        for k in dict.fromkeys(mono):
            by_index.setdefault(k, []).append((i, _drop(mono, k), c))
    return terms, by_index, den


def _evaluation(n: int, p: int, t: LayerTerms, j: int) -> list[tuple[int, int]]:
    """Nonzero (coordinate, value) pairs of T(e_j, ...) in degree p-1, by
    coordinate, as integers over T's denominator t[2]."""
    width_out = len(monomials(n, p))
    rank_out = mono_rank(n, p)
    return sorted((i * width_out + rank_out[rest], c) for i, rest, c in t[1].get(j, ()))


def prolong_step(h_p: Subspace, h0: LinearLieAlgebra) -> Subspace:
    """One prolongation step: all T with every contraction landing in h_p.

    Parametrizes T by its contractions (one element of h_p per basis
    direction) and imposes the swap symmetry T(u, v, ...) = T(v, u, ...);
    the kernel is then rebuilt in degree-(p+1) coordinates.
    """
    n = h0.v_dim
    # infer p from the ambient dimension
    p = 0
    while sym_space_dim(n, p) != h_p.ambient_dim:
        p += 1
        if sym_space_dim(n, p) > h_p.ambient_dim:
            raise InputError("subspace ambient dimension is not a symmetric power layer")
    dim_hp = h_p.dim
    if dim_hp == 0:
        return Subspace.zero(sym_space_dim(n, p + 1))
    basis_terms = [layer_terms(n, p, b) for b in h_p.rows]
    # swap rows keyed (j, l, m, i), j < l: the coefficient of T(e_j)(e_l, m)_i
    # minus that of T(e_l)(e_j, m)_i, over the unknowns a[j, beta] / den_beta, so
    # each h_beta enters by its int terms.  Row order is free: the kernel's
    # reduced row-echelon form depends only on the row space.
    rows: dict[tuple, dict[int, int]] = {}
    for beta, (_, by_index, _) in enumerate(basis_terms):
        for s, group in by_index.items():
            for i, m, c in group:
                for j in range(s):
                    rows.setdefault((j, s, m, i), {})[j * dim_hp + beta] = c
                for l in range(s + 1, n):
                    rows.setdefault((s, l, m, i), {})[l * dim_hp + beta] = -c
    ker = kernel_of_rows([entries.items() for entries in rows.values()], n * dim_hp)
    width_out = len(monomials(n, p + 2))
    rank_out = mono_rank(n, p + 2)
    vectors = []
    for a in ker.rows:
        # T(e_j, m) = sum_beta a[j, beta] h_beta(m), stored at the sorted monomial
        # (j,) + m: each kernel value a[j, beta] / den_beta times h_beta's int terms
        v: dict[int, Fraction] = {}
        for col, ca in a:
            j, beta = divmod(col, dim_hp)
            for i, m, c in basis_terms[beta][0]:
                if j <= m[0]:
                    k = i * width_out + rank_out[(j,) + m]
                    v[k] = v.get(k, ZERO) + ca * c
        vectors.append([(k, x) for k, x in v.items() if x])
    return Subspace.from_vectors(sym_space_dim(n, p + 1), vectors)


def insertion_bracket(n: int, p: int, q: int, x_terms: LayerTerms, y_terms: LayerTerms,
                      merged: Optional[dict] = None) -> list[tuple[int, int]]:
    """Bracket of X in degree p and Y in degree q (both >= 0), given by their
    `layer_terms`, as its nonzero (coordinate, value) pairs by coordinate, the
    values integers over the product of X's and Y's denominators.

    Computed by the closed insertion formula [X,Y] = X(Y(.), ...) summed over
    argument subsets, minus the same with X and Y swapped.  The result T is
    the unique element with T(v, ...) = [[X,v],Y] + [X,[Y,v]] contraction by
    contraction, which is the defining recursion for prolongation brackets.
    ``merged`` memoizes, per (sub, rest) monomial pair, the output monomial's
    rank and subset count; pass one dict to the calls of one build.
    """
    if merged is None:
        merged = {}
    d_out = p + q + 1
    width_out = len(monomials(n, d_out))
    rank_out = mono_rank(n, d_out)
    out: dict[int, int] = {}
    for a_by_index, b_terms, sign in ((x_terms[1], y_terms[0], 1), (y_terms[1], x_terms[0], -1)):
        # [A, B](m) sums A(B(m_S), m_rest) over position subsets S: a term
        # e_k (x) sub of B meets every term of A whose monomial holds k
        for k, sub, cb in b_terms:
            scb = cb if sign > 0 else -cb
            for i, rest, ca in a_by_index.get(k, ()):
                hit = merged.get((sub, rest))
                if hit is None:
                    mono = tuple(sorted(sub + rest))
                    # the subsets S with m_S = sub (so m_rest = rest) number the
                    # product over s in sub of C(mult of s in mono, mult of s in sub)
                    hit = merged[(sub, rest)] = (
                        rank_out[mono], prod(comb(mono.count(s), sub.count(s)) for s in set(sub)))
                pos = i * width_out + hit[0]
                out[pos] = out.get(pos, 0) + hit[1] * ca * scb
    return sorted((pos, c) for pos, c in out.items() if c)


class ProlongationResult(NamedTuple):
    """Outcome of iterated prolongation, with the assembled graded algebra."""

    h0: LinearLieAlgebra
    orders: dict[int, Subspace]          # degree p >= 0 -> realized subspace
    finite_type: bool                    # some computed order vanished
    stabilization_order: Optional[int]   # first p with h^p = 0, when found
    truncation_order: int                # highest order that was computed
    assembled: GradedLieAlgebra

    def order_dim(self, p: int) -> int:
        if p in self.orders:
            return self.orders[p].dim
        if self.finite_type and self.stabilization_order is not None \
                and p >= self.stabilization_order:
            return 0
        raise InputError(f"order {p} was not computed (truncated at {self.truncation_order})")


@lru_cache(maxsize=None)
def build_graded_algebra(h0: LinearLieAlgebra, max_order: int) -> ProlongationResult:
    """Iterate prolong_step and assemble the full bracket structure.

    Brackets: [X, v] is evaluation for X of degree >= 0 and v in V;
    degree-(-1) pairs commute (flat model); brackets of two nonnegative
    degrees come from the insertion formula and are certified by membership
    in the expected layer.  Orders above max_order are truncated to zero and
    the result records that.
    """
    if max_order < 0:
        raise InputError("max_order must be >= 0")
    n = h0.v_dim
    orders: dict[int, Subspace] = {0: h0.check()}
    finite = orders[0].dim == 0
    stab: Optional[int] = 0 if finite else None
    p = 0
    while not finite and p < max_order:
        nxt = prolong_step(orders[p], h0)
        p += 1
        orders[p] = nxt
        if nxt.dim == 0:
            finite = True
            stab = p
    top = max(d for d in orders if orders[d].dim > 0) if any(
        s.dim for s in orders.values()) else -1
    truncated_at = None if finite else max_order

    names = [f"v{i + 1}" for i in range(n)]
    degrees = [-1] * n
    layer_offset = {-1: 0}
    for d in range(0, top + 1):
        layer_offset[d] = len(names)
        for b in range(orders[d].dim):
            names.append(f"p{d}_{b + 1}")
            degrees.append(d)
    height = max(top + 1, 1)

    layer_basis = {d: [layer_terms(n, d, b) for b in orders[d].rows]
                   for d in range(0, top + 1)}
    table: dict[tuple[int, int], dict[int, Fraction]] = {}

    def put(i: int, j: int, d_target: int, terms: Iterable[tuple[int, int]], den: int) -> None:
        # terms: [i, j] in degree d_target as integers over den, certified in that layer
        if d_target >= 0:
            terms = orders[d_target].coordinates(terms)
            if terms is None:
                raise InternalInvariantError(
                    "bracket left its prolongation layer; h^0 is not closed or data is corrupt")
        if i > j:  # store [e_j, e_i] = -[e_i, e_j]
            i, j, den = j, i, -den
        off = layer_offset[d_target]
        entry = {off + pos: Fraction(c, den) for pos, c in terms}
        if entry:
            table[(i, j)] = entry

    # [X, v] = evaluation
    for d in range(0, top + 1):
        for b, xv in enumerate(layer_basis[d]):
            i = layer_offset[d] + b
            for j in range(n):
                put(i, j, d - 1, _evaluation(n, d, xv, j), xv[2])

    # [X, Y] for nonnegative degrees
    merged: dict = {}
    for dx in range(0, top + 1):
        for dy in range(dx, top + 1):
            d_t = dx + dy
            if d_t > top:
                continue  # zero (finite type) or truncated
            bx = layer_basis[dx]
            by = layer_basis[dy]
            for a, xv in enumerate(bx):
                i = layer_offset[dx] + a
                start = a + 1 if dx == dy else 0
                for b in range(start, len(by)):
                    j = layer_offset[dy] + b
                    t = insertion_bracket(n, dx, dy, xv, by[b], merged)
                    if t:
                        put(i, j, d_t, t, xv[2] * by[b][2])

    assembled = GradedLieAlgebra(
        name=f"prolongation(dimV={n})", names=names, degrees=degrees,
        height=height, table=table, grading_kind="graded", truncated_at=truncated_at)
    return ProlongationResult(h0=h0, orders=orders, finite_type=finite,
                              stabilization_order=stab, truncation_order=max(p, 0),
                              assembled=assembled)
