"""Generalized Spencer complexes over a graded Lie algebra and a subspace W.

The complex in bidegree (p, q) at level r has cochains valued in the
degree-(p-1) component modulo the level-r annihilator (the iterated-adjoint
kernel of W); for p = 0 the values live in the full degree-(-1) component.
The operator sends (p, q) to (p-1, q+1) by the alternating bracket sum.

Cochains store one canonical representative per strictly increasing index
tuple, reduced against the echelon basis of the annihilator and held as its
sorted nonzero (coordinate, value) pairs, so equality of cosets is plain
equality of stored data.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from .algebra import (GradedLieAlgebra, adjoint_columns, annihilated_rows,
                      deterministic_rows_annihilating, g_sharp_subalgebra)
from .errors import InputError, InternalInvariantError, PreconditionError
from .linalg import (ONE, ClearedRow, LinearMap, PairRow, Subspace, clear_denominators,
                     clear_rows, combine, deterministic_complement, dense, kernel_of_rows,
                     nonzero_pairs, rank_of_rows, solve_particular, split_map, transpose)


class WFrame:
    """An algebra together with a subspace W of its degree-(-1) component.

    This is the minimal context needed to evaluate constant forms and total
    curvatures; it admits quasi-graded algebras.  The Spencer machinery lives
    on the `SpencerComplex` subclass, which insists on an honest grading.
    """

    def __init__(self, algebra: GradedLieAlgebra, w: Subspace):
        n_v = algebra.component_dim(-1)
        if n_v == 0:
            raise InputError("algebra has an empty degree -1 component")
        if w.ambient_dim != n_v:
            raise InputError("W must be a subspace of the degree -1 component")
        if w.dim == 0:
            raise InputError("W must be nonzero")
        self.algebra = algebra
        self.w = w
        self.n_w = w.dim
        # _ad[d][t][i]: the degree-(d-1) part of [e_i, w_t] as sorted pairs, e_i the
        # i-th basis element of degree d
        self._ad = {d: [adjoint_columns(algebra, d, row) for row in w.rows]
                    for d in range(0, self.top_degree() + 1)}

    def top_degree(self) -> int:
        return self.algebra.max_represented_degree()


class SpencerComplex(WFrame):
    """Spencer complex data: annihilator filtration, fixed complements, caches.

    Construction computes nothing past the adjoint action.  Each piece is built
    on first use by the function that owns its kind and kept in `_memo` under
    (kind, indices): "ann" (d, r), "chain" d and "split" d for the filtration,
    "signed" (p, r) for the reduced adjoint columns every operator out of
    degree p shares, "d", "z", "b", "preimage" and "class" (p, q, r) for operators, cocycles,
    coboundaries and solve maps, "checked" (p, q, r) for a key whose cocycle
    check has run once, "rank" (p, q, r) for an operator's rank, "gsharp" ().
    Level-0 work reads no annihilator, and `cohomology_dims` reads its
    dimensions off the ranks: it builds Z and B only for certificates, and no
    solve map; a map is fixed on its domain at the second query of its key (see
    `LinearMap`), as Z is at its second check.  A query's coordinates are
    cleared of denominators once, by the cocycle check, and handed to the map;
    the class map, whose domain is Z, is its key's cocycle check once it exists.
    """

    def __init__(self, algebra: GradedLieAlgebra, w: Subspace):
        super().__init__(algebra, w)
        if algebra.grading_kind != "graded":
            raise InputError("Spencer complexes require a graded algebra")
        self._memo: dict[tuple[str, object], object] = {}

    # -- filtration ----------------------------------------------------------

    def _annihilator_raw(self, d: int, r: int) -> Subspace:
        """c_r in degree d, from c_{r-1} in degree d-1; constant at level 0, in
        degree -1 and above the top, and full from level d + 2 on."""
        if r and 0 <= d <= self.top_degree():
            key = ("ann", (d, min(r, d + 2)))
            ann = self._memo.get(key)
            if ann is None:
                rows = deterministic_rows_annihilating(self._annihilator_raw(d - 1, key[1][1] - 1))
                ann = self._memo[key] = kernel_of_rows(annihilated_rows(rows, self._ad[d]),
                                                       self.algebra.component_dim(d))
            return ann
        n = self.algebra.component_dim(d)
        return Subspace.full(n) if d == -1 and r else Subspace.zero(n)

    def annihilator(self, p_deg: int, r: int) -> Subspace:
        """The level-r annihilator inside the degree-p_deg component."""
        if p_deg < 0 or p_deg > self.top_degree():
            raise InputError(f"degree {p_deg} is not a nonnegative degree of the algebra")
        if r < 0:
            raise InputError("level must be nonnegative")
        return self._annihilator_raw(p_deg, r)

    def complement_chain(self, p_deg: int) -> list[Subspace]:
        """The fixed complements c_s^perp, s = 0..p_deg+1, inside the component."""
        if p_deg < 0 or p_deg > self.top_degree():
            raise InputError(f"degree {p_deg} is not a nonnegative degree of the algebra")
        key = ("chain", p_deg)
        if key not in self._memo:
            self._memo[key] = [deterministic_complement(self._annihilator_raw(p_deg, s),
                                                        self._annihilator_raw(p_deg, s + 1))
                               for s in range(0, p_deg + 2)]
        return list(self._memo[key])

    def free_rows(self, p: int, r: int) -> tuple[int, ...]:
        """Component rows that parametrize the quotient by c_r (all rows for p = 0)."""
        nd = self.algebra.component_dim(p - 1)
        if p == 0 or r == 0:
            return tuple(range(nd))
        piv = set(self._annihilator_raw(p - 1, r).pivot_rows)
        return tuple(i for i in range(nd) if i not in piv)

    def g_sharp(self) -> Subspace:
        key = ("gsharp", ())
        if key not in self._memo:
            self._memo[key] = g_sharp_subalgebra(self.algebra, self.w)
        return self._memo[key]

    def _check_component_available(self, d: int) -> None:
        if self.algebra.truncated_at is not None and d > self.algebra.truncated_at:
            raise InputError(
                f"component of degree {d} lies beyond the truncation order "
                f"{self.algebra.truncated_at}; result would not be trustworthy")


def _split_by_chain(c: SpencerComplex, d: int, v: PairRow) -> list[list[tuple[int, Fraction]]]:
    """Components, as sorted pairs, of a degree-d value given by its pairs in the
    fixed complements c_s^perp, s = 0..d+1."""
    chain = c.complement_chain(d)
    n = c.algebra.component_dim(d)
    key = ("split", d)
    if key not in c._memo:
        # the chain spans the component, so the map is defined on all of it
        c._memo[key] = split_map(Subspace.full(n), chain, range(len(chain)))
    image = c._memo[key].apply(clear_denominators(v))
    if image is None:
        raise InternalInvariantError("complement chain does not span the component")
    parts: list[list[tuple[int, Fraction]]] = [[] for _ in chain]
    for k, x in image:
        s, i = divmod(k, n)
        parts[s].append((i, x))
    return parts


# ---------------------------------------------------------------------------
# cochains
# ---------------------------------------------------------------------------

def _parity_sort(idxs: Sequence[int]) -> tuple[tuple[int, ...], int]:
    lst = list(idxs)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    return tuple(lst), sign


def canonical_pairs(vec: PairRow) -> tuple[tuple[int, Fraction], ...]:
    """A component value given as (int coordinate, int or Fraction) pairs in any
    order, as its sorted nonzero (coordinate, Fraction) pairs, repeats summed."""
    try:
        row = tuple(vec)
        if all(type(k) is int and type(x) in (int, Fraction) for k, x in row):
            # kept as given when already canonical: increasing coordinates, nonzero Fractions
            if all(type(x) is Fraction and x and k > h
                   for (h, _), (k, x) in zip(((-1, 0),) + row, row)):
                return row
            return tuple(combine(((row, 1),)))
    except (TypeError, ValueError):
        pass
    raise InputError("expected a value as (int coordinate, int or Fraction value) pairs")


def check_coordinates(row: Sequence[tuple[int, Fraction]], n: int) -> None:
    """Reject a canonical value with a coordinate outside 0..n-1."""
    if row and (row[0][0] < 0 or row[-1][0] >= n):
        raise InputError(f"value coordinate outside the component 0..{n - 1}")


class Cochain:
    """An element of the level-r Spencer space in bidegree (p, q).

    ``values`` maps strictly increasing q-tuples of W-basis indices to the
    canonical representative: a degree-(p-1) component value, reduced against
    the annihilator echelon basis, as its sorted nonzero (coordinate, Fraction)
    pairs.  The constructor takes pairs in any order.  Missing tuples are zero.
    """

    __slots__ = ("frame", "p", "q", "level", "values")

    def __init__(self, frame: WFrame, p: int, q: int, level: int,
                 values: Mapping[tuple[int, ...], PairRow]):
        if p < 0 or q < 0 or level < 0:
            raise InputError("p, q and level must be nonnegative")
        if level > 0 and not isinstance(frame, SpencerComplex):
            raise InputError("level > 0 cochains need a SpencerComplex")
        nd = frame.algebra.component_dim(p - 1)
        ann = frame._annihilator_raw(p - 1, level) if p >= 1 and level > 0 else None
        clean: dict[tuple[int, ...], tuple[tuple[int, Fraction], ...]] = {}
        for tup, vec in values.items():
            tup = tuple(tup)
            if len(tup) != q or any(not 0 <= t < frame.n_w for t in tup) \
                    or any(tup[i] >= tup[i + 1] for i in range(q - 1)):
                raise InputError(f"tuple {tup} is not strictly increasing in range")
            v = canonical_pairs(vec)
            check_coordinates(v, nd)
            if ann is not None:
                v = tuple(ann.reduce(v))
            if v:
                clean[tup] = v
        self.frame = frame
        self.p = p
        self.q = q
        self.level = level
        self.values = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, frame: WFrame, p: int, q: int, level: int = 0) -> "Cochain":
        return cls(frame, p, q, level, {})

    @classmethod
    def _unchecked(cls, frame: WFrame, p: int, q: int, level: int,
                   values: Mapping[tuple[int, ...], Sequence[tuple[int, Fraction]]]) -> "Cochain":
        """The cochain of values the library made canonical, taken without the
        constructor's checks: strictly increasing in-range tuples, each mapped to
        sorted nonzero (coordinate, Fraction) pairs inside the component, reduced
        modulo the annihilator; empty values are dropped.  Only producers whose
        output is canonical by construction call it (spencer.py, obstruction.py)."""
        x = cls.__new__(cls)
        x.frame, x.p, x.q, x.level = frame, p, q, level
        x.values = {tup: tuple(row) for tup, row in values.items() if row}
        return x

    # -- vector space operations ----------------------------------------------

    def _compatible(self, other: "Cochain") -> None:
        if self.frame is not other.frame or (self.p, self.q, self.level) != \
                (other.p, other.q, other.level):
            raise InputError("cochains live in different spaces")

    def __add__(self, other: "Cochain") -> "Cochain":
        self._compatible(other)
        vals = dict(self.values)
        for tup, row in other.values.items():
            # the constructor sums the pairs of a coordinate
            vals[tup] = vals.get(tup, ()) + row
        return Cochain(self.frame, self.p, self.q, self.level, vals)

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + -other

    def scale(self, c) -> "Cochain":
        c = Fraction(c)
        return Cochain(self.frame, self.p, self.q, self.level,
                       {t: [(k, c * x) for k, x in row] for t, row in self.values.items()})

    def __neg__(self) -> "Cochain":
        # reduction modulo the annihilator is linear: a negated representative stays reduced
        return Cochain._unchecked(self.frame, self.p, self.q, self.level,
                                  {t: [(k, -x) for k, x in row] for t, row in self.values.items()})

    def is_zero(self) -> bool:
        return not self.values

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Cochain) and self.frame is other.frame
                and (self.p, self.q, self.level) == (other.p, other.q, other.level)
                and self.values == other.values)

    def __hash__(self) -> int:
        return hash((id(self.frame), self.p, self.q, self.level,
                     tuple(sorted(self.values.items()))))

    def __repr__(self) -> str:
        return f"Cochain(p={self.p}, q={self.q}, level={self.level}, " \
               f"support={len(self.values)})"

    # -- evaluation -------------------------------------------------------------

    def value(self, tup: tuple[int, ...]) -> tuple[Fraction, ...]:
        """The value at a strictly increasing tuple as a dense component vector."""
        return dense(self.values.get(tuple(tup), ()), self.frame.algebra.component_dim(self.p - 1))

    def project_to_level(self, r: int) -> "Cochain":
        """Image under the natural projection onto the level-r complex."""
        return Cochain(self.frame, self.p, self.q, r, dict(self.values))


# ---------------------------------------------------------------------------
# the operator
# ---------------------------------------------------------------------------

def spencer_d(x: Cochain) -> Cochain:
    """The generalized Spencer operator, (p, q) -> (p-1, q+1) at fixed level.

    For p = 0 the target space does not exist; the zero cochain in bidegree
    (0, q+1) is returned by convention.
    """
    if not isinstance(x.frame, SpencerComplex):
        raise InputError("spencer_d needs a SpencerComplex")
    return alternating_bracket_sum(x)


def alternating_bracket_sum(x: Cochain) -> Cochain:
    """The sum that defines `spencer_d`, on a cochain over any frame:
    (dx)(w_0..w_q) = sum_i (-1)^i [w_i, x(w_0..^w_i..w_q)].

    It needs no annihilator, so it also serves level-0 cochains over a
    quasi-graded `WFrame`.  At level 0 the sums are the canonical values, since
    `combine` gives sorted nonzero pairs of the target component.  The stored
    values are cleared of denominators once, over one common denominator, so
    every sum takes int coefficients and divides by it once.
    """
    c = x.frame
    if x.p == 0 or not x.values:
        return Cochain.zero(c, max(x.p - 1, 0), x.q + 1, x.level)
    ad = c._ad[x.p - 1]
    den, ints = clear_rows(x.values.items())
    out = {}
    for tup in combinations(range(c.n_w), x.q + 1):
        # [x(rest), w_t] enters with sign (-1)^(pos+1), pos the place of t in tup
        out[tup] = combine(((ad[t][k], n if pos % 2 else -n) for pos, t in enumerate(tup)
                            for k, n in ints.get(tup[:pos] + tup[pos + 1:], ())), den)
    if x.level:
        return Cochain(c, x.p - 1, x.q + 1, x.level, out)
    return Cochain._unchecked(c, x.p - 1, x.q + 1, 0, out)


# ---------------------------------------------------------------------------
# coordinates, operator matrices, cohomology
# ---------------------------------------------------------------------------

def space_dimension(c: SpencerComplex, p: int, q: int, r: int) -> int:
    return len(c.free_rows(p, r)) * comb(c.n_w, q)


def cochain_to_coords(x: Cochain) -> tuple[Fraction, ...]:
    """The dense coordinates of x in the canonical basis of its space: per tuple
    in increasing order, the value at each free row."""
    return dense(_coordinate_pairs(x), space_dimension(x.frame, x.p, x.q, x.level))


def _coordinate_pairs(x: Cochain) -> list[tuple[int, Fraction]]:
    """The nonzero coordinates of x in the basis of `cochain_to_coords`, as
    (coordinate, value) pairs, each coordinate once."""
    c = x.frame
    free = c.free_rows(x.p, x.level)
    # a reduced value vanishes on the annihilator's pivot rows, so its pairs sit on free rows
    slot = {k: i for i, k in enumerate(free)}
    rank = {tup: b for b, tup in enumerate(combinations(range(c.n_w), x.q))}
    return [(rank[tup] * len(free) + slot[k], v) for tup, row in x.values.items() for k, v in row]


def cochain_from_coords(c: SpencerComplex, p: int, q: int, r: int,
                        coords: Iterable[tuple[int, Fraction]]) -> Cochain:
    """The cochain with the given (coordinate, value) pairs in the canonical
    basis of `cochain_to_coords`; zero values are allowed."""
    return _from_coords(Cochain, c, p, q, r, coords)


def _from_coords(make: Callable[..., Cochain], c: SpencerComplex, p: int, q: int, r: int,
                 coords: Iterable[tuple[int, Fraction]]) -> Cochain:
    """make(c, p, q, r, values) for the values of the given coordinates.  Sorted
    nonzero Fraction coordinates, such as `combine` and solve output, give
    canonical values, so their make is `Cochain._unchecked`: the pairs of a tuple
    come sorted and sit on free rows, where a value reduced modulo the
    annihilator is its own representative."""
    free = c.free_rows(p, r)
    tuples = list(combinations(range(c.n_w), q))
    vals: dict[tuple[int, ...], list[tuple[int, Fraction]]] = {}
    for k, x in coords:
        b, i = divmod(k, len(free))
        vals.setdefault(tuples[b], []).append((free[i], x))
    return make(c, p, q, r, vals)


def _signed_columns(c: SpencerComplex, p: int, r: int) -> list[tuple[list, list]]:
    """[e_frow, w_t] for every source free row frow of C^{p,q} at level r, reduced
    modulo the level-r annihilator of degree p-2 when p >= 2, as (target free row,
    value) pairs: (terms with sign -1, terms with sign +1) per t.  The operators of
    every q share them, so they are memoized per (p, r)."""
    key = ("signed", (p, r))
    if key not in c._memo:
        ad = c._ad[p - 1]
        # values of degree p-2 >= 0 are taken modulo the level-r annihilator; without
        # one every row of degree p-2 is free, and the columns are used as they are
        ann = c._annihilator_raw(p - 2, r) if p >= 2 and r else None
        free_pos = {k: t_f for t_f, k in enumerate(c.free_rows(p - 1, r))}
        signed = c._memo[key] = []
        for t in range(c.n_w):
            plus = [ad[t][frow] if ann is None else
                    [(free_pos[k], v) for k, v in ann.reduce(ad[t][frow])]
                    for frow in c.free_rows(p, r)]
            signed.append(([[(t_f, -v) for t_f, v in terms] for terms in plus], plus))
    return c._memo[key]


def _d_matrix_rows(c: SpencerComplex, p: int, q: int, r: int) -> list[list[tuple[int, Fraction]]]:
    """Sparse rows of the operator matrix from (p,q) to (p-1,q+1), canonical bases."""
    key = ("d", (p, q, r))
    if key in c._memo:
        return c._memo[key]
    src_free = c.free_rows(p, r)
    src_tuples = list(combinations(range(c.n_w), q))
    tgt_free = c.free_rows(p - 1, r) if p >= 1 else ()
    tgt_tuples = list(combinations(range(c.n_w), q + 1))
    n_src = len(src_free) * len(src_tuples)
    n_tgt = len(tgt_free) * len(tgt_tuples)
    # each (row, column) pair gets at most one term: the target tuple fixes t
    rows: list[list[tuple[int, Fraction]]] = [[] for _ in range(n_tgt)]
    if p >= 1 and n_src and n_tgt:
        signed = _signed_columns(c, p, r)
        tgt_rank = {tup: i for i, tup in enumerate(tgt_tuples)}
        for s_t, tup in enumerate(src_tuples):
            # (row offset of the target tuple, term lists of its sign) per t not in tup
            targets = []
            for t in range(c.n_w):
                if t in tup:
                    continue
                pos = 0
                while pos < q and tup[pos] < t:
                    pos += 1
                base = tgt_rank[tup[:pos] + (t,) + tup[pos:]] * len(tgt_free)
                targets.append((base, signed[t][pos % 2]))
            for s_f in range(len(src_free)):
                col_idx = s_t * len(src_free) + s_f
                for base, terms in targets:
                    for t_f, v in terms[s_f]:
                        rows[base + t_f].append((col_idx, v))
    c._memo[key] = rows
    return rows


def _rank(c: SpencerComplex, p: int, q: int, r: int) -> int:
    """Rank of the operator out of (p, q) at level r: dim C - dim Z there, dim B at (p-1, q+1)."""
    key = ("rank", (p, q, r))
    if key not in c._memo:
        c._memo[key] = rank_of_rows(_d_matrix_rows(c, p, q, r))
    return c._memo[key]


def _cocycles(c: SpencerComplex, p: int, q: int, r: int) -> Subspace:
    """The cocycle subspace of C^{p,q} at level r, in coordinates."""
    key = ("z", (p, q, r))
    z = c._memo.get(key)
    if z is None:
        dim_c = space_dimension(c, p, q, r)
        rows = _d_matrix_rows(c, p, q, r)
        z = c._memo[key] = kernel_of_rows(rows, dim_c) if rows else Subspace.full(dim_c)
    return z


def _coboundaries(c: SpencerComplex, p: int, q: int, r: int) -> Subspace:
    """The coboundary subspace of C^{p,q} at level r, in coordinates."""
    key = ("b", (p, q, r))
    b = c._memo.get(key)
    if b is None:
        dim_c = space_dimension(c, p, q, r)
        b = Subspace.zero(dim_c)
        if q:
            c._check_component_available(p)
            # B is spanned by the columns of d from (p+1, q-1), none listed when dim_c = 0
            up = _d_matrix_rows(c, p + 1, q - 1, r)
            b = Subspace.from_vectors(
                dim_c, transpose(up, space_dimension(c, p + 1, q - 1, r)) if up else [])
        c._memo[key] = b
    return b


class CohomologyEntry(NamedTuple):
    """Dimensions (and optional basis certificates) of one cohomology group."""

    p: int
    q: int
    level: int
    dim_space: int
    dim_z: int
    dim_b: int
    dim_h: int
    z_basis: Optional[list[Cochain]] = None
    b_basis: Optional[list[Cochain]] = None


def cohomology_dims(c: SpencerComplex, p: int, q: int, r: int,
                    certificates: bool = False) -> CohomologyEntry:
    """Dimensions of cocycles, coboundaries and cohomology in bidegree (p, q)."""
    if p < 0 or q < 0 or r < 0:
        raise InputError("p, q and level must be nonnegative")
    if p > c.algebra.height + 1:
        raise InputError("p exceeds the algebra's height plus one")
    c._check_component_available(p - 1)
    if q:  # B is the image of the operator out of degree p
        c._check_component_available(p)
    dim_c = space_dimension(c, p, q, r)
    dim_z, dim_b = dim_c - _rank(c, p, q, r), _rank(c, p + 1, q - 1, r) if q else 0
    if not certificates:
        return CohomologyEntry(p, q, r, dim_c, dim_z, dim_b, dim_z - dim_b)
    z, b = _cocycles(c, p, q, r), _coboundaries(c, p, q, r)
    return CohomologyEntry(p, q, r, dim_c, dim_z, dim_b, dim_z - dim_b,
                           [_from_coords(Cochain._unchecked, c, p, q, r, row) for row in z.rows],
                           [_from_coords(Cochain._unchecked, c, p, q, r, row) for row in b.rows])


def _require_cocycle(c: SpencerComplex, z: Cochain) -> ClearedRow:
    """z's `_coordinate_pairs` cleared of denominators, as `LinearMap.apply` takes
    them, if dz = 0, else PreconditionError.  A key's first check forms dz and
    builds no kernel.  Once the key's cocycle space is memoized, or at the key's
    second check, which builds it, membership of the cleared row in it decides
    (clearing keeps membership; integer input takes the integer path) and dz is
    formed only to name its nonzero components."""
    cleared = clear_denominators(_coordinate_pairs(z))
    key = (z.p, z.q, z.level)
    if not cleared[1]:
        return cleared
    if ("z", key) in c._memo or ("checked", key) in c._memo:
        if _cocycles(c, *key).coordinates(cleared[1].items()) is not None:
            return cleared
    else:
        c._memo[("checked", key)] = True
    dz = spencer_d(z)
    if dz.is_zero():
        return cleared
    parts = []
    for tup, row in sorted(dz.values.items()):
        comp_names = [c.algebra.names[c.algebra.component_indices(dz.p - 1)[k]]
                      for k, _ in row]
        parts.append(f"{tup}: {', '.join(comp_names)}")
    raise PreconditionError(
        "input is not a cocycle; nonzero components of its differential: "
        + "; ".join(parts))


def _preimage_map(c: SpencerComplex, p: int, q: int, r: int) -> LinearMap:
    """The map from B^{p,q} at level r to C^{p+1,q-1} sending each coboundary to
    its particular preimage (free variables zero), made on first use."""
    key = ("preimage", (p, q, r))
    if key not in c._memo:
        rows = _d_matrix_rows(c, p + 1, q - 1, r)
        n_src = space_dimension(c, p + 1, q - 1, r)
        c._memo[key] = LinearMap(lambda: _coboundaries(c, p, q, r),
                                 lambda targets: solve_particular(rows, n_src, targets))
    return c._memo[key]


def is_coboundary(c: SpencerComplex, z: Cochain) -> Optional[Cochain]:
    """A cochain y with dy = z, deterministic (free variables zero), or None.

    The input must be a cocycle; the preimage is absent exactly when the
    class of z is nonzero.
    """
    if z.frame is not c:
        raise InputError("cochain does not belong to this complex")
    cleared = _require_cocycle(c, z)
    if z.q == 0:
        return Cochain.zero(c, z.p + 1, 0, z.level) if z.is_zero() else None
    c._check_component_available(z.p)
    sol = _preimage_map(c, z.p, z.q, z.level).apply(cleared)
    if sol is None:
        return None
    return _from_coords(Cochain._unchecked, c, z.p + 1, z.q - 1, z.level, sol)


def class_representative(c: SpencerComplex, z: Cochain) -> Cochain:
    """Projection of a cocycle onto the fixed complement of B inside Z.

    Zero exactly when the cocycle is a coboundary; idempotent on its image.
    The class map's domain is Z, so once it exists it is its own cocycle check:
    it answers None exactly for a non-cocycle, which then raises as before.
    """
    if z.frame is not c:
        raise InputError("cochain does not belong to this complex")
    key = (z.p, z.q, z.level)
    split = c._memo.get(("class", key))
    if split is None:
        cleared = _require_cocycle(c, z)
        bs = _coboundaries(c, *key)
        if bs.dim == 0:
            return z
        zs = _cocycles(c, *key)
        split = c._memo[("class", key)] = split_map(zs, (bs, deterministic_complement(bs, zs)),
                                                    (1,))
    else:
        cleared = clear_denominators(_coordinate_pairs(z))
    part = split.apply(cleared)
    if part is None:
        _require_cocycle(c, z)  # raises: Z is memoized, and z is outside it
        raise InternalInvariantError("a cocycle lies outside the cocycle space")
    return _from_coords(Cochain._unchecked, c, z.p, z.q, z.level, part)


def g_sharp_act(c: SpencerComplex, x_elt: Sequence[Fraction], x: Cochain) -> Cochain:
    """Infinitesimal action of g-sharp on level-0 cochains.

    (X.c)(w_1..w_q) = [X, c(w_1..w_q)] - sum_i c(w_1, .., [X, w_i], .., w_q).
    """
    if x.level != 0:
        raise InputError("the action is defined at level 0 only")
    a = c.algebra
    if len(x_elt) != a.dim:
        raise InputError("element has wrong length")
    for i, coeff in enumerate(x_elt):
        if coeff and a.degrees[i] != 0:
            raise InputError("element must lie in the degree 0 component")
    comp0 = a.component_part(x_elt, 0)
    if not c.g_sharp().contains(comp0):
        raise InputError("element does not preserve W")
    x_cleared = clear_denominators(nonzero_pairs(comp0))
    # [X, w_j] expressed back in W coordinates
    act_w = []
    for j in range(c.n_w):
        coords = c.w.coordinates(combine(zip(c._ad[0][j], comp0)))
        if coords is None:
            raise InputError("element does not preserve W")
        act_w.append(coords)
    d = x.p - 1
    out = {}
    for tup in combinations(range(c.n_w), x.q):
        value = clear_denominators(x.values.get(tup, ()))
        terms = [(a.bracket_sum(((ONE, 0, x_cleared, d, value),), d), ONE)]
        for pos in range(x.q):
            for j, cj in act_w[tup[pos]]:
                # x at the tuple with w_j in place pos: zero on a repeat, else
                # the stored value at the sorted tuple times the permutation sign
                idxs = tup[:pos] + (j,) + tup[pos + 1:]
                if len(set(idxs)) == len(idxs):
                    key, sign = _parity_sort(idxs)
                    terms.append((x.values.get(key, ()), -cj if sign == 1 else cj))
        out[tup] = combine(terms)
    return Cochain(c, x.p, x.q, 0, out)


def random_integer_cochain(c: SpencerComplex, p: int, q: int, r: int, rng,
                           lo: int = -3, hi: int = 3) -> Cochain:
    """Seeded integer cochain in canonical coordinates (test utility)."""
    n = space_dimension(c, p, q, r)
    return cochain_from_coords(c, p, q, r, [(k, rng.randint(lo, hi)) for k in range(n)])


def random_cocycle(c: SpencerComplex, p: int, q: int, r: int, rng,
                   lo: int = -3, hi: int = 3) -> Cochain:
    """Seeded integer combination of the cocycle basis; InputError where the
    truncation makes `cohomology_dims` at (p, q, r) raise."""
    c._check_component_available(p if q else p - 1)
    z = _cocycles(c, p, q, r)
    coeffs = [rng.randint(lo, hi) for _ in range(z.dim)]
    return _from_coords(Cochain._unchecked, c, p, q, r, combine(zip(z.rows, coeffs)))


@lru_cache(maxsize=None)
def standard_complex(algebra: GradedLieAlgebra, w_dim: int) -> SpencerComplex:
    """Complex over W = the span of the first w_dim coordinates of V."""
    n_v = algebra.component_dim(-1)
    if not 1 <= w_dim <= n_v:
        raise InputError("W dimension out of range")
    return SpencerComplex(algebra, Subspace.from_vectors(n_v, [[(i, ONE)] for i in range(w_dim)]))
