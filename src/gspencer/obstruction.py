"""The iterative order-by-order solver on constant-coefficient data.

All exterior derivatives vanish in this model, so the immersion system
becomes a chain of exact algebraic identities: at each order the total
curvature must be the differential of the next form, and the solvable case
extends the admissible tuple.  Cohomology classes of the total curvature are
the only obstructions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Optional, Sequence, Union

from .errors import InputError, InternalInvariantError, PreconditionError
from .linalg import ONE, clear_denominators, combine, dense
from .spencer import (Cochain, SpencerComplex, WFrame, _split_by_chain, alternating_bracket_sum,
                      canonical_pairs, check_coordinates, class_representative, is_coboundary,
                      spencer_d)

HALF = Fraction(1, 2)


class _ConstantFormFields(NamedTuple):
    degree: int
    columns: tuple[tuple[tuple[int, Fraction], ...], ...]


class ConstantForm(_ConstantFormFields):
    """A constant 1-form on W with values in one degree component.

    ``columns`` holds the value at each W basis vector, in component
    coordinates of the stated degree, as its sorted nonzero (coordinate,
    Fraction) pairs; the constructor takes pairs in any order.
    """

    __slots__ = ()

    def __new__(cls, degree: int, columns: Sequence[Sequence[tuple[int, Fraction]]]):
        return tuple.__new__(cls, (degree, tuple(canonical_pairs(col) for col in columns)))

    def column(self, j: int, n: int) -> tuple[Fraction, ...]:
        """The value at w_j as a dense vector of the n-dimensional component."""
        return dense(self.columns[j], n)

    @property
    def n_w(self) -> int:
        return len(self.columns)

    def is_zero(self) -> bool:
        return not any(self.columns)

    def __add__(self, other: "ConstantForm") -> "ConstantForm":
        if self.degree != other.degree or self.n_w != other.n_w:
            raise InputError("forms are incompatible")
        # the constructor sums the pairs of a coordinate
        return ConstantForm(self.degree, tuple(a + b for a, b in zip(self.columns, other.columns)))


def zero_form(frame: WFrame, degree: int) -> ConstantForm:
    return ConstantForm(degree, ((),) * frame.n_w)


def canonical_omega_minus1(frame: WFrame) -> ConstantForm:
    """The inclusion of W into V as a constant degree-(-1) form."""
    return ConstantForm(-1, frame.w.rows)


class _AdmissibleTupleFields(NamedTuple):
    forms: tuple[ConstantForm, ...]


class AdmissibleTuple(_AdmissibleTupleFields):
    """Ordered forms of degrees 0..len-1; the degree-(-1) form is implicit."""

    __slots__ = ()

    def __new__(cls, forms: tuple[ConstantForm, ...]):
        for d, f in enumerate(forms):
            if f.degree != d:
                raise InputError(f"form at position {d} has degree {f.degree}")
        return tuple.__new__(cls, (forms,))

    @property
    def order(self) -> int:
        return len(self.forms)

    def extended(self, f: ConstantForm) -> "AdmissibleTuple":
        return AdmissibleTuple(self.forms + (f,))


def empty_tuple() -> AdmissibleTuple:
    return AdmissibleTuple(())


def _check_form(frame: WFrame, f: ConstantForm) -> None:
    if f.n_w != frame.n_w:
        raise InputError("form does not match the frame's W")
    nd = frame.algebra.component_dim(f.degree)
    for col in f.columns:
        check_coordinates(col, nd)


def total_curvature(frame: WFrame, t: AdmissibleTuple, p: int) -> Cochain:
    """Total curvature of order p+1: the degree-(p-1) valued 2-form.

    On (w_i, w_j) it is the degree-(p-1) part of [w_i, w_j] (the bracket of the
    implicit inclusion with itself, nonzero only for quasi-graded algebras) plus
    the sum over r < p of [omega^r(w_i), omega^{p-1-r}(w_j)]: by antisymmetry
    that equals the definition's sum of half brackets over both orientations.
    """
    if p < 0:
        raise InputError("order must be nonnegative")
    if t.order < p:
        raise InputError(f"tuple has no form of degree {p - 1}")
    for f in t.forms:
        _check_form(frame, f)
    a = frame.algebra
    # omega^{-1}(w_j) = w_j and omega^r(w_j), r = 0..p-1, each cleared of denominators once
    w = [clear_denominators(row) for row in frame.w.rows]
    omega = [[clear_denominators(col) for col in f.columns] for f in t.forms[:p]]
    vals = {}
    for i, j in combinations(range(frame.n_w), 2):
        terms = [(ONE, r, omega[r][i], p - 1 - r, omega[p - 1 - r][j]) for r in range(p)]
        terms.append((ONE, -1, w[i], -1, w[j]))
        vals[(i, j)] = a.bracket_sum(terms, p - 1)
    # the sums are sorted nonzero pairs of the degree-(p-1) component: canonical at level 0
    return Cochain._unchecked(frame, p, 2, 0, vals)


def _d_of_form(frame: WFrame, f: ConstantForm) -> Cochain:
    """The 2-form (w_a, w_b) -> [w_a, f(w_b)] - [w_b, f(w_a)], degree shifted down:
    the generalized Spencer differential of f read as a (degree+1, 1)-cochain."""
    return alternating_bracket_sum(form_to_cochain(frame, f))


def admissibility_residuals(frame: WFrame, t: AdmissibleTuple) -> list[Cochain]:
    """Residual of the order-s equation for each s < order: Omega^{s-1} + d omega^s."""
    out = []
    for s in range(t.order):
        omega = total_curvature(frame, t, s)
        out.append(omega + _d_of_form(frame, t.forms[s]))
    return out


def check_admissible(frame: WFrame, t: AdmissibleTuple, p: int) -> None:
    if t.order < p:
        raise PreconditionError(f"tuple provides forms only up to order {t.order - 1}, "
                                f"need order {p - 1}")
    residuals = admissibility_residuals(frame, t)
    for s in range(p):
        if not residuals[s].is_zero():
            raise PreconditionError(f"tuple is not admissible: equation of order {s} "
                                    f"has nonzero residual")


def form_to_cochain(frame: WFrame, f: ConstantForm) -> Cochain:
    if f.degree < -1:
        raise InputError("p, q and level must be nonnegative")
    _check_form(frame, f)
    # the constructor made the columns canonical: sorted nonzero Fraction pairs
    return Cochain._unchecked(frame, f.degree + 1, 1, 0,
                              {(j,): col for j, col in enumerate(f.columns)})


def cochain_to_form(x: Cochain) -> ConstantForm:
    if x.q != 1 or x.level != 0:
        raise InputError("expected a level-0 1-cochain")
    return ConstantForm(x.p - 1, tuple(x.values.get((j,), ()) for j in range(x.frame.n_w)))


class BianchiViolation(NamedTuple):
    tuple_indices: tuple[int, ...]
    component: tuple[Fraction, ...]


def bianchi_check(c: SpencerComplex, t: AdmissibleTuple, p: int) -> list[BianchiViolation]:
    """Differential of the total curvature of an admissible tuple; empty = pass."""
    check_admissible(c, t, p)
    omega = total_curvature(c, t, p)
    if omega.p == 0:
        return []
    d_omega = spencer_d(omega)
    return [BianchiViolation(tup, d_omega.value(tup)) for tup in sorted(d_omega.values)]


class ObstructionCertificate(NamedTuple):
    """A nonzero essential curvature class blocking the next order."""

    order: int
    class_rep: Cochain


class UndecidedAtTruncation(NamedTuple):
    """The class test at this order needs a component beyond the algebra's
    truncation, so whether the tuple extends is not decided."""

    order: int


def solve_next(c: SpencerComplex, t: AdmissibleTuple, p: int, _checked: bool = False
               ) -> Union[ConstantForm, ObstructionCertificate]:
    """Solve the order-p equation for the next form, or certify the obstruction.

    On success the returned form extends the tuple admissibly (re-verified
    exactly); on failure the nonzero class representative of the total
    curvature is returned.  The tuple is checked first, unless `solve_to_top`
    passes _checked for a tuple whose forms it re-verified as it solved them.
    """
    if not 0 <= p <= c.algebra.height - 1:
        raise InputError(f"order {p} has no form degree in this algebra")
    if not _checked:
        check_admissible(c, t, p)
    omega = total_curvature(c, t, p)
    # the preimage map is linear (free variables zero): the preimage of -omega is -y
    y = is_coboundary(c, omega)
    if y is None:
        rep = class_representative(c, omega)
        if rep.is_zero():
            raise InternalInvariantError("solver and class reduction disagree")
        return ObstructionCertificate(p, rep)
    form = cochain_to_form(-y)
    # the order-p residual of the extended tuple, omega + d form: the forms below p are unchanged
    if _d_of_form(c, form) != -omega:
        raise InternalInvariantError("solved form fails re-verification")
    return form


def solve_to_top(c: SpencerComplex, t: AdmissibleTuple | None = None
                 ) -> tuple[AdmissibleTuple,
                            Optional[Union[ObstructionCertificate, UndecidedAtTruncation]]]:
    """Iterate solve_next to the top order, then test the final curvature.

    Returns the extended tuple and None when every order was solvable and the
    top total curvature vanishes; otherwise the certificate for the first
    obstructed order, or `UndecidedAtTruncation` for the first order whose
    class test needs a component beyond a truncated algebra's truncation
    order (where `solve_next` and `class_representative` raise `InputError`).
    """
    if t is None:
        t = empty_tuple()
    k, start = c.algebra.height, t.order
    # the class test of order p needs the degree-p component, untrusted past a truncation
    last = k if c.algebra.truncated_at is None else c.algebra.truncated_at
    if start < k:  # the supplied tuple is checked once, as solve_next would at its order
        check_admissible(c, t, start)
    for p in range(start, k):
        if p > last:
            return t, UndecidedAtTruncation(p)
        out = solve_next(c, t, p, _checked=True)
        if isinstance(out, ObstructionCertificate):
            return t, out
        t = t.extended(out)
    omega_top = total_curvature(c, t, k)
    if omega_top.is_zero():
        return t, None
    if k > last:
        return t, UndecidedAtTruncation(k)
    return t, ObstructionCertificate(k, class_representative(c, omega_top))


# ---------------------------------------------------------------------------
# level decomposition
# ---------------------------------------------------------------------------

class CurvatureDecomposition(NamedTuple):
    """Split of a total curvature into its level-r piece and lower tails.

    ``hat`` is the level-r coset cochain; ``tails`` hold the projections onto
    the fixed complements of the filtration steps below r.  Reassembly uses
    the identification of the coset with the sum of the upper complements.
    """

    complex: SpencerComplex
    level: int
    p: int
    hat: Cochain
    tails: tuple[Cochain, ...]

    def identified_hat_value(self, tup: tuple[int, ...]) -> list[tuple[int, Fraction]]:
        """The hat value at tup as the sum of its parts in the complements
        c_s^perp, s >= level, as sorted (coordinate, value) pairs."""
        v = self.hat.values.get(tuple(tup), ())
        if self.p < 1 or self.level == 0:
            return list(v)
        parts = _split_by_chain(self.complex, self.p - 1, v)
        return combine((part, ONE) for part in parts[self.level:])

    def reassemble(self) -> Cochain:
        # the constructor sums the pairs of a coordinate
        vals = {tup: [*self.identified_hat_value(tup),
                      *(pair for tail in self.tails for pair in tail.values.get(tup, ()))]
                for tup in combinations(range(self.complex.n_w), 2)}
        return Cochain(self.complex, self.p, 2, 0, vals)


def level_decompose(c: SpencerComplex, omega: Cochain, r: int) -> CurvatureDecomposition:
    """Split a level-0 total curvature at level r per the fixed complements."""
    if omega.level != 0 or omega.q != 2:
        raise InputError("expected a level-0 curvature 2-cochain")
    if not 0 <= r <= omega.p:
        raise InputError(f"level {r} out of range 0..{omega.p}")
    d = omega.p - 1
    hat = omega.project_to_level(r)
    tails = []
    if r > 0 and d >= 0:
        split = {tup: _split_by_chain(c, d, v) for tup, v in omega.values.items()}
        for s in range(r):
            tails.append(Cochain(c, omega.p, 2, 0, {tup: parts[s] for tup, parts in split.items()}))
    return CurvatureDecomposition(complex=c, level=r, p=omega.p, hat=hat,
                                  tails=tuple(tails))


# ---------------------------------------------------------------------------
# strong equivalence (height-2 algebras)
# ---------------------------------------------------------------------------

def strong_equiv_transport(c: SpencerComplex, omega0: ConstantForm,
                           varpi1: Sequence[Fraction]) -> tuple[ConstantForm, ConstantForm]:
    """Gauge transport of an admissible order-0 form by a constant top form.

    Returns the transported form and the induced top-degree correction.  The
    exact curvature identity is re-verified before returning.
    """
    a = c.algebra
    if a.height != 2:
        raise InputError("strong equivalence transport requires a height-2 algebra")
    _check_form(c, omega0)
    if len(varpi1) != a.component_dim(1):
        raise InputError("expected a degree-1 component vector")
    if not admissibility_residuals(c, AdmissibleTuple((omega0,)))[0].is_zero():
        raise PreconditionError("omega0 is not admissible at order 0")
    varpi = clear_denominators([(k, Fraction(x)) for k, x in enumerate(varpi1) if x])
    new_cols = []
    eps_cols = []
    for w_row, om in zip(c.w.rows, omega0.columns):
        shift = a.bracket_sum(((ONE, -1, clear_denominators(w_row), 1, varpi),), 0)
        new_cols.append(combine(((om, ONE), (shift, ONE))))
        eps_cols.append(a.bracket_sum(((ONE, 0, clear_denominators(om), 1, varpi),
                                       (HALF, 0, clear_denominators(shift), 1, varpi)), 1))
    omega0_new = ConstantForm(0, tuple(new_cols))
    eps1 = ConstantForm(1, tuple(eps_cols))
    # exact identity: Omega'^0 = Omega^0 - [omega^{-1}, eps^1]
    lhs = total_curvature(c, AdmissibleTuple((omega0_new,)), 1)
    rhs = total_curvature(c, AdmissibleTuple((omega0,)), 1) - _d_of_form(c, eps1)
    if lhs != rhs:
        raise InternalInvariantError("strong equivalence curvature identity failed")
    return omega0_new, eps1
