from fractions import Fraction as F
from random import Random

import pytest

from gspencer import obstruction
from gspencer.errors import InputError, InternalInvariantError, PreconditionError
from gspencer.algebra import GradedLieAlgebra
from gspencer.models import (co_generators, conformal_algebra, cr_algebra, cr_w_complex,
                             space_form_algebra)
from gspencer.obstruction import (AdmissibleTuple, ConstantForm, ObstructionCertificate,
                                  UndecidedAtTruncation,
                                  admissibility_residuals, bianchi_check,
                                  canonical_omega_minus1, cochain_to_form, empty_tuple,
                                  form_to_cochain, level_decompose, solve_next,
                                  solve_to_top, strong_equiv_transport, total_curvature,
                                  zero_form)
from gspencer.spencer import (Cochain, SpencerComplex, WFrame, _split_by_chain,
                              class_representative, is_coboundary, random_cocycle, spencer_d,
                              standard_complex)
from gspencer.linalg import Subspace, combine, nonzero_pairs, solve_particular, transpose
from gspencer.prolong import build_graded_algebra

from conftest import rng_for, int_vector
from oracles import project_degree
from test_prolong import _conjugated, _random_block_conjugated


def quasi_frame(n_tilde, k0, w_dim):
    a = space_form_algebra(n_tilde, k0)
    return WFrame(a, Subspace.from_vectors(n_tilde, [[(i, F(1))] for i in range(w_dim)]))


def admissible_start(c, rng):
    """A random order-0 admissible form (a cocycle in bidegree (1,1))."""
    return cochain_to_form(random_cocycle(c, 1, 1, 0, rng))


def test_canonical_inclusion_full():
    c = standard_complex(conformal_algebra(3), 3)
    omm = canonical_omega_minus1(c)
    assert tuple(omm.column(j, 3) for j in range(omm.n_w)) == tuple(
        tuple(F(1) if i == j else F(0) for i in range(3)) for j in range(3))


def test_canonical_inclusion_proper():
    c = standard_complex(space_form_algebra(4, 0), 2)
    omm = canonical_omega_minus1(c)
    cols = [omm.column(j, 4) for j in range(omm.n_w)]
    assert cols == [(F(1), F(0), F(0), F(0)), (F(0), F(1), F(0), F(0))]
    # composing with the degree projection is the identity on the image
    a = c.algebra
    for col in cols:
        full = a.embed_component(-1, col)
        assert project_degree(a, full, -1) == full


def test_total_curvature_zero_tuple_graded():
    c = standard_complex(conformal_algebra(3), 2)
    t = AdmissibleTuple((zero_form(c, 0),))
    assert total_curvature(c, t, 1).is_zero()
    assert total_curvature(c, t, 0).is_zero()


def test_total_curvature_constant_curvature_term():
    # in the curved space form the order-1 curvature sees [e_i, e_j]
    fr = quasi_frame(3, 1, 2)
    t = AdmissibleTuple((zero_form(fr, 0),))
    om = total_curvature(fr, t, 1)
    val = om.value((0, 1))
    a = fr.algebra
    comp0 = a.component_indices(0)
    expected = [F(0)] * len(comp0)
    expected[comp0.index(a.index_of("A1_2"))] = F(-1)  # [e1,e2] = -A12 at k0 = 1
    assert val == tuple(expected)
    # order 0 total curvature vanishes: the bracket projects away from degree -1
    assert total_curvature(fr, empty_tuple(), 0).is_zero()


def test_total_curvature_matches_definition():
    # Omega^{p-1}(w_i, w_j), p = 0, 1, 2, is the degree-(p-1) part of
    # 1/2 sum_r ([om^r(w_i), om^{p-1-r}(w_j)] - [om^r(w_j), om^{p-1-r}(w_i)]) + [w_i, w_j]
    # (om^{-1} the inclusion of W), for random rational order-0 and order-1 forms
    # over a three-dimensional W with rational rows, evaluated with the dense bracket;
    # the curved space form is where [w_i, w_j] survives
    rng = rng_for("curvature-definition")
    conj = build_graded_algebra(_conjugated(co_generators(3)), 3).assembled
    w_rows = ([(0, F(3, 5)), (2, F(4, 5))], [(1, F(1))], [(0, F(-1, 3)), (2, F(2))])
    frames = [SpencerComplex(conformal_algebra(4), Subspace.from_vectors(4, w_rows)),
              SpencerComplex(conj, Subspace.from_vectors(3, w_rows)),
              WFrame(space_form_algebra(4, 1), Subspace.from_vectors(4, w_rows))]
    for frame in frames:
        a = frame.algebra
        w_full = [a.embed_component(-1, v) for v in frame.w.basis_vectors()]
        orders = range(min(a.height, 2) + 1)
        for _ in range(2):
            t = AdmissibleTuple(tuple(
                ConstantForm(deg, tuple([(k, F(rng.randint(-4, 4), rng.randint(1, 6)))
                                         for k in range(a.component_dim(deg))]
                                        for _ in range(frame.n_w)))
                for deg in orders[:-1]))

            def om(r, k):
                return w_full[k] if r == -1 else \
                    a.embed_component(r, t.forms[r].column(k, a.component_dim(r)))

            for p in orders:
                got = total_curvature(frame, t, p)
                for i in range(frame.n_w):
                    for j in range(i + 1, frame.n_w):
                        full = a.bracket(w_full[i], w_full[j])
                        for r in range(p):
                            full = [s + (u - v) / 2 for s, u, v in
                                    zip(full, a.bracket(om(r, i), om(p - 1 - r, j)),
                                        a.bracket(om(r, j), om(p - 1 - r, i)))]
                        assert got.value((i, j)) == a.component_part(full, p - 1), \
                            (a.name, p, i, j)
                assert p == 0 or not got.is_zero(), (a.name, p)


def test_admissibility_definition():
    # for any omega0 solving the order-0 equation, the residual is exactly zero
    rng = rng_for("adm")
    c = standard_complex(conformal_algebra(3), 2)
    om0 = admissible_start(c, rng)
    res = admissibility_residuals(c, AdmissibleTuple((om0,)))
    assert res[0].is_zero()


def test_bianchi_zero_tuple():
    c = standard_complex(conformal_algebra(3), 2)
    assert bianchi_check(c, AdmissibleTuple((zero_form(c, 0),)), 1) == []


def test_bianchi_on_iterated_solutions():
    rng = rng_for("bianchi")
    for n_t, w_dim in ((3, 2), (3, 3), (4, 3)):
        c = standard_complex(conformal_algebra(n_t), w_dim)
        for _ in range(8):
            om0 = admissible_start(c, rng)
            t = AdmissibleTuple((om0,))
            assert bianchi_check(c, t, 1) == []
            out = solve_next(c, t, 1)
            if isinstance(out, ConstantForm):
                t2 = t.extended(out)
                assert bianchi_check(c, t2, 2) == []


def test_bianchi_rejects_non_admissible():
    rng = rng_for("badadm")
    c = standard_complex(conformal_algebra(3), 3)
    a = c.algebra
    for _ in range(20):
        cols = tuple(int_vector(rng, a.component_dim(0)) for _ in range(3))
        om0 = ConstantForm(0, tuple(nonzero_pairs(col) for col in cols))
        t = AdmissibleTuple((om0,))
        if not admissibility_residuals(c, t)[0].is_zero():
            with pytest.raises(PreconditionError):
                bianchi_check(c, t, 1)
            return
    raise AssertionError("no inadmissible form found")


def test_solve_flat_zero_data_to_top():
    for n in (3, 4):
        c = standard_complex(conformal_algebra(n), n)
        t, cert = solve_to_top(c)
        assert cert is None
        assert t.order == c.algebra.height
        assert total_curvature(c, t, c.algebra.height).is_zero()


def test_iterated_solve_unobstructed_model():
    # with the relevant cohomology trivial (the CR model through its validity
    # range), every admissible start extends order by order without obstruction
    from gspencer.models import cr_algebra, cr_w_complex
    rng = rng_for("cr-solve")
    alg, data = cr_algebra(2, 1, 2)
    c = cr_w_complex(alg, data)
    for _ in range(10):
        t = AdmissibleTuple((cochain_to_form(random_cocycle(c, 1, 1, 0, rng)),))
        for p in (1, 2):
            out = solve_next(c, t, p)
            assert isinstance(out, ConstantForm)
            t = t.extended(out)
        assert all(r.is_zero() for r in admissibility_residuals(c, t))


def test_solve_next_roundtrip_on_coboundaries():
    rng = rng_for("solve-round")
    c = standard_complex(conformal_algebra(3), 2)
    for _ in range(10):
        om0 = admissible_start(c, rng)
        t = AdmissibleTuple((om0,))
        out = solve_next(c, t, 1)
        assert isinstance(out, ConstantForm)
        t2 = t.extended(out)
        assert all(r.is_zero() for r in admissibility_residuals(c, t2))


def _obstructed_start(rng):
    """An admissible omega0 whose order-1 curvature has nonzero class.

    Uses the conformal 5-model over a 4-dimensional W, where the relevant
    group contains the nonzero classes of the 4-dimensional conformal algebra
    and random admissible starts hit them.
    """
    c = standard_complex(conformal_algebra(5), 4)
    for _ in range(60):
        om0 = admissible_start(c, rng)
        t = AdmissibleTuple((om0,))
        omega = total_curvature(c, t, 1)
        rep = class_representative(c, omega)
        if not rep.is_zero():
            return c, t
    raise AssertionError("no obstructed start found")


def test_solve_next_obstruction_certificate():
    rng = rng_for("obstructed")
    c, t = _obstructed_start(rng)
    out = solve_next(c, t, 1)
    assert isinstance(out, ObstructionCertificate)
    assert out.order == 1
    assert not out.class_rep.is_zero()


def test_solver_agrees_with_class_reduction():
    # success of the linear solve iff the reduced class vanishes
    rng = rng_for("agree")
    from gspencer.spencer import is_coboundary
    c = standard_complex(conformal_algebra(4), 4)
    seen_zero = seen_nonzero = 0
    for _ in range(25):
        z = random_cocycle(c, 1, 2, 0, rng)
        y = is_coboundary(c, z)
        rep = class_representative(c, z)
        assert (y is not None) == rep.is_zero()
        if y is None:
            seen_nonzero += 1
        else:
            seen_zero += 1
            assert spencer_d(y) == z
    assert seen_nonzero > 0  # H^{1,2} of the full 4-model is nonzero


def test_level_decompose_trivial_level():
    rng = rng_for("level0")
    c = standard_complex(space_form_algebra(4, 0), 2)
    x = random_cocycle(c, 1, 2, 0, rng)
    dec = level_decompose(c, x, 0)
    assert dec.tails == ()
    assert dec.reassemble() == x


def test_level_decompose_space_form_split():
    # hat piece = so(W) + (W-perp x W*) values, tail = so(W-perp) values
    rng = rng_for("level1")
    n_t, n = 4, 2
    c = standard_complex(space_form_algebra(n_t, 0), n)
    a = c.algebra
    comp0 = a.component_indices(0)
    perp_positions = {comp0.index(a.index_of(f"A{i + 1}_{j + 1}"))
                      for i in range(n, n_t) for j in range(i + 1, n_t)}
    for _ in range(6):
        x = random_cocycle(c, 1, 2, 0, rng)
        dec = level_decompose(c, x, 1)
        assert len(dec.tails) == 1
        for tup, v in dec.tails[0].values.items():
            assert all(pos in perp_positions for pos, _ in v)
        assert dec.reassemble() == x
    # conformal(4), W = 3, p = 2: two tails at r = 2
    c = standard_complex(conformal_algebra(4), 3)
    for r in (1, 2):
        for _ in range(3):
            x = random_cocycle(c, 2, 2, 0, rng)
            dec = level_decompose(c, x, r)
            assert len(dec.tails) == r
            assert dec.reassemble() == x


def test_level_split_map_matches_fresh_split():
    # _split_by_chain answers from one split map per degree; on rational values it
    # must agree with a transposed split of the complement chain per query, with
    # the degrees interleaved and each degree queried again once its map is warm
    rng = rng_for("chain-split")
    for a, w in ((conformal_algebra(4), 3), (space_form_algebra(5, 0), 2),
                 (build_graded_algebra(_conjugated(co_generators(3)), 3).assembled, 2)):
        c = SpencerComplex(a, Subspace.from_vectors(a.component_dim(-1),
                                                    [[(i, F(1))] for i in range(w)]))
        for _ in range(3):
            for d in range(c.top_degree() + 1):
                n = a.component_dim(d)
                chain = c.complement_chain(d)
                v = [(k, F(rng.randint(-3, 3), rng.choice((2, 3, 5)))) for k in range(n)]
                rows = [row for part in chain for row in part.rows]
                (sol,) = solve_particular(transpose(rows, n), len(rows), [v])
                expected, start = [], 0
                for part in chain:
                    expected.append(combine((rows[j], x) for j, x in sol
                                            if start <= j < start + part.dim))
                    start += part.dim
                assert _split_by_chain(c, d, v) == expected, (a.name, d)
        assert {k for kind, k in c._memo if kind == "split"} == set(range(c.top_degree() + 1))


def test_level_decompose_range_check():
    c = standard_complex(space_form_algebra(4, 0), 2)
    x = Cochain.zero(c, 1, 2, 0)
    with pytest.raises(InputError):
        level_decompose(c, x, 2)


def test_strong_equiv_identity_zero_varpi():
    rng = rng_for("se0")
    c = standard_complex(conformal_algebra(3), 2)
    om0 = admissible_start(c, rng)
    zero_varpi = tuple(F(0) for _ in range(c.algebra.component_dim(1)))
    om0p, eps1 = strong_equiv_transport(c, om0, zero_varpi)
    assert om0p.columns == om0.columns
    assert eps1.is_zero()


def test_strong_equiv_random_identity_and_prop42():
    rng = rng_for("se")
    c = standard_complex(conformal_algebra(3), 3)
    a = c.algebra
    for _ in range(10):
        om0 = admissible_start(c, rng)
        varpi = int_vector(rng, a.component_dim(1))
        om0p, eps1 = strong_equiv_transport(c, om0, varpi)  # identity checked inside
        out = solve_next(c, AdmissibleTuple((om0,)), 1)
        assert isinstance(out, ConstantForm)
        om1 = out
        t_new = AdmissibleTuple((om0p, om1 + eps1))
        assert all(r.is_zero() for r in admissibility_residuals(c, t_new))
        o1_old = total_curvature(c, AdmissibleTuple((om0, om1)), 2)
        o1_new = total_curvature(c, t_new, 2)
        assert o1_old == o1_new


def test_strong_equiv_height_check():
    c = standard_complex(space_form_algebra(3, 0), 2)
    with pytest.raises(InputError):
        strong_equiv_transport(c, zero_form(c, 0), ())


def test_form_cochain_conversions():
    rng = rng_for("conv")
    c = standard_complex(conformal_algebra(3), 2)
    f = ConstantForm(1, tuple(nonzero_pairs(int_vector(rng, c.algebra.component_dim(1)))
                              for _ in range(2)))
    assert cochain_to_form(form_to_cochain(c, f)).columns == f.columns


def test_form_to_cochain_rejects_bad_forms():
    # the form is checked once, for its degree, its width and its coordinates
    c = standard_complex(conformal_algebra(3), 2)
    n1 = c.algebra.component_dim(1)
    with pytest.raises(InputError, match="nonnegative"):
        form_to_cochain(c, ConstantForm(-2, ((), ())))
    for cols in (((),), ((), (), ())):
        with pytest.raises(InputError, match="does not match the frame's W"):
            form_to_cochain(c, ConstantForm(1, cols))
    for k in (-1, n1):
        with pytest.raises(InputError, match="outside the component"):
            form_to_cochain(c, ConstantForm(1, (((k, F(1)),), ())))
    x = form_to_cochain(c, ConstantForm(1, (((0, F(1, 2)),), ())))
    assert x == Cochain(c, 2, 1, 0, {(0,): [(0, F(1, 2))]})


def _retruncated(a, d):
    return GradedLieAlgebra(a.name, a.names, a.degrees, a.height, a.constants(),
                            truncated_at=d)


def test_solve_to_top_undecided_at_the_truncation():
    # on the CR algebras truncated one degree below their height k, solve_to_top
    # solves every order below k from an order-0 cocycle start; the class test of
    # the nonzero top curvature needs B in bidegree (k, 2), past the truncation,
    # so the solved tuple comes back with UndecidedAtTruncation(k), where the
    # class test called directly raises.  A zero top curvature (flat data) is
    # decided, and a truncation below the top stops the loop at its first order
    # past it, where solve_next raises
    for args in ((2, 1, 2), (2, 1, 3)):
        alg, data = cr_algebra(*args)
        c = cr_w_complex(alg, data)
        k = alg.height
        assert alg.truncated_at == k - 1
        for s in range(3):
            start = AdmissibleTuple((cochain_to_form(random_cocycle(c, 1, 1, 0, Random(s))),))
            t, out = solve_to_top(c, start)
            assert type(out) is UndecidedAtTruncation and out.order == k, (args, s)
            assert t.order == k and t.forms[0] == start.forms[0]
            assert all(res.is_zero() for res in admissibility_residuals(c, t))
            omega = total_curvature(c, t, k)
            assert not omega.is_zero()
            for query in (is_coboundary, class_representative):
                with pytest.raises(InputError, match="beyond the truncation"):
                    query(c, omega)
        t, out = solve_to_top(c)
        assert out is None and t.order == k
    alg, data = cr_algebra(2, 1, 3)
    c = SpencerComplex(_retruncated(alg, 2), cr_w_complex(alg, data).w)
    start = AdmissibleTuple((cochain_to_form(random_cocycle(c, 1, 1, 0, Random(0))),))
    t, out = solve_to_top(c, start)
    assert type(out) is UndecidedAtTruncation and out.order == 3 and t.order == 3
    with pytest.raises(InputError, match="beyond the truncation"):
        solve_next(c, t, 3)


def test_solve_to_top_sound_on_conjugated_complex():
    # the conjugated co_3 prolongations (fixed and seeded random conjugator) have
    # real denominators; each solved tuple must re-verify and each obstruction
    # must carry a nonzero class
    for h0 in (_conjugated(co_generators(3)), _random_block_conjugated(co_generators(3), "co3")):
        conj = build_graded_algebra(h0, 3).assembled
        rng = rng_for("conjugated-solve")
        outcomes = set()
        for w in (1, 2, 3):
            c = standard_complex(conj, w)
            for _ in range(4):
                t, cert = solve_to_top(c, AdmissibleTuple((admissible_start(c, rng),)))
                if cert is None:
                    assert all(res.is_zero() for res in admissibility_residuals(c, t))
                else:
                    assert not cert.class_rep.is_zero()
                outcomes.add(cert is None)
        assert outcomes == {True, False}


def _solvable_order1_start(c, rng):
    """An admissible order-0 tuple whose order-1 equation is solvable."""
    for _ in range(20):
        t = AdmissibleTuple((admissible_start(c, rng),))
        if isinstance(solve_next(c, t, 1), ConstantForm):
            return t
    raise AssertionError("no solvable start found")


def test_solve_next_forms_each_curvature_once(monkeypatch):
    # re-verifying the solved form reuses the order-1 curvature: only the
    # admissibility check's order 0 and the order-1 curvature are formed
    c = standard_complex(conformal_algebra(4), 3)
    t = _solvable_order1_start(c, rng_for("solve-next-orders"))
    orders = []
    real = obstruction.total_curvature

    def recording(frame, tup, p):
        orders.append(p)
        return real(frame, tup, p)

    monkeypatch.setattr(obstruction, "total_curvature", recording)
    assert isinstance(solve_next(c, t, 1), ConstantForm)
    assert orders == [0, 1]


def test_solve_to_top_forms_each_curvature_once(monkeypatch):
    # from the empty tuple on a height-k complex: one curvature per order 0..k,
    # k + 1 in all; the tuple solve_to_top extends itself is not checked again
    for c in (standard_complex(conformal_algebra(3), 2), standard_complex(conformal_algebra(4), 3)):
        assert c.algebra.height == 2
        orders = []
        real = obstruction.total_curvature

        def recording(frame, tup, p):
            orders.append(p)
            return real(frame, tup, p)

        monkeypatch.setattr(obstruction, "total_curvature", recording)
        t, cert = solve_to_top(c)
        monkeypatch.undo()
        assert cert is None and t.order == 2
        assert orders == [0, 1, 2]


def test_solve_to_top_checks_a_supplied_tuple(monkeypatch):
    # a supplied tuple is checked once, before any order is solved
    c = standard_complex(conformal_algebra(4), 3)
    bad = AdmissibleTuple((ConstantForm(0, (((0, F(1)),),) * c.n_w),))
    assert not admissibility_residuals(c, bad)[0].is_zero()
    with pytest.raises(PreconditionError, match="not admissible"):
        solve_to_top(c, bad)


def test_solve_next_reverification_rejects_a_wrong_form(monkeypatch):
    c = standard_complex(conformal_algebra(4), 3)
    t = _solvable_order1_start(c, rng_for("solve-next-perturbed"))
    real = obstruction.cochain_to_form

    def perturbed(y):
        f = real(y)
        return f + ConstantForm(f.degree, (((0, F(1)),),) * f.n_w)

    monkeypatch.setattr(obstruction, "cochain_to_form", perturbed)
    with pytest.raises(InternalInvariantError, match="solved form fails re-verification"):
        solve_next(c, t, 1)


def test_form_coordinates_checked_against_the_component():
    c = standard_complex(conformal_algebra(3), 2)
    n = c.algebra.component_dim(0)
    for bad in (-1, n):
        f = ConstantForm(0, (((bad, F(1)),), ()))
        with pytest.raises(InputError):
            total_curvature(c, AdmissibleTuple((f,)), 1)
    ok = ConstantForm(0, (((n - 1, F(1)),), ((0, 2), (0, -2))))
    assert ok.columns == (((n - 1, F(1)),), ())
    total_curvature(c, AdmissibleTuple((ok,)), 1)
