from fractions import Fraction as F
from itertools import combinations
from math import comb

import pytest

from gspencer.algebra import adjoint_columns, annihilated_rows, deterministic_rows_annihilating
from gspencer import linalg, spencer
from gspencer.errors import InputError, PreconditionError
from gspencer.linalg import (Subspace, clear_denominators, combine, dense,
                             deterministic_complement, kernel_of_rows, nonzero_pairs,
                             solve_particular, transpose)
from gspencer.models import (co_generators, conformal_algebra, cr_algebra, cr_w_complex,
                             space_form_algebra)
from gspencer.obstruction import (AdmissibleTuple, ConstantForm, _d_of_form, cochain_to_form,
                                  solve_to_top, strong_equiv_transport, total_curvature)
from gspencer.prolong import build_graded_algebra
from gspencer.spencer import (Cochain, SpencerComplex, WFrame, _coboundaries, _cocycles,
                              _d_matrix_rows, class_representative, cochain_from_coords,
                              cochain_to_coords, cohomology_dims, g_sharp_act, is_coboundary,
                              random_cocycle, random_integer_cochain, space_dimension, spencer_d,
                              standard_complex)

from conftest import rng_for
from oracles import alternating_sum, contains_subspace
from test_prolong import _conjugated

# W = span((3/5)e1 + (4/5)e3, e2): not a coordinate subspace, and its first
# echelon row, e1 + (4/3)e3, has a denominator and two terms
TWO_TERM_W = ([(0, F(3, 5)), (2, F(4, 5))], [(1, F(1))])


def two_term_w(n_v, dim=2):
    return Subspace.from_vectors(n_v, TWO_TERM_W[:dim])


def test_rejects_quasi_graded():
    with pytest.raises(InputError):
        standard_complex(space_form_algebra(3, 1), 2)


def test_annihilator_level_zero_and_top():
    c = standard_complex(space_form_algebra(4, 0), 2)
    assert c.annihilator(0, 0).dim == 0
    assert c.annihilator(0, 2).dim == c.algebra.component_dim(0)
    assert c.annihilator(0, 99).dim == c.algebra.component_dim(0)


def test_annihilator_space_form_centralizer():
    # c_1^0 = so(W-perp) for the flat space form
    n_t, n = 5, 3
    c = standard_complex(space_form_algebra(n_t, 0), n)
    ann = c.annihilator(0, 1)
    a = c.algebra
    comp0 = a.component_indices(0)
    expected = []
    for i in range(n, n_t):
        for j in range(i + 1, n_t):
            pos = comp0.index(a.index_of(f"A{i + 1}_{j + 1}"))
            expected.append([(pos, F(1))])
    assert ann == Subspace.from_vectors(len(comp0), expected)
    assert ann.dim == (n_t - n) * (n_t - n - 1) // 2


def test_annihilator_filtration_monotone():
    c = standard_complex(conformal_algebra(4), 2)
    for d in (0, 1):
        prev = c.annihilator(d, 0)
        for r in range(1, d + 3):
            cur = c.annihilator(d, r)
            assert contains_subspace(cur, prev)
            prev = cur
        assert prev.dim == c.algebra.component_dim(d)


def test_annihilator_adjoint_inclusion():
    # bracketing with W drops the filtration level by exactly one step
    c = standard_complex(conformal_algebra(4), 2)
    a = c.algebra
    for d in (0, 1):
        for r in range(1, d + 3):
            ann = c.annihilator(d, r)
            for v in ann.basis_vectors():
                full = a.embed_component(d, v)
                for wf in (a.embed_component(-1, w) for w in c.w.basis_vectors()):
                    br = a.component_part(a.bracket(full, wf), d - 1)
                    if d - 1 >= 0:
                        assert c.annihilator(d - 1, r - 1).contains(br)
                    elif r - 1 == 0:
                        assert all(x == 0 for x in br)  # c_0 in degree -1 is zero


def test_annihilator_bad_degree():
    c = standard_complex(conformal_algebra(3), 2)
    with pytest.raises(InputError):
        c.annihilator(-1, 1)
    with pytest.raises(InputError):
        c.annihilator(5, 1)


def _eager_filtration(c):
    """The annihilators c_r (r <= d + 2) and the complement chains of every degree,
    built up front in increasing degree: the reference for the on-demand build."""
    a, top, n_v = c.algebra, c.top_degree(), c.algebra.component_dim(-1)
    ann = {(-1, 0): Subspace.zero(n_v), (-1, 1): Subspace.full(n_v)}
    for d in range(top + 1):
        nd = a.component_dim(d)
        ad = [adjoint_columns(a, d, row) for row in c.w.rows]
        ann[(d, 0)] = Subspace.zero(nd)
        for r in range(1, d + 3):
            rows = deterministic_rows_annihilating(ann[(d - 1, min(r - 1, d + 1))])
            ann[(d, r)] = kernel_of_rows(annihilated_rows(rows, ad), nd)
    chain = {d: [deterministic_complement(ann[(d, s)], ann[(d, s + 1)]) for s in range(d + 2)]
             for d in range(top + 1)}
    return ann, chain


def test_filtration_on_demand_matches_eager_build():
    # the complex builds each annihilator and complement chain on first request;
    # asked in a scrambled order (degrees descending, levels interleaved, levels
    # past the cap d + 2, chains between them) it must give what the eager
    # construction gave, and every level past the cap is the level-(d + 2) entry
    rng = rng_for("filtration-on-demand")
    conj = build_graded_algebra(_conjugated(co_generators(3)), 3).assembled
    for a in (conformal_algebra(4), space_form_algebra(5, 0), conj):
        n_v = a.component_dim(-1)
        for w in (Subspace.full(n_v), two_term_w(n_v)):
            c = SpencerComplex(a, w)
            ann, chain = _eager_filtration(c)
            top = c.top_degree()
            requests = []
            for d in reversed(range(top + 1)):
                levels = list(range(d + 5))
                rng.shuffle(levels)
                requests += [(d, r) for r in levels]
                requests.insert(rng.randrange(len(requests) + 1), (d, None))
            for d, r in requests:
                if r is None:
                    assert c.complement_chain(d) == chain[d], (a.name, w.dim, d)
                else:
                    assert c.annihilator(d, r) == ann[(d, min(r, d + 2))], (a.name, w.dim, d, r)
            for d in range(top + 1):
                assert c.annihilator(d, d + 4) is c.annihilator(d, d + 2)
            assert all(1 <= k[1] <= k[0] + 2 for kind, k in c._memo if kind == "ann")


def test_level_zero_work_builds_no_filtration():
    # level-0 tables, queries and the solver never read an annihilator or a
    # complement chain, so none is built; a positive level builds them
    rng = rng_for("level-zero-lazy")
    for a in (conformal_algebra(4), space_form_algebra(5, 0)):
        n_v = a.component_dim(-1)
        for w in (Subspace.full(n_v), two_term_w(n_v)):
            c = SpencerComplex(a, w)
            for p in range(a.height + 2):
                for q in range(c.n_w + 2):
                    cohomology_dims(c, p, q, 0, certificates=True)
            for p in range(a.height + 1):
                for q in (1, 2):
                    for z in (random_cocycle(c, p, q, 0, rng),
                              spencer_d(random_integer_cochain(c, p + 1, q - 1, 0, rng))):
                        for _ in range(2):
                            is_coboundary(c, z)
                            class_representative(c, z)
            solve_to_top(c)
            assert not {kind for kind, _ in c._memo} & {"ann", "chain"}, (a.name, w.dim)
            cohomology_dims(c, 1, 1, 1)
            assert "ann" in {kind for kind, _ in c._memo}


def test_space_dimension_formula():
    c = standard_complex(conformal_algebra(4), 3)
    a = c.algebra
    for p in (0, 1, 2):
        for q in (0, 1, 2, 3):
            for r in range(0, p + 2):
                expected = comb(3, q) * (a.component_dim(p - 1) if p == 0
                                         else a.component_dim(p - 1) - c.annihilator(p - 1, r).dim)
                assert space_dimension(c, p, q, r) == expected


def test_d_of_zero():
    c = standard_complex(conformal_algebra(3), 2)
    z = Cochain.zero(c, 2, 1, 0)
    assert spencer_d(z).is_zero()


def test_d_squared_zero_seeded():
    rng = rng_for("d2")
    c = standard_complex(conformal_algebra(3), 2)
    cases = [(1, 1, 0), (2, 1, 0), (2, 2, 0), (1, 2, 1), (2, 2, 1), (2, 1, 2)]
    for p, q, r in cases:
        for _ in range(8):
            x = random_integer_cochain(c, p, q, r, rng)
            assert spencer_d(spencer_d(x)).is_zero()


def test_d_hand_instance():
    # x(e1) = E21 - E12 = -A12 in the flat 3-dimensional model: dx(e1,e2) = -e1
    c = standard_complex(space_form_algebra(3, 0), 3)
    # component coords over (A1_2, A1_3, A2_3)
    x = Cochain(c, 1, 1, 0, {(0,): [(0, F(-1))]})
    dx = spencer_d(x)
    assert dx.value((0, 1)) == (F(-1), F(0), F(0))
    assert dx.value((0, 2)) == (F(0), F(0), F(0))
    assert dx.value((1, 2)) == (F(0), F(0), F(0))  # x vanishes on e2 and e3


def test_well_definedness_on_cosets():
    # perturbing a representative by an annihilator element leaves d unchanged
    rng = rng_for("cosets")
    c = standard_complex(conformal_algebra(4), 2)
    for p, r in ((2, 1), (2, 2), (1, 1)):
        ann = c.annihilator(p - 1, r)
        if ann.dim == 0:
            continue
        for _ in range(5):
            x = random_integer_cochain(c, p, 2, r, rng)
            perturbed = {}
            for tup, v in x.values.items():
                bump = ann.rows[rng.randrange(ann.dim)]
                perturbed[tup] = v + tuple((k, 2 * b) for k, b in bump)
            y = Cochain(c, p, 2, r, perturbed)
            assert y == x  # canonical reduction makes cosets equal
            assert spencer_d(y) == spencer_d(x)


def test_projection_morphism_property():
    # projecting to level r commutes with the operator
    rng = rng_for("morphism")
    c = standard_complex(conformal_algebra(3), 2)
    for p, q, r in ((2, 1, 1), (2, 2, 1), (2, 1, 2)):
        for _ in range(6):
            x = random_integer_cochain(c, p, q, 0, rng)
            assert spencer_d(x.project_to_level(r)) == spencer_d(x).project_to_level(r)


def test_cohomology_invariants():
    c = standard_complex(conformal_algebra(3), 2)
    for p in (0, 1, 2):
        for q in (1, 2):
            e = cohomology_dims(c, p, q, 0, certificates=True)
            assert e.dim_h == e.dim_z - e.dim_b >= 0
            z_span = Subspace.from_vectors(
                e.dim_space, [nonzero_pairs(cochain_coords(x)) for x in e.z_basis]) \
                if e.z_basis else Subspace.zero(e.dim_space)
            for b in e.b_basis:
                assert z_span.contains(tuple(cochain_coords(b)))


def cochain_coords(x):
    from gspencer.spencer import cochain_to_coords
    return cochain_to_coords(x)


def test_h02_space_form_vanishes():
    c = standard_complex(space_form_algebra(5, 0), 3)
    assert cohomology_dims(c, 0, 2, 0).dim_h == 0


def test_h12_full_flag_riemann_dimension():
    c = standard_complex(space_form_algebra(3, 0), 3)
    assert cohomology_dims(c, 1, 2, 0).dim_h == 6  # n^2(n^2-1)/12 at n = 3


def test_h11_structural_nonvanishing():
    # nonzero whenever W is proper: the fundamental-form and normal-connection
    # modules W-perp (x) S^2 W* and so(W-perp) (x) W* survive
    for n, n_t in ((2, 4), (3, 5), (2, 3)):
        c = standard_complex(space_form_algebra(n_t, 0), n)
        e = cohomology_dims(c, 1, 1, 0)
        assert e.dim_h > 0
        assert e.dim_h == (n_t - n) * n * (n + 1) // 2 + comb(n_t - n, 2) * n


def test_is_coboundary_zero():
    c = standard_complex(conformal_algebra(3), 2)
    z = Cochain.zero(c, 1, 2, 0)
    y = is_coboundary(c, z)
    assert y is not None and y.is_zero()


def test_is_coboundary_roundtrip():
    rng = rng_for("roundtrip")
    c = standard_complex(conformal_algebra(3), 3)
    for p, q in ((1, 2), (2, 1), (2, 2)):
        for _ in range(6):
            y0 = random_integer_cochain(c, p + 1, q - 1, 0, rng)
            z = spencer_d(y0)
            y = is_coboundary(c, z)
            assert y is not None
            assert spencer_d(y) == z


def test_is_coboundary_rejects_non_cocycle():
    rng = rng_for("noncocycle")
    c = standard_complex(conformal_algebra(4), 4)
    for _ in range(20):
        x = random_integer_cochain(c, 2, 1, 0, rng)
        if not spencer_d(x).is_zero():
            with pytest.raises(PreconditionError):
                is_coboundary(c, x)
            return
    raise AssertionError("no non-cocycle found")


def h12_co4_generator():
    """A representative of a nonzero class in H^{1,2} of the full conformal 4-model."""
    c = standard_complex(conformal_algebra(4), 4)
    e = cohomology_dims(c, 1, 2, 0, certificates=True)
    assert e.dim_h > 0
    b_span = Subspace.from_vectors(e.dim_space,
                                   [nonzero_pairs(cochain_coords(b)) for b in e.b_basis]) \
        if e.b_basis else Subspace.zero(e.dim_space)
    for z in e.z_basis:
        if not b_span.contains(cochain_coords(z)):
            return c, z
    raise AssertionError("no generator found")


def test_obstructed_class_conformal4():
    c, gen = h12_co4_generator()
    assert is_coboundary(c, gen) is None
    rep = class_representative(c, gen)
    assert not rep.is_zero()
    # idempotence and coboundary reduction
    assert class_representative(c, rep) == rep
    y = random_integer_cochain(c, 2, 1, 0, rng_for("cls"))
    assert class_representative(c, spencer_d(y)).is_zero()


def test_g_sharp_act_basics():
    c = standard_complex(space_form_algebra(4, 0), 2)
    rng = rng_for("gsharp")
    a = c.algebra
    x = random_integer_cochain(c, 1, 2, 0, rng)
    zero = tuple(F(0) for _ in range(a.dim))
    assert g_sharp_act(c, zero, x).is_zero()
    gs = c.g_sharp()
    u = a.embed_component(0, gs.basis_vectors()[0])
    v = a.embed_component(0, gs.basis_vectors()[-1])
    both = tuple(p + q for p, q in zip(u, v))
    lhs = g_sharp_act(c, both, x)
    rhs = g_sharp_act(c, u, x) + g_sharp_act(c, v, x)
    assert lhs == rhs
    with pytest.raises(InputError):
        g_sharp_act(c, u, x.project_to_level(1))


def test_g_sharp_equivariance_seeded():
    rng = rng_for("equivariance")
    c = standard_complex(space_form_algebra(4, 0), 2)
    a = c.algebra
    gs = c.g_sharp()
    for _ in range(15):
        coeffs = [F(rng.randint(-2, 2)) for _ in range(gs.dim)]
        comp = [sum(cc * bv[i] for cc, bv in zip(coeffs, gs.basis_vectors()))
                for i in range(gs.ambient_dim)]
        x_elt = a.embed_component(0, comp)
        for p, q in ((1, 1), (1, 2), (0, 2)):
            x = random_integer_cochain(c, p, q, 0, rng)
            assert spencer_d(g_sharp_act(c, x_elt, x)) == g_sharp_act(c, x_elt, spencer_d(x))


def test_operator_matrix_is_spencer_d_and_squares_to_zero():
    # the sparse operator rows, applied to canonical coordinates, must give the
    # coordinates of spencer_d; the conjugated co_3 prolongation has real
    # denominators, so its annihilators and reductions are not integral
    conj = build_graded_algebra(_conjugated(co_generators(3)), 3).assembled
    rng = rng_for("operator-oracle")
    for alg in (conformal_algebra(4), conj):
        n_v = alg.component_dim(-1)
        complexes = [standard_complex(alg, w) for w in range(1, n_v + 1)]
        complexes += [SpencerComplex(alg, two_term_w(n_v, dim)) for dim in (1, 2)]
        for c in complexes:
            for p in range(1, alg.height + 1):
                for q in range(3):
                    for r in range(3):
                        where = (alg.name, c.w.rows, p, q, r)
                        rows = _d_matrix_rows(c, p, q, r)
                        for _ in range(2):
                            x = random_integer_cochain(c, p, q, r, rng)
                            coords = cochain_to_coords(x)
                            dx = spencer_d(x)
                            assert cochain_to_coords(dx) == tuple(
                                sum((v * coords[j] for j, v in row), F(0)) for row in rows), where
                            assert spencer_d(dx).is_zero(), where


def test_adjoint_columns_match_dense_brackets():
    # every column of ad(w) read from the structure constants is the degree-(d-1)
    # part of the dense bracket [e_i, w], for rows with denominators and two terms
    conj = build_graded_algebra(_conjugated(co_generators(3)), 3).assembled
    for a in (conformal_algebra(4), conj):
        n_v = a.component_dim(-1)
        for row in two_term_w(n_v).rows + TWO_TERM_W:
            w_full = a.embed_component(-1, dense(row, n_v))
            for d in range(a.height):
                expected = [nonzero_pairs(a.component_part(a.bracket(a.basis_element(i), w_full),
                                                           d - 1))
                            for i in a.component_indices(d)]
                assert adjoint_columns(a, d, row) == expected, (a.name, row, d)


def test_d_of_form_matches_dense_brackets():
    # d f (w_a, w_b) = [w_a, f(w_b)] - [w_b, f(w_a)], over the two-term W, also on
    # quasi-graded frames
    rng = rng_for("d-of-form")
    frames = [SpencerComplex(conformal_algebra(4), two_term_w(4))]
    frames += [WFrame(space_form_algebra(n, k0), two_term_w(n)) for n, k0 in ((3, 1), (4, -2))]
    for frame in frames:
        a = frame.algebra
        w_full = [a.embed_component(-1, v) for v in frame.w.basis_vectors()]
        for deg in range(a.height):
            f = _random_form(rng, a, deg, frame.n_w)
            expected = {}
            for i, j in combinations(range(frame.n_w), 2):
                f_i, f_j = (a.embed_component(deg, f.column(k, a.component_dim(deg)))
                            for k in (i, j))
                v = a.component_part([x - y for x, y in zip(a.bracket(w_full[i], f_j),
                                                            a.bracket(w_full[j], f_i))], deg - 1)
                if any(v):
                    expected[(i, j)] = tuple(nonzero_pairs(v))
            assert expected
            assert _d_of_form(frame, f).values == expected, (a.name, deg)


def _random_form(rng, a, deg, n_w):
    return ConstantForm(deg, tuple(
        nonzero_pairs([F(rng.randint(-3, 3), rng.randint(1, 3))
                       for _ in range(a.component_dim(deg))])
        for _ in range(n_w)))


def test_total_curvature_matches_dense_brackets():
    # Omega^{p-1}(w_i, w_j) is the degree-(p-1) part of
    # 1/2 sum_r ([w^r(w_i), w^{p-1-r}(w_j)] - [w^r(w_j), w^{p-1-r}(w_i)]) + [w_i, w_j],
    # over the two-term W, also on quasi-graded frames where [w_i, w_j] survives
    rng = rng_for("curvature-dense")
    conj = build_graded_algebra(_conjugated(co_generators(3)), 3).assembled
    frames = [SpencerComplex(conformal_algebra(4), two_term_w(4)),
              WFrame(conj, two_term_w(conj.component_dim(-1)))]
    frames += [WFrame(space_form_algebra(n, k0), two_term_w(n)) for n, k0 in ((3, 1), (4, -2))]
    for frame in frames:
        a = frame.algebra
        w_full = [a.embed_component(-1, v) for v in frame.w.basis_vectors()]
        for _ in range(2):
            t = AdmissibleTuple(tuple(_random_form(rng, a, deg, frame.n_w)
                                      for deg in range(a.height)))

            def omega(r, k):
                return w_full[k] if r == -1 else \
                    a.embed_component(r, t.forms[r].column(k, a.component_dim(r)))

            seen_nonzero = False
            for p in range(a.height + 1):
                expected = {}
                for i, j in combinations(range(frame.n_w), 2):
                    acc = a.bracket(w_full[i], w_full[j])
                    for r in range(p):
                        acc = [x + (u - v) / 2 for x, u, v in
                               zip(acc, a.bracket(omega(r, i), omega(p - 1 - r, j)),
                                   a.bracket(omega(r, j), omega(p - 1 - r, i)))]
                    v = a.component_part(acc, p - 1)
                    if any(v):
                        expected[(i, j)] = tuple(nonzero_pairs(v))
                seen_nonzero = seen_nonzero or bool(expected)
                assert total_curvature(frame, t, p).values == expected, (a.name, p)
            assert seen_nonzero, a.name


def test_strong_equiv_transport_matches_dense_formula():
    # omega0'(w_j) = omega0(w_j) + [w_j, varpi] and
    # eps(w_j) = [omega0(w_j), varpi] + 1/2 [[w_j, varpi], varpi], over the two-term W
    rng = rng_for("transport-dense")
    c = SpencerComplex(conformal_algebra(4), two_term_w(4))
    a = c.algebra
    w_full = [a.embed_component(-1, v) for v in c.w.basis_vectors()]
    for _ in range(3):
        omega0 = cochain_to_form(random_cocycle(c, 1, 1, 0, rng).scale(F(2, 3)))
        assert not omega0.is_zero()
        varpi = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(a.component_dim(1))]
        varpi_full = a.embed_component(1, varpi)
        new_cols, eps_cols = [], []
        for j, wj in enumerate(w_full):
            shift = a.bracket(wj, varpi_full)
            om = a.embed_component(0, omega0.column(j, a.component_dim(0)))
            new_cols.append(a.component_part([x + y for x, y in zip(om, shift)], 0))
            eps_cols.append(a.component_part(
                [x + y / 2 for x, y in zip(a.bracket(om, varpi_full),
                                           a.bracket(shift, varpi_full))], 1))
        omega0_new, eps1 = strong_equiv_transport(c, omega0, varpi)
        assert omega0_new.columns == tuple(tuple(nonzero_pairs(col)) for col in new_cols)
        assert eps1.columns == tuple(tuple(nonzero_pairs(col)) for col in eps_cols)
        assert not eps1.is_zero()


def test_cochain_values_are_canonical_pairs():
    # unsorted, repeated, zero-valued and int pairs build the canonical cochain
    c = standard_complex(conformal_algebra(3), 2)
    canonical = Cochain(c, 1, 1, 0, {(0,): [(0, F(1, 2)), (3, F(-2))], (1,): [(2, F(5))]})
    messy = Cochain(c, 1, 1, 0, {(0,): [(3, -2), (1, 0), (0, F(1, 6)), (0, F(1, 3))],
                                 (1,): [(2, 5), (1, F(2)), (1, -2)]})
    assert messy == canonical
    assert messy.values == {(0,): ((0, F(1, 2)), (3, F(-2))), (1,): ((2, F(5)),)}
    assert all(type(x) is F for row in messy.values.values() for _, x in row)
    assert Cochain(c, 1, 1, 0, {(0,): [(2, 1), (2, -1)]}).is_zero()
    assert messy.value((0,)) == (F(1, 2), F(0), F(0), F(-2))


def test_cochain_rejects_coordinates_outside_the_component():
    c = standard_complex(conformal_algebra(3), 2)
    n = c.algebra.component_dim(0)
    for bad in (-1, n):
        with pytest.raises(InputError):
            Cochain(c, 1, 1, 0, {(0,): [(bad, F(1))]})
        with pytest.raises(InputError):
            Cochain(c, 1, 2, 1, {(0, 1): [(0, F(1)), (bad, F(2))]})
    for bad_value in ((F(1), F(0), F(0), F(0)), [(0, 0.5)], [(1.0, F(1))], [(0, "1/2")]):
        with pytest.raises(InputError):  # a dense tuple, a float, a float coordinate, a string
            Cochain(c, 1, 1, 0, {(0,): bad_value})
    assert Cochain(c, 1, 1, 0, {(0,): [(n - 1, F(1))]}).value((0,))[n - 1] == 1


# ---------------------------------------------------------------------------
# the memoized solve maps
# ---------------------------------------------------------------------------

def _rational_coords(rng, n):
    return [(k, F(rng.randint(-3, 3), rng.choice((2, 3, 5)))) for k in range(n)]


def _fresh_preimage(c, z):
    """A preimage of z under d from an elimination of its own, free variables zero,
    or None."""
    p, q, r = z.p, z.q, z.level
    sols = solve_particular(_d_matrix_rows(c, p + 1, q - 1, r),
                            space_dimension(c, p + 1, q - 1, r),
                            [nonzero_pairs(cochain_to_coords(z))])
    return None if sols is None else cochain_from_coords(c, p + 1, q - 1, r, sols[0])


def _fresh_class_rep(c, z):
    """The part of z in the fixed complement K of B in Z, from a transposed split
    of its own."""
    zs, bs = _cocycles(c, z.p, z.q, z.level), _coboundaries(c, z.p, z.q, z.level)
    if bs.dim == 0:
        return z
    k = deterministic_complement(bs, zs)
    (sol,) = solve_particular(transpose(bs.rows + k.rows, zs.ambient_dim), bs.dim + k.dim,
                              [nonzero_pairs(cochain_to_coords(z))])
    return cochain_from_coords(c, z.p, z.q, z.level,
                               combine((k.rows[j - bs.dim], x) for j, x in sol if j >= bs.dim))


def test_solve_maps_match_fresh_eliminations():
    # is_coboundary and class_representative answer from maps kept per
    # (p, q, level): a key's first query solves alone, its second fixes the map.
    # On rational coboundaries and cocycles both ways must agree with an
    # elimination per query.  Consecutive keys differ only in the level, and every
    # key is queried again once its maps are fixed.
    rng = rng_for("solve-maps")
    conj = build_graded_algebra(_conjugated(co_generators(3)), 3).assembled
    projections = 0
    for a in (conformal_algebra(4), space_form_algebra(4, 0), conj):
        n_v = a.component_dim(-1)
        # new complexes, so no earlier test has warmed their maps
        for c in (SpencerComplex(a, Subspace.full(n_v)), SpencerComplex(a, two_term_w(n_v))):
            keys = [(p, q, r) for p in range(a.height + 1) for q in (1, 2) for r in range(3)]
            for _ in range(2):
                for p, q, r in keys:
                    where = (a.name, c.n_w, p, q, r)
                    y = cochain_from_coords(c, p + 1, q - 1, r, _rational_coords(
                        rng, space_dimension(c, p + 1, q - 1, r)))
                    z = spencer_d(y)
                    got = is_coboundary(c, z)
                    assert got is not None and spencer_d(got) == z, where
                    assert got == _fresh_preimage(c, z), where
                    assert class_representative(c, z).is_zero(), where
                    zs = _cocycles(c, p, q, r)
                    z = cochain_from_coords(c, p, q, r, combine(
                        zip(zs.rows, (x for _, x in _rational_coords(rng, zs.dim)))))
                    assert is_coboundary(c, z) == _fresh_preimage(c, z), where
                    assert class_representative(c, z) == _fresh_class_rep(c, z), where
            maps = [m for (kind, _), m in c._memo.items() if kind in ("preimage", "class")]
            assert all(m.images is not None for m in maps)
            projections += sum(kind == "class" for kind, _ in c._memo)
    assert projections


def _non_cocycle(c, p, q, rng):
    for _ in range(20):
        x = random_integer_cochain(c, p, q, 0, rng)
        if not spencer_d(x).is_zero():
            return x
    raise AssertionError("no non-cocycle found")


def test_non_cocycle_errors_unchanged_by_warm_maps():
    # a non-cocycle raises PreconditionError naming the nonzero components of its
    # differential, whether or not the key's maps are built; at (3, 2) on the CR
    # algebra truncated at order 2, B lies beyond the truncation, so a cocycle
    # raises InputError there but a non-cocycle still raises PreconditionError
    rng = rng_for("non-cocycle-warm")
    alg, data = cr_algebra(2, 1, 2)
    for c, p, q in ((SpencerComplex(conformal_algebra(4), Subspace.full(4)), 1, 2),
                    (SpencerComplex(conformal_algebra(4), two_term_w(4)), 1, 1),
                    (cr_w_complex(alg, data), 3, 2)):
        x = _non_cocycle(c, p, q, rng)
        dx = spencer_d(x)
        comps = c.algebra.component_indices(dx.p - 1)
        expected = "input is not a cocycle; nonzero components of its differential: " + "; ".join(
            f"{tup}: " + ", ".join(c.algebra.names[comps[k]] for k, _ in row)
            for tup, row in sorted(dx.values.items()))
        for warm in (False, True):
            if warm:
                zs = kernel_of_rows(_d_matrix_rows(c, p, q, 0), space_dimension(c, p, q, 0))
                z = cochain_from_coords(c, p, q, 0, zs.rows[0])
                if c.algebra.truncated_at is None:
                    for _ in range(2):  # the second query fixes each map
                        is_coboundary(c, z)
                        class_representative(c, z)
                    assert c._memo[("preimage", (p, q, 0))].images is not None
                    assert c._memo[("class", (p, q, 0))].images is not None
                else:
                    for query in (is_coboundary, class_representative):
                        with pytest.raises(InputError):
                            query(c, z)
            for query in (is_coboundary, class_representative):
                with pytest.raises(PreconditionError) as err:
                    query(c, x)
                assert str(err.value) == expected, (c.algebra.name, p, q, warm)


def test_cohomology_dims_builds_no_solve_map():
    # a cold cohomology table (the bench's cohomology-grid workload builds each
    # operator once) reads its dimensions off the operator ranks: it builds Z and
    # B only when certificates ask for their bases, and never a solve map
    a = conformal_algebra(4)
    for c in (SpencerComplex(a, Subspace.full(4)), SpencerComplex(a, two_term_w(4))):
        for certificates in (False, True):
            for p in range(a.height + 2):
                for q in range(c.n_w + 1):
                    for r in range(p + 2):
                        cohomology_dims(c, p, q, r, certificates=certificates)
            kinds = {kind for kind, _ in c._memo}
            assert "rank" in kinds and not kinds & {"preimage", "class", "split"}
            assert {"z", "b"} <= kinds if certificates else not kinds & {"z", "b"}


def _rank_dims(c, p, q, r):
    e = cohomology_dims(c, p, q, r)
    return e.dim_z, e.dim_b


def _subspace_dims(c, p, q, r, rng):
    # random_cocycle raises where Z would need a degree past the truncation,
    # _coboundaries where B would
    random_cocycle(c, p, q, r, rng)
    return _cocycles(c, p, q, r).dim, _coboundaries(c, p, q, r).dim


def _dims_or_refusal(dims, *args):
    try:
        return dims(*args)
    except InputError as err:
        assert "beyond the truncation" in str(err)
        return "refused"


def test_rank_path_matches_subspace_path():
    # cohomology_dims reads dim Z and dim B off memoized operator ranks; the
    # echelon bases of Z and B, which the certificates and the queries use, must
    # give the same dimensions on every entry and refuse the same entries past the
    # truncation, also where the operators have rational entries
    rng = rng_for("rank-path")
    alg, data = cr_algebra(2, 1, 2)
    complexes = [cr_w_complex(alg, data)]
    conj = build_graded_algebra(_conjugated(co_generators(3)), 3).assembled
    for a in (conformal_algebra(4), space_form_algebra(4, 0), conj):
        n_v = a.component_dim(-1)
        complexes += [SpencerComplex(a, Subspace.full(n_v)), SpencerComplex(a, two_term_w(n_v))]
    refused = 0
    for c in complexes:
        for p in range(c.algebra.height + 2):
            for q in range(c.n_w + 1):
                for r in range(p + 2):
                    by_rank = _dims_or_refusal(_rank_dims, c, p, q, r)
                    by_subspace = _dims_or_refusal(_subspace_dims, c, p, q, r, rng)
                    assert by_rank == by_subspace, (c.algebra.name, c.n_w, p, q, r)
                    refused += by_rank == "refused"
    assert refused


def test_one_off_query_solves_alone(monkeypatch):
    # a key's first query costs what a single query costs: one elimination with
    # one right-hand side and one dz; is_coboundary builds no cocycle or
    # coboundary space for it.  The second query builds Z for its cocycle check
    # and fixes the map on B's echelon rows; later queries form no dz and run no
    # elimination at all.
    rng = rng_for("one-off")
    targets, d_calls = [], []
    real, real_d = linalg.solve_particular, spencer.spencer_d

    def counting(rows, ncols, ts):
        targets.append(len(ts))
        return real(rows, ncols, ts)

    def counting_d(x):
        d_calls.append((x.p, x.q, x.level))
        return real_d(x)

    monkeypatch.setattr(spencer, "solve_particular", counting)
    monkeypatch.setattr(linalg, "solve_particular", counting)
    # inside spencer only the cocycle check forms dz; this module's spencer_d is unpatched
    monkeypatch.setattr(spencer, "spencer_d", counting_d)
    key = (1, 2, 0)
    c = SpencerComplex(conformal_algebra(4), Subspace.full(4))
    z = spencer_d(random_integer_cochain(c, 2, 1, 0, rng))
    assert spencer_d(is_coboundary(c, z)) == z
    assert targets == [1] and d_calls == [key]
    assert not {kind for kind, _ in c._memo} & {"z", "b"}
    for _ in range(3):
        assert spencer_d(is_coboundary(c, z)) == z
    bs, zs = c._memo[("b", key)], c._memo[("z", key)]
    assert targets == [1, bs.dim] and bs.dim > 1 and d_calls == [key]
    assert c._memo[("preimage", key)].domain is bs and zs.dim > bs.dim
    # the preimage map's domain is B: fixing the map builds no Z
    targets.clear()
    c = SpencerComplex(conformal_algebra(4), Subspace.full(4))
    pairs = spencer._coordinate_pairs(spencer_d(random_integer_cochain(c, 2, 1, 0, rng)))
    for _ in range(2):
        spencer._preimage_map(c, *key).apply(clear_denominators(pairs))
    bs = c._memo[("b", key)]
    assert targets == [1, bs.dim] and ("z", key) not in c._memo
    targets.clear()
    d_calls.clear()
    c = SpencerComplex(conformal_algebra(4), Subspace.full(4))
    z = random_cocycle(c, 1, 2, 0, rng)
    del c._memo[("z", key)]  # drawing z built the key's cocycle space
    assert is_coboundary(c, z) is None and targets == [1] and d_calls == [key]
    assert not {kind for kind, _ in c._memo} & {"z", "b"}
    for _ in range(3):
        class_representative(c, z)
    zs = c._memo[("z", key)]
    assert targets == [1, 1, zs.dim] and zs.dim > 1 and d_calls == [key]


def test_repeated_check_on_a_key_without_coboundaries_forms_dz_once(monkeypatch):
    # class_representative returns at once where B = 0 and builds no Z there; a
    # repeated key still checks by membership from its second query on
    d_calls = []
    real_d = spencer.spencer_d

    def counting_d(x):
        d_calls.append((x.p, x.q, x.level))
        return real_d(x)

    monkeypatch.setattr(spencer, "spencer_d", counting_d)
    key = (2, 3, 0)  # on conformal(4) with W = V, B = 0 and Z has dimension 9 there
    c = SpencerComplex(conformal_algebra(4), Subspace.full(4))
    z = random_cocycle(c, *key, rng_for("b-zero"))
    del c._memo[("z", key)]
    assert not z.is_zero() and class_representative(c, z) == z
    assert c._memo[("b", key)].dim == 0 and ("z", key) not in c._memo
    for _ in range(3):
        assert class_representative(c, z) == z
    assert d_calls == [key] and c._memo[("z", key)].dim == 9


def test_spencer_d_on_rational_values_matches_dense_sum():
    # the operator clears a cochain's values over one denominator and sums int
    # coefficients; on values with denominators, at levels 0 and 1, it must equal
    # the alternating sum of dense brackets, reduced by the checked constructor
    rng = rng_for("rational-d")
    for a in (conformal_algebra(4), space_form_algebra(4, 0)):
        n_v = a.component_dim(-1)
        for c in (SpencerComplex(a, Subspace.full(n_v)), SpencerComplex(a, two_term_w(n_v))):
            for r in (0, 1):
                for p in range(1, a.height + 1):
                    for q in range(c.n_w):
                        x = cochain_from_coords(c, p, q, r, _rational_coords(
                            rng, space_dimension(c, p, q, r)))
                        assert clear_denominators(spencer._coordinate_pairs(x))[0] > 1
                        expected = Cochain(c, p - 1, q + 1, r, alternating_sum(x))
                        assert spencer_d(x) == expected, (a.name, c.n_w, p, q, r)


def _cocycle_over(c, key, den, rng):
    """A random cocycle at key, scaled by 1/den, whose coordinates' lcm
    denominator den divides."""
    for _ in range(20):
        z = random_cocycle(c, *key, rng).scale(F(1, den))
        if clear_denominators(spencer._coordinate_pairs(z))[0] % den == 0:
            return z
    raise AssertionError(f"no cocycle over {den} found")


def test_warm_solve_maps_on_rational_cocycles():
    # a key warmed by three queries answers from its fixed maps, whose images are
    # integer rows over one denominator; cocycles and coboundaries with
    # denominators 2, 3 and 6 must get what an elimination per query gives
    rng = rng_for("warm-rational")
    for a in (conformal_algebra(4), space_form_algebra(4, 0)):
        n_v = a.component_dim(-1)
        for c in (SpencerComplex(a, Subspace.full(n_v)), SpencerComplex(a, two_term_w(n_v))):
            for key in [(p, q, r) for p in range(a.height) for q in (1, 2) for r in (0, 1)]:
                p, q, r = key
                if not _cocycles(c, *key).dim:
                    continue
                for _ in range(3):
                    z = random_cocycle(c, *key, rng)
                    is_coboundary(c, z)
                    class_representative(c, z)
                assert c._memo[("preimage", key)].images is not None
                if _coboundaries(c, *key).dim:
                    assert c._memo[("class", key)].images is not None
                for den in (2, 3, 6):
                    where = (a.name, c.n_w, key, den)
                    z = _cocycle_over(c, key, den, rng)
                    assert is_coboundary(c, z) == _fresh_preimage(c, z), where
                    assert class_representative(c, z) == _fresh_class_rep(c, z), where
                    y = random_integer_cochain(c, p + 1, q - 1, r, rng).scale(F(1, den))
                    dy = spencer_d(y)
                    assert is_coboundary(c, dy) == _fresh_preimage(c, dy), where
                    assert class_representative(c, dy).is_zero(), where


def test_warm_query_clears_its_coordinates_once(monkeypatch):
    # on a warm key the cocycle check clears z's coordinate pairs and hands the
    # cleared row to the map: is_coboundary clears once and reads coordinates twice
    # (in Z, then in B); class_representative asks its map, whose domain is Z, alone
    rng = rng_for("clear-once")
    key = (1, 2, 0)
    c = SpencerComplex(conformal_algebra(4), Subspace.full(4))
    for _ in range(3):
        z = random_cocycle(c, *key, rng)
        is_coboundary(c, z)
        class_representative(c, z)
    clears, coords = [], []
    real_clear, real_coords = linalg.clear_denominators, linalg.Subspace.coordinates

    def counting_clear(row):
        clears.append(1)
        return real_clear(row)

    def counting_coords(self, terms):
        coords.append(self)
        return real_coords(self, terms)

    z = _cocycle_over(c, key, 6, rng)
    monkeypatch.setattr(spencer, "clear_denominators", counting_clear)
    monkeypatch.setattr(linalg, "clear_denominators", counting_clear)
    monkeypatch.setattr(linalg.Subspace, "coordinates", counting_coords)
    zs, bs = c._memo[("z", key)], c._memo[("b", key)]
    assert c._memo[("class", key)].images is not None
    is_coboundary(c, z)
    assert len(clears) == 1 and coords == [zs, bs]
    clears.clear()
    coords.clear()
    class_representative(c, z)
    assert len(clears) == 1 and coords == [zs]


def test_random_cocycle_raises_past_the_truncation():
    # drawing a cocycle raises InputError wherever the truncation makes
    # cohomology_dims raise: on the CR algebra truncated at order 2, B at (3, q)
    # with q > 0 and Z at (4, 0) need the degree-3 component
    rng = rng_for("random-cocycle-truncation")
    alg, data = cr_algebra(2, 1, 2)
    c = cr_w_complex(alg, data)
    for p, q in ((3, 1), (3, 2), (4, 0)):
        with pytest.raises(InputError):
            cohomology_dims(c, p, q, 0)
        with pytest.raises(InputError, match="beyond the truncation"):
            random_cocycle(c, p, q, 0, rng)
    for p, q in ((2, 2), (3, 0)):
        z = random_cocycle(c, p, q, 0, rng)
        assert spencer_d(z).is_zero() and cohomology_dims(c, p, q, 0).dim_z >= 0


# ---------------------------------------------------------------------------
# cochains taken without the constructor's checks
# ---------------------------------------------------------------------------

def _assert_canonical(x):
    # what the library builds unchecked is what the checked constructor would store
    assert x == Cochain(x.frame, x.p, x.q, x.level, x.values)
    for row in x.values.values():
        assert type(row) is tuple and row
        assert all(type(k) is int and type(v) is F and v for k, v in row)
        assert all(h < k for (h, _), (k, _) in zip(row, row[1:]))


@pytest.mark.parametrize("build", [
    lambda: standard_complex(conformal_algebra(4), 3),
    lambda: SpencerComplex(conformal_algebra(4), two_term_w(4)),
    lambda: standard_complex(conformal_algebra(5), 4),
    lambda: standard_complex(space_form_algebra(6, 0), 4)],
    ids=["conformal4", "conformal4_two_term_w", "conformal5", "space_form6"])
def test_stream_cochains_equal_their_checked_rebuild(build):
    # every cochain of the solve stream: d, curvatures, preimages (a key's first
    # query and the fixed map), class representatives, negations, random cocycles
    # and the certificate bases, at levels 0 and 1 and with rational data
    c = build()
    rng = rng_for("unchecked-cochains")
    height = c.algebra.height
    for r in (0, 1):
        for p in range(0, height + 1):
            for q in (1, 2):
                entry = cohomology_dims(c, p, q, r, certificates=True)
                for x in entry.z_basis + entry.b_basis:
                    _assert_canonical(x)
                for _ in range(3):
                    z = random_cocycle(c, p, q, r, rng).scale(F(rng.randint(1, 4), 3))
                    _assert_canonical(z)
                    _assert_canonical(-z)
                    _assert_canonical(class_representative(c, z))
                    if p < height:
                        y = random_integer_cochain(c, p + 1, q - 1, r, rng)
                        dy = spencer_d(y)
                        _assert_canonical(dy)
                        pre = is_coboundary(c, dy)
                        _assert_canonical(pre)
                        assert spencer_d(pre) == dy
    for scale in (1, F(2, 3)):
        form = cochain_to_form(random_cocycle(c, 1, 1, 0, rng).scale(scale))
        t = AdmissibleTuple((form,))
        for p in range(0, t.order + 1):
            _assert_canonical(total_curvature(c, t, p))
        tup, cert = solve_to_top(c, t)
        for p in range(0, tup.order + 1):
            _assert_canonical(total_curvature(c, tup, p))
        if cert is not None:
            _assert_canonical(cert.class_rep)
