from fractions import Fraction as F
from math import gcd

import pytest

from gspencer.algebra import (GradedLieAlgebra, effectiveness_report, g_sharp_subalgebra,
                              grading_report, jacobi_report)
from gspencer.errors import InputError
from gspencer.fileio import serialize_algebra
from gspencer.linalg import Subspace, clear_denominators, dense, nonzero_pairs
from gspencer.models import co_generators, conformal_algebra, cr_algebra, space_form_algebra
from gspencer.prolong import build_graded_algebra

from conftest import rng_for, int_vector
from oracles import project_degree
from test_prolong import _conjugated


def test_bracket_antisymmetry_random():
    a = space_form_algebra(3, 1)
    rng = rng_for("antisym")
    for _ in range(25):
        x = int_vector(rng, a.dim)
        y = int_vector(rng, a.dim)
        assert all(v == 0 for v in a.bracket(x, x))
        xy = a.bracket(x, y)
        yx = a.bracket(y, x)
        assert all(u == -v for u, v in zip(xy, yx))


@pytest.mark.parametrize("build", [
    lambda: conformal_algebra(4),
    lambda: build_graded_algebra(_conjugated(co_generators(3)), 3).assembled,
    lambda: space_form_algebra(4, 1),
    lambda: cr_algebra(2, 1, 2)[0]],
    ids=["conformal4", "co3_conjugated", "space_form4_curved", "cr_2_1_truncated"])
def test_bracket_sum_matches_dense_bracket(build):
    # sums of one to four terms coef * [x, y], coef +-1/2 or a random rational, x and y
    # rational (denominators 2, 3, 4, 6, 10 cancel in part against each other and the
    # structure constants) in random degrees, against the sum of the dense brackets,
    # which read the stored table; every target degree, so terms landing elsewhere
    # (the curved space form's [e_i, e_j] in degree 0) must be filtered out
    a = build()
    rng = rng_for("bracket-sum")
    degrees = range(-1, a.height)

    def component(deg):
        return [(k, F(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6, 10))))
                for k in range(a.component_dim(deg)) if rng.random() < 0.6]

    for _ in range(40):
        terms = []
        full = [F(0)] * a.dim
        for _ in range(rng.randint(1, 4)):
            coef = rng.choice((F(1, 2), F(-1, 2), F(rng.randint(-5, 5), rng.randint(1, 7))))
            dx, dy = rng.choice(degrees), rng.choice(degrees)
            x, y = component(dx), component(dy)
            terms.append((coef, dx, clear_denominators(x), dy, clear_denominators(y)))
            br = a.bracket(a.embed_component(dx, dense(x, a.component_dim(dx))),
                           a.embed_component(dy, dense(y, a.component_dim(dy))))
            full = [s + coef * b for s, b in zip(full, br)]
        for d in degrees:
            assert a.bracket_sum(terms, d) == nonzero_pairs(a.component_part(full, d)), d


@pytest.mark.parametrize("build", [
    lambda: conformal_algebra(4),
    lambda: cr_algebra(2, 1, 2)[0],
    lambda: build_graded_algebra(_conjugated(co_generators(3)), 3).assembled],
    ids=["conformal4", "cr_2_1_truncated", "co3_conjugated"])
def test_stored_rows_canonical_and_constants_round_trip(build):
    # each nonzero bracket is stored once, for i < j, as (den, int pairs) in lowest
    # terms with sorted targets, and constants() is a table the constructor takes back
    a = build()
    assert a._rows
    for (i, j), (den, row) in a._rows.items():
        targets = [t for t, _ in row]
        assert i < j and den > 0 and row
        assert all(type(c) is int and c for _, c in row)
        assert gcd(den, *(c for _, c in row)) == 1
        assert targets == sorted(set(targets))
    again = GradedLieAlgebra(a.name, a.names, a.degrees, a.height, a.constants(),
                             a.grading_kind, a.truncated_at)
    assert again._rows == a._rows
    assert serialize_algebra(again) == serialize_algebra(a)


def test_constructor_reads_rational_constants():
    names, degrees = ["x", "y", "z"], [-1, -1, 0]
    for half in (F(1, 2), "1/2", 0.5):
        a = GradedLieAlgebra("q", names, degrees, 1, {(0, 1): {2: half, 0: F(-1, 3)}})
        assert a._rows == {(0, 1): (6, ((0, -2), (2, 3)))}
        assert a.constants() == {(0, 1): {0: F(-1, 3), 2: F(1, 2)}}
        assert a.bracket_basis(1, 0) == {0: F(1, 3), 2: F(-1, 2)}
    a = GradedLieAlgebra("z", names, degrees, 1, {(0, 1): {2: 4}, (0, 2): {1: 0}})
    assert a._rows == {(0, 1): (1, ((2, 4),))}
    for bad in (object(), "half"):
        with pytest.raises(InputError):
            GradedLieAlgebra("bad", names, degrees, 1, {(0, 1): {2: bad}})


def test_space_form_coordinate_bracket():
    # [e1, e2] = E21 - E12 = -A12 when the curvature is +1
    a = space_form_algebra(4, 1)
    br = a.bracket(a.basis_element(0), a.basis_element(1))
    idx = a.index_of("A1_2")
    assert br[idx] == F(-1)
    assert all(v == 0 for i, v in enumerate(br) if i != idx)


def test_space_form_matrix_action():
    # [A, v] = Av
    a = space_form_algebra(3, 1)
    A13 = a.basis_element(a.index_of("A1_3"))
    e3 = a.basis_element(2)
    br = a.bracket(A13, e3)
    assert br[0] == F(1) and all(v == 0 for i, v in enumerate(br) if i != 0)


def test_jacobi_pass_abelian():
    a = GradedLieAlgebra("abelian", ["x", "y"], [-1, -1], 1, {})
    assert jacobi_report(a) == []


def test_jacobi_detects_perturbation():
    # so_3 presented honestly, then one constant bumped by 1
    good = {(0, 1): {2: F(1)}, (1, 2): {0: F(1)}, (0, 2): {1: F(-1)}}
    names = ["L1", "L2", "L3"]
    a = GradedLieAlgebra("so3", names, [-1, -1, -1], 1, good, "quasi_graded")
    assert jacobi_report(a) == []
    bad = {(0, 1): {2: F(1), 0: F(1)}, (1, 2): {0: F(1)}, (0, 2): {1: F(-1)}}
    b = GradedLieAlgebra("so3bad", names, [-1, -1, -1], 1, bad, "quasi_graded")
    assert len(jacobi_report(b)) >= 1


def test_jacobi_pass_conformal():
    assert jacobi_report(conformal_algebra(3)) == []


def test_grading_conformal_graded():
    assert grading_report(conformal_algebra(4)) == []


def test_grading_space_form_kinds():
    curved = space_form_algebra(3, 1)
    assert grading_report(curved) == []  # declared quasi-graded
    strict = GradedLieAlgebra("sf-as-graded", curved.names, curved.degrees,
                              curved.height, curved.constants(), "graded")
    viols = grading_report(strict)
    assert viols and all(v.names[0].startswith("e") and v.names[1].startswith("e")
                         for v in viols)
    flat = space_form_algebra(3, 0)
    assert flat.grading_kind == "graded"
    assert grading_report(flat) == []


def test_project_degree_partition():
    a = conformal_algebra(3)
    rng = rng_for("proj")
    x = int_vector(rng, a.dim)
    total = [F(0)] * a.dim
    for p in range(-1, a.height):
        for i, v in enumerate(project_degree(a, x, p)):
            total[i] += v
    assert tuple(total) == x


def test_project_degree_zero_crossing():
    a = conformal_algebra(3)
    i0 = a.component_indices(0)[0]
    assert all(v == 0 for v in project_degree(a, a.basis_element(i0), -1))


def test_project_degree_out_of_range():
    a = conformal_algebra(3)
    with pytest.raises(InputError):
        project_degree(a, a.basis_element(0), 5)


def test_dual_vector_bracket_gives_identity():
    # in the 2-dimensional conformal model, [f^1, e_1] projects to I in degree 0
    a = conformal_algebra(2)
    f1 = a.basis_element(a.index_of("f1"))
    e1 = a.basis_element(0)
    br = a.bracket(f1, e1)
    proj = project_degree(a, br, 0)
    assert tuple(proj) == tuple(br)
    i_idx = a.index_of("I")
    assert br[i_idx] == F(1)
    assert all(v == 0 for i, v in enumerate(br) if i != i_idx)


def test_g_sharp_full_w():
    a = space_form_algebra(4, 0)
    gs = g_sharp_subalgebra(a, Subspace.full(4))
    assert gs.dim == a.component_dim(0)


def test_g_sharp_space_form_block():
    # stabilizer of the first two coordinates in so_4: so(W) + so(W-perp)
    a = space_form_algebra(4, 0)
    w = Subspace.from_vectors(4, [nonzero_pairs((1, 0, 0, 0)), nonzero_pairs((0, 1, 0, 0))])
    gs = g_sharp_subalgebra(a, w)
    assert gs.dim == 2
    # cross-check against the block form: A1_2 and A3_4 span it
    comp0 = a.component_indices(0)
    for name in ("A1_2", "A3_4"):
        pos = comp0.index(a.index_of(name))
        unit = tuple(F(1) if i == pos else F(0) for i in range(len(comp0)))
        assert gs.contains(unit)


def test_g_sharp_conformal_block():
    # in co_3 over W = first two coordinates the stabilizer is so(W) + R*I
    a = conformal_algebra(3)
    w = Subspace.from_vectors(3, [nonzero_pairs((1, 0, 0)), nonzero_pairs((0, 1, 0))])
    gs = g_sharp_subalgebra(a, w)
    assert gs.dim == 2
    comp0 = a.component_indices(0)
    for name in ("A1_2", "I"):
        pos = comp0.index(a.index_of(name))
        unit = tuple(F(1) if i == pos else F(0) for i in range(len(comp0)))
        assert gs.contains(unit)


def test_g_sharp_closed_under_bracket():
    a = space_form_algebra(4, 0)
    w = Subspace.from_vectors(4, [nonzero_pairs((1, 0, 0, 0)), nonzero_pairs((0, 1, 0, 0))])
    gs = g_sharp_subalgebra(a, w)
    vecs = gs.basis_vectors()
    for x in vecs:
        for y in vecs:
            br = a.bracket(a.embed_component(0, x), a.embed_component(0, y))
            assert gs.contains(a.component_part(br, 0))


def test_effectiveness_diagnostic_flags_center():
    # a central degree-0 element is flagged, not rejected
    a = GradedLieAlgebra("flagged", ["v", "Z"], [-1, 0], 1, {})
    notes = effectiveness_report(a)
    assert notes and "degree 0" in notes[0]
    assert effectiveness_report(space_form_algebra(3, 0)) == []


def test_depth_one_enforced():
    with pytest.raises(InputError):
        GradedLieAlgebra("bad", ["x"], [-2], 1, {})
