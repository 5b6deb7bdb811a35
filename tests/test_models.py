from fractions import Fraction as F
from math import comb

import pytest

from gspencer import models
from gspencer.algebra import GradedLieAlgebra, grading_report, jacobi_report
from gspencer.claims import verify_conformal_prolongation
from gspencer.errors import InputError
from gspencer.linalg import ONE, Subspace, combine, nonzero_pairs, subspace_intersection
from gspencer.models import (co_generators, conformal_algebra,
                             cr_algebra, cr_expected_layer_dim, cr_extend_cochain,
                             cr_integrability_test, cr_j_residual, cr_w_complex, r21_submodule,
                             so_generators, space_form_algebra)
from gspencer.spencer import (Cochain, cochain_from_coords, cohomology_dims, random_cocycle,
                              space_dimension, spencer_d)

import oracles
from conftest import rng_for
from oracles import column, contains_subspace, mat_mul, mat_vec, matrix


def test_space_form_dimensions():
    for n in (2, 3, 4):
        a = space_form_algebra(n, 1)
        assert a.dim == n + n * (n - 1) // 2
    assert space_form_algebra(3, 1).dim == 6  # isomorphic to so_4


def test_space_form_flat_coordinates_commute():
    a = space_form_algebra(4, 0)
    for i in range(4):
        for j in range(4):
            br = a.bracket(a.basis_element(i), a.basis_element(j))
            assert all(v == 0 for v in br)


def test_space_form_negative_curvature_sign():
    a = space_form_algebra(3, -1)
    br = a.bracket(a.basis_element(0), a.basis_element(1))
    # [e1, e2] = -(E21 - E12) = +A12
    assert br[a.index_of("A1_2")] == F(1)


@pytest.mark.parametrize("n,k0", [(2, 0), (3, 0), (4, 0), (2, 1), (3, 1), (4, 1),
                                  (3, -1), (5, 0)])
def test_space_form_reports(n, k0):
    a = space_form_algebra(n, k0)
    assert jacobi_report(a) == []
    assert grading_report(a) == []


def test_conformal_dimension():
    assert conformal_algebra(3).dim == 10  # = dim so(4,1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_conformal_reports(n):
    a = conformal_algebra(n)
    assert jacobi_report(a) == []
    assert grading_report(a) == []


def test_conformal_restricts_to_flat_space_form():
    # dropping I and the duals leaves exactly the flat space-form brackets
    n = 4
    conf = conformal_algebra(n)
    flat = space_form_algebra(n, 0)
    for i in range(flat.dim):
        for j in range(i + 1, flat.dim):
            assert conf.bracket_basis(i, j) == flat.bracket_basis(i, j)


def test_r21_dims():
    assert r21_submodule(2).dim == 2
    assert r21_submodule(3).dim == 8
    for n in range(2, 7):
        assert r21_submodule(n).dim - n == (n ** 3 - 4 * n) // 3


def test_cr_structure_invariants():
    alg, data = cr_algebra(2, 1, 2)
    n = 4
    assert alg.component_dim(-1) == n
    assert alg.component_dim(0) == 8  # 2 * m^2
    assert len(data.w_indices) == 3
    jmat = matrix(data.j, 2 * data.m_tilde)
    jj = mat_mul(jmat, jmat)
    assert all(jj.data[i][j] == (F(-1) if i == j else F(0)) for i in range(n)
               for j in range(n))
    # J(W-perp) inside U-perp
    for i in data.w_perp_indices:
        col = column(jmat, i)
        assert all(col[t] == 0 for t in range(n) if t not in data.u_perp_indices)
    # U = W intersect J(W), dimension 2(m-k)
    w = Subspace.from_vectors(n, [[(i, F(1))] for i in data.w_indices])
    jw = Subspace.from_vectors(n, [nonzero_pairs(mat_vec(jmat, v)) for v in w.basis_vectors()])
    u = subspace_intersection(w, jw)
    expected_u = Subspace.from_vectors(n, [[(i, F(1))] for i in data.u_indices])
    assert u == expected_u
    assert u.dim == 2 * (2 - 1)
    # J(W) is not contained in W when k >= 1
    assert jw != w and not contains_subspace(w, jw)


def test_cr_layer_dims_match_formula():
    alg, data = cr_algebra(2, 1, 2)
    for p in (1, 2):
        assert alg.component_dim(p) == cr_expected_layer_dim(2, p)


def test_cr_degree_zero_commutes_with_j():
    alg, data = cr_algebra(2, 1, 1)
    layer0 = data.prolongation.orders[0]
    n = 4
    jmat = matrix(data.j, 2 * data.m_tilde)
    for vec in layer0.basis_vectors():
        m = [vec[i * n:(i + 1) * n] for i in range(n)]
        for r in range(n):
            for c in range(n):
                mj = sum(m[r][t] * jmat.data[t][c] for t in range(n))
                jm = sum(jmat.data[r][t] * m[t][c] for t in range(n))
                assert mj == jm


def test_cr_reports():
    for m, k in ((2, 1), (3, 2)):
        alg, _ = cr_algebra(m, k, 2)
        assert jacobi_report(alg) == []
        assert grading_report(alg) == []


def test_cr_parameter_validation():
    with pytest.raises(InputError):
        cr_algebra(2, 2, 2)
    with pytest.raises(InputError):
        cr_algebra(3, 0, 2)
    with pytest.raises(InputError):
        cr_algebra(2, 1, 0)


def test_cr_cohomology_beyond_truncation_rejected():
    # B in bidegree (3, 2) needs the degree-3 layer, which order 2 truncates away
    alg, data = cr_algebra(2, 1, 2)
    with pytest.raises(InputError):
        cohomology_dims(cr_w_complex(alg, data), 3, 2, 0)


def test_cr_extension_zero_and_restriction():
    alg, data = cr_algebra(2, 1, 2)
    cw = cr_w_complex(alg, data)
    zero = Cochain.zero(cw, 1, 2, 0)
    ext0 = cr_extend_cochain(zero, data)
    assert ext0.is_zero()
    rng = rng_for("crext")
    for p in (1, 2):
        for _ in range(5):
            z = random_cocycle(cw, p, 2, 0, rng)
            ext = cr_extend_cochain(z, data)
            for tup, v in z.values.items():
                assert ext.values[tup] == v
            assert spencer_d(ext).is_zero()


def test_cr_integrability_zero_passes():
    alg, data = cr_algebra(2, 1, 2)
    cw = cr_w_complex(alg, data)
    assert cr_integrability_test(Cochain.zero(cw, 0, 2, 0), data)
    with pytest.raises(InputError):  # values outside V
        cr_j_residual(Cochain.zero(cw, 1, 2, 0), data)


def _condition_kernels(data, w_valued: bool):
    """Kernels of the second condition alone and of both, over tables on L^2 W.

    Tables are V-valued unless w_valued restricts the target to W.
    """
    from itertools import combinations
    from gspencer.linalg import ZERO, kernel_of_rows, nonzero_pairs

    n_v = 2 * data.m_tilde
    jmat = matrix(data.j, n_v)
    n_w = len(data.w_indices)
    targets = list(range(n_w)) if w_valued else list(range(n_v))
    pairs = list(combinations(range(n_w), 2))
    dim_t = len(targets) * len(pairs)
    u_set = set(data.u_indices)
    unit = [tuple(F(1) if s == i else F(0) for s in range(n_w)) for i in range(n_w)]

    def add_eval(row, u, v, sign, jwrap, tgt_i):
        for t_i, (a, b) in enumerate(pairs):
            minor = u[a] * v[b] - u[b] * v[a]
            if minor:
                for pos, val_t in enumerate(targets):
                    if jwrap:
                        jc = jmat.data[tgt_i][val_t]
                        if jc:
                            row[pos * len(pairs) + t_i] += sign * minor * jc
                    elif val_t == tgt_i:
                        row[pos * len(pairs) + t_i] += sign * minor

    rows1, rows2 = [], []
    for i, jdx in combinations(data.u_indices, 2):
        u1, u2 = unit[i], unit[jdx]
        ju1 = column(jmat, i)[:n_w]
        ju2 = column(jmat, jdx)[:n_w]
        for tgt in range(n_v):
            row = [ZERO] * dim_t
            add_eval(row, u1, u2, F(1), False, tgt)
            add_eval(row, ju1, ju2, F(-1), False, tgt)
            if tgt not in u_set and any(row):
                rows1.append(tuple(row))
            row2 = list(row)
            add_eval(row2, ju1, u2, F(1), True, tgt)
            add_eval(row2, u1, ju2, F(1), True, tgt)
            if any(row2):
                rows2.append(tuple(row2))
    rows1, rows2 = [nonzero_pairs(r) for r in rows1], [nonzero_pairs(r) for r in rows2]
    return (kernel_of_rows(rows2, dim_t), kernel_of_rows(rows1 + rows2, dim_t),
            targets, pairs)


def test_cr_membership_line_implied_for_w_valued():
    # for W-valued tables the Nijenhuis-type line forces the U-membership line
    for m, k in ((2, 1), (3, 1)):
        alg, data = cr_algebra(m, k, 2)
        k2, kboth, _, _ = _condition_kernels(data, w_valued=True)
        assert k2 == kboth


def test_cr_integrability_membership_violator_v_valued():
    # with values allowed outside W (a W-perp component added), a table can
    # satisfy the Nijenhuis-type line yet fail U-membership; the test rejects it
    alg, data = cr_algebra(3, 1, 2)
    cw = cr_w_complex(alg, data)
    k2, kboth, targets, pairs = _condition_kernels(data, w_valued=False)
    assert k2.dim > kboth.dim
    violator = next(v for v in k2.basis_vectors() if not kboth.contains(v))
    n_v = alg.component_dim(-1)
    vals = {}
    for t_i, pair in enumerate(pairs):
        vec = [F(0)] * n_v
        for pos, tgt in enumerate(targets):
            vec[tgt] = violator[pos * len(pairs) + t_i]
        vals[pair] = nonzero_pairs(vec)
    t = Cochain(cw, 0, 2, 0, vals)
    assert not cr_integrability_test(t, data)


def test_generator_families():
    assert len(so_generators(4).generators) == 6
    assert len(co_generators(4).generators) == 7
    so_generators(4).check()
    co_generators(3).check()


def _random_cochains(c, p, rng, count):
    """Seeded 2-cochains of bidegree (p, 2) with rational values."""
    n = space_dimension(c, p, 2, 0)
    return [cochain_from_coords(c, p, 2, 0, [(k, F(rng.randint(-3, 3), rng.randint(1, 3)))
                                             for k in range(n)]) for _ in range(count)]


def _matches_dense_oracle(alg, data, rng):
    """The sparse CR extension and J-residual agree with their dense references on
    seeded random cochains: extensions in every computed value degree, residuals on
    V-valued cochains."""
    cw = cr_w_complex(alg, data)
    for p in range(0, alg.max_represented_degree() + 2):
        for x in _random_cochains(cw, p, rng, 2):
            if cr_extend_cochain(x, data) != oracles.cr_extend_cochain(x, data):
                return False
    return all(cr_j_residual(t, data) == oracles.cr_j_residual(t, data)
               for t in _random_cochains(cw, 0, rng, 3))


@pytest.mark.parametrize("m,k", [(2, 1), (3, 1), (3, 2)])
def test_cr_maps_match_dense_oracle(m, k):
    alg, data = cr_algebra(m, k, 2)
    assert _matches_dense_oracle(alg, data, rng_for(f"cr-oracle-{m}-{k}"))


def test_dense_oracle_catches_a_sign_flip(monkeypatch):
    # a sparse evaluation that forgets the sign of unsorted argument pairs
    def unsigned(x, u, v):
        return combine((x.values.get((min(a, b), max(a, b)), ()), s * t)
                       for a, s in u for b, t in v)

    monkeypatch.setattr(models, "_evaluate_2", unsigned)
    alg, data = cr_algebra(2, 1, 2)
    assert not _matches_dense_oracle(alg, data, rng_for("cr-oracle-2-1"))


@pytest.mark.parametrize("m", [2, 3])
def test_mult_i_squares_to_minus_one(m):
    alg, data = cr_algebra(m, 1, 2)
    for d in (-1, 0, 1, 2):
        assert alg.component_dim(d)
        for b in range(alg.component_dim(d)):
            assert data.mult_i(d, data.mult_i(d, [(b, ONE)])) == [(b, -ONE)], (d, b)


def _defective_conformal(n, edit):
    """conformal_algebra(n) rebuilt from its constants after edit(constants)."""
    a = conformal_algebra(n)
    table = a.constants()
    edit(table)
    return GradedLieAlgebra(a.name, a.names, a.degrees, a.height, table, a.grading_kind)


def _flip(pick):
    """An edit that negates one constant: the picked target of the picked pair."""
    def edit(table):
        pair = pick(table)
        t = pick(table[pair])
        table[pair][t] = -table[pair][t]
    return edit


def _stray_target(table):
    # [e_1, f^1] gains an e_1 term, outside degree 0
    table[(0, conformal_algebra(3).index_of("f1"))][0] = ONE


@pytest.mark.parametrize("edit", [_flip(min), _flip(max), _stray_target],
                         ids=["flip-first", "flip-last", "stray-target"])
def test_conformal_verification_fails_on_planted_defect(monkeypatch, edit):
    assert verify_conformal_prolongation(3)
    monkeypatch.setattr(models, "conformal_algebra", lambda n: _defective_conformal(n, edit))
    assert not verify_conformal_prolongation(3)
