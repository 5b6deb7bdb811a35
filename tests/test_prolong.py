import os
import subprocess
import sys
from fractions import Fraction as F
from math import comb
from pathlib import Path

import pytest

import gspencer
from gspencer.algebra import grading_report, jacobi_report
from gspencer import prolong
from gspencer.errors import InputError, InternalInvariantError
from gspencer.linalg import RMatrix, Subspace, kernel_of_rows, nonzero_pairs
from gspencer.fileio import parse_algebra, serialize_algebra
from gspencer.models import (co_generators, cr_algebra, glc_generators, so_generators,
                             space_form_algebra)
from gspencer.prolong import (LinearLieAlgebra, build_graded_algebra, monomials, prolong_step,
                              sym_space_dim)
from gspencer.spencer import cohomology_dims, standard_complex

from conftest import rng_for
from oracles import contraction, entries_of, mat_mul, matrix

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_so_first_prolongation_vanishes():
    for n in (2, 3, 4):
        h0 = so_generators(n)
        assert prolong_step(h0.span(), h0).dim == 0


def test_co3_prolongation_dims():
    h0 = co_generators(3)
    h1 = prolong_step(h0.span(), h0)
    assert h1.dim == 3
    assert prolong_step(h1, h0).dim == 0


def test_glc2_first_prolongation_dim():
    h0 = glc_generators(2)
    assert prolong_step(h0.span(), h0).dim == 12  # 2 * (2 * binom(3,2))


def test_build_so3_matches_flat_space_form():
    res = build_graded_algebra(so_generators(3), 2)
    assert res.finite_type
    assert res.stabilization_order == 1
    asm = res.assembled
    model = space_form_algebra(3, 0)
    assert asm.dim == model.dim and asm.height == 1
    # identical layout: coordinates first, then the A_ij echelon basis, which
    # for so_3 is again the A_ij matrices
    for i in range(asm.dim):
        for j in range(i + 1, asm.dim):
            assert asm.bracket_basis(i, j) == model.bracket_basis(i, j)


def test_build_co_matches_dims():
    for n in (3, 4):
        res = build_graded_algebra(co_generators(n), 3)
        assert res.finite_type
        assert res.orders[1].dim == n and res.orders[2].dim == 0
        assert res.assembled.component_dim(1) == n


def test_glc_not_finite_and_dims():
    res = build_graded_algebra(glc_generators(2), 3)
    assert not res.finite_type
    assert res.truncation_order == 3
    for p in (1, 2, 3):
        assert res.orders[p].dim == 2 * 2 * comb(2 + p, p + 1)
    with pytest.raises(InputError):
        res.order_dim(4)


def test_assembled_pass_reports():
    # the conjugated co_3 has rational structure constants in every layer
    for res in (build_graded_algebra(co_generators(3), 3),
                build_graded_algebra(glc_generators(2), 2),
                build_graded_algebra(_conjugated(co_generators(3)), 3)):
        assert jacobi_report(res.assembled) == []
        assert grading_report(res.assembled) == []


def test_transitivity_of_assembled():
    # [X, h^{-1}] = 0 forces X = 0 in nonnegative degrees
    res = build_graded_algebra(co_generators(3), 3)
    a = res.assembled
    n = a.component_dim(-1)
    for d in range(0, a.height):
        idxs = a.component_indices(d)
        if not idxs:
            continue
        rows = []
        for vj in range(n):
            for out in range(a.dim):
                row = [a.bracket_basis(i, vj).get(out, F(0)) for i in idxs]
                rows.append(nonzero_pairs(row))
        assert kernel_of_rows(rows, len(idxs)).dim == 0


def test_prolongation_symmetry_and_injectivity():
    h0 = co_generators(3)
    h1 = prolong_step(h0.span(), h0)
    n = 3
    for t in h1.basis_vectors():
        # T(u)(v) = T(v)(u) on basis pairs
        for u in range(n):
            tu = contraction(n, 1, t, u)
            for v in range(n):
                tv = contraction(n, 1, t, v)
                for i in range(n):
                    assert tu[i * n + v] == tv[i * n + u]
    # contraction is injective on the layer
    rows = []
    basis = h1.basis_vectors()
    for j in range(n):
        for coord in range(sym_space_dim(n, 0)):
            rows.append(nonzero_pairs([contraction(n, 1, b, j)[coord] for b in basis]))
    assert kernel_of_rows(rows, h1.dim).dim == 0


def test_bracket_recursion_certified():
    # the assembled bracket satisfies [T, v] = [[X, v], Y] + [X, [Y, v]] for
    # T = [X, Y] in every degree pair whose sum is represented; gl_2(C) has
    # monomials with repeated indices, and the conjugated algebras have real
    # denominators in every layer
    for h0 in (co_generators(3), glc_generators(2),
               _conjugated(co_generators(3)), _conjugated(glc_generators(2))):
        a = build_graded_algebra(h0, 3).assembled
        top = a.max_represented_degree()
        for dx in range(top + 1):
            for dy in range(dx, top - dx + 1):
                for i in a.component_indices(dx)[:3]:
                    for j in a.component_indices(dy)[:3]:
                        x, y = a.basis_element(i), a.basis_element(j)
                        t = a.bracket(x, y)
                        for v in a.component_indices(-1):
                            ev = a.basis_element(v)
                            rhs = [p + q for p, q in zip(a.bracket(a.bracket(x, ev), y),
                                                         a.bracket(x, a.bracket(y, ev)))]
                            assert list(a.bracket(t, ev)) == rhs


def test_certificate_rejects_bracket_outside_its_layer(monkeypatch):
    # keeping one vector of each co_3 layer leaves h^1 a line that [h^0, h^1]
    # does not preserve (co_3 acts irreducibly on h^1), so a bracket leaves it
    full_step = prolong.prolong_step

    def first_vector_only(h_p, h0):
        layer = full_step(h_p, h0)
        return Subspace.from_vectors(layer.ambient_dim, layer.rows[:1])

    monkeypatch.setattr(prolong, "prolong_step", first_vector_only)
    with pytest.raises(InternalInvariantError):
        build_graded_algebra.__wrapped__(co_generators(3), 3)


GOLDEN_ALGEBRAS = [
    ("glc2_order3.alg", lambda: build_graded_algebra(glc_generators(2), 3).assembled),
    ("co4_order3.alg", lambda: build_graded_algebra(co_generators(4), 3).assembled),
    ("cr_3_1_2.alg", lambda: cr_algebra(3, 1, 2)[0]),
    ("co3_conj_order3.alg", lambda: build_graded_algebra(_conjugated(co_generators(3)), 3).assembled),
]


@pytest.mark.parametrize("name, build", GOLDEN_ALGEBRAS)
def test_assembled_algebra_matches_golden_file(name, build):
    assert serialize_algebra(build()) == (GOLDEN / name).read_text(encoding="utf-8")


def test_assembled_golden_files_match_in_fresh_interpreter():
    # another interpreter with another hash seed: no in-process cache and no
    # set or dict order can make the files agree; it prints the names that differ
    script = ("from gspencer.fileio import serialize_algebra\n"
              "from test_prolong import GOLDEN, GOLDEN_ALGEBRAS\n"
              "for name, build in GOLDEN_ALGEBRAS:\n"
              "    if serialize_algebra(build()) != (GOLDEN / name).read_text(encoding='utf-8'):\n"
              "        print(name)\n")
    src = str(Path(gspencer.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, str(GOLDEN.parent), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, timeout=300)
    assert (proc.returncode, proc.stdout) == (0, b""), proc.stderr.decode()


def _conjugated(h0: LinearLieAlgebra) -> LinearLieAlgebra:
    """g h0 g^-1 for g upper triangular with diagonal 2, 3, 4, ... and entries
    k/3 above it, so det g is not +-1 and g^-1 has real denominators."""
    n = h0.v_dim
    g = [[F(i + 2) if i == j else F(i + j + 1, 3) if i < j else F(0) for j in range(n)]
         for i in range(n)]
    # g^-1 by back substitution, column by column, independent of the library
    ginv = [[F(0)] * n for _ in range(n)]
    for c in range(n):
        for i in reversed(range(n)):
            rhs = (1 if i == c else 0) - sum(g[i][k] * ginv[k][c] for k in range(i + 1, n))
            ginv[i][c] = rhs / g[i][i]
    gm, gi = RMatrix(g), RMatrix(ginv)
    return LinearLieAlgebra(n, [entries_of(mat_mul(mat_mul(gm, matrix(a, n)), gi))
                                for a in h0.generators])


@pytest.mark.parametrize("h0, max_order", [
    (co_generators(3), 3), (so_generators(3), 1), (glc_generators(2), 3)],
    ids=["co3", "so3", "glc2"])
def test_prolongation_invariant_under_rational_conjugation(h0, max_order):
    # (g h0 g^-1)^(k) = g . h0^(k), so every order has the same dimension
    plain = build_graded_algebra(h0, max_order)
    conj = build_graded_algebra(_conjugated(h0), max_order)
    assert any(x.denominator > 1 for g in conj.h0.generators for _, _, x in g)
    assert {p: s.dim for p, s in conj.orders.items()} == {p: s.dim for p, s in plain.orders.items()}
    assert conj.finite_type == plain.finite_type


def _inverse_and_det(g):
    """g^-1 (None if singular) and det g by Gauss-Jordan on Fractions,
    independent of the library."""
    n = len(g)
    aug = [list(row) + [F(int(i == j)) for j in range(n)] for i, row in enumerate(g)]
    det = F(1)
    for c in range(n):
        p = next((r for r in range(c, n) if aug[r][c]), None)
        if p is None:
            return None, F(0)
        aug[c], aug[p] = aug[p], aug[c]
        piv = aug[c][c]
        det *= piv if p == c else -piv
        aug[c] = [x / piv for x in aug[c]]
        for r in range(n):
            if r != c and (f := aug[r][c]):
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug], det


def _random_block_conjugated(h0: LinearLieAlgebra, tag: str) -> LinearLieAlgebra:
    """g h0 g^-1 for a seeded random rational g, block upper triangular for
    V = span(e_1..e_w) + the rest with a drawn 1 <= w < dim V, and det g not 0 or
    +-1, so g^-1 has real denominators."""
    rng = rng_for(f"block-conjugate:{tag}")
    n = h0.v_dim
    w = rng.randint(1, n - 1)
    ginv, det = None, F(0)
    while det in (0, 1, -1):
        g = [[F(0) if i >= w > j else F(rng.randint(-3, 3), rng.randint(1, 4)) for j in range(n)]
             for i in range(n)]
        ginv, det = _inverse_and_det(g)
    gm, gi = RMatrix(g), RMatrix(ginv)
    assert mat_mul(gm, gi) == RMatrix.identity(n)
    return LinearLieAlgebra(n, [entries_of(mat_mul(mat_mul(gm, matrix(a, n)), gi))
                                for a in h0.generators])


@pytest.mark.parametrize("conjugate, max_order", [
    (lambda: _conjugated(co_generators(3)), 3),
    (lambda: _conjugated(glc_generators(2)), 3),
    (lambda: _random_block_conjugated(so_generators(3), "so3"), 1),
    (lambda: _random_block_conjugated(co_generators(3), "co3"), 2),
    (lambda: _random_block_conjugated(glc_generators(2), "glc2"), 2)],
    ids=["co3", "glc2", "so3-random", "co3-random", "glc2-random"])
def test_conjugated_assembled_round_trip(conjugate, max_order):
    # rational structure constants survive serialize -> parse (with its Jacobi
    # and grading checks) -> serialize
    a = build_graded_algebra(conjugate(), max_order).assembled
    assert any(c.denominator > 1 for coeffs in a.constants().values() for c in coeffs.values())
    text = serialize_algebra(a)
    again = parse_algebra(text, validate=True)
    assert serialize_algebra(again) == text
    assert again.constants() == a.constants()


def test_cohomology_invariant_under_rational_conjugation():
    # g is upper triangular, so it preserves W = span(e_1..e_w) and the
    # conjugated complex is isomorphic to the plain one
    h0 = co_generators(3)
    plain = build_graded_algebra(h0, 3).assembled
    conj = build_graded_algebra(_conjugated(h0), 3).assembled
    for w in (1, 2, 3):
        cp, cc = standard_complex(plain, w), standard_complex(conj, w)
        for p in (0, 1, 2):
            for q in (1, 2):
                for r in (0, 1):
                    a, b = cohomology_dims(cp, p, q, r), cohomology_dims(cc, p, q, r)
                    assert (a.dim_space, a.dim_z, a.dim_b) == (b.dim_space, b.dim_z, b.dim_b), \
                        (w, p, q, r)


def test_monomial_order_is_graded_lex():
    assert monomials(2, 2) == ((0, 0), (0, 1), (1, 1))
    assert monomials(3, 1) == ((0,), (1,), (2,))


def test_closure_check_rejects_non_algebra():
    # a single nilpotent matrix plus a non-commuting one that leaves the span
    m1 = ((0, 1, 1),)
    m2 = ((1, 0, 1),)
    bad = LinearLieAlgebra(2, (m1, m2))
    with pytest.raises(InputError):
        bad.check()
