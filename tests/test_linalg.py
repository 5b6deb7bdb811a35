from fractions import Fraction as F

import pytest

from gspencer.linalg import (InputError, RMatrix, Subspace, clear_denominators, clear_rows,
                             combine, deterministic_complement, dense, kernel_basis, kernel_of_rows,
                             nonzero_pairs, rank_of_rows, rref, solve_linear, solve_particular,
                             subspace_intersection, subspace_sum)

from conftest import rng_for, int_vector
from oracles import zeros


def mat(rows):
    return RMatrix(rows)


def test_rref_identity_fixed():
    m = RMatrix.identity(2)
    assert rref(m) == m


def test_rref_rank_one():
    assert rref(mat([[1, 2], [2, 4]])).data == ((F(1), F(2)), (F(0), F(0)))


def test_rref_row_swap():
    assert rref(mat([[0, 1], [1, 0]])) == RMatrix.identity(2)


def test_rref_idempotent_random():
    rng = rng_for("rref")
    for _ in range(30):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = mat([[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)])
        red = rref(m)
        assert rref(red) == red


def test_rank_nullity():
    rng = rng_for("ranknull")
    for _ in range(30):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = mat([[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)])
        assert rank_of_rows(nonzero_pairs(v) for v in m.data) + kernel_basis(m).dim == c


def test_clear_denominators_drops_zero_values():
    # zero values, int or Fraction, leave no entry, with or without denominators
    assert clear_denominators([]) == (1, {})
    assert clear_denominators([(0, 0), (1, F(0)), (2, 3), (3, F(-2))]) == (1, {2: 3, 3: -2})
    assert clear_denominators([(0, F(1, 2)), (1, 0), (2, F(0)), (3, 2), (4, F(-1, 3))]) \
        == (6, {0: 3, 3: 12, 4: -2})
    # clear_rows clears keyed rows over one denominator; a row of zeros gets no key
    assert clear_rows([("a", [(0, F(1, 2)), (3, F(1, 3))]), ("b", [(1, 2), (2, F(0))]),
                       ("c", [(0, F(0))]), ("d", [])]) == (6, {"a": [(0, 3), (3, 2)],
                                                               "b": [(1, 12)]})


def test_rank_of_rows_matches_sympy():
    # random sparse rational rows with zero values, zero rows, a duplicate row and
    # a dependent one, against sympy's rank over QQ
    sympy = pytest.importorskip("sympy")
    rng = rng_for("rank-of-rows")
    assert rank_of_rows([]) == 0
    for _ in range(60):
        n = rng.randint(1, 7)
        rows = [[(k, F(rng.randint(-4, 4), rng.randint(1, 5)))
                 for k in rng.sample(range(n), rng.randint(0, n))]
                for _ in range(rng.randint(0, 5))]
        rows.append([])
        if rows[0]:
            rows.append(list(reversed(rows[0])))
        rows.append(combine((row, F(rng.randint(-3, 3), rng.randint(1, 3))) for row in rows))
        rng.shuffle(rows)
        m = sympy.zeros(len(rows), n)
        for i, row in enumerate(rows):
            for k, x in row:
                m[i, k] = sympy.Rational(x.numerator, x.denominator)
        assert rank_of_rows(rows) == m.rank()


def test_kernel_identity():
    assert kernel_basis(RMatrix.identity(3)).dim == 0


def test_kernel_rank_one():
    k = kernel_basis(mat([[1, 2], [2, 4]]))
    expected = Subspace.from_vectors(2, [[(0, F(-2)), (1, F(1))]])
    assert k == expected


def test_kernel_zero_matrix():
    assert kernel_basis(zeros(2, 3)) == Subspace.full(3)


def test_solve_scalar():
    x, ker = solve_linear(mat([[2]]), [F(3)])
    assert x == (F(3, 2),)
    assert ker.dim == 0


def test_solve_inconsistent():
    assert solve_linear(mat([[1, 1], [1, 1]]), [F(1), F(2)]) is None


def test_solve_with_kernel():
    x, ker = solve_linear(mat([[1, 0], [0, 0]]), [F(5), F(0)])
    assert x == (F(5), F(0))
    assert ker == Subspace.from_vectors(2, [[(1, F(1))]])


def test_solve_dimension_mismatch():
    with pytest.raises(InputError):
        solve_linear(mat([[1, 0]]), [F(1), F(2)])


def test_solve_particular_many_targets():
    # one elimination answers every target; a target outside the image gives None
    rows = [[(0, F(2)), (1, F(4))], [(2, F(3))], [(0, F(1)), (1, F(2)), (2, F(3))]]
    sols = solve_particular(rows, 3, [[(0, F(2)), (2, F(1))], [], [(1, F(1, 2)), (2, F(1, 2))]])
    assert sols == [[(0, F(1))], [], [(2, F(1, 6))]]
    assert solve_particular(rows, 3, [[(0, F(1))]]) is None
    assert solve_particular(rows, 3, [[(0, F(2))], [(0, F(1))]]) is None


def e(n, i):
    return tuple(F(1) if j == i else F(0) for j in range(n))


def span(n, vectors):
    return Subspace.from_vectors(n, [nonzero_pairs(v) for v in vectors])


def test_intersection_coordinate_planes():
    a = span(3, [e(3, 0), e(3, 1)])
    b = span(3, [e(3, 1), e(3, 2)])
    assert subspace_intersection(a, b) == span(3, [e(3, 1)])


def test_intersection_idempotent():
    s = span(3, [(F(1), F(2), F(0)), (F(0), F(1), F(1))])
    assert subspace_intersection(s, s) == s


def test_intersection_trivial():
    a = span(2, [e(2, 0)])
    b = span(2, [e(2, 1)])
    assert subspace_intersection(a, b).dim == 0


def test_intersection_ambient_mismatch():
    with pytest.raises(InputError):
        subspace_intersection(Subspace.full(2), Subspace.full(3))


def test_dimension_formula_bruteforce():
    # dim(A^B) + dim(A+B) = dim A + dim B, with the sum rank computed from
    # the raw spanning set as an independent check
    rng = rng_for("dimformula")
    for _ in range(40):
        n = rng.randint(2, 5)
        a = span(n, [int_vector(rng, n) for _ in range(rng.randint(0, n))])
        b = span(n, [int_vector(rng, n) for _ in range(rng.randint(0, n))])
        inter = subspace_intersection(a, b)
        brute_sum_rank = rank_of_rows(nonzero_pairs(v)
                                      for v in a.basis_vectors() + b.basis_vectors())
        assert subspace_sum(a, b).dim == brute_sum_rank
        assert inter.dim + brute_sum_rank == a.dim + b.dim


def test_complement_of_zero():
    z = Subspace.zero(2)
    assert deterministic_complement(z, Subspace.full(2)) == Subspace.full(2)


def test_complement_greedy_picks_e2():
    s = span(2, [e(2, 0)])
    assert deterministic_complement(s, Subspace.full(2)) == span(2, [e(2, 1)])


def test_complement_of_self():
    s = span(3, [e(3, 0), e(3, 2)])
    assert deterministic_complement(s, s).dim == 0


def test_complement_containment_error():
    with pytest.raises(InputError):
        deterministic_complement(Subspace.full(2), span(2, [e(2, 0)]))


def test_complement_direct_sum_property():
    rng = rng_for("complement")
    for _ in range(40):
        n = rng.randint(2, 5)
        sup = span(n, [int_vector(rng, n) for _ in range(rng.randint(1, n + 1))])
        if sup.dim == 0:
            continue
        k = rng.randint(0, sup.dim)
        sub = Subspace.from_vectors(n, sup.rows[:k])
        comp = deterministic_complement(sub, sup)
        assert subspace_sum(sub, comp) == sup
        assert subspace_intersection(sub, comp).dim == 0
        assert sub.dim + comp.dim == sup.dim


def test_membership():
    s = span(2, [(F(1), F(1))])
    assert s.contains((F(1), F(1)))
    assert s.contains((F(2), F(2)))
    assert not span(2, [e(2, 1)]).contains((F(1), F(0), ))
    assert s.contains((F(0), F(0)))
    assert Subspace.zero(2).contains((F(0), F(0)))


def test_rational_invariants():
    # scalars stay in lowest terms with positive denominators
    x = F(4, -6)
    assert x.denominator > 0 and abs(x.numerator) == 2 and x.denominator == 3
    red = rref(mat([[F(1, 3), F(1, 6)], [F(2), F(1)]]))
    for row in red.data:
        for v in row:
            assert v.denominator > 0


def test_echelon_kernel_and_rank_match_sympy():
    """Row space, kernel, rank and coordinates against sympy over QQ on small sparse matrices."""
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    # small entries make dependent rows likely; huge numerators and denominators
    # catch any shortcut that assumes integer or machine-sized values
    near_2_70 = st.builds(lambda s, d: F(s * 2**70 + d), st.sampled_from((1, -1)),
                          st.integers(-3, 3))
    entry = st.one_of(st.just(F(0)), st.fractions(-5, 5, max_denominator=4),
                      st.fractions(max_denominator=10**12), near_2_70)

    def to_fraction(x):
        return F(int(x.p), int(x.q))

    def to_sympy(rows, n):
        return sympy.Matrix(len(rows), n, [sympy.Rational(x.numerator, x.denominator)
                                           for row in rows for x in row])

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(0, 5), st.integers(1, 6), st.data())
    def check(m, n, data):
        rows = [tuple(data.draw(entry) for _ in range(n)) for _ in range(m)]
        sm = to_sympy(rows, n)
        red, pivots = sm.rref()
        space = span(n, rows)
        assert space.basis_vectors() == tuple(tuple(to_fraction(x) for x in red.row(i))
                                              for i in range(len(pivots)))
        assert space.pivot_rows == tuple(pivots)
        null = [tuple(to_fraction(x) for x in v) for v in sm.nullspace()]
        assert kernel_of_rows([nonzero_pairs(v) for v in rows], n) == span(n, null)
        assert rank_of_rows(nonzero_pairs(v) for v in rows) == sm.rank()
        # a drawn vector is outside exactly when appending it raises the rank
        v = tuple(data.draw(entry) for _ in range(n))
        coords = space.coordinates(nonzero_pairs(v))
        assert (coords is None) == (to_sympy(rows + [v], n).rank() > sm.rank())
        if coords is not None:
            assert dense(combine((space.rows[b], c) for b, c in coords), n) == v
        # a combination of the basis gives back its coefficients
        coeffs = tuple(data.draw(entry) for _ in range(space.dim))
        w = dense(combine(zip(space.rows, coeffs)), n)
        assert space.coordinates(nonzero_pairs(w)) == nonzero_pairs(coeffs)

    check()


def test_combine_matches_fraction_sum():
    """combine against a plain Fraction dict sum, with int and Fraction values and
    coefficients, zero coefficients, repeated columns and huge entries."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    near_2_70 = st.builds(lambda s, d: s * 2**70 + d, st.sampled_from((1, -1)), st.integers(-3, 3))
    value = st.one_of(st.integers(-5, 5), st.fractions(-5, 5, max_denominator=12),
                      st.fractions(max_denominator=10**15), near_2_70,
                      st.builds(F, near_2_70, st.integers(1, 10**20)))
    row = st.lists(st.tuples(st.integers(0, 5), value), max_size=6)

    # cancels to the empty row; the last term's denominator 21 does not divide 2,
    # so the running denominator is raised after columns 0 and 1 hold sums
    cancelling = [([(0, F(1, 3)), (2, 5)], F(3, 7)), ([(2, F(5)), (0, F(1, 3))], F(-3, 7))]
    late = [([(0, 1), (1, 2)], 1), ([(1, F(1, 2))], 2), ([(0, F(1, 3)), (3, 0)], F(5, 7))]

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(st.tuples(row, value), max_size=5))
    @hypothesis.example(cancelling)
    @hypothesis.example(late)
    def check(terms):
        expect: dict[int, F] = {}
        for r, c in terms:
            for k, x in r:
                expect[k] = expect.get(k, F(0)) + F(c) * F(x)
        out = combine((r, c) for r, c in terms)
        assert out == sorted((k, x) for k, x in expect.items() if x)
        assert all(type(x) is F for _, x in out)

    check()
    assert combine(cancelling) == []


def test_from_vectors_rejects_dense_vectors():
    with pytest.raises(InputError, match="pairs"):
        Subspace.from_vectors(2, [(F(1), F(0))])


def test_coordinates_integer_certificate_matches_sympy():
    """Echelon rows with denominators 3 and 5; int, Fraction and mixed input agree."""
    sympy = pytest.importorskip("sympy")
    spanning = [(3, 0, 1, 2), (0, 5, 2, 0)]
    space = span(4, [tuple(F(x) for x in v) for v in spanning])
    assert {x.denominator for row in space.rows for _, x in row} == {1, 3, 5}
    reduced = sympy.Matrix(spanning).rref()[0]

    def oracle(v):
        try:
            sol = reduced.T.gauss_jordan_solve(sympy.Matrix(v))[0]
        except ValueError:
            return None
        return [(b, F(int(c.p), int(c.q))) for b, c in enumerate(sol) if c]

    # 15 * (2 row_0 - 3 row_1) is inside; changing its last entry, off both
    # pivots, takes it outside
    member, outsider = (30, -45, -8, 20), (30, -45, -8, 21)
    assert oracle(member) == [(0, 30), (1, -45)] and oracle(outsider) is None
    for v in (member, outsider):
        for w in (v, tuple(F(x) for x in v), (v[0], F(v[1]), v[2], F(v[3]))):
            assert space.coordinates(nonzero_pairs(w)) == oracle(v), w
