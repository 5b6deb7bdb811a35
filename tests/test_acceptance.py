"""Acceptance suite: one test per criterion, each printing a pass line.

Exact rational arithmetic means every equality below is exact; the stated
wall-clock budgets are asserted with time.monotonic.  Randomized suites use
the SEED environment variable (fixed default) and at least 50 trials each.
"""

import time
from fractions import Fraction as F
from math import comb

from gspencer.algebra import grading_report, jacobi_report
from gspencer.models import (co_generators, conformal_algebra, cr_algebra,
                             cr_expected_layer_dim, cr_w_complex, glc_generators,
                             r21_submodule, so_generators, space_form_algebra)
from gspencer.obstruction import (AdmissibleTuple, ConstantForm,
                                  admissibility_residuals, bianchi_check, cochain_to_form,
                                  solve_next, solve_to_top, strong_equiv_transport,
                                  total_curvature)
from gspencer.prolong import build_graded_algebra, prolong_step
from gspencer.spencer import (class_representative, cohomology_dims, g_sharp_act,
                              is_coboundary, random_cocycle, random_integer_cochain,
                              spencer_d, standard_complex)

from conftest import rng_for, int_vector


def _report(name: str, budget: float | None, start: float) -> None:
    elapsed = time.monotonic() - start
    budget_s = f" (budget {budget:.0f}s)" if budget else ""
    print(f"PASS {name}: {elapsed:.2f}s{budget_s}")
    if budget is not None:
        assert elapsed < budget


def test_criterion_01_so_prolongation_vanishes():
    start = time.monotonic()
    for n in range(2, 7):
        h0 = so_generators(n)
        assert prolong_step(h0.span(), h0).dim == 0
    _report("criterion 1: so_n first prolongation vanishes, n = 2..6", 5.0, start)


def test_criterion_02_co_prolongation_matches_conformal():
    from gspencer.claims import verify_conformal_prolongation
    start = time.monotonic()
    for n in range(3, 6):
        res = build_graded_algebra(co_generators(n), 3)
        assert res.orders[1].dim == n
        assert res.orders[2].dim == 0
        assert verify_conformal_prolongation(n)
    _report("criterion 2: co_n prolongation dims (n, 0) and brackets match the "
            "conformal model, n = 3..5", 30.0, start)


def test_criterion_03_glc_prolongation_dims():
    start = time.monotonic()
    for m in (2, 3):
        res = build_graded_algebra(glc_generators(m), 3)
        for p in (1, 2, 3):
            assert res.orders[p].dim == 2 * m * comb(m + p, p + 1)
        assert not res.finite_type
        assert res.truncation_order == 3
    _report("criterion 3: gl_m(C) prolongation dims match 2m*C(m+p, p+1), "
            "not finite by order 3, m = 2,3", 60.0, start)


def test_criterion_04_h02_vanishes():
    start = time.monotonic()
    for n_t in range(3, 7):
        for n in range(2, n_t):
            c = standard_complex(space_form_algebra(n_t, 0), n)
            assert cohomology_dims(c, 0, 2, 0).dim_h == 0
    _report("criterion 4: H^(0,2)(so_n~, R^n) = 0 for 2 <= n < n~ <= 6", 30.0, start)


def test_criterion_05_h12_piecewise_sum():
    start = time.monotonic()
    for n, n_t in ((2, 3), (2, 4), (3, 4), (3, 5)):
        got = cohomology_dims(standard_complex(space_form_algebra(n_t, 0), n),
                              1, 2, 0).dim_h
        h_small = cohomology_dims(standard_complex(space_form_algebra(n, 0), n),
                                  1, 2, 0).dim_h
        expected = h_small + (n_t - n) * r21_submodule(n).dim \
            + comb(n_t - n, 2) * comb(n, 2)
        assert got == expected
    _report("criterion 5: H^(1,2)(so_n~, W) equals the direct-sum total, "
            "(n,n~) in {(2,3),(2,4),(3,4),(3,5)}", 60.0, start)


def test_criterion_06_conformal_vanishing_pattern():
    start = time.monotonic()
    assert cohomology_dims(standard_complex(conformal_algebra(3), 2), 1, 2, 0).dim_h == 0
    for n in (4, 5):
        for n_t in (n, n + 1):
            c = standard_complex(conformal_algebra(n_t), n)
            assert cohomology_dims(c, 2, 2, 0).dim_h == 0
    for n_t in (3, 4):
        c = standard_complex(conformal_algebra(n_t), 3)
        assert cohomology_dims(c, 2, 2, 0).dim_h > 0
    _report("criterion 6: conformal vanishing pattern (H^(1,2) at (2,3), H^(2,2) "
            "for n = 4,5; nonzero for n = 3)", 60.0, start)


def test_criterion_07_r21_dimension_formula():
    start = time.monotonic()
    for n in range(2, 7):
        assert r21_submodule(n).dim - n == (n ** 3 - 4 * n) // 3
    _report("criterion 7: dim R^(2,1)(n) - n = (n^3 - 4n)/3 for n = 2..6", None, start)


def test_criterion_08_cr_h_trivial():
    start = time.monotonic()
    for m, k in ((2, 1), (3, 1), (3, 2)):
        alg, data = cr_algebra(m, k, 2)
        c = cr_w_complex(alg, data)
        for p in (1, 2):
            assert cohomology_dims(c, p, 2, 0).dim_h == 0
    _report("criterion 8: CR H^(p,2) trivial for p = 1,2 at (m,k) in "
            "{(2,1),(3,1),(3,2)}", 120.0, start)


def test_criterion_09_cr_integrability_characterization():
    from gspencer.claims import verify_cr_integrability_equivalence
    start = time.monotonic()
    assert verify_cr_integrability_equivalence(2, 1)
    _report("criterion 9: CR coboundary membership coincides with the "
            "J-compatibility conditions at (2,1)", 60.0, start)


def test_criterion_10_property_suites():
    start = time.monotonic()
    rng = rng_for("accept10")

    # d o d = 0: >= 50 trials across the model complexes
    trials = 0
    cases = [
        (standard_complex(conformal_algebra(3), 2), (1, 1, 0)),
        (standard_complex(conformal_algebra(3), 2), (2, 2, 0)),
        (standard_complex(conformal_algebra(3), 3), (2, 1, 1)),
        (standard_complex(conformal_algebra(4), 3), (2, 2, 0)),
        (standard_complex(space_form_algebra(4, 0), 2), (1, 2, 0)),
        (standard_complex(space_form_algebra(5, 0), 3), (1, 1, 1)),
        (cr_w_complex(*cr_algebra(2, 1, 2)), (2, 2, 0)),
    ]
    for c, (p, q, r) in cases:
        for _ in range(8):
            x = random_integer_cochain(c, p, q, r, rng)
            assert spencer_d(spencer_d(x)).is_zero()
            trials += 1
    assert trials >= 50

    # Jacobi and grading for every constructor family
    for a in (space_form_algebra(2, 1), space_form_algebra(3, -1),
              space_form_algebra(4, 0), space_form_algebra(5, 1),
              conformal_algebra(2), conformal_algebra(3), conformal_algebra(4),
              conformal_algebra(5), cr_algebra(2, 1, 2)[0], cr_algebra(3, 1, 2)[0],
              cr_algebra(3, 2, 2)[0]):
        assert jacobi_report(a) == []
        assert grading_report(a) == []

    # generalized Bianchi for iterated-solve admissible tuples, conformal 3 and 4
    bianchi_trials = 0
    for n_t, w_dim in ((3, 2), (3, 3), (4, 3), (4, 4)):
        c = standard_complex(conformal_algebra(n_t), w_dim)
        for _ in range(13):
            om0 = cochain_to_form(random_cocycle(c, 1, 1, 0, rng))
            t = AdmissibleTuple((om0,))
            assert bianchi_check(c, t, 1) == []
            out = solve_next(c, t, 1)
            if isinstance(out, ConstantForm):
                assert bianchi_check(c, t.extended(out), 2) == []
            bianchi_trials += 1
    assert bianchi_trials >= 50

    # g-sharp equivariance: d(X.c) = X.(dc)
    equi_trials = 0
    c = standard_complex(space_form_algebra(4, 0), 2)
    gs = c.g_sharp()
    for _ in range(25):
        coeffs = [F(rng.randint(-2, 2)) for _ in range(gs.dim)]
        comp = [sum(cc * bv[i] for cc, bv in zip(coeffs, gs.basis_vectors()))
                for i in range(gs.ambient_dim)]
        x_elt = c.algebra.embed_component(0, comp)
        for p, q in ((1, 1), (1, 2)):
            x = random_integer_cochain(c, p, q, 0, rng)
            assert spencer_d(g_sharp_act(c, x_elt, x)) == g_sharp_act(c, x_elt, spencer_d(x))
            equi_trials += 1
    assert equi_trials >= 50

    # strong equivalence identities and order-2 curvature invariance
    se_trials = 0
    c = standard_complex(conformal_algebra(3), 3)
    a = c.algebra
    while se_trials < 50:
        om0 = cochain_to_form(random_cocycle(c, 1, 1, 0, rng))
        varpi = int_vector(rng, a.component_dim(1))
        om0p, eps1 = strong_equiv_transport(c, om0, varpi)  # (4.2) verified inside
        out = solve_next(c, AdmissibleTuple((om0,)), 1)
        assert isinstance(out, ConstantForm)
        t_new = AdmissibleTuple((om0p, out + eps1))
        assert all(r.is_zero() for r in admissibility_residuals(c, t_new))
        assert total_curvature(c, AdmissibleTuple((om0, out)), 2) \
            == total_curvature(c, t_new, 2)
        se_trials += 1
    _report("criterion 10: property suites (d^2, Jacobi/grading, Bianchi, "
            "equivariance, strong equivalence), >= 50 trials each", None, start)


def test_criterion_11_solver_soundness():
    start = time.monotonic()
    rng = rng_for("accept11")
    models_list = [
        (standard_complex(conformal_algebra(3), 2), 1),
        (standard_complex(conformal_algebra(4), 4), 1),
        (standard_complex(space_form_algebra(4, 0), 3), 1),
        (standard_complex(space_form_algebra(5, 0), 3), 1),
    ]
    for c, p in models_list:
        nonzero_seen = 0
        for _ in range(50):
            z = random_cocycle(c, p, 2, 0, rng)
            y = is_coboundary(c, z)
            rep = class_representative(c, z)
            assert (y is not None) == rep.is_zero()
            if y is not None:
                assert spencer_d(y) == z
            else:
                nonzero_seen += 1
    # iterated solve returns forms that re-verify admissibility exactly
    c = standard_complex(conformal_algebra(3), 3)
    for _ in range(10):
        om0 = cochain_to_form(random_cocycle(c, 1, 1, 0, rng))
        t, cert = solve_to_top(c, AdmissibleTuple((om0,)))
        if cert is None:
            assert all(r.is_zero() for r in admissibility_residuals(c, t))
    _report("criterion 11: solver soundness (solve iff class zero; solutions "
            "re-verify), 50 seeded cocycles per model", None, start)
