"""The built-in claim suite that ``gspencer paper-verify`` reports.

Each claim is a (claim, expected, computed) row: closed-form prolongation
and cohomology dimensions from the paper, plus two structural checks, the
conformal model against the assembled co_n prolongation and the CR
integrability conditions against degree-0 coboundaries.
"""

from __future__ import annotations

from math import comb

from . import models
from .linalg import (ONE, Subspace, clear_denominators, combine, kernel_of_rows,
                     subspace_intersection, transpose)
from .prolong import build_graded_algebra, coord_index
from .spencer import _coboundaries, cochain_from_coords, cohomology_dims, standard_complex


def paper_claims() -> list[tuple[str, str, str]]:
    """(claim, expected, computed) rows of the built-in verification suite."""
    rows: list[tuple[str, str, str]] = []

    for n in range(2, 7):
        res = build_graded_algebra(models.so_generators(n), 2)
        rows.append((f"prolongation of so_{n} vanishes at order 1", "0",
                     str(res.orders[1].dim)))

    for n in range(3, 6):
        res = build_graded_algebra(models.co_generators(n), 3)
        dims = (res.orders[1].dim, res.orders[2].dim)
        rows.append((f"prolongation of co_{n}: dims at orders (1,2)", f"({n}, 0)",
                     str(dims)))
        rows.append((f"prolongation of co_{n} matches the conformal model", "True",
                     str(verify_conformal_prolongation(n))))

    for m in (2, 3):
        res = build_graded_algebra(models.glc_generators(m), 3)
        expected = tuple(models.cr_expected_layer_dim(m, p) for p in (1, 2, 3))
        got = tuple(res.orders[p].dim for p in (1, 2, 3))
        rows.append((f"prolongation of gl_{m}(C): real dims orders 1..3",
                     str(expected), str(got)))
        rows.append((f"gl_{m}(C) finite-type verdict", "not finite by order 3",
                     "finite" if res.finite_type else
                     f"not finite by order {res.truncation_order}"))

    for n_t in range(3, 7):
        for n in range(2, n_t):
            cplx = standard_complex(models.space_form_algebra(n_t, 0), n)
            entry = cohomology_dims(cplx, 0, 2, 0)
            rows.append((f"H^(0,2)(so_{n_t}, R^{n}) dimension", "0", str(entry.dim_h)))

    for n, n_t in ((2, 3), (2, 4), (3, 4), (3, 5)):
        cplx = standard_complex(models.space_form_algebra(n_t, 0), n)
        got = cohomology_dims(cplx, 1, 2, 0).dim_h
        full = standard_complex(models.space_form_algebra(n, 0), n)
        h_small = cohomology_dims(full, 1, 2, 0).dim_h
        r21 = models.r21_submodule(n).dim
        expected = h_small + (n_t - n) * r21 + comb(n_t - n, 2) * comb(n, 2)
        rows.append((f"H^(1,2)(so_{n_t}, W{n}) = piecewise direct-sum total",
                     str(expected), str(got)))

    cplx = standard_complex(models.conformal_algebra(3), 2)
    rows.append(("conformal H^(1,2), (n, n~) = (2,3)", "0",
                 str(cohomology_dims(cplx, 1, 2, 0).dim_h)))
    for n in (4, 5):
        for n_t in (n, n + 1):
            cplx = standard_complex(models.conformal_algebra(n_t), n)
            rows.append((f"conformal H^(2,2), (n, n~) = ({n},{n_t})", "0",
                         str(cohomology_dims(cplx, 2, 2, 0).dim_h)))
    for n_t in (3, 4):
        cplx = standard_complex(models.conformal_algebra(n_t), 3)
        got = cohomology_dims(cplx, 2, 2, 0).dim_h
        rows.append((f"conformal H^(2,2) nonzero, (n, n~) = (3,{n_t})", "positive",
                     "positive" if got > 0 else str(got)))

    for n in range(2, 7):
        got = models.r21_submodule(n).dim - n
        rows.append((f"dim R^(2,1)({n}) - {n} = (n^3-4n)/3", str((n ** 3 - 4 * n) // 3),
                     str(got)))

    for m, k in ((2, 1), (3, 1), (3, 2)):
        alg, data = models.cr_algebra(m, k, 2)
        cplx = models.cr_w_complex(alg, data)
        for p in (1, 2):
            rows.append((f"CR H^({p},2) trivial at (m,k)=({m},{k})", "0",
                         str(cohomology_dims(cplx, p, 2, 0).dim_h)))

    rows.append(("CR (m,k)=(2,1): integrability test = coboundary membership",
                 "True", str(verify_cr_integrability_equivalence(2, 1))))
    return rows


def verify_conformal_prolongation(n: int) -> bool:
    """Brackets of the assembled co_n prolongation match the conformal model.

    Maps the model basis into the assembled algebra (coordinates, dual
    vectors as their evaluation maps) and compares all brackets, degree by
    degree: a model bracket with a target outside the sum of the degrees fails.
    """
    res = build_graded_algebra(models.co_generators(n), 3)
    asm = res.assembled
    model = models.conformal_algebra(n)
    if (res.orders[1].dim, res.orders[2].dim if 2 in res.orders else 0) != (n, 0):
        return False
    # images of model basis elements as pairs in the assembled component of their degree
    mats = models.conformal_deg0_matrices(n)
    deg = model.degrees
    images = []
    for b in range(model.dim):
        d = deg[b]
        pos = model.component_indices(d).index(b)
        if d == -1:
            coords = [(pos, ONE)]
        elif d == 0:
            coords = res.orders[0].coordinates((i * n + j, x) for i, j, x in mats[pos])
        else:
            # dual vector: the map v -> [f^k, v] realized in V (x) S^2 V*; T is
            # symmetric, so two entries landing on one sorted monomial agree
            vec: dict[int, int] = {}
            for l in range(n):
                # T(e_l, .) = [f^k, e_l], the matrix E_lk - E_kl, or I when l = k
                entries = ([(s, s, 1) for s in range(n)] if l == pos
                           else [(l, pos, 1), (pos, l, -1)])
                for i, jj, x in entries:
                    vec[coord_index(n, 1, i, tuple(sorted((l, jj))))] = x
            coords = res.orders[1].coordinates(vec.items())
        if coords is None:
            return False
        images.append(coords)
    cleared = [clear_denominators(im) for im in images]
    for i in range(model.dim):
        for j in range(i + 1, model.dim):
            d = deg[i] + deg[j]
            br = model.bracket_basis(i, j)
            if any(deg[t] != d for t in br):
                return False
            if combine((images[t], c) for t, c in br.items()) != asm.bracket_sum(
                    ((ONE, deg[i], cleared[i], deg[j], cleared[j]),), d):
                return False
    return True


def verify_cr_integrability_equivalence(m: int, k: int) -> bool:
    """The degree-0 coboundaries meeting W (x) L^2 W* equal the J-conditions kernel."""
    alg, data = models.cr_algebra(m, k, 2)
    cplx = models.cr_w_complex(alg, data)
    n_v = alg.component_dim(-1)
    b_space = _coboundaries(cplx, 0, 2, 0)
    dim_c = b_space.ambient_dim
    # cochain coordinates are pair-major with n_v values per pair; the
    # W-valued unit cochains are those whose value coordinate lies in W
    w_units = [pos for pos in range(dim_c) if pos % n_v < cplx.n_w]
    units = [[(pos, ONE)] for pos in w_units]
    residuals = [models.cr_j_residual_pairs(cochain_from_coords(cplx, 0, 2, 0, u), data)
                 for u in units]
    kernel = kernel_of_rows(transpose([pairs for _, pairs in residuals], residuals[0][0]),
                            len(w_units))
    lhs = subspace_intersection(b_space, Subspace.from_vectors(dim_c, units))
    return lhs == Subspace.from_vectors(
        dim_c, [[(w_units[j], c) for j, c in row] for row in kernel.rows])
