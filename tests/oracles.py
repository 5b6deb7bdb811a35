"""Helpers on library objects that only the tests need: matrix products, the
zero matrix, subspace inclusion and degree projection, written on the public
fields so that the library keeps no code of its own for them."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from gspencer.algebra import GradedLieAlgebra
from gspencer.errors import InputError
from gspencer.linalg import RMatrix, Subspace

ZERO = Fraction(0)


def zeros(rows: int, cols: int) -> RMatrix:
    return RMatrix(((ZERO,) * cols,) * rows, rows, cols)


def mat_mul(a: RMatrix, b: RMatrix) -> RMatrix:
    if a.cols != b.rows:
        raise InputError("dimension mismatch in mat_mul")
    bt = tuple(zip(*b.data))
    return RMatrix(tuple(tuple(sum((x * y for x, y in zip(row, col)), ZERO) for col in bt)
                         for row in a.data), a.rows, b.cols)


def contains_subspace(big: Subspace, small: Subspace) -> bool:
    if big.ambient_dim != small.ambient_dim:
        raise InputError("ambient dimensions differ")
    return all(big.coordinates(row) is not None for row in small.rows)


def project_degree(a: GradedLieAlgebra, x: Sequence[Fraction], p: int) -> tuple[Fraction, ...]:
    """Zero out all coefficients of basis elements of degree != p."""
    if p < -1 or p > a.height - 1:
        raise InputError(f"degree {p} outside -1..{a.height - 1}")
    return tuple(c if a.degrees[i] == p else ZERO for i, c in enumerate(x))
