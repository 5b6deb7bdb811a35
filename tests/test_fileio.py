import pytest
from fractions import Fraction as F

from gspencer.algebra import GradedLieAlgebra
from gspencer.errors import InputError, ParseError, ValidationError
from gspencer.fileio import parse_algebra, parse_cochain, serialize_algebra, serialize_cochain
from gspencer.models import conformal_algebra, cr_algebra, space_form_algebra
from gspencer.spencer import (cochain_from_coords, random_integer_cochain, space_dimension,
                              standard_complex)

from conftest import rng_for

ABELIAN = """\
algebra tiny
grading graded height 1
basis
v degree -1
brackets
end
"""


def test_parse_minimal():
    a = parse_algebra(ABELIAN)
    assert a.dim == 1 and a.height == 1 and a.degrees == (-1,)


def same_algebra(a, b):
    return (a.name == b.name and a.names == b.names and a.degrees == b.degrees
            and a.height == b.height and a.grading_kind == b.grading_kind
            and a.truncated_at == b.truncated_at and a.constants() == b.constants())


@pytest.mark.parametrize("alg", [space_form_algebra(3, 1), space_form_algebra(4, 0),
                                 conformal_algebra(3)])
def test_roundtrip_models(alg):
    assert same_algebra(parse_algebra(serialize_algebra(alg)), alg)


def test_roundtrip_truncated():
    alg, _ = cr_algebra(2, 1, 1)
    again = parse_algebra(serialize_algebra(alg))
    assert same_algebra(again, alg)


def test_reject_missing_degree_minus_one():
    text = """\
algebra so3like
grading graded height 1
basis
L1 degree 0
L2 degree 0
L3 degree 0
brackets
end
"""
    with pytest.raises(ParseError):
        parse_algebra(text)


def test_validation_failure_reported_not_parse_error():
    # a perturbed constant breaks Jacobi but parses fine
    text = serialize_algebra(space_form_algebra(3, 1))
    bad = text.replace("[e1,A1_2] = 1*e2", "[e1,A1_2] = 1*e2 + 1*e3", 1)
    assert bad != text
    with pytest.raises(ValidationError) as info:
        parse_algebra(bad)
    assert info.value.diagnostics
    alg = parse_algebra(bad, validate=False)
    assert alg.dim == 6


def test_parse_error_has_line_number():
    text = ABELIAN.replace("v degree -1", "v degree")
    with pytest.raises(ParseError) as info:
        parse_algebra(text)
    assert info.value.line == 4


def test_duplicate_basis_name():
    text = ABELIAN.replace("v degree -1", "v degree -1\nv degree -1")
    with pytest.raises(ParseError):
        parse_algebra(text)


@pytest.mark.parametrize("bad", ["e+1", "e*1", "e,1", "e=1", "[e1", "e1]"])
def test_basis_name_that_cannot_round_trip(bad):
    with pytest.raises(ParseError) as info:
        parse_algebra(ABELIAN.replace("v degree -1", f"{bad} degree -1"))
    assert info.value.line == 4
    with pytest.raises(InputError):
        GradedLieAlgebra("tiny", [bad], [-1], 1, {})


def test_truncation_out_of_range_reported_at_grading_line():
    with pytest.raises(ParseError) as info:
        parse_algebra(ABELIAN.replace("height 1", "height 1 truncated 5"))
    assert info.value.line == 2


def test_degree_out_of_range():
    text = ABELIAN.replace("v degree -1", "v degree -1\nx degree 3")
    with pytest.raises(ParseError):
        parse_algebra(text)


def test_both_orientations_rejected():
    text = """\
algebra twist
grading quasi_graded height 1
basis
x degree -1
y degree -1
z degree -1
brackets
[x,y] = 1*z
[y,x] = -1*z
end
"""
    with pytest.raises(ParseError):
        parse_algebra(text)


def test_truncated_file():
    text = ABELIAN.replace("end", "")
    with pytest.raises(ParseError):
        parse_algebra(text)


def test_cochain_roundtrip():
    rng = rng_for("cochainio")
    alg = conformal_algebra(3)
    c = standard_complex(alg, 2)
    for p, q, r in ((1, 2, 0), (2, 1, 0), (2, 2, 1), (0, 2, 0), (1, 0, 0)):
        x = random_integer_cochain(c, p, q, r, rng)
        text = serialize_cochain(x)
        y = parse_cochain(text, alg)
        assert y == x


def test_cochain_rejects_wrong_degree_name():
    alg = conformal_algebra(3)
    text = "cochain p 1 q 1 level 0 W 2\n(1) = 1*e1\n"
    with pytest.raises(ParseError):
        parse_cochain(text, alg)  # e1 has degree -1, need degree 0


def test_cochain_rejects_bad_indices():
    alg = conformal_algebra(3)
    with pytest.raises(ParseError):
        parse_cochain("cochain p 1 q 2 level 0 W 2\n(2,1) = 1*I\n", alg)
    with pytest.raises(ParseError):
        parse_cochain("cochain p 1 q 2 level 0 W 2\n(1,5) = 1*I\n", alg)


def test_cochain_level_reduction_applied():
    # loading at level r reduces values against the annihilator
    alg = space_form_algebra(4, 0)
    c = standard_complex(alg, 2)
    ann = c.annihilator(0, 1)
    assert ann.dim > 0
    comp0 = alg.component_indices(0)
    vec = ann.basis_vectors()[0]
    terms = " + ".join(f"{v}*{alg.names[comp0[i]]}" for i, v in enumerate(vec) if v)
    text = f"cochain p 1 q 1 level 1 W 2\n(1) = {terms}\n"
    x = parse_cochain(text, alg)
    assert x.is_zero()


def test_rational_cochain_roundtrip_both_directions():
    rng = rng_for("cochainio-rational")
    alg = conformal_algebra(4)
    c = standard_complex(alg, 3)
    for p in (1, 2):
        for q in (1, 2):
            for r in (0, 1, 2):
                n = space_dimension(c, p, q, r)
                x = cochain_from_coords(c, p, q, r, [(k, F(rng.randint(-3, 3), rng.randint(1, 4)))
                                                     for k in range(n)])
                assert x.is_zero() == (n == 0)
                text = serialize_cochain(x)
                assert parse_cochain(text, alg) == x
                assert serialize_cochain(parse_cochain(text, alg)) == text


def test_cochain_terms_of_one_name_are_summed():
    alg = conformal_algebra(3)
    x = parse_cochain("cochain p 1 q 2 level 0 W 2\n(1,2) = 1/2*A1_2 + 1/3*A1_2\n", alg)
    assert x.values == {(0, 1): ((alg.component_indices(0).index(alg.index_of("A1_2")),
                                  F(5, 6)),)}
    y = parse_cochain("cochain p 1 q 2 level 0 W 2\n(1,2) = 1*I + -1*I\n", alg)
    assert y.values == {}
