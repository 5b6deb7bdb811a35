"""The library's result and input records are NamedTuples: keyword and
positional construction, value equality and hashing, immutability, and the
checks and canonical forms the validating constructors apply."""

from fractions import Fraction as F

import pytest

from gspencer.algebra import GradingViolation, JacobiViolation
from gspencer.errors import InputError
from gspencer.linalg import RMatrix
from gspencer.models import ComplexStructureData, conformal_algebra, cr_algebra, so_generators
from gspencer.obstruction import (AdmissibleTuple, BianchiViolation, ConstantForm,
                                  CurvatureDecomposition, ObstructionCertificate)
from gspencer.prolong import LinearLieAlgebra, ProlongationResult, build_graded_algebra
from gspencer.spencer import Cochain, CohomologyEntry, cohomology_dims, standard_complex


def _fields():
    """Field values for one record of each class, in field order."""
    c = standard_complex(conformal_algebra(3), 2)
    x = Cochain(c, 1, 2, 0, {(0, 1): [(0, F(1))]})
    res = build_graded_algebra(so_generators(2), 1)
    _, data = cr_algebra(2, 1, 1)
    form = ConstantForm(0, (((1, F(2)),), ()))
    return {
        JacobiViolation: ((0, 1, 2), ("a", "b", "c"), (F(1), F(0))),
        GradingViolation: ((0, 1), ("a", "b"), 0, (F(0), F(1, 2))),
        BianchiViolation: ((0, 1, 2), (F(0), F(2))),
        ObstructionCertificate: (1, x),
        CurvatureDecomposition: (c, 0, 1, x, ()),
        ProlongationResult: tuple(res),
        ConstantForm: tuple(form),
        AdmissibleTuple: ((form,),),
        LinearLieAlgebra: (2, so_generators(2).generators),
        CohomologyEntry: tuple(cohomology_dims(c, 1, 1, 0)),
        ComplexStructureData: tuple(data),
    }


RECORDS = [JacobiViolation, GradingViolation, BianchiViolation, ObstructionCertificate,
           CurvatureDecomposition, ProlongationResult, ConstantForm, AdmissibleTuple,
           LinearLieAlgebra, CohomologyEntry, ComplexStructureData]
# records holding a dict (a memo or a map of orders) compare by value but do not hash
UNHASHABLE = {ProlongationResult, ComplexStructureData}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_keyword_and_positional_construction_agree(cls):
    values = _fields()[cls]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(cls._fields, values)))
    assert by_position == by_keyword
    assert tuple(by_position) == values
    assert [getattr(by_keyword, name) for name in cls._fields] == list(values)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equal_values_give_equal_records_and_hashes(cls):
    a, b = cls(*_fields()[cls]), cls(*_fields()[cls])
    assert a is not b and a == b
    if cls not in UNHASHABLE:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_immutable(cls):
    rec = cls(*_fields()[cls])
    with pytest.raises(AttributeError):
        setattr(rec, cls._fields[0], None)
    with pytest.raises(AttributeError):
        rec.extra = None


def test_constant_form_sums_duplicates_and_sorts():
    f = ConstantForm(0, (((2, F(1)), (0, 1), (2, F(2))), ((1, F(1)), (1, F(-1)))))
    assert f.columns == (((0, F(1)), (2, F(3))), ())
    assert f == ConstantForm(degree=0, columns=f.columns)


def test_constant_form_addition_sums_columns():
    f = ConstantForm(1, (((0, F(1)),), ((1, F(2)),)))
    g = ConstantForm(1, (((0, F(-1)), (3, F(1))), ()))
    assert f + g == ConstantForm(1, (((3, F(1)),), ((1, F(2)),)))
    with pytest.raises(InputError):
        f + ConstantForm(0, ((), ()))
    with pytest.raises(InputError):
        f + ConstantForm(1, ((),))


def test_admissible_tuple_rejects_misplaced_degrees():
    f0, f1 = ConstantForm(0, ((),)), ConstantForm(1, ((),))
    assert AdmissibleTuple((f0, f1)).order == 2
    for forms in ((f1,), (f0, f0), (f1, f0)):
        with pytest.raises(InputError, match="has degree"):
            AdmissibleTuple(forms)
        with pytest.raises(InputError, match="has degree"):
            AdmissibleTuple(forms=forms)


def test_linear_lie_algebra_rejects_bad_generator_shapes():
    # generators are iterables of (i, j, x) entries with int indices in 0..v_dim-1
    # and int or Fraction values; a dense matrix is not one
    ident2 = ((0, 0, 1), (1, 1, 1))
    assert LinearLieAlgebra(2, (ident2,)).generators == (((0, 0, F(1)), (1, 1, F(1))),)
    bad = [(ident2 + ((2, 2, 1),),), (ident2, ((0, -1, 1),)),  # index outside 0..1
           (((0, 1.0, 1),),), (((True, 0, 1),),),  # index not an int
           (((0, 1, 0.5),),), (((0, 1, "1"),),),  # value not an int or Fraction
           (((0, 1),),), ((0, 1, 1),), (5,), 5,  # not an iterable of triples
           (RMatrix.identity(2),)]
    for gens in bad:
        with pytest.raises(InputError):
            LinearLieAlgebra(2, gens)
        with pytest.raises(InputError):
            LinearLieAlgebra(v_dim=2, generators=gens)


def test_linear_lie_algebra_rejects_a_v_dim_that_is_not_a_positive_int():
    # -2 and 0 were accepted (the build then made a layer "of Q^4"), 3.0 gave a
    # TypeError in the build and '3' a message about the generators
    for v_dim in (-2, 0, 3.0, "3", True):
        for gens in ([], [[(0, 0, 1)]]):
            with pytest.raises(InputError, match=r"^v_dim must be a positive int, got ") as info:
                LinearLieAlgebra(v_dim, gens)
            assert "\n" not in str(info.value)


def test_cohomology_entry_carries_both_bases_with_certificates():
    c = standard_complex(conformal_algebra(3), 2)
    plain = cohomology_dims(c, 1, 1, 0)
    entry = cohomology_dims(c, 1, 1, 0, certificates=True)
    assert plain.z_basis is None and plain.b_basis is None
    assert entry[:7] == plain[:7] and entry.dim_b > 0
    assert len(entry.z_basis) == entry.dim_z and len(entry.b_basis) == entry.dim_b
    assert all(isinstance(x, Cochain) and (x.p, x.q) == (1, 1)
               for x in entry.z_basis + entry.b_basis)


def test_equal_linear_lie_algebras_share_one_build():
    # generators given as lists, as a generator expression, or with their entries
    # reordered, split into repeats and padded with zeros are stored as the same
    # sorted tuples, so the algebras are equal, hash equal and share one build
    h0 = so_generators(3)
    first = build_graded_algebra(h0, 1)
    halves = [[(i, j, x / 2) for i, j, x in g] * 2 + [(0, 0, 0)] for g in h0.generators]
    twins = [LinearLieAlgebra(3, list(h0.generators)),
             LinearLieAlgebra(3, [list(g) for g in h0.generators]),
             LinearLieAlgebra(3, (reversed(g) for g in h0.generators)),
             LinearLieAlgebra(3, halves)]
    for twin in twins:
        assert twin == h0 and twin is not h0 and hash(twin) == hash(h0)
        assert all(type(g) is tuple for g in twin.generators)
        hits = build_graded_algebra.cache_info().hits
        assert build_graded_algebra(twin, 1) is first
        assert build_graded_algebra.cache_info().hits == hits + 1


def test_complex_structure_repr_leaves_out_prolongation_and_memo():
    _, data = cr_algebra(2, 1, 1)
    text = repr(data)
    assert text.startswith(f"ComplexStructureData(j={data.j!r}, m_tilde=2, k=1, ")
    assert "w_perp_indices=(3,)" in text
    assert "prolongation" not in text and "mult_i_cols" not in text
