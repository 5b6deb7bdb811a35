"""Exact-arithmetic engine for graded Lie algebras, Cartan prolongations and
generalized Spencer cohomology, with the iterative curvature-obstruction
solver on constant-coefficient data."""

from .linalg import (RMatrix, Rational, Subspace, deterministic_complement,
                     kernel_basis, rank_of_rows, rref, solve_linear, subspace_intersection,
                     subspace_sum)
from .errors import (InputError, InternalInvariantError, ParseError,
                     PreconditionError, ValidationError)
from .algebra import (GradedLieAlgebra, effectiveness_report, g_sharp_subalgebra,
                      grading_report, jacobi_report)
from .prolong import LinearLieAlgebra, ProlongationResult, build_graded_algebra, prolong_step
from .spencer import (Cochain, CohomologyEntry, SpencerComplex, WFrame,
                      class_representative, cohomology_dims, g_sharp_act,
                      is_coboundary, spencer_d, standard_complex)
from .models import (ComplexStructureData, co_generators, conformal_algebra,
                     cr_algebra, cr_extend_cochain, cr_integrability_test, cr_j_residual,
                     glc_generators, r21_submodule, so_generators,
                     space_form_algebra)
from .obstruction import (AdmissibleTuple, BianchiViolation, ConstantForm,
                          CurvatureDecomposition, ObstructionCertificate,
                          admissibility_residuals, bianchi_check,
                          canonical_omega_minus1, cochain_to_form,
                          form_to_cochain, level_decompose, solve_next,
                          solve_to_top, strong_equiv_transport, total_curvature,
                          UndecidedAtTruncation)
from .fileio import parse_algebra, parse_cochain, serialize_algebra, serialize_cochain

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
