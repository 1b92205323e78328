"""Numerical curvature and multiplicity invariants on regular polyballs.

The package models k-tuples of cross-commuting row tuples of matrices, their
completely positive transfer maps, truncated Fock tensor products with the
universal shifts, Berezin kernels, invariant subspaces, and the associated
curvature and multiplicity estimators, together with the commutative
(symmetric Fock) variants.
"""

from .basis import Shape, grade_dim
from .berezin import (
    BerezinKernel,
    InnerMultiplier,
    berezin_kernel,
    connection_identity,
    connection_residuals,
    curvature_operator_trace,
    has_characteristic_function,
    index_formula_check,
    monomial_multiplier,
    verify_intertwining,
)
from .cp import (
    DefectData,
    MembershipError,
    OperatorTuple,
    PsdVerdict,
    ampliation,
    check_polyball,
    check_pure,
    cp_apply,
    cp_apply_adjoint,
    defect_data,
    defect_map,
    direct_sum,
    psd_verdict,
    tuple_from_json,
    tuple_to_json,
)
from .curvature import (
    CurvEstimate,
    bounds_report,
    curvature_estimate,
    subspace_curvature,
)
from .fock import FockTruncation, GradedOperator
from .subspaces import (
    GradedSubspace,
    NAdicExpansion,
    beurling_check,
    bidisc_difference_subspace,
    compression_tuple,
    construct_mt,
    construct_nadic,
    cur0_subspace,
    finite_codim_subspace,
    full_subspace,
    inner_sequence_check,
    multiplicity_estimate,
    subspace_from_json,
    subspace_to_json,
    tensor_subspace,
    uncountable_family,
    zero_subspace,
)
from .symmetric import (
    SymFockTruncation,
    coordinate_multiple_subspace,
    curv_c_estimate,
    m_c_estimate,
    sym_grade_dim,
)

__version__ = "0.1.0"
