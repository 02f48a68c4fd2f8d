"""Exact hook-length entanglement bounds for Young-diagram subspaces of
tensor-product spaces, with the symmetric-group projector machinery to
realize, verify and saturate them numerically."""

from .young import (
    Box,
    StandardTableau,
    YoungDiagram,
    axial_distance,
    bound_for_box,
    column_ordered_tableau,
    dim_symmetric_group_irrep,
    dim_unitary_group_irrep,
    dominates,
    entropy_lower_bound,
    enumerate_semistandard_tableaux,
    enumerate_standard_tableaux,
    hook_length,
    max_schmidt_bound,
    partitions_of,
    removable_boxes,
    remove_largest,
    row_ordered_tableau,
    split_tableau,
    tableau_with_largest_in,
)
from .orthogonal_form import (
    IrrepMatrix,
    Permutation,
    adjacent_transposition_matrix,
    permutation_matrix,
    permutation_sign,
)
from .tensor_space import (
    DimensionCapError,
    OperatorExpr,
    TensorState,
    antisymmetrizer,
    apply_local_unitary,
    apply_permutation,
    block_basis,
    closed_form_projector,
    column_antisymmetrizer,
    flat_dim_cap,
    orthogonal_projector,
    random_state,
    row_symmetrizer,
    subspace_basis,
    swap_factors,
    symmetrizer,
    young_projection,
)
from .spectral import (
    MaximizationReport,
    MaximizeConfig,
    SchmidtResult,
    entanglement_entropy,
    max_lambda1_over_subspace,
    reduced_density_matrix,
    schmidt_decompose,
    verify_fixed_point,
)
from .special_states import (
    OrthonormalFrame,
    coherent_state,
    coleman_equality_check,
    optimizer_state,
    slater,
)
from .verification import CheckResult, run_verification

__version__ = "0.1.0"
