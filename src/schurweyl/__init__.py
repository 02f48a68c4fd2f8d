"""Exact hook-length entanglement bounds for Young-diagram subspaces of
tensor-product spaces, with the symmetric-group projector machinery to
realize, verify and saturate them numerically.

Every public name loads its home module on first use (PEP 562), so
importing the package loads no module of it, and the exact layer never
loads numpy."""

import importlib

# home module -> the names the package exports from it
_EXPORTS = {
    "young": (
        "Box",
        "StandardTableau",
        "YoungDiagram",
        "axial_distance",
        "bound_for_box",
        "column_ordered_tableau",
        "dim_symmetric_group_irrep",
        "dim_unitary_group_irrep",
        "entropy_lower_bound",
        "enumerate_semistandard_tableaux",
        "enumerate_standard_tableaux",
        "iter_partitions",
        "iter_standard_tableaux",
        "max_schmidt_bound",
        "partitions_of",
        "removable_boxes",
        "remove_largest",
        "row_ordered_tableau",
        "tableau_with_largest_in",
    ),
    "orthogonal_form": (
        "Permutation",
        "permutation_matrix",
        "permutation_sign",
    ),
    "tensor_space": (
        "OperatorExpr",
        "TensorState",
        "WeightBlocks",
        "block_basis",
        "closed_form_projector",
        "column_antisymmetrizer",
        "orthogonal_projector",
        "random_state",
        "row_symmetrizer",
        "subspace_basis",
    ),
    "spectral": (
        "MaximizationReport",
        "MaximizeConfig",
        "SchmidtResult",
        "entanglement_entropy",
        "max_lambda1_over_subspace",
        "schmidt_decompose",
        "verify_fixed_point",
    ),
    "special_states": (
        "coherent_state",
        "optimizer_state",
        "slater",
    ),
    "verification": ("CheckResult", "run_verification"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
