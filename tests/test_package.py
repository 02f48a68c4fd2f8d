"""The package's public names: each resolves, on first use, to the object
its home module defines, and ``__all__`` lists exactly them.  Its modules
import no name they never read, and read every public name but three."""

import ast
import importlib
from pathlib import Path

import pytest

import schurweyl

# home module -> the names the package exports from it
PUBLIC = {
    "young": [
        "Box", "StandardTableau", "YoungDiagram", "axial_distance", "bound_for_box",
        "column_ordered_tableau", "dim_symmetric_group_irrep", "dim_unitary_group_irrep",
        "entropy_lower_bound", "enumerate_semistandard_tableaux",
        "enumerate_standard_tableaux", "iter_partitions",
        "iter_standard_tableaux", "max_schmidt_bound", "partitions_of", "removable_boxes",
        "remove_largest", "row_ordered_tableau", "tableau_with_largest_in",
    ],
    "orthogonal_form": ["Permutation", "permutation_matrix", "permutation_sign"],
    "tensor_space": [
        "OperatorExpr", "TensorState", "WeightBlocks", "block_basis",
        "closed_form_projector", "column_antisymmetrizer", "orthogonal_projector",
        "random_state", "row_symmetrizer", "subspace_basis",
    ],
    "spectral": [
        "MaximizationReport", "MaximizeConfig", "SchmidtResult", "entanglement_entropy",
        "max_lambda1_over_subspace", "schmidt_decompose", "verify_fixed_point",
    ],
    "special_states": [
        "coherent_state", "optimizer_state", "slater",
    ],
    "verification": ["CheckResult", "run_verification"],
}
NAMES = [name for names in PUBLIC.values() for name in names]

# Public names that no module of the package reads, each kept for a reason.
UNREAD = [
    "entanglement_entropy",  # the acceptance suite checks the entropy bound against it
    "partitions_of",  # perfbench's tracer wraps it as a layer boundary
    "entropy_lower_bound",  # perfbench's tracer wraps it as a layer boundary
]


@pytest.mark.parametrize("home, name", [
    (home, name) for home, names in PUBLIC.items() for name in names
])
def test_name_resolves_to_its_home_object(home, name):
    module = importlib.import_module(f"schurweyl.{home}")
    assert getattr(schurweyl, name) is getattr(module, name)


def test_all_lists_the_public_names():
    assert schurweyl.__all__ == NAMES


def test_star_import_binds_every_name():
    namespace = {}
    exec("from schurweyl import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == set(NAMES)
    assert all(namespace[name] is getattr(schurweyl, name) for name in NAMES)


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        schurweyl.nope


def test_no_unused_imports():
    # every name an import binds in a module, ``__future__`` aside, is read
    # somewhere in it; ``__init__`` holds only the table of exports
    unused = []
    for path in sorted(Path(schurweyl.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = (alias.asname or alias.name.split(".")[0] for alias in node.names)
                unused += [f"{path.name}: {name}" for name in bound if name not in read]
    assert not unused


def test_every_public_name_is_used():
    # a public name is used when some module other than ``__init__`` reads
    # it, by name or as an attribute; the rest would be a second path that
    # only the tests run
    read = set()
    for path in sorted(Path(schurweyl.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert [name for name in schurweyl.__all__ if name not in read and name not in UNREAD] == []
