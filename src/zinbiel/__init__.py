"""Exact-arithmetic cohomology for Zinbiel algebras and their tensor Lie algebras."""

from .algebras import AxiomReport, Bimodule, FiniteAlgebra, check_axioms, regular
from .catalog import BUILTIN_NAMES, builtin, perturbed_b2
from .complexes import (
    CE_MAX_DEGREE,
    DL_MAX_DEGREE,
    Cochain,
    CohomologyDims,
    ce_delta,
    ce_delta_matrix,
    ce_space_dim,
    cohomology_dims,
    dl_delta,
    dl_delta_matrix,
    dl_space_dim,
    random_dl_cochain,
)
from .fileio import (
    load_algebra,
    load_bimodule,
    save_algebra,
    save_bimodule,
)
from .linalg import Matrix
from .tensor_bridge import (
    ChainMapReport,
    PsiNotInjectiveError,
    TensorContext,
    les_report,
    psi_apply,
    psi_matrix,
    tensor_lie,
    tensor_module,
    verify_chain_map,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "Bimodule",
    "BUILTIN_NAMES",
    "CE_MAX_DEGREE",
    "ChainMapReport",
    "Cochain",
    "CohomologyDims",
    "DL_MAX_DEGREE",
    "FiniteAlgebra",
    "Matrix",
    "PsiNotInjectiveError",
    "TensorContext",
    "builtin",
    "ce_delta",
    "ce_delta_matrix",
    "ce_space_dim",
    "check_axioms",
    "cohomology_dims",
    "dl_delta",
    "dl_delta_matrix",
    "dl_space_dim",
    "les_report",
    "load_algebra",
    "load_bimodule",
    "perturbed_b2",
    "psi_apply",
    "psi_matrix",
    "random_dl_cochain",
    "regular",
    "save_algebra",
    "save_bimodule",
    "tensor_lie",
    "tensor_module",
    "verify_chain_map",
    "__version__",
]
