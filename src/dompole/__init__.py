"""Dominant-pole computation for large sparse descriptor systems.

The package computes several dominant poles (eigenvalues weighted by
residue over real part) of a SISO descriptor model at once, working only
with sparse solves against the shifted Jacobian, and ships a dense
brute-force reference layer for verifying every step on small systems.
"""

__version__ = "0.1.0"

from .descriptor import (
    DescriptorSystem,
    Manifest,
    ManifestError,
    StateSpaceSystem,
    VanishingNormalizerError,
    eval_transfer,
    load_manifest,
    load_system,
    normalized_vectors,
    reduce_to_state_space,
    validate,
)
from .generator import GeneratedSystem, GroundTruth, build_system, sample_spectrum
from .mmio import MatrixMarketError, read_matrix_market, read_vector
from .oracle import (
    full_spectrum,
    modal_reconstruct,
    reference_F,
    reference_sequence,
    residues,
)
from .solver import (
    PoleResult,
    RunReport,
    ShiftState,
    SolverConfig,
    SolverError,
    check_convergence,
    ddpse_step,
    deflate,
    dominance,
    dpse_step,
    estimate_residue,
    init_shifts,
    match_shifts,
    refresh_columns,
    run,
)
from .sparsela import (
    Factorization,
    ShiftedMatrix,
    SingularMatrixError,
    SparseMatrix,
    StructurallySingularError,
    dense_eig,
    factorize,
    ordered,
    shifted,
)

__all__ = [
    "__version__",
    "DescriptorSystem",
    "StateSpaceSystem",
    "Manifest",
    "ManifestError",
    "VanishingNormalizerError",
    "GeneratedSystem",
    "GroundTruth",
    "MatrixMarketError",
    "SingularMatrixError",
    "StructurallySingularError",
    "SolverError",
    "SparseMatrix",
    "ShiftedMatrix",
    "Factorization",
    "SolverConfig",
    "ShiftState",
    "PoleResult",
    "RunReport",
    "build_system",
    "check_convergence",
    "ddpse_step",
    "deflate",
    "dense_eig",
    "dominance",
    "dpse_step",
    "estimate_residue",
    "eval_transfer",
    "factorize",
    "full_spectrum",
    "init_shifts",
    "load_manifest",
    "load_system",
    "match_shifts",
    "modal_reconstruct",
    "normalized_vectors",
    "ordered",
    "read_matrix_market",
    "read_vector",
    "reduce_to_state_space",
    "reference_F",
    "reference_sequence",
    "refresh_columns",
    "residues",
    "run",
    "sample_spectrum",
    "shifted",
    "validate",
]
