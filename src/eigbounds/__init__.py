"""Structured eigenvalue perturbation bounds for block and tridiagonal
Hermitian matrices, validated against a self-contained eigensolver oracle."""

from .types import (BlockSplit, DenseHermitian, HermitianError, LogScalar,
                    Spectrum, SymTridiagonal)
from .solvers import eig_dense, eig_tridiag, spectral_norm
from .generators import aed_example, wilkinson_plus, wilkinson_split
from .blocks import (BoundReport, eigvec_tail_bound, quadratic_residual_bounds,
                     theorem1_bounds, weyl_bound)
from .tridiag import (aed_window_bounds, decay_profile, decay_step_bound,
                      wilkinson_gap_bound, wilkinson_pair_gap_bound)
from .aed import (AedOutcome, RunStatistics, aed_transform,
                  deflation_soundness_check, qr_sweep, run_qr_with_aed)
from .multiplicity import (MultipleEigContext, detect_multiple, expansion_order,
                           first_order_eigs)
from .io import load_matrix, parse_matrix, serialize_matrix
from .report import RunReport

__all__ = [
    "BlockSplit",
    "DenseHermitian",
    "HermitianError",
    "LogScalar",
    "Spectrum",
    "SymTridiagonal",
    "eig_dense",
    "eig_tridiag",
    "spectral_norm",
    "aed_example",
    "wilkinson_plus",
    "wilkinson_split",
    "BoundReport",
    "eigvec_tail_bound",
    "quadratic_residual_bounds",
    "theorem1_bounds",
    "weyl_bound",
    "aed_window_bounds",
    "decay_profile",
    "decay_step_bound",
    "wilkinson_gap_bound",
    "wilkinson_pair_gap_bound",
    "AedOutcome",
    "RunStatistics",
    "aed_transform",
    "deflation_soundness_check",
    "qr_sweep",
    "run_qr_with_aed",
    "MultipleEigContext",
    "detect_multiple",
    "expansion_order",
    "first_order_eigs",
    "load_matrix",
    "parse_matrix",
    "serialize_matrix",
    "RunReport",
]
