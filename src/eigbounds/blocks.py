"""Perturbation bounds for 2x2-block Hermitian matrices.

All bounds pair the i-th smallest eigenvalue of A with the i-th smallest of
A+E (rank pairing).  Theorem 1 measures gaps against the oracle spectrum of
the trailing diagonal block A22; the quadratic residual bound measures each
eigenvalue of a diagonal block against the spectrum of the other block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .solvers import _dense_batch, spectral_norm
from .types import BlockSplit, DenseHermitian, LogScalar

__all__ = [
    "BoundReport",
    "weyl_bound",
    "quadratic_residual_bounds",
    "eigvec_tail_bound",
    "theorem1_bounds",
]


@dataclass(frozen=True)
class BoundReport:
    """One eigenvalue index, one bound, with provenance."""

    index: int                      # 1-based rank
    bound: LogScalar
    formula: str                    # weyl | quad_residual | theorem1 | min_of
    gap: float
    valid: bool
    tau: float | None = None
    components: dict = field(default_factory=dict)


def weyl_bound(E: DenseHermitian) -> float:
    """||E||_2: the structure-free bound, sound for every index."""
    return spectral_norm(E)


def _check_index(i: int, n: int) -> None:
    if not 1 <= i <= n:
        raise IndexError(f"eigenvalue index {i} out of range 1..{n}")


def _gap_to_block(lam: float, block_vals: np.ndarray) -> float:
    return float(np.min(np.abs(lam - block_vals)))


def quadratic_residual_bounds(A: DenseHermitian, split: BlockSplit,
                              E: DenseHermitian,
                              indices=None) -> list[BoundReport]:
    """Quadratic residual bound ||E||^2 / gap_i for block-diagonal A under a
    perturbation E with zero diagonal blocks.

    The spectrum of A is the union of those of A11 and A22, and gap_i is the
    distance from the i-th eigenvalue of A to the spectrum of the other
    block (Li & Li 2005, "A note on eigenvalues of perturbed Hermitian
    matrices").  A zero gap falls back to the Weyl bound, flagged invalid."""
    split.check(A.n)
    if indices is None:
        indices = range(1, A.n + 1)
    if np.any(A.block(split, "21")):
        raise ValueError("A must be block diagonal (zero off-diagonal blocks)")
    if np.any(E.block(split, "11")) or np.any(E.block(split, "22")):
        raise ValueError("perturbation must have zero diagonal blocks")
    norm_e = spectral_norm(E)
    (a1_vals, a2_vals), _ = _dense_batch([DenseHermitian.from_array(A.block(split, "11")),
                                          DenseHermitian.from_array(A.block(split, "22"))])
    dist = np.abs(np.subtract.outer(a1_vals, a2_vals))
    gaps = np.concatenate([dist.min(axis=1), dist.min(axis=0)])
    # ascending eigenvalues of A, each with its gap to the other block
    gaps = gaps[np.argsort(np.concatenate([a1_vals, a2_vals]), kind="stable")]
    out = []
    for i in indices:
        _check_index(i, A.n)
        gap = float(gaps[i - 1])
        if gap == 0.0:
            # zero gap: fall back to Weyl, flagged invalid for the
            # quadratic form
            out.append(BoundReport(i, LogScalar.from_float(norm_e), "weyl",
                                   gap=0.0, valid=False,
                                   components={"weyl_fallback": norm_e}))
            continue
        out.append(BoundReport(i, LogScalar.from_float(norm_e ** 2 / gap),
                               "quad_residual", gap=gap, valid=True,
                               components={"norm_E": norm_e}))
    return out


def eigvec_tail_bound(A: DenseHermitian, split: BlockSplit, lam: float) -> float:
    """Bound on the trailing eigenvector component norm ||x2|| for an
    eigenvalue lam of A: ||A21|| / min_j |lam - lambda_j(A22)|."""
    split.check(A.n)
    (a22_vals,), (a21n,) = _dense_batch([DenseHermitian.from_array(A.block(split, "22"))],
                                        [A.block(split, "21")])
    gap = _gap_to_block(lam, a22_vals)
    if gap <= 0.0:
        raise ValueError("lam coincides with an eigenvalue of A22 (zero gap)")
    return a21n / gap


def theorem1_bounds(A: DenseHermitian, E: DenseHermitian, split: BlockSplit,
                    indices=None, refined: bool = False,
                    values=None) -> list[BoundReport]:
    """Three-term eigenvalue movement bound
    ||E11|| + 2 ||E21|| tau_i + ||E22|| tau_i^2, reported as its minimum
    against the Weyl bound (formula tag min_of).

    tau_i = (||A21|| + ||E21||) / (gap_i - 2||E||) bounds the trailing
    eigenvector component along the homotopy from A to A+E, where gap_i is
    the distance from the i-th eigenvalue of A to the spectrum of A22; the
    refined variant subtracts ||E|| + ||E22|| instead.  When that
    denominator is not positive the report falls back to the Weyl bound,
    flagged invalid, with tau None.  Callers that already hold the
    ascending eigenvalues of A can pass them as `values` to skip that
    decomposition.  The spectra and the norms of the blocks come from one
    engine call (_dense_batch); ||E|| is weyl_bound's."""
    split.check(A.n)
    if indices is None:
        indices = range(1, A.n + 1)
    if values is not None:
        vals = np.asarray(values, dtype=float)
        if vals.shape != (A.n,):
            raise ValueError(f"values must have shape ({A.n},), got {vals.shape}")
    weyl = weyl_bound(E)
    a22 = DenseHermitian.from_array(A.block(split, "22"))
    spectra, (a21n, e11, e21, e22) = _dense_batch([a22] if values is not None else [a22, A], [
        A.block(split, "21"), DenseHermitian.from_array(E.block(split, "11")),
        E.block(split, "21"), DenseHermitian.from_array(E.block(split, "22"))])
    a22_vals = spectra[0]
    if values is None:
        vals = spectra[1]
    slack = (weyl + e22) if refined else 2.0 * weyl
    out = []
    for i in indices:
        _check_index(i, A.n)
        gap = _gap_to_block(float(vals[i - 1]), a22_vals)
        denom = gap - slack
        if denom <= 0.0:
            out.append(BoundReport(i, LogScalar.from_float(weyl), "weyl",
                                   gap=gap, valid=False,
                                   components={"weyl": weyl}))
            continue
        t = (a21n + e21) / denom
        term2 = 2.0 * e21 * t
        term3 = e22 * t * t
        thm = e11 + term2 + term3
        out.append(BoundReport(i, LogScalar.from_float(min(thm, weyl)),
                               "min_of", gap=gap, valid=True, tau=t,
                               components={"E11_term": e11,
                                           "cross_term": term2,
                                           "E22_term": term3, "weyl": weyl,
                                           "theorem1": thm}))
    return out
