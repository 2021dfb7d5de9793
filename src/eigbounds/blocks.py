"""Perturbation bounds for 2x2-block Hermitian matrices.

All bounds pair the i-th smallest eigenvalue of A with the i-th smallest of
A+E (rank pairing).  Theorem 1 measures gaps against the oracle spectrum of
the trailing diagonal block A22; the quadratic residual bound measures each
eigenvalue of a diagonal block against the spectrum of the other block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

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


class _SubBlocks(NamedTuple):
    """The sub-blocks of A and E whose spectra and norms the bounds solve,
    each as they pass it to the engine (_sub_blocks)."""

    a22: DenseHermitian
    a21: np.ndarray
    e11: DenseHermitian
    e21: np.ndarray
    e22: DenseHermitian
    a11: DenseHermitian | None      # only in the quadratic residual bound's shape

    @property
    def norms(self) -> list:
        """Theorem 1's norms: ||A21||, ||E11||, ||E21|| and ||E22||."""
        return [self.a21, self.e11, self.e21, self.e22]


def _sub_blocks(A: DenseHermitian, E: DenseHermitian, split: BlockSplit) -> _SubBlocks:
    """The sub-blocks theorem1_bounds solves, and A11 exactly when A21, E11
    and E22 are all zero, the shape quadratic_residual_bounds takes.  Both
    bounds and the CLI's request of their inputs (solvers._solved, which
    finds them by value) take them from here, so the request holds exactly
    what the bounds ask for."""
    a21 = A.block(split, "21")
    e11 = DenseHermitian.from_array(E.block(split, "11"))
    e22 = DenseHermitian.from_array(E.block(split, "22"))
    quad = not (np.any(a21) or np.any(e11.entries) or np.any(e22.entries))
    return _SubBlocks(DenseHermitian.from_array(A.block(split, "22")), a21,
                      e11, E.block(split, "21"), e22,
                      DenseHermitian.from_array(A.block(split, "11")) if quad else None)


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
    blocks = _sub_blocks(A, E, split)
    if blocks.a11 is None:
        raise ValueError("A must be block diagonal and E must have zero diagonal blocks")
    norm_e = spectral_norm(E)
    # far from unit scale ||E||^2 underflows or overflows
    normal = np.finfo(float).tiny <= norm_e * norm_e < np.inf
    (a1_vals, a2_vals), _ = _dense_batch([blocks.a11, blocks.a22])
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
        bound = norm_e ** 2 / gap if normal else norm_e * (norm_e / gap)
        out.append(BoundReport(i, LogScalar.from_float(bound),
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
                    indices=None, refined: bool = False) -> list[BoundReport]:
    """Three-term eigenvalue movement bound
    ||E11|| + 2 ||E21|| tau_i + ||E22|| tau_i^2, reported as its minimum
    against the Weyl bound (formula tag min_of).

    tau_i = (||A21|| + ||E21||) / (gap_i - 2||E||) bounds the trailing
    eigenvector component along the homotopy from A to A+E, where gap_i is
    the distance from the i-th eigenvalue of A to the spectrum of A22; the
    refined variant subtracts ||E|| + ||E22|| instead.  When that
    denominator is not positive the report falls back to the Weyl bound,
    flagged invalid, with tau None.  The spectra and the norms of the
    blocks come from one engine call (_dense_batch); ||E|| is
    weyl_bound's."""
    split.check(A.n)
    if indices is None:
        indices = range(1, A.n + 1)
    weyl = weyl_bound(E)
    blocks = _sub_blocks(A, E, split)
    (a22_vals, vals), (a21n, e11, e21, e22) = _dense_batch([blocks.a22, A],
                                                          blocks.norms)
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
