"""First-order perturbation expansion of multiple eigenvalues.

For a cluster of (numerically) equal eigenvalues with orthonormal basis Q1,
the first-order motion under A + eps*E is the spectrum of the compressed
matrix Q1^H E Q1; the trailing term is quadratic in eps because the cluster
is separated from the rest of the spectrum by a positive gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .solvers import _dense_batch, eig_dense
from .types import DenseHermitian

__all__ = [
    "MultipleEigContext",
    "detect_multiple",
    "first_order_eigs",
    "expansion_order",
    "OrderFit",
]


@dataclass(frozen=True)
class MultipleEigContext:
    """A multiple (or tightly clustered) eigenvalue of A with its eigenspace."""

    matrix: DenseHermitian
    lambda0: float                  # cluster mean
    multiplicity: int
    basis: np.ndarray               # n x r orthonormal eigenspace basis
    gap: float                      # distance to the nearest outside eigenvalue
    ranks: tuple                    # 0-based positions in the ascending spectrum


def detect_multiple(A: DenseHermitian,
                    cluster_tol: float = 1e-8) -> list[MultipleEigContext]:
    """Group the oracle spectrum into clusters of diameter
    <= cluster_tol * ||A||_2 and emit a context per cluster of size >= 2."""
    if not 0.0 < cluster_tol < math.inf:
        raise ValueError("cluster_tol must be positive and finite")
    spec = eig_dense(A, want_vectors=True)
    vals = spec.values
    scale = max(abs(float(vals[0])), abs(float(vals[-1])), 1e-300)
    tol = cluster_tol * scale
    contexts = []
    start = 0
    n = vals.size
    while start < n:
        stop = start + 1
        while stop < n and vals[stop] - vals[start] <= tol:
            stop += 1
        r = stop - start
        if r >= 2:
            lam0 = float(np.mean(vals[start:stop]))
            outside = np.concatenate([vals[:start], vals[stop:]])
            gap = float(np.min(np.abs(outside - lam0))) if outside.size else math.inf
            contexts.append(MultipleEigContext(
                matrix=A, lambda0=lam0, multiplicity=r,
                basis=spec.vectors[:, start:stop].copy(),
                gap=gap, ranks=tuple(range(start, stop))))
        start = stop
    return contexts


def first_order_eigs(ctx: MultipleEigContext, E: DenseHermitian,
                     eps) -> np.ndarray:
    """Predicted cluster eigenvalues of A + eps*E: lambda0 + eps * mu_i for
    mu_i the ascending eigenvalues of Q1^H E Q1.  A scalar eps gives one
    value per mu_i; an array of eps gives one row of them per eps."""
    eps = np.asarray(eps, dtype=float)
    if np.any(eps < 0.0):
        raise ValueError("eps must be nonnegative")
    q1 = ctx.basis
    # Hermitian up to roundoff: keep the lower triangle, as DenseHermitian does
    c = q1.conj().T @ E.entries @ q1
    comp = DenseHermitian.from_array(np.tril(c) + np.tril(c, -1).conj().T)
    return ctx.lambda0 + np.multiply.outer(eps, eig_dense(comp).values)


@dataclass(frozen=True)
class OrderFit:
    """Log-log regression of prediction error against eps."""

    eps_grid: np.ndarray            # descending
    predictions: np.ndarray         # first-order values, one row per eps
    errors: np.ndarray
    gap_bounds: np.ndarray          # quadratic-gap bound per eps
    slope: float | None             # None when every error is exactly 0
    exact: bool


def expansion_order(contexts, E: DenseHermitian, eps_grid) -> list[OrderFit]:
    """Measure the order of the first-order expansion's trailing term, one
    fit per context; the contexts are clusters of one matrix A, as one
    detect_multiple call returns them.

    For each eps, the error is the worst rank-paired difference between the
    oracle cluster eigenvalues of A + eps*E and the first-order predictions;
    the fitted log-log slope should be about 2.  Each error is also compared
    with the quadratic-gap bound 2||eps E||^2 / (gap + sqrt(gap^2 +
    4||eps E||^2)).  ||E|| and the spectrum of each A + eps*E are computed
    once for all clusters, in one engine call (_dense_batch), and used
    only once every cluster has passed the eps*||E|| < gap/4 check.
    """
    if len({id(ctx.matrix) for ctx in contexts}) != 1:
        raise ValueError("contexts must be clusters of one matrix")
    eps_grid = np.asarray(sorted(map(float, eps_grid), reverse=True))
    if eps_grid.size < 2 or eps_grid[-1] <= 0.0:
        raise ValueError("eps grid must hold at least two positive values")
    if eps_grid[0] / eps_grid[-1] < 100.0:
        raise ValueError("eps grid must span at least two decades")
    A = contexts[0].matrix
    spectra, (norm_e,) = _dense_batch(
        [DenseHermitian.from_array(A.entries + eps * E.entries) for eps in eps_grid], [E])
    if any(math.isfinite(ctx.gap) and norm_e * eps_grid[0] >= ctx.gap / 4.0
           for ctx in contexts):
        raise ValueError("largest eps violates eps*||E|| < gap/4")
    spectra = np.array(spectra)
    fits = []
    for ctx in contexts:
        predictions = first_order_eigs(ctx, E, eps_grid)
        observed = spectra[:, list(ctx.ranks)]
        errors = np.max(np.abs(observed - predictions), axis=1)
        gap_bounds = []
        for en in (eps_grid * norm_e).tolist():
            d = ctx.gap + math.hypot(ctx.gap, 2.0 * en)
            # far from unit scale en^2 underflows or overflows
            normal = np.finfo(float).tiny <= en * en < math.inf
            gap_bounds.append(2.0 * en * en / d if normal else 2.0 * en * (en / d))
        gap_bounds = np.array(gap_bounds)
        scale = max(abs(ctx.lambda0), 1.0)
        exact = bool(np.all(errors <= 64.0 * np.finfo(float).eps * scale))
        slope = None if exact else float(np.polyfit(
            np.log(eps_grid), np.log(np.maximum(errors, 1e-300)), 1)[0])
        fits.append(OrderFit(eps_grid, predictions, errors, gap_bounds,
                             slope, exact))
    return fits
