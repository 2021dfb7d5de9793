"""Executable aggressive early deflation for symmetric tridiagonal QR.

The transform eigendecomposes a trailing window, exposing the spike vector
t = b_{n-k} V(1,:) whose small entries mark window eigenvalues that can be
locked: each lies within its |t_i| of an eigenvalue of the whole matrix,
which the soundness check confirms by Sturm counts alone.  The outcome
keeps only the window values, the spike and the deflation flags; the
window eigenvectors are used once, for the spike, and dropped.  A
Wilkinson-shift QR sweep plus an end-to-end driver make the deflation
behavior observable on whole matrices; the driver returns the undeflated
part of each window to tridiagonal form with the solvers' Householder
reduction (a pass that deflates nothing keeps its window as it is), takes
the norm that scales its deflation test once, from the two extreme
eigenvalues alone (spectral_norm), and sweeps a unit-scaled copy of the
matrix.  The sweep is the oracle's own (solvers._qr_sweep), which also
gives the dense eigenvectors and the dense values-only redo; the driver's
spectrum-match check compares its values with the Sturm-count engine of
eig_tridiag, never with QR, so sharing the sweep lets nothing check
itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .solvers import (_counts_within, _dense_tridiagonal, _qr_sweep, _unit_scaled,
                      eig_tridiag, spectral_norm)
from .types import Spectrum, SymTridiagonal

__all__ = [
    "AedOutcome",
    "aed_transform",
    "deflation_soundness_check",
    "qr_sweep",
    "run_qr_with_aed",
    "RunStatistics",
]

# safety cap on QR sweeps in run_qr_with_aed
_MAX_SWEEPS = 100000


@dataclass(frozen=True)
class AedOutcome:
    """Window spectrum and spike, ordered by decreasing |D|, with the
    deflation flags."""

    values: np.ndarray              # window spectrum D, descending magnitude
    spike: np.ndarray               # t = b_{n-k} * (first row of V)
    deflatable: np.ndarray          # |t_i| <= tol * scale

    @property
    def deflation_count(self) -> int:
        return int(np.sum(self.deflatable))


def aed_transform(T: SymTridiagonal, k: int, tol: float,
                  scale: float) -> AedOutcome:
    """Eigendecompose the trailing k-by-k window, form the spike, and flag
    window eigenvalues with |t_i| <= tol * scale as deflatable.  scale may
    be 0, the norm of the zero matrix: then only exact zeros deflate."""
    n = T.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"window size k={k} out of range for order {n}")
    if not (0.0 < tol < math.inf and 0.0 <= scale < math.inf):
        raise ValueError("tol must be positive and scale nonnegative, both finite")
    spec = eig_tridiag(T.window(k), want_vectors=True)
    order = np.argsort(-np.abs(spec.values), kind="stable")
    spike = float(T.offdiag[n - k - 1]) * spec.vectors[0, order]
    return AedOutcome(values=spec.values[order], spike=spike,
                      deflatable=np.abs(spike) <= tol * scale)


def deflation_soundness_check(T: SymTridiagonal, outcome: AedOutcome,
                              slack: float) -> np.ndarray:
    """Eigenvalues of T strictly inside (mu - r, mu + r), r = |t| + slack,
    for each deflated window eigenvalue mu with spike entry t, aligned with
    outcome.values[outcome.deflatable].  The residual of mu's Ritz pair is
    |t|, so sound deflation finds at least 1 each.  No eigenvalue is
    computed, only Sturm counts, which err toward fewer (see
    solvers._counts_within): they can refuse falsely, never pass falsely.
    """
    mask = outcome.deflatable
    return _counts_within(T, outcome.values[mask],
                          np.abs(outcome.spike[mask]) + slack)


def qr_sweep(T: SymTridiagonal) -> SymTridiagonal:
    """One implicit symmetric QR sweep with Wilkinson shift, the oracle's
    own (solvers._qr_sweep)."""
    if T.n < 2:
        return T
    d, e = T.diag.tolist(), T.offdiag.tolist()
    _qr_sweep(d, e, 0, T.n - 1)
    return SymTridiagonal(np.array(d), np.array(e))


def _tridiagonalize_bordered(head: float, spike: np.ndarray,
                             window_vals: np.ndarray) -> SymTridiagonal:
    """Householder reduction of the bordered block [[head, t^T], [t, D]]
    back to tridiagonal form.  The first coordinate stays fixed, so the
    coupling of the head row to the rest of the matrix survives.  The block
    is reduced unit-scaled (_dense_tridiagonal) and scaled back exactly."""
    m = spike.size
    B = np.zeros((m + 1, m + 1))
    B[0, 0] = head
    B[0, 1:] = spike
    B[1:, 0] = spike
    B[1:, 1:] = np.diag(window_vals)
    S, e = _dense_tridiagonal(B)
    return SymTridiagonal(np.ldexp(S.diag, e), np.ldexp(S.offdiag, e))


@dataclass
class SweepRecord:
    sweep: int
    aed_deflations: int
    negligible_deflations: int
    active_size: int


@dataclass
class RunStatistics:
    records: list[SweepRecord] = field(default_factory=list)
    sweeps: int = 0
    converged: bool = False
    scale: float = 0.0              # ||T||, the deflation scale

    @property
    def first_pass_aed_count(self) -> int:
        return self.records[0].aed_deflations

    @property
    def total_aed(self) -> int:
        return sum(r.aed_deflations for r in self.records)

    @property
    def total_negligible(self) -> int:
        return sum(r.negligible_deflations for r in self.records)


def run_qr_with_aed(T: SymTridiagonal, window: int,
                    tol: float = 1e-16) -> tuple[Spectrum, RunStatistics]:
    """Wilkinson-shift QR alternated with aggressive early deflation.

    One AED pass on the trailing window of the active matrix runs before
    the first sweep and after every sweep.  Deflated eigenvalues are locked
    immediately and the active matrix shrinks; spike entries of surviving
    window eigenvalues are recomputed on the next pass.  A run stops after
    _MAX_SWEEPS sweeps, unconverged, at the latest.  Returns the final
    spectrum and per-sweep statistics.  The run works on T unit-scaled,
    2^-p T (as the solvers do), so that the sweeps' squares and differences
    neither overflow nor underflow, and scales the values back exactly.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if window < 1:
        raise ValueError(f"window={window} must be >= 1")
    scale = spectral_norm(T)
    S, p = _unit_scaled(T)
    d = S.diag.copy()
    e = S.offdiag.copy()
    unit = math.ldexp(scale, -p)            # ||S||, the scale of the AED test
    locked: list[float] = []
    stats = RunStatistics(scale=scale)

    def deflate_trailing() -> int:
        nonlocal d, e
        count = 0
        while d.size > 1 and abs(e[-1]) <= tol * (abs(d[-2]) + abs(d[-1])):
            locked.append(float(d[-1]))
            d, e = d[:-1], e[:-1]
            count += 1
        if d.size == 1:
            locked.append(float(d[0]))
            d = d[:0]
            count += 1
        return count

    def aed_pass() -> int:
        # called with at least two active rows, so 1 <= k_eff <= n_a - 1
        nonlocal d, e
        n_a = d.size
        k_eff = min(window, n_a - 1)
        active = SymTridiagonal(d, e)
        outcome = aed_transform(active, k_eff, tol, unit)
        kept = ~outcome.deflatable
        locked.extend(float(v) for v in outcome.values[outcome.deflatable])
        head_rows = n_a - k_eff
        # a pass that deflates nothing keeps its rows: by the implicit-Q
        # theorem the rebuild would give them back, up to roundoff and the
        # signs of the couplings; with all of them deflated it is [head]
        if outcome.deflation_count:
            block = _tridiagonalize_bordered(float(d[head_rows - 1]),
                                             outcome.spike[kept],
                                             outcome.values[kept])
            d = np.concatenate([d[:head_rows - 1], block.diag])
            e = np.concatenate([e[:head_rows - 1], block.offdiag])
        return outcome.deflation_count

    # pass 0 runs before any sweep
    neg = 0
    while True:
        aed_count = aed_pass() if d.size > 1 else 0
        neg += deflate_trailing()
        stats.records.append(SweepRecord(stats.sweeps, aed_count, neg, d.size))
        if d.size == 0 or stats.sweeps >= _MAX_SWEEPS:
            break
        stats.sweeps += 1
        swept = qr_sweep(SymTridiagonal(d, e))
        d, e = swept.diag.copy(), swept.offdiag.copy()
        neg = deflate_trailing()

    stats.converged = d.size == 0
    values = np.sort(np.concatenate([np.array(locked), d]))
    return Spectrum(np.ldexp(values, p)), stats
