"""Executable aggressive early deflation for symmetric tridiagonal QR.

The transform eigendecomposes a trailing window, exposing the spike vector
t = b_{n-k} V(1,:) whose small entries mark window eigenvalues that can be
locked.  The outcome keeps only the window values, the spike and the
coupling; the window eigenvectors are used once, for the spike, and
dropped.  A Wilkinson-shift QR sweep plus an end-to-end driver make the
deflation behavior observable on whole matrices; the driver returns the
undeflated part of each window to tridiagonal form with the solvers'
Householder reduction, and takes the norm that scales its deflation test
once, from the two extreme eigenvalues alone (spectral_norm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .solvers import (_distance_to_spectrum, _householder_tridiagonal, eig_tridiag,
                      spectral_norm)
from .types import Spectrum, SymTridiagonal

__all__ = [
    "AedOutcome",
    "aed_transform",
    "deflation_decide",
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
    deflation flags of deflation_decide (all False from aed_transform)."""

    values: np.ndarray              # window spectrum D, descending magnitude
    spike: np.ndarray               # t = b_{n-k} * (first row of V)
    coupling: float                 # b_{n-k}
    deflatable: np.ndarray          # |t_i| <= tol * scale

    @property
    def deflation_count(self) -> int:
        return int(np.sum(self.deflatable))


def aed_transform(T: SymTridiagonal, k: int) -> AedOutcome:
    """Eigendecompose the trailing k-by-k window and form the spike."""
    n = T.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"window size k={k} out of range for order {n}")
    spec = eig_tridiag(T.window(k), want_vectors=True)
    order = np.argsort(-np.abs(spec.values), kind="stable")
    values = spec.values[order]
    coupling = float(T.offdiag[n - k - 1])
    spike = coupling * spec.vectors[0, order]
    return AedOutcome(values=values, spike=spike, coupling=coupling,
                      deflatable=np.zeros(k, dtype=bool))


def deflation_decide(outcome: AedOutcome, tol: float, scale: float) -> AedOutcome:
    """Flag window eigenvalues with |t_i| <= tol * scale as deflatable."""
    if tol <= 0.0 or scale <= 0.0:
        raise ValueError("tol and scale must be positive")
    flags = np.abs(outcome.spike) <= tol * scale
    return replace(outcome, deflatable=flags)


def deflation_soundness_check(T: SymTridiagonal,
                              outcome: AedOutcome) -> np.ndarray:
    """Distance, via the oracle, from each deflated window eigenvalue to the
    spectrum of the full matrix, aligned with
    outcome.values[outcome.deflatable]; sound deflation keeps each within
    its |spike| entry.

    The full spectrum is never formed: with c the Sturm count of eigenvalues
    of T below a deflated value, only ranks c and c + 1 are computed, by
    the solvers' isolate-refine-certify engine.
    """
    return _distance_to_spectrum(T, outcome.values[outcome.deflatable])


def _wilkinson_shift(d1: float, d2: float, b: float) -> float:
    """Eigenvalue of [[d1, b], [b, d2]] closest to d2."""
    delta = 0.5 * (d1 - d2)
    if delta == 0.0 and b == 0.0:
        return d2
    sgn = 1.0 if delta >= 0.0 else -1.0
    return d2 - b * b / (delta + sgn * math.hypot(delta, b))


def qr_sweep(T: SymTridiagonal) -> SymTridiagonal:
    """One implicit symmetric QR sweep with Wilkinson shift."""
    n = T.n
    if n < 2:
        return T
    d = [float(v) for v in T.diag]
    e = [float(v) for v in T.offdiag]
    if all(v == 0.0 for v in e):
        return T
    mu = _wilkinson_shift(d[n - 2], d[n - 1], e[n - 2])
    x = d[0] - mu
    z = e[0]
    for kk in range(n - 1):
        r = math.hypot(x, z)
        if r == 0.0:
            c, s = 1.0, 0.0
        else:
            c, s = x / r, z / r
        if kk > 0:
            e[kk - 1] = r
        d1, ek, d2 = d[kk], e[kk], d[kk + 1]
        d[kk] = c * c * d1 + 2.0 * c * s * ek + s * s * d2
        d[kk + 1] = s * s * d1 - 2.0 * c * s * ek + c * c * d2
        e[kk] = c * s * (d2 - d1) + (c * c - s * s) * ek
        x = e[kk]
        if kk < n - 2:
            z = s * e[kk + 1]
            e[kk + 1] = c * e[kk + 1]
    return SymTridiagonal(np.array(d), np.array(e))


def _tridiagonalize_bordered(head: float, spike: np.ndarray,
                             window_vals: np.ndarray) -> SymTridiagonal:
    """Householder reduction of the bordered block [[head, t^T], [t, D]]
    back to tridiagonal form.  The first coordinate stays fixed, so the
    coupling of the head row to the rest of the matrix survives."""
    m = spike.size
    B = np.zeros((m + 1, m + 1))
    B[0, 0] = head
    B[0, 1:] = spike
    B[1:, 0] = spike
    B[1:, 1:] = np.diag(window_vals)
    return SymTridiagonal(*_householder_tridiagonal(B))


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
        return self.records[0].aed_deflations if self.records else 0

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
    spectrum and per-sweep statistics.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if window < 1:
        raise ValueError(f"window={window} must be >= 1")
    scale = spectral_norm(T)
    if scale == 0.0:
        stats = RunStatistics(converged=True)
        return Spectrum(np.sort(T.diag)), stats
    d = T.diag.copy()
    e = T.offdiag.copy()
    locked: list[float] = []
    stats = RunStatistics(scale=scale)

    def negligible(i: int) -> bool:
        return abs(e[i]) <= tol * (abs(d[i]) + abs(d[i + 1]))

    def deflate_trailing() -> int:
        nonlocal d, e
        count = 0
        while d.size > 1 and negligible(e.size - 1):
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
        outcome = deflation_decide(aed_transform(active, k_eff), tol, scale)
        kept = ~outcome.deflatable
        locked.extend(float(v) for v in outcome.values[outcome.deflatable])
        m = int(np.sum(kept))
        head_rows = n_a - k_eff
        if m == 0:
            d, e = d[:head_rows], e[:head_rows - 1]
        else:
            block = _tridiagonalize_bordered(float(d[head_rows - 1]),
                                             outcome.spike[kept],
                                             outcome.values[kept])
            d = np.concatenate([d[:head_rows - 1], block.diag])
            e = np.concatenate([e[:head_rows - 1], block.offdiag])
        return outcome.deflation_count

    # first AED pass before any sweep
    first = aed_pass() if d.size > 1 else 0
    stats.records.append(SweepRecord(0, first, deflate_trailing(), d.size))

    # deflate_trailing locks a lone row, so the active size is never 1 here
    while d.size > 0 and stats.sweeps < _MAX_SWEEPS:
        stats.sweeps += 1
        swept = qr_sweep(SymTridiagonal(d, e))
        d, e = swept.diag.copy(), swept.offdiag.copy()
        neg = deflate_trailing()
        aed_count = 0
        if d.size > 1:
            aed_count = aed_pass()
            neg += deflate_trailing()
        stats.records.append(SweepRecord(stats.sweeps, aed_count, neg, d.size))

    stats.converged = d.size == 0
    values = np.sort(np.concatenate([np.array(locked), d]))
    return Spectrum(values), stats
