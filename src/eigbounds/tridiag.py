"""Tridiagonal eigenvalue machinery: Gerschgorin decay profiles, Wilkinson
pair-gap bounds, and the deflation-window perturbation bound, all in log
space so magnitudes like 1e-271 are first-class values.

The window bound.  Split T (order n, diagonal a_i, couplings b_i, rows
1-based) before its trailing k-by-k window by zeroing b_{n-k}.  A window
eigenvalue lam moves by at most

    (|b_{n-k}| / 2) * eta_{n-k} * prod_{i=1..j} eta_{n-k+i}^2,
    eta_i = |b_i| / (|a_i - lam| - alpha - max(|b_i|, |b_{i-1}|)),

when the coupling is restored, with alpha >= 0 the homotopy slack (|b_0| is
0).  The eta factors bound the decay of the eigenvector's components, so
the bound is small when they are.  Depth j needs the gap condition
|a_i - lam| > |b_i| + |b_{i-1}| + alpha on rows 1..n-k+j and a positive eta
denominator on rows n-k..n-k+j.  The feasible depth F of lam is the largest
j in 1..k-1 that meets both, and 0 (no bound) when none does; a window of
one row always has F = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .solvers import _BLOCK_ELEMENTS, eig_tridiag
from .types import LogScalar, SymTridiagonal

__all__ = [
    "DecayProfile",
    "decay_step_bound",
    "decay_profile",
    "wilkinson_gap_bound",
    "wilkinson_pair_gap_bound",
    "aed_window_bounds",
]

_LN10 = math.log(10.0)


def _log_factorial10(m: int) -> float:
    """log10(m!) via lgamma; exact enough for thousands of terms."""
    return math.lgamma(m + 1) / _LN10


def decay_step_bound(T: SymTridiagonal, lam: float, k: int) -> float | None:
    """Per-row decay ratio (|b_{k-1}| + |b_k|) / |lam - a_k| at row k
    (1-based); None when the Gerschgorin disk at row k contains lam."""
    n = T.n
    if not 1 <= k <= n:
        raise IndexError(f"row {k} out of range 1..{n}")
    radius = (abs(float(T.offdiag[k - 2])) if k > 1 else 0.0) + \
             (abs(float(T.offdiag[k - 1])) if k < n else 0.0)
    gap = abs(lam - float(T.diag[k - 1]))
    if gap <= radius:
        return None
    return radius / gap


@dataclass(frozen=True)
class DecayProfile:
    """Chained per-row decay ratios with log-space cumulative products.

    cumulative[m-1] bounds |x_{start}| relative to the component one row past
    the m-th visited row, provided every visited row's disk was disjoint from
    lam.  The chain truncates at the first row where that fails.
    """

    start: int
    direction: int                     # +1 toward larger indices, -1 smaller
    rows: tuple = ()
    ratios: tuple = ()
    cumulative: tuple = ()
    truncated_at: int | None = None

    @property
    def complete(self) -> bool:
        return self.truncated_at is None

    def final_bound(self) -> LogScalar | None:
        return self.cumulative[-1] if self.cumulative else None


def decay_profile(T: SymTridiagonal, lam: float, row_from: int,
                  row_to: int) -> DecayProfile:
    """Chain decay_step_bound from row_from to row_to (inclusive, 1-based)."""
    if row_from == row_to:
        raise ValueError("profile needs at least two distinct rows")
    direction = 1 if row_to > row_from else -1
    rows = []
    ratios = []
    cumulative = []
    acc = LogScalar.from_float(1.0)
    truncated_at = None
    for k in range(row_from, row_to + direction, direction):
        r = decay_step_bound(T, lam, k)
        if r is None:
            truncated_at = k
            break
        acc = acc * LogScalar.from_float(r)
        rows.append(k)
        ratios.append(r)
        cumulative.append(acc)
    return DecayProfile(start=row_from, direction=direction,
                        rows=tuple(rows), ratios=tuple(ratios),
                        cumulative=tuple(cumulative),
                        truncated_at=truncated_at)


def wilkinson_gap_bound(n: int) -> LogScalar:
    """Movement bound (4/(3n)) / ((n-2)!)^2 for the top eigenvalue pair of
    the split Wilkinson matrix of order 2n+1."""
    if n <= 4:
        raise ValueError("wilkinson_gap_bound requires n > 4")
    log10 = math.log10(4.0 / (3.0 * n)) - 2.0 * _log_factorial10(n - 2)
    return LogScalar.from_log10(log10)


def wilkinson_pair_gap_bound(n: int, ell: int) -> LogScalar:
    """Gap bound 1 / ((n-ell+1) ((n-ell-1)!)^2) for the (2ell-1, 2ell)
    eigenvalue pair of the order-(2n+1) Wilkinson matrix."""
    if n <= 4:
        raise ValueError("wilkinson_pair_gap_bound requires n > 4")
    if ell < 1 or n - ell - 1 < 0:
        raise ValueError(f"ell={ell} out of range for n={n}")
    log10 = -math.log10(n - ell + 1) - 2.0 * _log_factorial10(n - ell - 1)
    return LogScalar.from_log10(log10)


def _log10(x: float) -> float:
    """math.log10 as LogScalar.from_float takes it, with log10(0) = -inf."""
    return math.log10(x) if x > 0.0 else -math.inf


def aed_window_bounds(T: SymTridiagonal, k: int, j: int | None = None,
                      alpha: float | None = None,
                      window_values: np.ndarray | None = None,
                      ) -> list[tuple[float, LogScalar | None, int | None]]:
    """Window bound (see the module docstring) per trailing-window
    eigenvalue, computed for many of them at once.

    With j given, evaluates the bound at depth j, which needs 1 <= j <= F
    (None otherwise); when b_{n-k} = 0 it is 0 at every depth 1..k-1.
    With j=None, takes the depth in 1..F with the smallest bound, the
    first on ties.  Returns (lam, bound, j_used) triples in the order of
    window_values (ascending when computed here).  alpha defaults to
    |b_{n-k}|; a negative alpha or a window size outside 1..n-1 raises
    ValueError.
    """
    n = T.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"window size k={k} out of range for order {n}")
    b = np.abs(T.offdiag)
    b_nk = float(b[n - k - 1])
    if alpha is None:
        alpha = b_nk
    if alpha < 0:
        raise ValueError(f"alpha={alpha} must be nonnegative")
    if window_values is None:
        window_values = eig_tridiag(T.window(k)).values
    lams = np.asarray(window_values, dtype=float).reshape(-1)
    if j is not None and not 1 <= j <= k - 1:
        return [(lam, None, None) for lam in lams.tolist()]
    if j is not None and b_nk == 0.0:
        return [(lam, LogScalar(0), j) for lam in lams.tolist()]
    step = max(1, _BLOCK_ELEMENTS // n)
    return [triple for start in range(0, lams.size, step)
            for triple in _window_block(T, b, k, j, alpha, lams[start:start + step])]


def _window_block(T: SymTridiagonal, b: np.ndarray, k: int, j: int | None,
                  alpha: float, lams: np.ndarray) -> list[tuple]:
    """aed_window_bounds for the window eigenvalues lams, b = |offdiag|."""
    n = T.n
    # (window eigenvalue x row) arrays over rows 1..n-1; the tail holds
    # rows n-k..n-1, whose eta factors enter the bound
    b_prev = np.concatenate([[0.0], b[:-1]])
    gap = np.abs(T.diag[:-1] - lams[:, None])
    margin = gap - b - b_prev - alpha
    tail = slice(n - k - 1, n - 1)
    denom = gap[:, tail] - alpha - np.maximum(b, b_prev)[tail]
    ok = (margin[:, tail] > 0.0) & (denom > 0.0)
    # F = (leading run of ok tail rows) - 1, and 0 when a head row fails
    run = np.argmin(np.column_stack([ok, np.zeros(lams.size, dtype=bool)]), axis=1)
    head_ok = np.all(margin[:, :n - k - 1] > 0.0, axis=1)
    feasible = np.where(head_ok, np.maximum(run - 1, 0), 0)

    eta = np.divide(b[tail], denom, out=np.zeros_like(denom), where=ok)
    logs = np.array([_log10(x) for x in eta.ravel().tolist()]).reshape(eta.shape)
    terms = 2.0 * logs
    terms[:, 0] = _log10(float(b[n - k - 1]) / 2.0) + logs[:, 0]
    prefix = np.cumsum(terms, axis=1)     # prefix[:, d]: log10 bound at depth d
    if j is None:
        depths = np.arange(k)
        reachable = (depths >= 1) & (depths <= feasible[:, None])
        used = np.argmin(np.where(reachable, prefix, np.inf), axis=1)
    else:
        used = np.full(lams.size, j)
    out = []
    for lam, f, d, row in zip(lams.tolist(), feasible.tolist(), used.tolist(),
                              prefix.tolist()):
        if not 1 <= d <= f:
            out.append((lam, None, None))
        else:
            bound = LogScalar(1, row[d]) if row[d] > -math.inf else LogScalar(0)
            out.append((lam, bound, d))
    return out
