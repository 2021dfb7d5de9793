"""Tridiagonal eigenvalue machinery: Gerschgorin decay profiles, Wilkinson
pair-gap bounds, and the deflation-window perturbation bound, all in log
space so magnitudes like 1e-271 are first-class values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .solvers import eig_tridiag
from .types import LogScalar, SymTridiagonal

__all__ = [
    "DecayProfile",
    "AedBoundInput",
    "decay_step_bound",
    "decay_profile",
    "wilkinson_gap_bound",
    "wilkinson_pair_gap_bound",
    "aed_eta",
    "aed_perturbation_bound",
    "aed_window_bounds",
    "EtaInvalidError",
]

_LN10 = math.log(10.0)

NEIGHBOR_RULES = ("paper_def", "proof_form", "conservative")


class EtaInvalidError(ValueError):
    """A decay factor's denominator was not positive; names the row."""

    def __init__(self, row: int, denom: float):
        self.row = row
        self.denom = denom
        super().__init__(f"eta denominator {denom:.6g} <= 0 at row {row}")


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


@dataclass(frozen=True)
class AedBoundInput:
    """Inputs of the window perturbation bound: matrix, window size k,
    decay depth j, target window eigenvalue lam, homotopy slack alpha."""

    matrix: SymTridiagonal
    k: int
    j: int
    lam: float
    alpha: float

    def __post_init__(self):
        n = self.matrix.n
        if not 1 <= self.k <= n - 1:
            raise ValueError(f"window size k={self.k} out of range for order {n}")
        if self.j < 1:
            raise ValueError("decay depth j must be >= 1")
        if n - self.k + self.j > n - 1:
            raise ValueError(f"depth j={self.j} exceeds window interior (k={self.k})")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")


def _eta_denom(T: SymTridiagonal, lam: float, alpha: float, i: int,
               neighbor_rule: str) -> float:
    n = T.n
    b_i = abs(float(T.offdiag[i - 1])) if i <= n - 1 else 0.0
    b_im1 = abs(float(T.offdiag[i - 2])) if i >= 2 else 0.0
    gap = abs(float(T.diag[i - 1]) - lam)
    if neighbor_rule == "paper_def":
        sub = b_i
    elif neighbor_rule == "proof_form":
        sub = b_im1
    elif neighbor_rule == "conservative":
        sub = max(b_i, b_im1)
    else:
        raise ValueError(f"unknown neighbor rule {neighbor_rule!r}")
    return gap - alpha - sub


def aed_eta(inp: AedBoundInput, i: int,
            neighbor_rule: str = "conservative") -> float | None:
    """Per-row decay factor eta_i = b_i / (|a_i - lam| - alpha - b_nb);
    the neighbor b_nb subtracted depends on the rule.  None when the
    denominator is not positive."""
    n = inp.matrix.n
    if not 1 <= i <= n:
        raise IndexError(f"row {i} out of range 1..{n}")
    denom = _eta_denom(inp.matrix, inp.lam, inp.alpha, i, neighbor_rule)
    if denom <= 0.0:
        return None
    b_i = abs(float(inp.matrix.offdiag[i - 1])) if i <= n - 1 else 0.0
    return b_i / denom


def _check_gap_condition(T: SymTridiagonal, lam: float, alpha: float,
                         upto: int) -> None:
    """Require |a_i - lam| > b_{i-1} + b_i + alpha for rows 1..upto.

    This is what the eigenvector monotonicity induction actually needs:
    each ratio b_i / (|a_i - lam| - alpha - b_{i-1}) must stay below 1.
    """
    d = T.diag[:upto]
    b = np.abs(T.offdiag[:upto])
    b_prev = np.concatenate([[0.0], b[:upto - 1]])
    margin = np.abs(d - lam) - b - b_prev - alpha
    bad = np.nonzero(margin <= 0.0)[0]
    if bad.size:
        raise EtaInvalidError(int(bad[0]) + 1, float(margin[bad[0]]))


def aed_perturbation_bound(inp: AedBoundInput,
                           neighbor_rule: str = "conservative") -> LogScalar:
    """Movement bound (b_{n-k}/2) eta_{n-k} prod_{i=1..j} eta_{n-k+i}^2 on a
    window eigenvalue when the coupling b_{n-k} is restored."""
    T, k, j, lam, alpha = inp.matrix, inp.k, inp.j, inp.lam, inp.alpha
    n = T.n
    b_nk = abs(float(T.offdiag[n - k - 1]))
    if b_nk == 0.0:
        return LogScalar.from_float(0.0)
    _check_gap_condition(T, lam, alpha, n - k + j)
    eta0 = aed_eta(inp, n - k, neighbor_rule)
    if eta0 is None:
        raise EtaInvalidError(n - k, _eta_denom(T, lam, alpha, n - k, neighbor_rule))
    acc = LogScalar.from_float(b_nk / 2.0) * LogScalar.from_float(eta0)
    for i in range(1, j + 1):
        row = n - k + i
        eta = aed_eta(inp, row, neighbor_rule)
        if eta is None:
            raise EtaInvalidError(row, _eta_denom(T, lam, alpha, row, neighbor_rule))
        acc = acc * (LogScalar.from_float(eta) ** 2)
    return acc


def aed_window_bounds(T: SymTridiagonal, k: int, j: int | None = None,
                      alpha: float | None = None,
                      neighbor_rule: str = "conservative",
                      window_values: np.ndarray | None = None,
                      ) -> list[tuple[float, LogScalar | None, int | None]]:
    """Window bound per trailing-window eigenvalue.

    With j given, evaluates the fixed-depth bound (None where the gap
    condition fails).  With j=None, scans every feasible depth per
    eigenvalue and keeps the smallest bound.  Returns (lam, bound, j_used)
    triples in the order of window_values (ascending when computed here).
    alpha defaults to |b_{n-k}|.
    """
    n = T.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"window size k={k} out of range for order {n}")
    if alpha is None:
        alpha = abs(float(T.offdiag[n - k - 1]))
    if window_values is None:
        window_values = eig_tridiag(T.window(k)).values
    out = []
    for lam in map(float, window_values):
        if j is not None:
            try:
                inp = AedBoundInput(T, k, j, lam, alpha)
                out.append((lam, aed_perturbation_bound(inp, neighbor_rule), j))
            except (EtaInvalidError, ValueError):
                out.append((lam, None, None))
            continue
        # scan: extend the eta product row by row while the gap condition
        # holds, tracking the depth that minimizes the bound
        try:
            _check_gap_condition(T, lam, alpha, n - k)
        except EtaInvalidError:
            out.append((lam, None, None))
            continue
        inp1 = AedBoundInput(T, k, 1, lam, alpha)
        eta0 = aed_eta(inp1, n - k, neighbor_rule)
        if eta0 is None:
            out.append((lam, None, None))
            continue
        b_nk = abs(float(T.offdiag[n - k - 1]))
        acc = LogScalar.from_float(b_nk / 2.0) * LogScalar.from_float(eta0)
        best = None
        best_j = None
        for depth in range(1, k):
            row = n - k + depth
            denom = _eta_denom(T, lam, alpha, row, neighbor_rule)
            if row <= n - 1:
                b_row_next = abs(float(T.offdiag[row - 1]))
                b_row_prev = abs(float(T.offdiag[row - 2])) if row >= 2 else 0.0
                gap_ok = abs(float(T.diag[row - 1]) - lam) > \
                    b_row_next + b_row_prev + alpha
            else:
                gap_ok = False
            if denom <= 0.0 or not gap_ok:
                break
            b_row = abs(float(T.offdiag[row - 1]))
            acc = acc * (LogScalar.from_float(b_row / denom) ** 2)
            if best is None or acc < best:
                best, best_j = acc, depth
        out.append((lam, best, best_j))
    return out
