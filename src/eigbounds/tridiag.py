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
one row always has F = 0.  The head rows 1..n-k-1 enter only through the
gap condition, a test of lam against the union of their disks
a_i -+ (|b_i| + |b_{i-1}| + alpha): one sort of those disks, widened by a
rounding margin (derived in aed_window_bounds), decides it for every
window eigenvalue at once, so a call costs O((n + k) log n + k^2) and only
the k tail rows are visited per value.

The chain.  _log_chain is the one place where decay factors become log10
products and where a chain stops: the window bound and decay_profile both
hand it their log10 factors, 0 giving -inf and a row that reaches the
value +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .solvers import _BLOCK_ELEMENTS, _decay_ratio, _gersch_radii, eig_tridiag
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


def _log_chain(logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chain a (value x row) array of log10 decay factors, a zero factor
    being -inf and a row that reaches the value +inf.  Returns the prefix
    sums along the rows, and per value the number of leading factors
    before the first +inf, where its chain stops; prefix sums from there
    on carry no bound.  The prefix sums overwrite logs."""
    length = np.logical_and.accumulate(logs != np.inf, axis=1).sum(axis=1)
    with np.errstate(invalid="ignore"):     # -inf + inf past a stop
        return np.cumsum(logs, axis=1, out=logs), length


def decay_step_bound(T: SymTridiagonal, lam: float, k: int) -> float | None:
    """Per-row decay ratio (|b_{k-1}| + |b_k|) / |lam - a_k| at row k
    (1-based); None when the Gerschgorin disk at row k contains lam.  A
    non-finite lam raises ValueError."""
    n = T.n
    if not math.isfinite(lam):
        raise ValueError(f"lam={lam} is not finite")
    if not 1 <= k <= n:
        raise IndexError(f"row {k} out of range 1..{n}")
    radius = _gersch_radii(T.offdiag)[k - 1]
    ratio = float(_decay_ratio(radius, abs(lam - float(T.diag[k - 1]))))
    return None if ratio == math.inf else ratio


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


def decay_profile(T: SymTridiagonal, lam: float, row_from: int,
                  row_to: int) -> DecayProfile:
    """Chain decay_step_bound from row_from to row_to (inclusive, 1-based);
    a non-finite lam raises ValueError."""
    if row_from == row_to:
        raise ValueError("profile needs at least two distinct rows")
    if not math.isfinite(lam):
        raise ValueError(f"lam={lam} is not finite")
    direction = 1 if row_to > row_from else -1
    ks = np.arange(row_from, row_to + direction, direction)
    inside = (ks >= 1) & (ks <= T.n)
    m = ks.size if inside.all() else int(np.argmin(inside))
    rows = ks[:m]
    ratios = _decay_ratio(_gersch_radii(T.offdiag)[rows - 1],
                          np.abs(lam - T.diag[rows - 1]))
    with np.errstate(divide="ignore"):
        (prefix,), (stop,) = _log_chain(np.log10(ratios)[None, :])
    truncated_at = int(rows[stop]) if stop < m else None
    if truncated_at is None and m < ks.size:
        raise IndexError(f"row {int(ks[m])} out of range 1..{T.n}")
    return DecayProfile(start=row_from, direction=direction,
                        rows=tuple(int(k) for k in rows[:stop]),
                        ratios=tuple(float(r) for r in ratios[:stop]),
                        cumulative=tuple(LogScalar(1, v) for v in prefix[:stop].tolist()),
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
    |b_{n-k}|; a negative or non-finite alpha, a non-finite window value
    or a window size outside 1..n-1 raises ValueError.

    The gap condition is decided by the float test
    |a_i - lam| - |b_i| - |b_{i-1}| - alpha > 0, on the head rows
    1..n-k-1 without visiting each (value, row) pair.  With u = 2^-53 and
    s_i = |b_i| + |b_{i-1}| + alpha, the test passes whenever
    |a_i - lam| > s_i (1 + 4u): each of its four roundings (of a_i - lam
    and of three subtractions with positive results) loses at most a
    factor 1 - u, and 1 / (1 - u)^3 < 1 + 4u.  The rounded sum s^_i is at
    least s_i (1 - u)^2.  A value outside the interval a_i -+ r_i,
    r_i = s^_i + 16 ulp(s^_i + |a_i|) with every operation rounded, lies
    more than r_i (1 - u) - u |a_i| >= s^_i (1 + 13u) >= s_i (1 + 4u)
    from a_i (an overflow to inf only widens the interval).  So a value
    outside the union of these intervals passes on every head row, and
    only the values inside it, found by one sort, a running maximum and a
    binary search, are tested row by row.  The k tail rows n-k..n-1 are
    visited per value, so a call costs O((n + k) log n + k^2) time and
    O(n) memory, plus O(n) per value inside the union.
    """
    n = T.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"window size k={k} out of range for order {n}")
    b = np.abs(T.offdiag)
    b_nk = float(b[n - k - 1])
    if alpha is None:
        alpha = b_nk
    if not 0 <= alpha < math.inf:
        raise ValueError(f"alpha={alpha} must be finite and nonnegative")
    if window_values is None:
        window_values = eig_tridiag(T.window(k)).values
    lams = np.asarray(window_values, dtype=float).reshape(-1)
    if not np.isfinite(lams).all():
        raise ValueError("window values must be finite")
    if j is not None and not 1 <= j <= k - 1:
        return [(lam, None, None) for lam in lams.tolist()]
    if j is not None and b_nk == 0.0:
        return [(lam, LogScalar(0), j) for lam in lams.tolist()]
    head_ok = _head_gap_ok(T, b, k, alpha, lams, max(1, _BLOCK_ELEMENTS // n))
    # the tail rows n-k..n-1, whose eta factors enter the bound
    tail = slice(n - k - 1, n - 1)
    # a copy, since a view would keep all n rows alive through the blocks
    b_prev = np.concatenate([[0.0], b[:-1]])[tail].copy()
    rows = (T.diag[tail], b[tail], b_prev, np.maximum(b[tail], b_prev))
    step = max(1, _BLOCK_ELEMENTS // k)
    return [triple for start in range(0, lams.size, step)
            for triple in _window_block(rows, j, alpha, lams[start:start + step],
                                        head_ok[start:start + step])]


def _head_gap_ok(T: SymTridiagonal, b: np.ndarray, k: int, alpha: float,
                 lams: np.ndarray, step: int) -> np.ndarray:
    """Per window value, whether the head rows 1..n-k-1 all pass the gap
    condition's float test (see aed_window_bounds), b = |offdiag|; the
    values inside the widened disks' union are tested step at a time."""
    m = T.n - k - 1
    ok = np.ones(lams.size, dtype=bool)
    if m == 0:
        return ok
    a, b_head = T.diag[:m], b[:m]
    r = b_head.copy()                           # s^_i, then r_i, in place
    r[1:] += b[:m - 1]
    r += alpha
    ulp = np.abs(a)
    ulp += r
    np.spacing(ulp, out=ulp)
    ulp *= 16.0
    r += ulp
    del ulp
    lo = a - r
    order = np.argsort(lo)
    lo.sort()
    r += a
    hi = r[order]                               # right ends, in the order of lo
    del r, order
    np.maximum.accumulate(hi, out=hi)           # hi[p]: max right end of 0..p
    pos = np.searchsorted(lo, lams, side="right")
    inside = np.flatnonzero((pos > 0) & (hi[np.maximum(pos - 1, 0)] >= lams))
    for start in range(0, inside.size, step):
        picked = inside[start:start + step]
        margin = a - lams[picked, None]
        np.abs(margin, out=margin)
        margin -= b_head
        margin[:, 1:] -= b[:m - 1]
        margin -= alpha
        ok[picked] = np.all(margin > 0.0, axis=1)
    return ok


def _window_block(rows: tuple, j: int | None, alpha: float, lams: np.ndarray,
                  head_ok: np.ndarray) -> list[tuple]:
    """aed_window_bounds for the window eigenvalues lams, given per value
    whether the head rows pass the gap condition; rows = (a_i, |b_i|,
    |b_{i-1}|, max of the two) over the tail rows n-k..n-1."""
    a, b, b_prev, b_max = rows
    # one (value x row) array, updated in place: the gap test, then the
    # denominator, then the log10 terms of the chain
    terms = np.subtract(a, lams[:, None])
    np.abs(terms, out=terms)
    terms -= b
    terms -= b_prev
    terms -= alpha
    ok = terms > 0.0
    np.subtract(a, lams[:, None], out=terms)
    np.abs(terms, out=terms)
    terms -= alpha
    terms -= b_max
    ok &= terms > 0.0
    np.divide(b, terms, out=terms, where=ok)
    with np.errstate(divide="ignore"):
        np.log10(terms, out=terms, where=ok)
        first = np.log10(b[0] / 2.0) + terms[:, 0]
    # a row that fails ok ends the chain
    np.copyto(terms, np.inf, where=~ok)
    terms *= 2.0
    terms[:, 0] = np.where(ok[:, 0], first, np.inf)
    # prefix[:, d]: log10 bound at depth d
    prefix, run = _log_chain(terms)
    # F = (leading run of ok tail rows) - 1, and 0 when a head row fails
    feasible = np.where(head_ok, np.maximum(run - 1, 0), 0)
    if j is None:
        depths = np.arange(b.size)
        # the depths out of reach read inf; no bound is taken from them
        np.copyto(prefix, np.inf, where=(depths < 1) | (depths > feasible[:, None]))
        used = np.argmin(prefix, axis=1)
    else:
        used = np.full(lams.size, j)
    bound = prefix[np.arange(lams.size), used]
    found = (used >= 1) & (used <= feasible)
    return [(lam, LogScalar(1, v), d) if hit else (lam, None, None)
            for lam, v, d, hit in zip(lams.tolist(), bound.tolist(), used.tolist(),
                                      found.tolist())]
