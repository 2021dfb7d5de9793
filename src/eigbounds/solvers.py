"""Self-contained eigensolvers and norms used as the oracle everywhere else.

Dense Hermitian matrices go through round-robin Jacobi sweeps; symmetric
tridiagonals through Sturm-sequence bisection (each pass counts a subtree of
midpoints of every interval and replays several steps, bit-identical to one
midpoint per pass) and twisted factorisations for the eigenvectors of all
eigenvalues at once (Fernando 1997; LAPACK dlar1v).  A Sturm count runs the
pivot recurrence in row blocks with one division and one subtraction per
row and no pivot guard; the guard of LAPACK dstebz is applied afterwards,
by recounting only the shifts whose pivots came below pivmin (Demmel,
Dhillon & Ren 1995).  Entries beyond [2^-500, 2^500] are scaled by a power
of two first, and the results scaled back exactly.  Bisection can isolate
chosen ranks alone: the AED deflation check takes the Sturm count c below
each deflated value and bisects only ranks c and c + 1, the two eigenvalues
that bracket it (Barth, Martin & Wilkinson 1967).  These are deliberately
independent of any library eigensolver so that every bound in the package is
checked against an implementation with no shared code path.
"""

from __future__ import annotations

import math

import numpy as np

from .types import DenseHermitian, Spectrum, SymTridiagonal

__all__ = [
    "eig_dense",
    "eig_tridiag",
    "sturm_count",
    "spectral_norm",
    "gerschgorin_disks",
    "JacobiConvergenceError",
    "InverseIterationError",
]

_EPS = np.finfo(float).eps

JACOBI_MAX_SWEEPS = 30
TOL_RESID = 1e-12
TOL_ORTH = 1e-12

# Sturm bisection: shifts counted per pass, and the cap on bisection steps
_SHIFTS_PER_PASS = 1024
_MAX_BISECT_STEPS = 120
# rows per block of the unguarded Sturm recurrence (_sturm_counts)
_STURM_ROWS = 64

# (eigenvalue x row) arrays, here and in tridiag.aed_window_bounds, take the
# eigenvalues in blocks of _BLOCK_ELEMENTS / n so each stays near 8 MB;
# clustered eigenvectors start from fixed-seed random vectors, as in LAPACK
_BLOCK_ELEMENTS = 1 << 20


class JacobiConvergenceError(RuntimeError):
    """Jacobi sweeps exhausted without meeting the off-diagonal target."""


class InverseIterationError(RuntimeError):
    """An eigenvector missed the residual or orthogonality contract."""


def _round_robin_pairs(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Index pairs (P, Q), P < Q, of each round of a round-robin sweep.

    Circle method on n padded to even m, with m - 1 rounds: in round r,
    index m - 1 meets r and (r + k) mod (m - 1) meets (r - k) mod (m - 1).
    Every pair occurs in exactly one round and no index occurs twice in a
    round; pairs with the padding index m - 1 = n (odd n) are dropped.
    """
    m = n + n % 2
    k = np.arange(1, m // 2)
    rounds = []
    for r in range(m - 1):
        a = np.concatenate(([r], (r + k) % (m - 1)))
        b = np.concatenate(([m - 1], (r - k) % (m - 1)))
        keep = b < n
        a, b = a[keep], b[keep]
        rounds.append((np.minimum(a, b), np.maximum(a, b)))
    return rounds


def eig_dense(A: DenseHermitian, want_vectors: bool = False,
              max_sweeps: int = JACOBI_MAX_SWEEPS) -> Spectrum:
    """Full spectrum of a Hermitian matrix by round-robin Jacobi sweeps.

    Each sweep is the rounds of a round-robin ordering (Brent & Luk 1985);
    the rotations of a round act on disjoint (p, q) planes, so they commute
    and are applied together as one array update.
    """
    n = A.n
    # real input stays in real arithmetic: the rotation formulas below are
    # dtype-generic (the phase ph degenerates to +-1) and run much faster
    dtype = float if A.is_real else complex
    H = A.real_array().astype(float, copy=True) if A.is_real \
        else A.entries.astype(complex, copy=True)
    V = np.eye(n, dtype=dtype) if want_vectors else None
    scale = math.sqrt(float(np.sum(np.abs(H) ** 2)))
    if n == 1 or scale == 0.0:
        vals = H.diagonal().real.copy()
        order = np.argsort(vals, kind="stable")
        return Spectrum(vals[order], V[:, order] if want_vectors else None)

    off_target = 0.5 * n * _EPS * scale
    skip = _EPS * scale * 1e-3

    diag_mask = ~np.eye(n, dtype=bool)

    def off_norm() -> float:
        # summed directly over off-diagonal entries: subtracting the diagonal
        # from the total cancels catastrophically once the off-part is tiny
        return math.sqrt(float(np.sum(np.abs(H[diag_mask]) ** 2)))

    rounds = _round_robin_pairs(n)
    converged = off_norm() <= off_target
    for _ in range(max_sweeps):
        if converged:
            break
        rotated = False
        for P, Q in rounds:
            apq = H[P, Q]
            absb = np.abs(apq)
            big = absb > skip
            if not big.all():
                if not big.any():
                    continue
                P, Q, apq, absb = P[big], Q[big], apq[big], absb[big]
            rotated = True
            app = H[P, P].real
            aqq = H[Q, Q].real
            ph = apq / absb
            tau = (aqq - app) / (2.0 * absb)
            t = np.where(tau >= 0, -1.0, 1.0) / (np.abs(tau) + np.hypot(tau, 1.0))
            c = 1.0 / np.hypot(t, 1.0)
            s = t * c
            sph = s * ph.conjugate()
            cphc = c * ph.conjugate()
            # columns, then rows, of the unitary acting in the (p, q) planes
            hp = H[:, P]
            hq = H[:, Q]
            H[:, P] = c * hp + sph * hq
            H[:, Q] = -s * hp + cphc * hq
            hp = H[P, :]
            hq = H[Q, :]
            H[P, :] = c[:, None] * hp + (s * ph)[:, None] * hq
            H[Q, :] = -s[:, None] * hp + (c * ph)[:, None] * hq
            H[P, Q] = 0.0
            H[Q, P] = 0.0
            H[P, P] = H[P, P].real
            H[Q, Q] = H[Q, Q].real
            if want_vectors:
                vp = V[:, P]
                vq = V[:, Q]
                V[:, P] = c * vp + sph * vq
                V[:, Q] = -s * vp + cphc * vq
        if not rotated or off_norm() <= off_target:
            converged = True
    if not converged and off_norm() > 10 * off_target:
        raise JacobiConvergenceError(
            f"off-diagonal norm {off_norm():.3e} above target after {max_sweeps} sweeps")
    vals = H.diagonal().real.copy()
    order = np.argsort(vals, kind="stable")
    return Spectrum(vals[order], V[:, order] if want_vectors else None)


def _sturm_counts(diag: np.ndarray, off_sq: np.ndarray, xs: np.ndarray,
                  pivmin: float) -> np.ndarray:
    """Number of eigenvalues strictly below each shift in xs (vectorized).

    The pivots q_i = (d_i - x) - b_{i-1}^2 / q_{i-1} run without the pivot
    guard, in blocks of _STURM_ROWS rows: one subtraction d_i - xs for the
    whole block, then one division and one subtraction per row.  Once per
    block the negative pivots are counted and each shift's chain is checked
    for a pivot with |q| < pivmin (or NaN, from 0/0).  Up to its first such
    pivot a chain is the same with or without the guard, so only the shifts
    that met one are recounted, by the guarded recurrence; the counts are
    those of the guarded recurrence for every shift.
    """
    n, m = diag.size, xs.size
    h = min(n, _STURM_ROWS)
    # buf[1:] holds a block of pivots and buf[0] the row above it; above
    # row 0 that is 1.0 under the zero coupling b2[0], and d_0 - x - 0 / 1
    # is d_0 - x exactly
    buf = np.empty((h + 1, m))
    buf[-1] = 1.0
    rows = list(buf)
    neg = np.empty((h, m), dtype=bool)
    t = np.empty(m)
    count = np.zeros(m, dtype=np.int64)
    small = np.zeros(m, dtype=bool)
    b2 = [0.0, *off_sq.tolist()]            # b2[i] couples rows i - 1 and i
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for r0 in range(0, n, h):
            k = min(h, n - r0)
            buf[0] = buf[-1]                # every block but the last is full
            q = buf[1:k + 1]
            np.subtract(diag[r0:r0 + k, None], xs, out=q)
            for b, prev, row in zip(b2[r0:r0 + k], rows, rows[1:]):
                np.divide(b, prev, out=t)
                np.subtract(row, t, out=row)
            # _STURM_ROWS < 256, so a block's counts fit in uint8
            neg8 = np.less(q, 0.0, out=neg[:k]).view(np.uint8)
            count += neg8.sum(axis=0, dtype=np.uint8)
            # a NaN pivot makes the minimum NaN, which fails the test as well
            small |= ~(np.abs(q).min(axis=0) >= pivmin)
    if small.any():
        count[small] = _guarded_sturm_counts(diag, off_sq, xs[small], pivmin)
    return count


def _guarded_sturm_counts(diag: np.ndarray, off_sq: np.ndarray, xs: np.ndarray,
                          pivmin: float) -> np.ndarray:
    """The Sturm counts with the pivot guard of LAPACK dstebz on every row."""
    q = diag[0] - xs
    count = (q < 0.0).astype(np.int64)
    # one row per iteration, in place: q <- (d_i - xs) - b_{i-1}^2 / q with
    # |q| < pivmin replaced by -pivmin first
    t = np.empty_like(q)
    neg = np.empty(q.shape, dtype=bool)
    d = diag.tolist()
    b2 = off_sq.tolist()
    for i in range(1, len(d)):
        np.abs(q, out=t)
        np.less(t, pivmin, out=neg)
        np.copyto(q, -pivmin, where=neg)
        np.divide(b2[i - 1], q, out=q)
        np.subtract(d[i], xs, out=t)
        np.subtract(t, q, out=q)
        np.less(q, 0.0, out=neg)
        count += neg
    return count


def _pivmin(off_sq: np.ndarray) -> float:
    base = float(np.max(off_sq)) if off_sq.size else 1.0
    return max(base, 1.0) * _EPS ** 2


def _unit_scaled(T: SymTridiagonal) -> tuple[SymTridiagonal, int]:
    """(S, e) with T = 2^e S exactly.  e is 0 when max |entry| of T lies in
    [2^-500, 2^500], so in-range input is used as it is; otherwise the
    entries of S peak in [0.5, 1), which keeps b_i^2 and the Sturm pivots in
    range (LAPACK dsterf and dstebz scale the same way)."""
    top = max(float(np.max(np.abs(T.diag))),
              float(np.max(np.abs(T.offdiag))) if T.n > 1 else 0.0)
    if top == 0.0 or 2.0 ** -500 <= top <= 2.0 ** 500:
        return T, 0
    e = math.frexp(top)[1]
    return SymTridiagonal(np.ldexp(T.diag, -e), np.ldexp(T.offdiag, -e)), e


def sturm_count(T: SymTridiagonal, x: float) -> int:
    """Count of eigenvalues of T strictly less than x."""
    T, e = _unit_scaled(T)
    off_sq = T.offdiag ** 2
    xs = np.asarray([math.ldexp(float(x), -e)])
    return int(_sturm_counts(T.diag, off_sq, xs, _pivmin(off_sq))[0])


def gerschgorin_disks(T: SymTridiagonal) -> list[tuple[float, float]]:
    """Per-row (center, radius); boundary rows use their single neighbor."""
    return list(zip(T.diag.tolist(), _gersch_radii(T).tolist()))


def _gersch_radii(T: SymTridiagonal) -> np.ndarray:
    r = np.zeros(T.n)
    r[1:] += np.abs(T.offdiag)
    r[:-1] += np.abs(T.offdiag)
    return r


def _gersch_bounds(T: SymTridiagonal) -> tuple[float, float]:
    r = _gersch_radii(T)
    return float(np.min(T.diag - r)), float(np.max(T.diag + r))


def _bisect_values(T: SymTridiagonal, ranks=None) -> np.ndarray:
    """Eigenvalues of the given ascending 1-based ranks (default all) by
    Sturm bisection, to tol = 4 eps max(|glo|, |ghi|) of the Gerschgorin
    interval [glo, ghi].

    Each pass does the work of up to L bisection steps.  For every rank it
    builds the depth-L subtree of midpoints of its interval, level by level,
    each point 0.5 * (left + right) of its two neighbours one level up: the
    midpoint a one-step loop would compute.  One _sturm_counts call counts
    at all 2^L - 1 interior points of all ranks, and the L decisions are
    then replayed on node indices, with the stop test before every step.
    The values are bit-identical to one midpoint per step.  L is chosen so
    a pass evaluates about _SHIFTS_PER_PASS shifts: 6 for 10 ranks, 9 for
    the two ranks of spectral_norm, and 1 (one midpoint per pass) from 342
    ranks on.
    """
    n = T.n
    off_sq = T.offdiag ** 2
    pivmin = _pivmin(off_sq)
    glo, ghi = _gersch_bounds(T)
    tol = 4.0 * _EPS * max(abs(glo), abs(ghi), 1e-30)
    ranks = np.arange(1, n + 1) if ranks is None else np.asarray(ranks)
    m = ranks.size
    if m == 0:
        return np.empty(0)
    lo = np.full(m, glo)
    hi = np.full(m, ghi)
    depth = max(1, int(math.log2(_SHIFTS_PER_PASS / m + 1)))

    def stop(lo, hi, mid):
        # per row: all intervals within tol, or no midpoint can move
        return (((hi - lo) <= tol).all(axis=-1)
                | ((mid <= lo) | (mid >= hi)).all(axis=-1))

    steps = 0
    mid = 0.5 * (lo + hi)
    done = stop(lo, hi, mid)
    while not done and steps < _MAX_BISECT_STEPS:
        L = min(depth, _MAX_BISECT_STEPS - steps)
        w = 1 << L
        grid = np.empty((m, w + 1))
        grid[:, 0] = lo
        grid[:, w // 2] = mid
        grid[:, w] = hi
        h = w // 2
        while h > 1:
            grid[:, h // 2::h] = 0.5 * (grid[:, :-1:h] + grid[:, h::h])
            h //= 2
        # up[node]: fewer eigenvalues than the rank lie below the node, so
        # bisection keeps the interval above it (endpoints are never read)
        up = np.empty((m, w + 1), dtype=bool)
        up[:, 1:w] = _sturm_counts(T.diag, off_sq, grid[:, 1:w].ravel(),
                                   pivmin).reshape(m, w - 1) < ranks[:, None]
        up = up.ravel()
        flat = grid.ravel()
        # path[l] is each rank's left node (flat index) after l steps
        path = np.empty((L + 1, m), dtype=np.intp)
        path[0] = np.arange(m) * (w + 1)
        for lvl in range(1, L + 1):
            node = path[lvl - 1] + (w >> lvl)
            path[lvl] = np.where(up[node], node, path[lvl - 1])
        # the stop test after each of the L steps, all at once; each
        # midpoint is computed as the next pass (or grid level) would
        left = flat[path[1:]]
        right = flat[path[1:] + (w >> np.arange(1, L + 1))[:, None]]
        centre = 0.5 * (left + right)
        stopped = stop(left, right, centre)
        taken = 1 + int(stopped.argmax()) if stopped.any() else L
        steps += taken
        lo, hi, mid = left[taken - 1], right[taken - 1], centre[taken - 1]
        done = stopped[taken - 1]
    vals = 0.5 * (lo + hi)
    return np.maximum.accumulate(vals)  # enforce monotonicity at roundoff scale


def _distance_to_spectrum(T: SymTridiagonal, xs) -> np.ndarray:
    """Distance from each x in xs to the nearest eigenvalue of T.

    With c the Sturm count of eigenvalues strictly below x, the nearest
    eigenvalue has rank c or c + 1 (clipped to 1..n), so only those ranks
    are bisected, in one _bisect_values call for all of xs.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        return np.empty(0)
    T, e = _unit_scaled(T)
    xs = np.ldexp(xs, -e)
    off_sq = T.offdiag ** 2
    c = _sturm_counts(T.diag, off_sq, xs, _pivmin(off_sq))
    near = np.clip(np.stack([c, c + 1]), 1, T.n)
    ranks = np.unique(near)
    vals = _bisect_values(T, ranks=ranks)[np.searchsorted(ranks, near)]
    return np.ldexp(np.min(np.abs(vals - xs), axis=0), e)


def _qr_solve(diag, off, shifts, Y, floor):
    """Solve (T - s*I) X = Y for the shift s of each column by Givens QR, row
    by row and all columns at once; |R_ii| below floor becomes floor."""
    n = len(diag)
    R = np.zeros((3,) + Y.shape)
    X = np.concatenate([Y, np.zeros((2, Y.shape[1]))])
    a, e = diag[0] - shifts, off[0] if n > 1 else 0.0
    for i in range(n - 1):
        r = np.hypot(a, off[i]) if off[i] else a
        c, s = (a / r, off[i] / r) if off[i] else (1.0, 0.0)
        d, b = diag[i + 1] - shifts, off[i + 1] if i + 2 < n else 0.0
        R[0, i], R[1, i], R[2, i] = r, c * e + s * d, s * b
        X[i], X[i + 1] = c * X[i] + s * X[i + 1], c * X[i + 1] - s * X[i]
        a, e = c * d - s * e, c * b
    R[0, -1] = a
    R[0][np.abs(R[0]) < floor] = floor
    for i in range(n - 1, -1, -1):
        X[i] = (X[i] - R[1, i] * X[i + 1] - R[2, i] * X[i + 2]) / R[0, i]
    return X[:n]


def _residual_norms(diag, off, shifts, X):
    R = (diag[:, None] - shifts) * X
    R[:-1] += off[:, None] * X[1:]
    R[1:] += off[:, None] * X[:-1]
    return np.linalg.norm(R, axis=0)


def _chunk_vectors(diag, off, lam, clusters, pivmin, norm_scale):
    """Eigenvectors for the ascending values lam: twisted factorisations
    T - s*I = N_r Delta_r N_r^T at r = argmin |gamma_r|, gamma = D+ + D- -
    (d - s), give z with N_r^T z = e_r as running products of -b_i / D+_i
    above r and -b_{i-1} / D-_i below it.  Clusters [a, b) would share one z:
    they take inverse iteration from fixed-seed random vectors, Gram-Schmidt
    inside the cluster, as does any column that misses the target."""
    # D+ of T and of T reversed (D- bottom up) in one row loop; a pivot below
    # pivmin in magnitude becomes -pivmin, as in _guarded_sturm_counts
    piv = np.stack([diag, diag[::-1]], 1)[..., None] - lam
    b2 = np.stack([off, off[::-1]], 1)[..., None] ** 2
    for i in range(len(diag)):
        if i:
            piv[i] -= b2[i - 1] / piv[i - 1]
        np.copyto(piv[i], -pivmin, where=np.abs(piv[i]) < pivmin)
    dp, dm = piv[:, 0], piv[::-1, 1]
    gamma = dp + dm - (diag[:, None] - lam)
    r = np.argmin(np.abs(gamma), axis=0)
    rows = np.arange(diag.size)[:, None]
    X = np.ones_like(dp)
    X[:-1] = np.cumprod(np.where(rows[:-1] < r, -off[:, None] / dp[:-1], 1.0)[::-1],
                        axis=0)[::-1]
    X[1:] *= np.cumprod(np.where(rows[1:] > r, -off[:, None] / dm[1:], 1.0), axis=0)
    todo = np.zeros(lam.size, dtype=bool)
    shifts = lam.copy()
    for a, b in clusters:
        todo[a:b] = True
        X[:, a:b] = np.random.default_rng(0x5eed).standard_normal((diag.size, b - a))
        # shifts at least 10 eps ||T|| apart, as in LAPACK dstein
        k = 10 * _EPS * norm_scale * np.arange(b - a)
        shifts[a:b] = np.maximum.accumulate(lam[a:b] - k) + k
    # aim well below TOL_RESID so the orthogonality cleanup and the
    # Gerschgorin-vs-spectral-norm slack cannot push past the contract
    target = 0.02 * TOL_RESID * max(norm_scale, 1e-30)
    for _ in range(3):                      # rounds of inverse iteration
        if todo.any():
            X[:, todo] = _qr_solve(diag, off, shifts[todo], X[:, todo],
                                   _EPS * norm_scale)
        X /= np.linalg.norm(X, axis=0)
        for a, b in clusters:
            for p in range(a + 1, b):
                for _ in range(2):
                    X[:, p] -= X[:, a:p] @ (X[:, a:p].T @ X[:, p])
                X[:, p] /= np.linalg.norm(X[:, p])
        resid = _residual_norms(diag, off, lam, X)
        todo = ~(resid <= target)
        if not todo.any():
            break
    return X


def _twisted_vectors(T, vals, norm_scale):
    """Orthonormal eigenvectors for the ascending eigenvalues vals.  No split
    at zero couplings: the pivots restart there, so a twisted vector stays in
    its block, and a value two blocks share falls in a cluster spanning both."""
    n = T.n
    pivmin = _pivmin(T.offdiag ** 2)
    cluster_tol = max(1e-12 * norm_scale, 1e3 * _EPS * norm_scale, 1e-30)
    bounds = np.array([0, *(np.flatnonzero(np.diff(vals) > cluster_tol) + 1), n])
    steps = np.arange(0, n, max(1, _BLOCK_ELEMENTS // n))
    cuts = np.unique([*bounds[np.searchsorted(bounds, steps)], n])
    vecs = np.empty((n, n))
    for c0, c1 in zip(cuts[:-1], cuts[1:]):
        clusters = [(a - c0, b - c0) for a, b in zip(bounds, bounds[1:])
                    if c0 <= a < c1 and b - a > 1]
        vecs[:, c0:c1] = _chunk_vectors(
            T.diag, T.offdiag, vals[c0:c1], clusters, pivmin, norm_scale)
    # close values in different clusters leave overlaps of order resid/gap:
    # Newton-Schulz steps X <- X (I - E/2), E = X^T X - I, clear them for
    # O(resid) more residual
    for _ in range(8):
        E = vecs.T @ vecs - np.eye(n)
        if np.max(np.abs(E)) <= 0.1 * TOL_ORTH:
            break
        vecs -= 0.5 * (vecs @ E)
    # the contract itself, with ||T|| = max |lambda|, decides the fallback
    resid = _residual_norms(T.diag, T.offdiag, vals, vecs)
    if not (np.max(np.abs(E)) <= TOL_ORTH
            and np.all(resid <= TOL_RESID * max(abs(vals[0]), abs(vals[-1])))):
        raise InverseIterationError("residual or orthogonality contract missed")
    return vecs


def eig_tridiag(T: SymTridiagonal, want_vectors: bool = False) -> Spectrum:
    """Spectrum of a symmetric tridiagonal matrix.

    Eigenvalues come from Sturm-sequence bisection, each to within 4 eps
    times the larger end of the Gerschgorin interval; eigenvectors, when
    requested, from one batched twisted-factorisation pass (_chunk_vectors).
    Dense Jacobi steps in only for vectors that miss the contract.  Input
    with entries outside [2^-500, 2^500] is solved scaled by a power of two
    (_unit_scaled), and the values are scaled back exactly.
    """
    n = T.n
    if n == 1:
        vals = T.diag.copy()
        return Spectrum(vals, np.ones((1, 1)) if want_vectors else None)
    T, e = _unit_scaled(T)
    vals = _bisect_values(T)
    if not want_vectors:
        return Spectrum(np.ldexp(vals, e))
    glo, ghi = _gersch_bounds(T)
    norm_scale = max(abs(glo), abs(ghi))
    try:
        vecs = _twisted_vectors(T, vals, norm_scale)
    except InverseIterationError:
        dense = eig_dense(T.to_dense(), want_vectors=True)
        return Spectrum(np.ldexp(dense.values, e), dense.vectors.real)
    return Spectrum(np.ldexp(vals, e), vecs)


def spectral_norm(A) -> float:
    """Largest singular value: spectral norm for the Hermitian types,
    and sigma_1 via the Gram matrix for a general rectangular block."""
    if isinstance(A, SymTridiagonal):
        if A.n == 1:
            return abs(float(A.diag[0]))
        S, e = _unit_scaled(A)
        vals = _bisect_values(S, ranks=(1, A.n))
        return math.ldexp(max(abs(float(vals[0])), abs(float(vals[-1]))), e)
    if isinstance(A, DenseHermitian):
        vals = eig_dense(A).values
        return max(abs(float(vals[0])), abs(float(vals[-1])))
    B = np.atleast_2d(np.asarray(A, dtype=complex))
    if not np.any(B):
        return 0.0
    # sigma_1 = sqrt(lambda_max) of the Gram matrix on the smaller side;
    # pre-scaling by the largest entry keeps the squares in range
    scale = float(np.max(np.abs(B)))
    Bs = B / scale
    G = Bs.conj().T @ Bs if B.shape[1] <= B.shape[0] else Bs @ Bs.conj().T
    vals = eig_dense(DenseHermitian.from_array(G)).values
    return scale * math.sqrt(max(float(vals[-1]), 0.0))
