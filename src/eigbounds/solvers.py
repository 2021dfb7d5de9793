"""Self-contained eigensolvers and norms used as the oracle everywhere else.

Dense Hermitian matrices go through round-robin Jacobi sweeps; symmetric
tridiagonals through Sturm-sequence bisection plus inverse iteration.  Each
bisection pass counts a whole subtree of midpoints of every eigenvalue
interval at once and replays several bisection steps from those counts, with
results bit-identical to one midpoint per pass.  These are deliberately
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


class JacobiConvergenceError(RuntimeError):
    """Jacobi sweeps exhausted without meeting the off-diagonal target."""


class InverseIterationError(RuntimeError):
    """Inverse iteration failed to reach the residual target for an index."""


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
    """Number of eigenvalues strictly below each shift in xs (vectorized)."""
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


def sturm_count(T: SymTridiagonal, x: float) -> int:
    """Count of eigenvalues of T strictly less than x."""
    off_sq = T.offdiag ** 2
    return int(_sturm_counts(T.diag, off_sq, np.asarray([float(x)]), _pivmin(off_sq))[0])


def gerschgorin_disks(T: SymTridiagonal) -> list[tuple[float, float]]:
    """Per-row (center, radius); boundary rows use their single neighbor."""
    n = T.n
    b = np.abs(T.offdiag)
    disks = []
    for i in range(n):
        r = (b[i - 1] if i > 0 else 0.0) + (b[i] if i < n - 1 else 0.0)
        disks.append((float(T.diag[i]), float(r)))
    return disks


def _gersch_bounds(T: SymTridiagonal) -> tuple[float, float]:
    disks = gerschgorin_disks(T)
    lo = min(c - r for c, r in disks)
    hi = max(c + r for c, r in disks)
    return lo, hi


def _bisect_values(T: SymTridiagonal, tol: float | None = None,
                   ranks=None) -> np.ndarray:
    """Eigenvalues of the given ascending 1-based ranks (default all) by
    Sturm bisection.

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
    if tol is None:
        tol = 4.0 * _EPS * max(abs(glo), abs(ghi), 1e-30)
    ranks = np.arange(1, n + 1) if ranks is None else np.asarray(ranks)
    m = ranks.size
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


def _lu_solve_shifted(diag: np.ndarray, off: np.ndarray, shift: float,
                      rhs: np.ndarray) -> np.ndarray:
    """Solve (T - shift*I) x = rhs; Gaussian elimination with row swaps."""
    n = diag.size
    d = (diag - shift).astype(float)
    if n == 1:
        piv = d[0] if d[0] != 0.0 else _EPS
        return rhs / piv
    du = np.zeros(n - 1)
    du[:] = off
    du2 = np.zeros(max(n - 2, 0))
    dl = np.array(off, dtype=float)
    x = np.array(rhs, dtype=float)
    safe = _EPS * max(float(np.max(np.abs(diag))) + float(np.max(np.abs(off))) + 1e-30, 1.0)
    dd = d.copy()
    for i in range(n - 1):
        sub = dl[i]
        if abs(dd[i]) >= abs(sub):
            piv = dd[i] if dd[i] != 0.0 else safe
            m = sub / piv
            dd[i + 1] -= m * du[i]
            x[i + 1] -= m * x[i]
        else:
            # pivot on row i+1: swap rows i, i+1
            m = dd[i] / sub
            dd[i] = sub
            tmp_u = du[i]
            du[i] = dd[i + 1]
            dd[i + 1] = tmp_u - m * dd[i + 1]
            if i < n - 2:
                du2[i] = du[i + 1]
                du[i + 1] = -m * du[i + 1]
            x[i], x[i + 1] = x[i + 1], x[i] - m * x[i + 1]
    # back substitution (upper triangular with two superdiagonals)
    out = np.zeros(n)
    piv = dd[n - 1] if dd[n - 1] != 0.0 else safe
    out[n - 1] = x[n - 1] / piv
    if n >= 2:
        piv = dd[n - 2] if dd[n - 2] != 0.0 else safe
        out[n - 2] = (x[n - 2] - du[n - 2] * out[n - 1]) / piv
    for i in range(n - 3, -1, -1):
        piv = dd[i] if dd[i] != 0.0 else safe
        out[i] = (x[i] - du[i] * out[i + 1] - du2[i] * out[i + 2]) / piv
    return out


def _tridiag_matvec(diag: np.ndarray, off: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = diag * v
    if off.size:
        out[:-1] += off * v[1:]
        out[1:] += off * v[:-1]
    return out


def _inverse_iteration_vectors(T: SymTridiagonal, vals: np.ndarray,
                               norm_scale: float) -> np.ndarray:
    """Eigenvectors by inverse iteration, reorthogonalized within clusters."""
    n = T.n
    vecs = np.zeros((n, n))
    cluster_tol = max(1e-12 * norm_scale, 1e3 * _EPS * norm_scale, 1e-30)
    # aim well below TOL_RESID so the Gram-Schmidt cleanup and the
    # Gerschgorin-vs-spectral-norm slack cannot push past the contract
    resid_target = 0.02 * TOL_RESID * max(norm_scale, 1e-30)
    rng = np.random.default_rng(0x5eed)
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and vals[stop] - vals[stop - 1] <= cluster_tol:
            stop += 1
        members = []
        for idx in range(start, stop):
            lam = vals[idx]
            best = None
            best_resid = math.inf
            for attempt in range(6):
                x = rng.standard_normal(n)
                x /= np.linalg.norm(x)
                shift = lam + (attempt % 3) * _EPS * norm_scale
                for _ in range(4):
                    x = _lu_solve_shifted(T.diag, T.offdiag, shift, x)
                    for w in members:
                        x -= (w @ x) * w
                    nx = np.linalg.norm(x)
                    if nx == 0.0:
                        break
                    x /= nx
                    resid = np.linalg.norm(
                        _tridiag_matvec(T.diag, T.offdiag, x) - lam * x)
                    if resid <= resid_target:
                        break
                else:
                    resid = np.linalg.norm(
                        _tridiag_matvec(T.diag, T.offdiag, x) - lam * x)
                if np.linalg.norm(x) > 0 and resid < best_resid:
                    best, best_resid = x, resid
                if best_resid <= resid_target:
                    break
            if best is None or best_resid > 100 * resid_target:
                raise InverseIterationError(
                    f"index {idx}: residual {best_resid:.3e} above target")
            members.append(best)
            vecs[:, idx] = best
        start = stop
    # Global cleanup: close-but-unclustered eigenvalue pairs leave mutual
    # overlaps of order resid/gap.  Each Gram-Schmidt subtraction costs only
    # O(resid) extra residual, so two passes restore orthogonality safely.
    for _ in range(2):
        for i in range(1, n):
            v = vecs[:, i]
            v -= vecs[:, :i] @ (vecs[:, :i].T @ v)
            v /= np.linalg.norm(v)
            vecs[:, i] = v
    return vecs


def eig_tridiag(T: SymTridiagonal, want_vectors: bool = False,
                tol: float | None = None) -> Spectrum:
    """Spectrum of a symmetric tridiagonal matrix.

    Eigenvalues come from Sturm-sequence bisection; eigenvectors, when
    requested, from shifted inverse iteration with one reorthogonalization
    pass per cluster of close eigenvalues.  On a pathological inverse
    iteration failure the dense Jacobi solver takes over.
    """
    n = T.n
    if n == 1:
        vals = T.diag.copy()
        return Spectrum(vals, np.ones((1, 1)) if want_vectors else None)
    vals = _bisect_values(T, tol=tol)
    if not want_vectors:
        return Spectrum(vals)
    glo, ghi = _gersch_bounds(T)
    norm_scale = max(abs(glo), abs(ghi))
    try:
        vecs = _inverse_iteration_vectors(T, vals, norm_scale)
    except InverseIterationError:
        dense = eig_dense(T.to_dense(), want_vectors=True)
        return Spectrum(dense.values, dense.vectors.real)
    return Spectrum(vals, vecs)


def spectral_norm(A) -> float:
    """Largest singular value: spectral norm for the Hermitian types,
    and sigma_1 via the Gram matrix for a general rectangular block."""
    if isinstance(A, SymTridiagonal):
        if A.n == 1:
            return abs(float(A.diag[0]))
        vals = _bisect_values(A, ranks=(1, A.n))
        return max(abs(float(vals[0])), abs(float(vals[-1])))
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
