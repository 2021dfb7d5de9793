"""Self-contained eigensolvers and norms used as the oracle everywhere else.

Dense Hermitian matrices go through round-robin Jacobi sweeps; symmetric
tridiagonals through Sturm-sequence bisection plus inverse iteration.  These
are deliberately independent of any library eigensolver so that every bound
in the package is checked against an implementation with no shared code path.
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
    for i in range(1, diag.size):
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        q = diag[i] - xs - off_sq[i - 1] / q
        count += q < 0.0
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


def _bisect_values(T: SymTridiagonal, tol: float | None = None) -> np.ndarray:
    n = T.n
    off_sq = T.offdiag ** 2
    pivmin = _pivmin(off_sq)
    glo, ghi = _gersch_bounds(T)
    if tol is None:
        tol = 4.0 * _EPS * max(abs(glo), abs(ghi), 1e-30)
    lo = np.full(n, glo)
    hi = np.full(n, ghi)
    ranks = np.arange(1, n + 1)
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        # stop once midpoints can no longer move
        if np.all((hi - lo) <= tol) or np.all((mid <= lo) | (mid >= hi)):
            break
        counts = _sturm_counts(T.diag, off_sq, mid, pivmin)
        above = counts >= ranks
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
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
        vals = _bisect_values(A)
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
