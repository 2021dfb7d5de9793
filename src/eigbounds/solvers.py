"""Self-contained eigensolvers and norms used as the oracle everywhere else.

Symmetric tridiagonals go through Sturm counts, and twisted factorisations
for the eigenvectors of all eigenvalues at once (Fernando 1997; LAPACK
dlar1v).  A dense Hermitian matrix is reduced to a tridiagonal with the
same spectrum by Householder reflections (Golub & Van Loan, section 8.3),
so its values and its spectral norm come from the same tridiagonal engine.
The eigenvalues of a tridiagonal come in three stages: subtree passes of
bisection (each counts a whole subtree of midpoints of every interval and
replays several steps) until each eigenvalue is alone in its interval by
the counts; Laguerre's iteration on det(T - xI) from there, for all
isolated eigenvalues at once (Li & Zeng 1994); and a certificate, two
Sturm counts half a tolerance either side of each iterate.  An eigenvalue
that fails the certificate, or never isolates, is bisected to the
tolerance, so a wrong iterate costs time but is never returned.  A Sturm
count runs the pivot recurrence in row blocks with one division and one
subtraction per row and no pivot guard; the guard of LAPACK dstebz is
applied afterwards, by recounting only the shifts whose pivots came below
pivmin (Demmel, Dhillon & Ren 1995).  Every solver first scales its input
by the power of two that brings the largest |entry| into [0.5, 1), so
pivmin = eps^2 and the tolerances are relative to the matrix, and scales
the results back exactly: 2^k A gives 2^k times the results for A.
The engine can take chosen ranks alone: the AED deflation check takes the
Sturm count c below each deflated value and computes only ranks c and
c + 1, the two eigenvalues that bracket it (Barth, Martin & Wilkinson
1967), and a spectral norm only ranks 1 and n, rank 1 with Sturm counts
taken from above, which a zero pivot cannot mislead.  Counted from below,
as for a whole spectrum, a count on an exactly zero pivot may read one
short, so a dense values-only solve in which a count met the pivot guard
above the last row is redone by round-robin Jacobi sweeps, which also give
every dense spectrum with vectors.
These are deliberately independent of any library eigensolver so that every
bound in the package is checked against an implementation with no shared
code path.
"""

from __future__ import annotations

import math

import numpy as np

from .types import DenseHermitian, Spectrum, SymTridiagonal

__all__ = [
    "eig_dense",
    "eig_tridiag",
    "spectral_norm",
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
# the cap on Laguerre iterations, before the certificate (_block_eigenvalues)
_MAX_LAGUERRE_STEPS = 10
# rows per block of the unguarded Sturm recurrence (_sturm_counts)
_STURM_ROWS = 64
# pivot guard of the Sturm recurrences: every input is unit-scaled first,
# so a guard of LAPACK dstebz's form c * max(1, max b^2) is c (|b| < 1)
_PIVMIN = _EPS ** 2

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


def eig_dense(A: DenseHermitian, want_vectors: bool = False) -> Spectrum:
    """Full spectrum of a Hermitian matrix, ascending.

    The values alone come from the Householder tridiagonal of A
    (_dense_tridiagonal) through the engine of eig_tridiag (_eigenvalues):
    isolate, refine, certify.  A Sturm count whose shift met the pivot
    guard above the last row may be one short (see _sturm_counts), so a
    solve in which any count met it is redone by Jacobi (_jacobi), which
    also computes every spectrum with vectors.
    """
    if not want_vectors:
        T, e = _dense_tridiagonal(A.entries.real if A.is_real else A.entries)
        vals, guarded = _eigenvalues(T)
        if not guarded:
            return Spectrum(np.ldexp(vals, e))
    return _jacobi(A, want_vectors)


def _jacobi(A: DenseHermitian, want_vectors: bool) -> Spectrum:
    """Full spectrum of a Hermitian matrix by round-robin Jacobi sweeps, at
    most JACOBI_MAX_SWEEPS of them.

    Each sweep is the rounds of a round-robin ordering (Brent & Luk 1985);
    the rotations of a round act on disjoint (p, q) planes, so they commute
    and are applied together as one array update.
    """
    n = A.n
    # real input stays in real arithmetic: the rotation formulas below are
    # dtype-generic (the phase ph degenerates to +-1) and run much faster
    dtype = float if A.is_real else complex
    H = A.real_array() if A.is_real else A.entries.astype(complex, copy=True)
    # H = 2^e S, solved as unit-scaled S and the values scaled back exactly
    e = _scale_exponent(float(np.max(np.abs(H))))
    if e:
        H = _ldexp(H, -e)
    V = np.eye(n, dtype=dtype) if want_vectors else None
    scale = math.sqrt(float(np.sum(np.abs(H) ** 2)))
    if n == 1 or scale == 0.0:
        vals = np.ldexp(H.diagonal().real, e)
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
    for _ in range(JACOBI_MAX_SWEEPS):
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
            f"off-diagonal norm {off_norm():.3e} above target after "
            f"{JACOBI_MAX_SWEEPS} sweeps")
    vals = np.ldexp(H.diagonal().real, e)
    order = np.argsort(vals, kind="stable")
    return Spectrum(vals[order], V[:, order] if want_vectors else None)


def _sturm_counts(diag: np.ndarray, off_sq: np.ndarray, xs: np.ndarray,
                  above=None, guarded=None) -> np.ndarray:
    """Number of eigenvalues strictly below each shift in xs (vectorized);
    where the boolean mask above is set, n minus the number strictly above.
    A boolean array guarded, if given, is set where a pivot above the last
    row met the guard, so that the count may be one short (see below).

    The pivots q_i = (d_i - x) - b_{i-1}^2 / q_{i-1} run without the pivot
    guard, in blocks of _STURM_ROWS rows: one subtraction d_i - xs for the
    whole block, then one division and one subtraction per row.  Once per
    block the negative pivots are counted and each shift's chain is checked
    for a pivot with |q| < _PIVMIN (or NaN, from 0/0).  Up to its first such
    pivot a chain is the same with or without the guard, so only the shifts
    that met one are recounted, by the guarded recurrence; the counts are
    those of the guarded recurrence for every shift.

    The guard continues a chain from a pivot within _PIVMIN of zero as if it
    were -_PIVMIN but counts it by its own sign, so at an exactly zero pivot
    the count comes out one short; it never reads n where fewer eigenvalues
    lie below x, since that needs every pivot negative.  Counting from
    above, a shift in above is recounted by the recurrence of -T at -x,
    whose unguarded pivots are those of T at x negated; its n - count then
    never reads 0 where an eigenvalue lies at or below x.  Bisecting rank 1
    from above and rank n from below is thus safe from the zero pivot: for
    T = tridiag(1, (-3, -2, -1), 1), a shift on d_0 counts 0 eigenvalues
    below it where there is one, and rank 1 from below bisects to -3
    instead of -2 - sqrt(3).
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
            if guarded is not None and r0 + k == n:
                # the last pivot is counted by its sign, guard or not
                guarded[:] = small | ~(np.abs(q[:-1]).min(axis=0, initial=np.inf)
                                       >= _PIVMIN)
            # a NaN pivot makes the minimum NaN, which fails the test as well
            small |= ~(np.abs(q).min(axis=0) >= _PIVMIN)
    flip = small & above if above is not None else np.zeros(m, dtype=bool)
    plain = small & ~flip
    if plain.any():
        count[plain] = _guarded_sturm_counts(diag, off_sq, xs[plain])
    if flip.any():
        count[flip] = n - _guarded_sturm_counts(-diag, off_sq, -xs[flip])
    return count


def _guarded_sturm_counts(diag: np.ndarray, off_sq: np.ndarray,
                          xs: np.ndarray) -> np.ndarray:
    """The Sturm counts with the pivot guard of LAPACK dstebz on every row."""
    q = diag[0] - xs
    count = (q < 0.0).astype(np.int64)
    # one row per iteration, in place: q <- (d_i - xs) - b_{i-1}^2 / q with
    # |q| < _PIVMIN replaced by -_PIVMIN first
    t = np.empty_like(q)
    neg = np.empty(q.shape, dtype=bool)
    d = diag.tolist()
    b2 = off_sq.tolist()
    for i in range(1, len(d)):
        np.abs(q, out=t)
        np.less(t, _PIVMIN, out=neg)
        np.copyto(q, -_PIVMIN, where=neg)
        np.divide(b2[i - 1], q, out=q)
        np.subtract(d[i], xs, out=t)
        np.subtract(t, q, out=q)
        np.less(q, 0.0, out=neg)
        count += neg
    return count


def _scale_exponent(top: float) -> int:
    """The e that brings top * 2^-e into [0.5, 1), or 0 when top is 0."""
    return math.frexp(top)[1]


def _ldexp(a: np.ndarray, e: int) -> np.ndarray:
    """a * 2^e for real or complex a, exact barring underflow."""
    if np.iscomplexobj(a):
        return np.ldexp(a.real, e) + 1j * np.ldexp(a.imag, e)
    return np.ldexp(a, e)


def _unit_scaled(T: SymTridiagonal) -> tuple[SymTridiagonal, int]:
    """(S, e) with T = 2^e S exactly and the largest |entry| of S in
    [0.5, 1); S is T itself when e = 0, which includes zero T."""
    e = _scale_exponent(max(float(np.max(np.abs(T.diag))),
                            float(np.max(np.abs(T.offdiag))) if T.n > 1 else 0.0))
    if e == 0:
        return T, 0
    return SymTridiagonal(np.ldexp(T.diag, -e), np.ldexp(T.offdiag, -e)), e


def _gersch_bounds(T: SymTridiagonal) -> tuple[float, float]:
    """The ends of the union of the Gerschgorin intervals of T."""
    r = np.zeros(T.n)
    r[1:] += np.abs(T.offdiag)
    r[:-1] += np.abs(T.offdiag)
    return float(np.min(T.diag - r)), float(np.max(T.diag + r))


def _subtree_pass(diag, off_sq, ranks, lo, hi, above, max_depth, rows):
    """Up to L bisection steps for every rank, from one _sturm_counts call.

    lo, hi and above (see _sturm_counts) describe intervals, and rows[r] is
    the interval of ranks[r], so ranks that share an interval share its
    subtree.  For each interval the depth-L subtree of midpoints is built
    level by level, each point 0.5 * (left + right) of its two neighbours
    one level up: the midpoint a one-step loop would compute.  All 2^L - 1
    interior points of all intervals are counted at once, L chosen so that
    is about _SHIFTS_PER_PASS shifts (10 levels for one interval, 6 for 10,
    1 from 342 on), and the L decisions of each rank are then replayed on
    node indices.

    Returns (grid, counts, path, spans): the flattened nodes, one row of
    2^L + 1 per interval; the counts at the interior nodes, one row of
    2^L - 1 per interval; each rank's left node (flat index into grid)
    after each step, an (L, ranks) array; and the node distance to its
    right node after each step.  A count whose shift met the pivot guard
    above the last row, and may be one short, reads -1 in counts; the
    steps follow it as it is.
    """
    u, m = lo.size, ranks.size
    L = min(max_depth, max(1, int(math.log2(_SHIFTS_PER_PASS / u + 1))))
    w = 1 << L
    grid = np.empty((u, w + 1))
    grid[:, 0] = lo
    grid[:, w] = hi
    h = w
    while h > 1:
        grid[:, h // 2::h] = 0.5 * (grid[:, :-1:h] + grid[:, h::h])
        h //= 2
    met = np.empty(u * (w - 1), dtype=bool)
    counts = _sturm_counts(diag, off_sq, grid[:, 1:w].ravel(),
                           np.repeat(above, w - 1), met).reshape(u, w - 1)
    # up[r, j]: fewer eigenvalues than ranks[r] lie below node j of its
    # interval, so bisection keeps the interval above it (the ends are
    # never read); path[l] is each rank's left node (flat index) after l
    # steps
    up = np.empty((m, w + 1), dtype=bool)
    np.less(counts.take(rows, axis=0), ranks[:, None], out=up[:, 1:w])
    up = up.ravel()
    path = np.empty((L + 1, m), dtype=np.intp)
    path[0] = np.arange(m) * (w + 1)
    for lvl in range(1, L + 1):
        node = path[lvl - 1] + (w >> lvl)
        path[lvl] = np.where(up[node], node, path[lvl - 1])
    counts[met.reshape(u, w - 1)] = -1
    # from each rank's row of up to its interval's row of grid
    path = path[1:] + (rows - np.arange(m)) * (w + 1)
    return grid.ravel(), counts, path, (w >> np.arange(1, L + 1))[:, None]


def _bisection_start(T: SymTridiagonal):
    """(off_sq, glo, ghi, tol): the squared couplings, the Gerschgorin
    interval [glo, ghi] and the bisection tol = 4 eps max(|glo|, |ghi|)."""
    glo, ghi = _gersch_bounds(T)
    return T.offdiag ** 2, glo, ghi, 4.0 * _EPS * max(abs(glo), abs(ghi))


def _log_derivatives(diag, off_sq, x):
    """f'/f, -(f'/f)' and the number of negative pivots of f = det(T - xI)
    at each x (call under np.errstate).

    f is the product of the pivots q_i = d_i - x - t_i, t_i = b_{i-1}^2 /
    q_{i-1}.  With u_i = q_i'/q_i and v_i = q_i''/q_i, f'/f = sum u_i and
    -(f'/f)' = sum u_i^2 - v_i.  From q_i' = t_i u_{i-1} - 1 and q_i'' =
    t_i (v_{i-1} - 2 u_{i-1}^2), with r_i = t_i / q_i,
        u_i = r_i u_{i-1} - 1 / q_i,   v_i = r_i v_{i-1} - 2 r_i u_{i-1}^2,
    so after the pivots each of u and v is one multiply and one subtract
    per row.  Rows run in blocks of _STURM_ROWS, as in _sturm_counts.  There
    is no pivot guard: a zero pivot makes the results non-finite.
    """
    n, m = diag.size, x.size
    h = min(n, _STURM_ROWS)
    # rows 1.. of each buffer hold a block and row 0 the row above it;
    # above row 0 that is q = 1, u = v = 0 under the zero coupling b2[0]
    Q, U, V, R = np.empty((4, h + 1, m))
    Q[-1], U[-1], V[-1] = 1.0, 0.0, 0.0
    # the rows as views made once, updated in place through out=
    qs, us, vs, rs = list(Q), list(U), list(V), list(R)
    t = np.empty(m)
    s1, s2 = np.zeros(m), np.zeros(m)
    below = np.zeros(m, dtype=np.int64)
    b2 = [0.0, *off_sq.tolist()]
    for r0 in range(0, n, h):
        k = min(h, n - r0)
        # every block but the last is full
        Q[0], U[0], V[0] = Q[-1], U[-1], V[-1]
        q, r, u, v = Q[1:k + 1], R[1:k + 1], U[1:k + 1], V[1:k + 1]
        np.subtract(diag[r0:r0 + k, None], x, out=q)
        for b, prev, row, ri in zip(b2[r0:r0 + k], qs, qs[1:], rs[1:]):
            np.divide(b, prev, out=ri)
            np.subtract(row, ri, out=row)
        r /= q
        np.divide(-1.0, q, out=u)           # u_i = r_i u_{i-1} - 1 / q_i
        for ri, prev, row in zip(rs[1:k + 1], us, us[1:]):
            np.multiply(ri, prev, out=t)
            np.add(row, t, out=row)
        np.multiply(U[:k], U[:k], out=v)    # v_i = r_i (v_{i-1} - 2 u_{i-1}^2)
        v *= -2.0 * r
        for ri, prev, row in zip(rs[1:k + 1], vs, vs[1:]):
            np.multiply(ri, prev, out=t)
            np.add(row, t, out=row)
        s1 += u.sum(axis=0)
        s2 += (u * u - v).sum(axis=0)
        below += (q < 0.0).sum(axis=0)
    return s1, s2, below


def _laguerre(diag, off_sq, ranks, x, hi, tol):
    """Laguerre's iteration on f = det(T - xI), upward from each x, capped at
    hi, for the eigenvalue of each rank k.

    From x in (lambda_{k-1}, lambda_k) the step n / (sqrt((n - 1) (n S2 -
    S1^2)) - S1), S1 = f'/f, S2 = -(f'/f)', lands in (x, lambda_k] and
    converges cubically to lambda_k (Li & Zeng 1994, "The Laguerre
    iteration in solving the symmetric tridiagonal eigenproblem,
    revisited", SIAM J. Sci. Comput. 15).  A rank stops once the distance
    its last two steps predict is left falls to tol / 4, when its step is
    not a finite step up, or where the pivots already count k eigenvalues
    below x; the certificate in _block_eigenvalues judges where it ends.
    """
    n = diag.size
    live = np.ones(x.size, dtype=bool)
    prev = np.zeros(x.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_LAGUERRE_STEPS):
            s1, s2, below = _log_derivatives(diag, off_sq, x)
            step = n / (np.sqrt((n - 1) * (n * s2 - s1 * s1)) - s1)
            new = np.minimum(x + step, hi)
            move = live & (below < ranks) & (new > x)   # False where NaN
            # cubic convergence: after a step s that followed a step p, about
            # s (s / p)^3 of the distance is left
            step = new - x
            live = move & (step * (step / prev) ** 3 > 0.25 * tol)
            prev = step
            x = np.where(move, new, x)
            if not live.any():
                break
    return x


def _eigenvalues(T: SymTridiagonal) -> tuple[np.ndarray, bool]:
    """All eigenvalues of T, ascending, each within tol / 2 of the
    eigenvalue of its rank as Sturm counts see it (_bisection_start), and
    whether a count met the pivot guard above the last row, so that a value
    may be wrong.

    Zero couplings split T into blocks whose spectra make up T's: each block
    is solved alone, so an eigenvalue two blocks share needs no telling
    apart, but from T's Gerschgorin interval and tol, so that its shifts
    are those a bisection of T would take.  A block of one row is its
    diagonal entry; the others go through _block_eigenvalues.
    """
    off_sq, glo, ghi, tol = _bisection_start(T)
    edges = [0, *(np.flatnonzero(off_sq == 0.0) + 1).tolist(), T.n]
    vals = []
    guarded = False
    for a, b in zip(edges, edges[1:]):
        if b - a == 1:
            vals.append(T.diag[a:b])
            continue
        v, met = _block_eigenvalues(T.diag[a:b], off_sq[a:b - 1], glo, ghi, tol)
        vals.append(v)
        guarded = guarded or met
    return (vals[0] if len(vals) == 1 else np.sort(np.concatenate(vals))), guarded


def _block_eigenvalues(diag, off_sq, glo, ghi, tol, ranks=None, above=None):
    """The eigenvalues of the given ascending 1-based ranks (default all) of
    the tridiagonal with diagonal diag and squared couplings off_sq, from
    the interval [glo, ghi], and whether a Sturm count met the pivot guard
    above the last row.  above, one flag per rank, counts that rank's shifts
    from above (see _sturm_counts) in all three stages.

    1. Isolate: whole subtree passes (_subtree_pass) over the ranks still
       to do, until every rank's interval [lo, hi] is within tol or has
       counts k - 1 at lo and k at hi, so holds its eigenvalue alone, lies
       at least its width from the intervals of the ranks next to it in
       the list, so Laguerre's iteration need not crawl past a close
       neighbour, and has neither count from a shift that met the pivot
       guard above the last row.
    2. Refine: Laguerre's iteration (_laguerre) from lo, all isolated ranks
       at once, in place of the remaining ~40 bisection steps.
    3. Certify: an iterate x is kept only when the Sturm counts at x - tol/2
       and x + tol/2 are below and at least its rank.  A rank that fails
       goes back to step 1 with its interval and the counts at its ends,
       never to be refined again, and bisects to tol there with a step cap
       of its own, as every rank that never isolates (a cluster or a
       double eigenvalue) does from the start.
    A wrong iterate thus costs time but never yields a wrong value.  The
    couplings may be zero: a value two blocks share then never isolates.
    """
    n = diag.size
    ranks = np.arange(1, n + 1) if ranks is None else np.asarray(ranks)
    m = ranks.size
    above = np.zeros(m, dtype=bool) if above is None else np.asarray(above, dtype=bool)
    # lo[1:-1] and hi[1:-1] are the intervals of the ranks; the outer
    # entries let each rank see its neighbours' intervals
    lo = np.full(m + 2, glo)
    hi = np.full(m + 2, ghi)
    lo[-1], hi[0] = np.inf, -np.inf
    clo, chi = np.zeros(m, dtype=np.int64), np.full(m, n)
    isolated = np.zeros(m, dtype=bool)
    refine = True                   # steps 2 and 3 are still to come
    met = False
    todo = np.flatnonzero(~((hi - lo)[1:-1] <= tol))
    steps = 0
    while todo.size and steps < _MAX_BISECT_STEPS:
        p = todo + 1
        # ranks ascend, so ranks that share an interval (and its direction
        # of counting) are adjacent
        fresh = np.empty(todo.size, dtype=bool)
        fresh[0] = True
        fresh[1:] = ((lo[p[1:]] != lo[p[:-1]]) | (hi[p[1:]] != hi[p[:-1]])
                     | (above[todo[1:]] != above[todo[:-1]]))
        heads = todo[fresh]
        grid, counts, path, spans = _subtree_pass(
            diag, off_sq, ranks[todo], lo[heads + 1], hi[heads + 1], above[heads],
            _MAX_BISECT_STEPS - steps, np.cumsum(fresh) - 1)
        met = met or bool((counts < 0).any())
        steps += path.shape[0]
        w = 2 * spans[0, 0]
        # counts at every node, the carried ones at the interval ends
        cgrid = np.empty((heads.size, w + 1), dtype=np.int64)
        cgrid[:, 0], cgrid[:, w], cgrid[:, 1:w] = clo[heads], chi[heads], counts
        left, right = path[-1], path[-1] + spans[-1]
        lo[p], hi[p] = grid.take(left), grid.take(right)
        clo[todo], chi[todo] = cgrid.take(left), cgrid.take(right)
        # alone in [lo, hi) by counts that did not meet the pivot guard,
        # and its neighbours' intervals at least its width away
        k = ranks[todo]
        width = hi[p] - lo[p]
        isolated[todo] = ((clo[todo] == k - 1) & (chi[todo] == k)
                          & (lo[p] - hi[todo] >= width) & (lo[p + 1] - hi[p] >= width))
        todo = todo[~((isolated[todo] & refine) | (width <= tol))]
        if not refine or (todo.size and steps < _MAX_BISECT_STEPS):
            continue
        # isolation is over: steps 2 and 3, once; the ranks that fail the
        # certificate bisect on in this loop, with a step count of their own
        refine = False
        i = np.flatnonzero(isolated & ((hi - lo)[1:-1] > tol))
        if not i.size:
            break
        x = _laguerre(diag, off_sq, ranks[i], lo[i + 1], hi[i + 1], tol)
        shifts = np.concatenate([x - 0.5 * tol, x + 0.5 * tol])
        up = np.tile(above[i], 2)
        c = np.empty(shifts.size, dtype=np.int64)
        g = np.empty(shifts.size, dtype=bool)
        for s in range(0, shifts.size, _SHIFTS_PER_PASS):
            part = slice(s, s + _SHIFTS_PER_PASS)
            c[part] = _sturm_counts(diag, off_sq, shifts[part], up[part], g[part])
        met = met or bool(g.any())
        ok = (c[:i.size] < ranks[i]) & (c[i.size:] >= ranks[i])
        # a kept iterate is its rank's interval, so its midpoint is x
        lo[i[ok] + 1] = hi[i[ok] + 1] = x[ok]
        todo, steps = i[~ok], 0
    vals = 0.5 * (lo[1:-1] + hi[1:-1])
    return np.maximum.accumulate(vals), met  # monotone at roundoff scale


def _distance_to_spectrum(T: SymTridiagonal, xs) -> np.ndarray:
    """Distance from each x in xs to the nearest eigenvalue of T.

    With c the Sturm count of eigenvalues strictly below x, the nearest
    eigenvalue has rank c or c + 1 (clipped to 1..n), so only those ranks
    are computed, in one _block_eigenvalues call for all of xs.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.size == 0:
        return np.empty(0)
    T, e = _unit_scaled(T)
    xs = np.ldexp(xs, -e)
    off_sq, glo, ghi, tol = _bisection_start(T)
    c = _sturm_counts(T.diag, off_sq, xs)
    near = np.clip(np.stack([c, c + 1]), 1, T.n)
    ranks = np.unique(near)
    vals = _block_eigenvalues(T.diag, off_sq, glo, ghi, tol, ranks)[0]
    vals = vals[np.searchsorted(ranks, near)]
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


def _chunk_vectors(diag, off, lam, clusters, norm_scale):
    """Eigenvectors for the ascending values lam: twisted factorisations
    T - s*I = N_r Delta_r N_r^T at r = argmin |gamma_r|, gamma = D+ + D- -
    (d - s), give z with N_r^T z = e_r as running products of -b_i / D+_i
    above r and -b_{i-1} / D-_i below it.  Clusters [a, b) would share one z:
    they take inverse iteration from fixed-seed random vectors, Gram-Schmidt
    inside the cluster, as does any column that misses the target."""
    # D+ of T and of T reversed (D- bottom up) in one row loop; a pivot below
    # _PIVMIN in magnitude becomes -_PIVMIN, as in _guarded_sturm_counts
    piv = np.stack([diag, diag[::-1]], 1)[..., None] - lam
    b2 = np.stack([off, off[::-1]], 1)[..., None] ** 2
    for i in range(len(diag)):
        if i:
            piv[i] -= b2[i - 1] / piv[i - 1]
        np.copyto(piv[i], -_PIVMIN, where=np.abs(piv[i]) < _PIVMIN)
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
    target = 0.02 * TOL_RESID * norm_scale
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
    cluster_tol = 1e-12 * norm_scale
    bounds = np.array([0, *(np.flatnonzero(np.diff(vals) > cluster_tol) + 1), n])
    steps = np.arange(0, n, max(1, _BLOCK_ELEMENTS // n))
    cuts = np.unique([*bounds[np.searchsorted(bounds, steps)], n])
    vecs = np.empty((n, n))
    for c0, c1 in zip(cuts[:-1], cuts[1:]):
        clusters = [(a - c0, b - c0) for a, b in zip(bounds, bounds[1:])
                    if c0 <= a < c1 and b - a > 1]
        vecs[:, c0:c1] = _chunk_vectors(
            T.diag, T.offdiag, vals[c0:c1], clusters, norm_scale)
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

    Eigenvalues are isolated by Sturm bisection, refined by Laguerre's
    iteration and certified by two Sturm counts (_eigenvalues); each is
    within 2 eps times the larger end of the Gerschgorin interval of the
    eigenvalue its rank has by the counts, as a bisection to 4 eps would
    be.  Eigenvectors, when requested, come from one batched
    twisted-factorisation pass (_chunk_vectors).  Dense Jacobi steps in
    only for vectors that miss the contract.  T is solved unit-scaled
    (_unit_scaled), and the values scaled back exactly.
    """
    n = T.n
    if n == 1:
        vals = T.diag.copy()
        return Spectrum(vals, np.ones((1, 1)) if want_vectors else None)
    T, e = _unit_scaled(T)
    vals = _eigenvalues(T)[0]
    if not want_vectors:
        return Spectrum(np.ldexp(vals, e))
    glo, ghi = _gersch_bounds(T)
    norm_scale = max(abs(glo), abs(ghi))
    if norm_scale == 0.0:
        # T = 0: every unit vector is an eigenvector, as in eig_dense
        return Spectrum(vals, np.eye(n))
    try:
        vecs = _twisted_vectors(T, vals, norm_scale)
    except InverseIterationError:
        dense = eig_dense(T.to_dense(), want_vectors=True)
        return Spectrum(np.ldexp(dense.values, e), dense.vectors.real)
    return Spectrum(np.ldexp(vals, e), vecs)


def _householder_tridiagonal(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and subdiagonal of a tridiagonal matrix unitarily similar to
    the Hermitian array B, which is overwritten.

    Step k applies the reflection I - 2 v v^H to rows and columns k+1..,
    mapping B[k+1:, k] to alpha e_1 (Golub & Van Loan, section 8.3).  alpha
    has the modulus of that column and the phase opposite its first entry,
    so v[0] = x[0] - alpha does not cancel; for complex B the subdiagonal is
    complex, and its moduli are the couplings of a real tridiagonal with the
    same spectrum.  Row and column 0 are never reflected, so B[0, 0] stays.
    """
    cplx = np.iscomplexobj(B)
    for kk in range(B.shape[0] - 2):
        x = B[kk + 1:, kk].copy()
        nx = np.linalg.norm(x)
        if nx == 0.0:
            continue
        if x[0] == 0.0:
            alpha = -nx
        elif cplx:
            alpha = -nx * (x[0] / abs(x[0]))
        else:
            alpha = -math.copysign(nx, x[0])
        v = x
        v[0] -= alpha
        nv = np.linalg.norm(v)
        if nv == 0.0:
            continue
        v /= nv
        # B <- H B H with w = B v - (v^H B v) v: B - 2 v w^H - 2 w v^H
        sub = B[kk + 1:, kk + 1:]
        w = sub @ v
        if cplx:
            vh = v.conj()
            w -= (vh @ w) * v
            sub -= 2.0 * np.outer(v, w.conj()) + 2.0 * np.outer(w, vh)
        else:
            w -= (v @ w) * v
            sub -= 2.0 * np.outer(v, w) + 2.0 * np.outer(w, v)
        B[kk + 1, kk] = alpha
    return np.diagonal(B).real.copy(), np.diagonal(B, offset=-1).copy()


def _tridiagonal_norm(T: SymTridiagonal) -> float:
    """max(|lambda_1|, |lambda_n|) of T: only those two ranks of unit-scaled
    T are computed (_block_eigenvalues), rank 1 counted from above so that
    a zero pivot cannot mislead it (see _sturm_counts)."""
    if T.n == 1:
        return abs(float(T.diag[0]))
    S, e = _unit_scaled(T)
    off_sq, glo, ghi, tol = _bisection_start(S)
    vals = _block_eigenvalues(S.diag, off_sq, glo, ghi, tol, (1, T.n),
                              (True, False))[0]
    return math.ldexp(max(abs(float(vals[0])), abs(float(vals[-1]))), e)


def _dense_tridiagonal(H: np.ndarray) -> tuple[SymTridiagonal, int]:
    """(T, e): a unit-scaled real tridiagonal T whose spectrum times 2^e is
    that of the Hermitian array H, which is left as it is.  H is reduced
    unit-scaled (_householder_tridiagonal), so that the column norms of the
    reduction neither overflow nor underflow."""
    e = _scale_exponent(float(np.max(np.abs(H))))
    d, sub = _householder_tridiagonal(_ldexp(H, -e))
    T, f = _unit_scaled(SymTridiagonal(d, np.abs(sub)))
    return T, e + f


def _hermitian_norm(H: np.ndarray) -> float:
    """Spectral norm of the Hermitian array H, from its tridiagonal."""
    T, e = _dense_tridiagonal(H)
    return math.ldexp(_tridiagonal_norm(T), e)


def spectral_norm(A) -> float:
    """Largest singular value: spectral norm for the Hermitian types,
    and sigma_1 via the Gram matrix for a general rectangular block.

    Only the extreme eigenvalues are computed: ranks 1 and n by the
    isolate-refine-certify engine of eig_tridiag (_block_eigenvalues), after
    a Householder reduction for dense input; never a full spectrum.
    """
    if isinstance(A, SymTridiagonal):
        return _tridiagonal_norm(A)
    if isinstance(A, DenseHermitian):
        return _hermitian_norm(A.entries.real if A.is_real else A.entries)
    B = np.atleast_2d(np.asarray(A))
    if not np.any(B.imag):
        B = B.real
    # sigma_1 = sqrt(lambda_max) of the Gram matrix on the smaller side,
    # formed unit-scaled so that the squares stay in range
    e = _scale_exponent(float(np.max(np.abs(B))))
    Bs = _ldexp(B, -e)
    G = Bs.conj().T @ Bs if B.shape[1] <= B.shape[0] else Bs @ Bs.conj().T
    return math.ldexp(math.sqrt(_hermitian_norm(G)), e)
