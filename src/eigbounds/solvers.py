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
tolerance, so a wrong iterate costs time but is never returned.  One
engine call solves many tridiagonals, its members (_block_eigenvalues):
they are stacked along the shift axis, each shift carrying its member's
rows, so every row loop runs once for all members (the Sturm counts once
per member order), and each member's results are bit for bit those of a
call with it alone.  Zero couplings split a tridiagonal into members.
Every spectrum and norm, of tridiagonal and dense input alike, enters the
engine through _dense_batch, several in one call; within a _solved block
a call that names only the inputs solved on entry is served from there by
value, and any other call is solved whole.  The Sturm counts, their guarded
recount and Laguerre's derivatives read one pivot loop (_pivot_blocks), in
row blocks with one division and one subtraction per row; a count runs it
without the pivot guard, and the guard of LAPACK dstebz is applied
afterwards, by recounting only the shifts whose pivots came below pivmin
(Demmel, Dhillon & Ren 1995).  Every solver
first scales its input by the power of two that brings the largest |entry|
into [0.5, 1), so pivmin = eps^2 and the tolerances are relative to the
matrix, and scales the results back exactly: 2^k A gives 2^k times the
results for A.  The engine can take chosen ranks alone: a spectral norm
computes only ranks 1 and n, rank 1 with Sturm counts taken from above,
which a zero pivot cannot mislead.  Graded tridiagonals have those two
ranks solved on certified principal blocks; see _norm_blocks.  The AED
deflation check needs no eigenvalue: two Sturm counts per deflated value
(Barth, Martin & Wilkinson 1967) give the eigenvalues in an interval around
it (_counts_within).  Counted from below, as for a whole spectrum, a count
on an exactly zero pivot may read one short, so a dense values-only solve
in which a count met the pivot guard above the last row is redone by
round-robin Jacobi sweeps, whose vectors it drops, and which also give
every dense spectrum with vectors; a tridiagonal spectrum is returned as
counted, and may be wrong there (the zero-pivot fault).
These are deliberately independent of any library eigensolver so that every
bound in the package is checked against an implementation with no shared
code path.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from collections.abc import Callable, Sequence
from typing import NamedTuple

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
# rows per block of the pivot recurrence (_pivot_blocks)
_STURM_ROWS = 64
# pivot guard of the Sturm recurrences: every input is unit-scaled first,
# so a guard of LAPACK dstebz's form c * max(1, max b^2) is c (|b| < 1)
_PIVMIN = _EPS ** 2

# the least order whose spectral norm may take the block path (_norm_blocks)
_NORM_BLOCK_MIN_ORDER = 64

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
    (_dense_tridiagonal) through the engine of eig_tridiag: isolate,
    refine, certify, as the one-matrix case of _dense_batch, which redoes
    a solve in which a Sturm count met the pivot guard by Jacobi (_jacobi).
    Jacobi also computes every spectrum with vectors.
    """
    if not want_vectors:
        return Spectrum(_dense_batch([A])[0][0])
    return _jacobi(A)


def _jacobi(A: DenseHermitian) -> Spectrum:
    """Full spectrum, with vectors, of a Hermitian matrix by round-robin
    Jacobi sweeps, at most JACOBI_MAX_SWEEPS of them.

    Each sweep is the rounds of a round-robin ordering (Brent & Luk 1985);
    the rotations of a round act on disjoint (p, q) planes, so they commute
    and are applied together as one array update.
    """
    n = A.n
    # a real matrix is held as a real array (DenseHermitian), so it stays in
    # real arithmetic: the rotation formulas below are dtype-generic (the
    # phase ph degenerates to +-1) and run much faster
    # H = 2^e S, solved as unit-scaled S and the values scaled back exactly
    e = _scale_exponent(float(np.max(np.abs(A.entries))))
    H = _ldexp(A.entries, -e)
    V = np.eye(n, dtype=H.dtype)
    scale = math.sqrt(float(np.sum(np.abs(H) ** 2)))
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
    return Spectrum(vals[order], V[:, order])


def _pivot_blocks(diag, off_sq, x, ts, guard=False):
    """The pivots q_i = (d_i - x) - b_{i-1}^2 / q_{i-1} of T - xI at each x,
    in blocks of _STURM_ROWS rows (call under np.errstate): one subtraction
    d_i - x for the whole block, then per row one division into ts[i - r0],
    rows the caller chooses, and one subtraction.  Each block is yielded as
    a view into a buffer that the next block overwrites.  diag and off_sq
    are T's, or a column of them for each x (a stack, _stack).  Without
    guard a chain runs on through a zero pivot (0/0 makes NaN); with guard,
    as in LAPACK dstebz, a pivot with |q| < _PIVMIN continues the chain as
    if it were -_PIVMIN but is yielded as it is, so it counts by its own
    sign.
    """
    n = diag.shape[0]
    h = min(n, _STURM_ROWS)
    # buf[1:] holds a block of pivots and buf[0] the row above it; above
    # row 0 that is 1.0 under the zero coupling b2[0], and d_0 - x - 0 / 1
    # is d_0 - x exactly
    buf = np.empty((h + 1, x.size))
    buf[-1] = 1.0
    rows = list(buf)
    if diag.ndim == 1:
        diag, b2 = diag[:, None], [0.0, *off_sq.tolist()]
    else:
        b2 = [0.0, *off_sq]                 # b2[i] couples rows i - 1 and i
    for r0 in range(0, n, h):
        k = min(h, n - r0)
        buf[0] = buf[-1]                    # every block but the last is full
        q = buf[1:k + 1]
        np.subtract(diag[r0:r0 + k], x, out=q)
        # out= positionally in the row loops, here and in _log_derivatives:
        # the keyword costs a few percent at small orders
        for b, prev, row, t in zip(b2[r0:r0 + k], rows, rows[1:], ts):
            if guard:
                prev = np.where(np.abs(prev) < _PIVMIN, -_PIVMIN, prev)
            np.divide(b, prev, t)
            np.subtract(row, t, row)
        yield q


def _sturm_counts(diag: np.ndarray, off_sq: np.ndarray, xs: np.ndarray,
                  above=None, guarded=None) -> np.ndarray:
    """Number of eigenvalues strictly below each shift in xs (vectorized);
    where the boolean mask above is set, n minus the number strictly above.
    diag and off_sq are the tridiagonal's, or a column for each shift of
    tridiagonals of one order n (_stacked_counts).  A boolean array
    guarded, if given, is set where a pivot above the last row met the
    guard, so that the count may be one short (see below).

    The pivots (_pivot_blocks) run unguarded.  Once per block the negative
    pivots are counted and each shift's chain is checked for a pivot with
    |q| < _PIVMIN (or NaN, from 0/0).  Up to its first such pivot a chain
    is the same with or without the guard, so only the shifts that met one
    are recounted, with the guard; the counts are those of the guarded
    recurrence for every shift, and a guarded chain meets a small pivot
    above the last row exactly where the unguarded one does.

    With the guard an exactly zero pivot makes the count one short; it never
    reads n where fewer eigenvalues lie below x, since that needs every
    pivot negative.  Counting from above, a shift in above is recounted on
    -T at -x, whose unguarded pivots are those of T at x negated; its n -
    count then never reads 0 where an eigenvalue lies at or below x.
    Bisecting rank 1 from above and rank n from below is thus safe from the
    zero pivot: for T = tridiag(1, (-3, -2, -1), 1), a shift on d_0 counts
    0 eigenvalues below it where there is one, and rank 1 from below
    bisects to -3 instead of -2 - sqrt(3).
    """
    n, m = diag.shape[0], xs.size
    h = min(n, _STURM_ROWS)
    neg = np.empty((h, m), dtype=bool)
    count = np.zeros(m, dtype=np.int64)
    small = np.zeros(m, dtype=bool)
    if guarded is not None:
        guarded[:] = False
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for q in _pivot_blocks(diag, off_sq, xs, [np.empty(m)] * h):
            k = q.shape[0]
            # _STURM_ROWS < 256, so a block's counts fit in uint8
            neg8 = np.less(q, 0.0, out=neg[:k]).view(np.uint8)
            count += neg8.sum(axis=0, dtype=np.uint8)
            # a NaN pivot makes the minimum NaN, which fails the test as well
            small |= ~(np.abs(q).min(axis=0) >= _PIVMIN)
        if not small.any():
            return count
        flip = small & above if above is not None else np.zeros(m, dtype=bool)
        # the guarded recount: T at x, and -T at -x for the flipped shifts
        for sel, sign in ((small & ~flip, 1.0), (flip, -1.0)):
            if sel.any():
                x = sign * xs[sel]
                d, b = _rows_of(diag, off_sq, sel)
                c = np.zeros(x.size, dtype=np.int64)
                met = np.zeros(x.size, dtype=bool)
                for r0, q in zip(range(0, n, h), _pivot_blocks(
                        sign * d, b, x, [np.empty(x.size)] * h, guard=True)):
                    c += np.count_nonzero(q < 0.0, axis=0)
                    # the rows above the last
                    met |= (np.abs(q[:n - 1 - r0]) < _PIVMIN).any(axis=0)
                count[sel] = c if sign > 0 else n - c
                if guarded is not None:
                    guarded[sel] = met
    return count


def _stacked_counts(diag, off_sq, at, xs, above, guarded):
    """_sturm_counts of each shift in xs on the tridiagonal of column at[j]
    of a stack (_stack), or of the lone tridiagonal diag and off_sq.  The
    columns come by falling order and at ascends, so the shifts of each
    column and of each order are consecutive: each order is counted on its
    own rows, so no padding is counted, a column alone as a lone
    tridiagonal, and several together in calls of at most _BLOCK_ELEMENTS
    / n shifts, so that the rows the shifts carry stay near 8 MB."""
    if diag.ndim == 1:
        return _sturm_counts(diag, off_sq, xs, above, guarded)
    edges = (np.flatnonzero(np.diff(at)) + 1).tolist()
    starts, stops = [0, *edges], [*edges, xs.size]
    cols = at[starts].tolist()
    orders = _orders(diag)[cols].tolist()
    count = np.empty(xs.size, dtype=np.int64)
    j = 0
    while j < len(cols):
        n, k = orders[j], j + 1
        while (k < len(cols) and orders[k] == n
               and stops[k] - starts[j] <= _BLOCK_ELEMENTS // n):
            k += 1
        if k == j + 1:
            d, b = diag[:n, cols[j]], off_sq[:n - 1, cols[j]]
        else:
            reps = [stop - start for start, stop in zip(starts[j:k], stops[j:k])]
            d = np.repeat(diag[:n, cols[j:k]], reps, axis=1)
            b = np.repeat(off_sq[:n - 1, cols[j:k]], reps, axis=1)
        part = slice(starts[j], stops[k - 1])
        count[part] = _sturm_counts(d, b, xs[part], above[part], guarded[part])
        j = k
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


def _gersch_radii(off: np.ndarray) -> np.ndarray:
    """|b_{i-1}| + |b_i|, the Gerschgorin radius of each row."""
    r = np.zeros(off.size + 1)
    b = np.abs(off)
    r[1:] += b
    r[:-1] += b
    return r


def _gersch_bounds(T: SymTridiagonal) -> tuple[float, float]:
    """The ends of the union of the Gerschgorin intervals of T."""
    r = _gersch_radii(T.offdiag)
    return float(np.min(T.diag - r)), float(np.max(T.diag + r))


def _decay_ratio(radius, gap):
    """Gerschgorin decay ratio radius / gap of rows whose disks have the
    given radii and lie gap from lam, elementwise; inf where gap <= radius,
    the disk reaching lam (a NaN gap gives NaN).  For an eigenvector x of
    lam a finite ratio bounds |x_i| / max(|x_{i-1}|, |x_{i+1}|), from
    (lam - d_i) x_i = b_{i-1} x_{i-1} + b_i x_{i+1}, so products of ratios
    chained away from the rows whose disks reach lam bound how fast x
    decays there."""
    reach = gap <= radius
    return np.where(reach, np.inf, radius / np.where(reach, 1.0, gap))


def _top_block(diag: np.ndarray, off: np.ndarray) -> tuple[int, int] | None:
    """Rows [a, b) of a principal block of the tridiagonal with diagonal
    diag and couplings +-off whose largest eigenvalue is that of the whole
    matrix to far below roundoff, or None when that block is every row.

    L, the largest eigenvalue of the 2x2 principal blocks, is at most
    lambda_n (Cauchy interlacing).  The core is the rows whose Gerschgorin
    disks reach L.  Outside it every decay ratio at L is below 1, and at
    lambda_n >= L smaller still, so lambda_n's eigenvector decays away from
    the core at least as fast as the chained ratios (_decay_ratio).  The
    block extends the core on each side up to the first row where that
    product falls to eps; the block's own top eigenvector decays in the
    same way, so it is a Ritz vector of T with residual below eps |b| at
    the cut.  The certificate in _dense_batch decides, not this."""
    half = 0.5 * (diag[:-1] - diag[1:])
    L = float(np.max(0.5 * (diag[:-1] + diag[1:]) + np.hypot(half, off)))
    ratio = _decay_ratio(_gersch_radii(off), L - diag)
    core = np.flatnonzero(ratio == np.inf)
    n = diag.size
    if not core.size or (core[0] == 0 and core[-1] == n - 1):
        return None
    c0, c1 = int(core[0]), int(core[-1])
    up = np.cumprod(ratio[:c0][::-1]) <= _EPS
    down = np.cumprod(ratio[c1 + 1:]) <= _EPS
    a = c0 - 1 - int(np.argmax(up)) if up.any() else 0
    b = c1 + 2 + int(np.argmax(down)) if down.any() else n
    return None if b - a == n else (a, b)


def _norm_blocks(T: SymTridiagonal):
    """The blocks of _top_block for lambda_n (on T) and lambda_1 (on -T)
    on which _dense_batch solves those two ranks, or None, and T is
    solved whole, below _NORM_BLOCK_MIN_ORDER rows or where either block
    is all of T.

    The block path adds a member and a Sturm count of all of T (the
    certificate), and a member's subtree passes count about as many shifts
    whatever its rows, so small orders decline on their order alone, among
    them the dense inputs of the CLI's block bounds (orders 12 to 40).
    From order 64 on, graded
    tridiagonals such as aed_example, whose extreme eigenvectors decay
    super-exponentially from the ends, take the block path with about 22
    rows a block.  Wilkinson matrices, the Householder tridiagonals of
    dense input and random tridiagonals spread those eigenvectors over
    every row, and their blocks are all of T."""
    top = _top_block(T.diag, T.offdiag) if T.n >= _NORM_BLOCK_MIN_ORDER else None
    bottom = _top_block(-T.diag, T.offdiag) if top else None
    return (top, bottom) if bottom else None


def _subtree_pass(diag, off_sq, ranks, rows, lo, hi, clo, chi, above, runs, cols=None):
    """Up to L bisection steps for every rank, from one count of all their
    shifts (_stacked_counts).

    lo, hi, the counts clo and chi there and above (see _sturm_counts)
    describe intervals, and runs, a list of (a, b, L), gives intervals a to
    b - 1 the depth L; rows[r] is the interval of ranks[r], so ranks that
    share an interval share its subtree.  diag and off_sq are the
    tridiagonal of every interval, or a stack (_stack) whose column of
    interval i is cols[i].  For each interval the depth-L subtree of
    midpoints is built level by level, each point 0.5 * (left + right) of
    its two neighbours one level up: the midpoint a one-step loop would
    compute.  All 2^L - 1 interior points of all intervals are counted at
    once, and the L decisions of each rank are then replayed on node
    indices.

    An interval's nodes are every 2^(M - L)-th of a row of 2^M + 1, M the
    largest L; the nodes between them read a count no rank is below, so a
    rank that has taken its L steps stays where it is.  Returns (grid,
    counts, path, span, marked): the flattened rows of nodes and of their
    counts, clo and chi at the ends; each rank's left node (flat index into
    grid) after each step, an (M, ranks) array; the node distance from its
    last left node to its right node, 2^(M - L); and the intervals (with
    repeats) with a count whose shift met the pivot guard above the last
    row.  Such a count may be one short and reads -1 in counts; the steps
    follow it as it is.
    """
    u, m = lo.size, ranks.size
    M = max(L for _, _, L in runs)
    w = 1 << M
    # the subtree of depth M for every interval: its top L levels are the
    # depth-L subtree, on every 2^(M - L)-th node
    grid = np.empty((u, w + 1))
    grid[:, 0], grid[:, w] = lo, hi
    h = w
    while h > 1:
        grid[:, h // 2::h] = 0.5 * (grid[:, :-1:h] + grid[:, h::h])
        h //= 2
    xs = np.concatenate([grid[a:b, w >> L:w:w >> L].ravel() for a, b, L in runs])
    at = np.concatenate([np.repeat(np.arange(a, b), (1 << L) - 1) for a, b, L in runs])
    guarded = np.empty(xs.size, dtype=bool)
    c = _stacked_counts(diag, off_sq, at if cols is None else cols[at], xs, above[at],
                        guarded)
    counts = np.full((u, w + 1), diag.shape[0])
    counts[:, 0], counts[:, w] = clo, chi
    inner, p0 = [], 0                       # each run's counted nodes
    for a, b, L in runs:
        nodes = counts[a:b, w >> L:w:w >> L]
        inner.append((nodes, slice(p0, p0 + nodes.size)))
        nodes[...] = c[p0:p0 + nodes.size].reshape(nodes.shape)
        p0 += nodes.size
    # up[r, j]: fewer eigenvalues than ranks[r] lie below node j of its
    # interval, so bisection keeps the interval above it (the ends are
    # never read); path[l] is each rank's left node (flat index) after l
    # steps
    up = (counts.take(rows, axis=0) < ranks[:, None]).ravel()
    path = np.empty((M + 1, m), dtype=np.intp)
    path[0] = np.arange(m) * (w + 1)
    for lvl in range(1, M + 1):
        node = path[lvl - 1] + (w >> lvl)
        path[lvl] = np.where(up[node], node, path[lvl - 1])
    marked = at[guarded]
    if marked.size:
        for nodes, part in inner:
            nodes[guarded[part].reshape(nodes.shape)] = -1
    # from each rank's row of up to its interval's row of grid
    path = path[1:] + (rows - np.arange(m)) * (w + 1)
    span = np.concatenate([np.full(b - a, w >> L) for a, b, L in runs])[rows]
    return grid.ravel(), counts.ravel(), path, span, marked


def _bisection_start(T: SymTridiagonal):
    """(off_sq, glo, ghi, tol): the squared couplings, the Gerschgorin
    interval [glo, ghi] and the bisection tol = 4 eps max(|glo|, |ghi|)."""
    glo, ghi = _gersch_bounds(T)
    return T.offdiag ** 2, glo, ghi, 4.0 * _EPS * max(abs(glo), abs(ghi))


def _log_derivatives(diag, off_sq, x):
    """f'/f, -(f'/f)' and the number of negative pivots of f = det(T - xI)
    at each x (call under np.errstate).

    f is the product of the pivots q_i = d_i - x - t_i, t_i = b_{i-1}^2 /
    q_{i-1} (_pivot_blocks).  With u_i = q_i'/q_i and v_i = q_i''/q_i, f'/f
    = sum u_i and -(f'/f)' = sum u_i^2 - v_i.  From q_i' = t_i u_{i-1} - 1
    and q_i'' = t_i (v_{i-1} - 2 u_{i-1}^2), with r_i = t_i / q_i,
        u_i = r_i u_{i-1} - 1 / q_i,   v_i = r_i v_{i-1} - 2 r_i u_{i-1}^2,
    so after the pivots each of u and v is one multiply and one subtract
    per row, block by block.  There is no pivot guard: a zero pivot makes
    the results non-finite.  diag and off_sq are as in _pivot_blocks, or a
    stack whose columns differ in order, whose padding adds zero terms
    (_stack).
    """
    n, m = diag.shape[0], x.size
    h = min(n, _STURM_ROWS)
    # rows 1.. of each buffer hold a block, of R the t_i and then r_i, and
    # row 0 of U and V the row above it: u = v = 0 above row 0 (b2[0] = 0)
    R, U, V = np.zeros((3, h + 1, m))
    # the rows as views made once, updated in place through out=
    us, vs, rs = list(U), list(V), list(R)
    t = np.empty(m)
    s1, s2 = np.zeros(m), np.zeros(m)
    below = np.zeros(m, dtype=np.int64)
    for q in _pivot_blocks(diag, off_sq, x, rs[1:]):
        k = q.shape[0]
        # every block but the last is full
        U[0], V[0] = U[-1], V[-1]
        r, u, v = R[1:k + 1], U[1:k + 1], V[1:k + 1]
        r /= q
        np.divide(-1.0, q, out=u)           # u_i = r_i u_{i-1} - 1 / q_i
        for ri, prev, row in zip(rs[1:k + 1], us, us[1:]):
            np.multiply(ri, prev, t)
            np.add(row, t, row)
        np.multiply(U[:k], U[:k], out=v)    # v_i = r_i (v_{i-1} - 2 u_{i-1}^2)
        v *= -2.0 * r
        for ri, prev, row in zip(rs[1:k + 1], vs, vs[1:]):
            np.multiply(ri, prev, t)
            np.add(row, t, row)
        s1 += u.sum(axis=0)
        np.multiply(u, u, out=r)            # r is free from here on
        s2 += np.subtract(r, v, out=r).sum(axis=0)
        below += (q < 0.0).sum(axis=0)
    return s1, s2, below


def _laguerre(diag, off_sq, ranks, x, hi, tol):
    """Laguerre's iteration on f = det(T - xI), upward from each x, capped at
    hi, for the eigenvalue of each rank k.

    From x in (lambda_{k-1}, lambda_k) the step n / (sqrt((n - 1) (n S2 -
    S1^2)) - S1), S1 = f'/f, S2 = -(f'/f)', lands in (x, lambda_k] and
    converges cubically to lambda_k (Li & Zeng 1994, "The Laguerre
    iteration in solving the symmetric tridiagonal eigenproblem,
    revisited", SIAM J. Sci. Comput. 15), n the order of the tridiagonal of
    each x (_orders).  A rank stops once the distance its last two steps
    predict is left falls to tol / 4, when its step is not a finite step
    up, or where the pivots already count k eigenvalues below x; the
    certificate in _block_eigenvalues judges where it ends.
    """
    n = _orders(diag)
    live = np.ones(x.size, dtype=bool)
    prev = np.zeros(x.size)
    quarter = 0.25 * tol
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_MAX_LAGUERRE_STEPS):
            s1, s2, below = _log_derivatives(diag, off_sq, x)
            step = n / (np.sqrt((n - 1) * (n * s2 - s1 * s1)) - s1)
            new = np.minimum(x + step, hi)
            move = live & (below < ranks) & (new > x)   # False where NaN
            # cubic convergence: after a step s that followed a step p, about
            # s (s / p)^3 of the distance is left
            step = new - x
            live = move & (step * (step / prev) ** 3 > quarter)
            prev = step
            x = np.where(move, new, x)
            if not live.any():
                break
    return x


class _Member(NamedTuple):
    """One tridiagonal of a _block_eigenvalues call: diagonal diag and
    squared couplings off_sq (zeros allowed), the interval [glo, ghi] its
    bisection starts from and its tol, the ascending 1-based ranks to
    compute (default all), and above, one flag per rank that counts that
    rank's shifts from above (see _sturm_counts)."""

    diag: np.ndarray
    off_sq: np.ndarray
    glo: float
    ghi: float
    tol: float
    ranks: Sequence[int] | None = None
    above: Sequence[bool] | None = None


def _stack(members):
    """(diag, off_sq) of the members side by side, one column each, as the
    engine's shifts carry them: a lone member's own arrays, and otherwise
    every member padded below its last row to the largest order with rows
    of diagonal +inf and zero couplings, which mark where it ends
    (_orders).  Sturm counts take each order on its own rows
    (_stacked_counts).  In Laguerre's derivatives (_log_derivatives) a
    padding row is decoupled with pivot +inf, so it adds zero terms, and
    padding below leaves the row blocks of _pivot_blocks where they are.
    (After an exactly zero last pivot the padding makes NaN where the
    member alone makes inf; either stops that rank's iteration where it
    is.)"""
    if len(members) == 1:
        return members[0].diag, members[0].off_sq
    n = max(mb.diag.size for mb in members)
    diag = np.full((n, len(members)), np.inf)
    off_sq = np.zeros((n - 1, len(members)))
    for j, mb in enumerate(members):
        diag[:mb.diag.size, j] = mb.diag
        off_sq[:mb.off_sq.size, j] = mb.off_sq
    return diag, off_sq


def _rows_of(diag, off_sq, cols):
    """The rows of the shifts on the given columns of a stack (_stack), or
    the lone tridiagonal diag and off_sq."""
    if diag.ndim == 1:
        return diag, off_sq
    return diag[:, cols], off_sq[:, cols]


def _orders(diag):
    """The order of each shift's tridiagonal: the rows of a lone one, and
    per column of a stack (_stack) the rows above its padding."""
    return diag.shape[0] if diag.ndim == 1 else np.count_nonzero(np.isfinite(diag), axis=0)


def _block_eigenvalues(members):
    """For each _Member, the eigenvalues of its ranks from its interval,
    and whether a Sturm count of it met the pivot guard above its last row.
    above counts a rank's shifts from above in all three stages.

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

    The members are solved together, stacked along the shift axis
    (_stack): every shift carries its member's rows, so each pass, the
    Laguerre iteration and the certificate run their row loops once for
    all members, and the fixed cost of a call is paid once.  Nothing else
    is shared: each member's passes take the depth its own interval count
    and step budget give, its ranks see sentinel neighbours at its ends,
    and Laguerre's step takes its own order, so each result is bit for bit
    that of a call with the member alone.  Members whose isolation is over
    wait for the others, so steps 2 and 3 run once.
    """
    # the members by falling order (_stacked_counts), back in place at the end
    order = sorted(range(len(members)), key=lambda j: -members[j].diag.size)
    members = [members[j] for j in order]
    # slots: a sentinel, then each member's ranks followed by a sentinel; a
    # sentinel's interval (lo inf, hi -inf) lets the ranks at a member's ends
    # see no neighbour, none of another member
    ranks = [np.arange(1, mb.diag.size + 1) if mb.ranks is None
             else np.asarray(mb.ranks, dtype=np.int64) for mb in members]
    first = [1]
    for r in ranks:
        first.append(first[-1] + r.size + 1)
    mem = np.full(first.pop(), len(members))
    rank = np.zeros(mem.size, dtype=np.int64)
    above = np.zeros(mem.size, dtype=bool)
    for j, (f, r, mb) in enumerate(zip(first, ranks, members)):
        mem[f:f + r.size] = j
        rank[f:f + r.size] = r
        if mb.above is not None:
            above[f:f + r.size] = mb.above
    tol, lo, hi, chi = np.array([*((mb.tol, mb.glo, mb.ghi, mb.diag.size) for mb in members),
                                 (0.0, np.inf, -np.inf, 0)]).T[:, mem]
    chi = chi.astype(np.int64)
    clo = np.zeros(mem.size, dtype=np.int64)
    isolated = np.zeros(mem.size, dtype=bool)
    steps = [0] * len(members)
    met = np.zeros(len(members), dtype=bool)
    # ranks that share an interval share its member and counting direction
    key = 2 * mem + above
    diag, off_sq = _stack(members)
    refine = True                   # steps 2 and 3 are still to come
    todo = np.flatnonzero(~(hi - lo <= tol))
    while todo.size:
        # ranks ascend within a member, so ranks that share an interval (and
        # its member and direction of counting) are adjacent
        fresh = np.empty(todo.size, dtype=bool)
        fresh[0] = True
        fresh[1:] = ((lo[todo[1:]] != lo[todo[:-1]]) | (hi[todo[1:]] != hi[todo[:-1]])
                     | (key[todo[1:]] != key[todo[:-1]]))
        heads = todo[fresh]
        hm = mem[heads]
        # each member's depth: about _SHIFTS_PER_PASS shifts over its own
        # intervals (10 levels for one, 6 for 10, 1 from 342 on), within the
        # steps it has left
        runs, a = [], 0
        for jj, u in enumerate(np.bincount(hm, minlength=len(members)).tolist()):
            if u:
                L = min(_MAX_BISECT_STEPS - steps[jj],
                        max(1, int(math.log2(_SHIFTS_PER_PASS / u + 1))))
                steps[jj] += L
                # members of one depth side by side make one run
                if runs and runs[-1][2] == L:
                    runs[-1] = (runs[-1][0], a + u, L)
                else:
                    runs.append((a, a + u, L))
                a += u
        grid, counts, path, span, marked = _subtree_pass(
            diag, off_sq, rank[todo], np.cumsum(fresh) - 1, lo[heads], hi[heads],
            clo[heads], chi[heads], above[heads], runs, hm)
        if marked.size:
            met[hm[marked]] = True
        left, right = path[-1], path[-1] + span
        lo[todo], hi[todo] = grid.take(left), grid.take(right)
        clo[todo], chi[todo] = counts.take(left), counts.take(right)
        # alone in [lo, hi) by counts that did not meet the pivot guard,
        # and its neighbours' intervals at least its width away
        k = rank[todo]
        width = hi[todo] - lo[todo]
        isolated[todo] = ((clo[todo] == k - 1) & (chi[todo] == k)
                          & (lo[todo] - hi[todo - 1] >= width) & (lo[todo + 1] - hi[todo] >= width))
        todo = todo[~((isolated[todo] & refine) | (width <= tol[todo]))]
        if max(steps) >= _MAX_BISECT_STEPS:
            todo = todo[np.array(steps)[mem[todo]] < _MAX_BISECT_STEPS]
        if not refine or todo.size:
            continue
        # isolation is over: steps 2 and 3, once; the ranks that fail the
        # certificate bisect on in this loop, with a step count of their own
        refine = False
        i = np.flatnonzero(isolated & (hi - lo > tol))
        if not i.size:
            break
        x = _laguerre(*_rows_of(diag, off_sq, mem[i]), rank[i], lo[i], hi[i], tol[i])
        # each rank's two shifts side by side, so members stay in order
        shifts = np.empty(2 * i.size)
        shifts[0::2], shifts[1::2] = x - 0.5 * tol[i], x + 0.5 * tol[i]
        up, at = np.repeat(above[i], 2), np.repeat(mem[i], 2)
        c = np.empty(shifts.size, dtype=np.int64)
        g = np.empty(shifts.size, dtype=bool)
        for s in range(0, shifts.size, _SHIFTS_PER_PASS):
            part = slice(s, s + _SHIFTS_PER_PASS)
            c[part] = _stacked_counts(diag, off_sq, at[part], shifts[part], up[part], g[part])
        if g.any():
            met[at[g]] = True
        ok = (c[0::2] < rank[i]) & (c[1::2] >= rank[i])
        # a kept iterate is its rank's interval, so its midpoint is x
        lo[i[ok]] = hi[i[ok]] = x[ok]
        todo = i[~ok]
        steps = [0] * len(members)
    # monotone at roundoff scale, member by member
    solved = [(np.maximum.accumulate(0.5 * (lo[f:f + r.size] + hi[f:f + r.size])), bool(m))
              for f, r, m in zip(first, ranks, met)]
    return [solved[order.index(j)] for j in range(len(members))]


def _counts_within(T: SymTridiagonal, centres, radii) -> np.ndarray:
    """Number of eigenvalues of T strictly inside each (c - r, c + r), from
    one _sturm_counts call over the 2m unit-scaled ends: the lower ends
    counted from above, the upper ends from below, so that a zero pivot
    (see _sturm_counts) can only make a number short, even negative."""
    if centres.size == 0:
        return np.zeros(0, dtype=np.int64)
    S, e = _unit_scaled(T)
    c, r = np.ldexp(centres, -e), np.ldexp(radii, -e)
    ends = np.concatenate([c - r, c + r])
    counts = _sturm_counts(S.diag, S.offdiag ** 2, ends,
                           above=np.arange(ends.size) < c.size)
    return counts[c.size:] - counts[:c.size]


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
    # _PIVMIN in magnitude becomes -_PIVMIN, as in _pivot_blocks' guard
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
    # O(resid) more residual.  Only entries above 0.01 TOL_ORTH take part:
    # overlaps that large lie between close values, whose components are of
    # similar size, so tiny components are not swamped by mixing in columns
    # that are orthogonal to roundoff already
    for _ in range(8):
        E = vecs.T @ vecs - np.eye(n)
        if np.max(np.abs(E)) <= 0.1 * TOL_ORTH:
            break
        vecs -= 0.5 * (vecs @ np.where(np.abs(E) > 0.01 * TOL_ORTH, E, 0.0))
    # the contract itself, with ||T|| = max |lambda|, decides the fallback
    resid = _residual_norms(T.diag, T.offdiag, vals, vecs)
    if not (np.max(np.abs(E)) <= TOL_ORTH
            and np.all(resid <= TOL_RESID * max(abs(vals[0]), abs(vals[-1])))):
        raise InverseIterationError("residual or orthogonality contract missed")
    return vecs


def eig_tridiag(T: SymTridiagonal, want_vectors: bool = False) -> Spectrum:
    """Spectrum of a symmetric tridiagonal matrix.

    Eigenvalues are isolated by Sturm bisection, refined by Laguerre's
    iteration and certified by two Sturm counts (_dense_batch); each is
    within 2 eps times the larger end of the Gerschgorin interval of the
    eigenvalue its rank has by the counts, as a bisection to 4 eps would
    be.  Eigenvectors, when requested, come from one batched
    twisted-factorisation pass (_chunk_vectors).  Dense Jacobi steps in
    only for vectors that miss the contract.  T is solved unit-scaled
    (_unit_scaled), and the values scaled back exactly.
    """
    n = T.n
    T, e = _unit_scaled(T)
    vals = _dense_batch([T])[0][0]
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
        return Spectrum(np.ldexp(dense.values, e), dense.vectors)
    return Spectrum(np.ldexp(vals, e), vecs)


def _householder_tridiagonal(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and subdiagonal of a tridiagonal matrix unitarily similar to
    the Hermitian array B, which is overwritten.

    Step k applies the reflection I - 2 v v^H to rows and columns k+1..,
    mapping B[k+1:, k] to alpha e_1 (Golub & Van Loan, section 8.3).  alpha
    has the modulus of that column and the phase opposite its first entry,
    so v[0] = x[0] - alpha does not cancel: |v[0]| >= ||x|| > 0, so v
    normalises.  For complex B the subdiagonal is complex, and its moduli
    are the couplings of a real tridiagonal with the same spectrum.  Row and
    column 0 are never reflected, so B[0, 0] stays.
    """
    # ||x|| as numpy.linalg.norm takes it (the dot products, then the square
    # root), without its call overhead
    if np.iscomplexobj(B):
        def norm(x):
            return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
    else:
        def norm(x):
            return math.sqrt(x.dot(x))
    for kk in range(B.shape[0] - 2):
        x = B[kk + 1:, kk].copy()
        nx = norm(x)
        if nx == 0.0:
            continue
        # x[0] / |x[0]| is exactly +-1 for real B
        alpha = -nx if x[0] == 0.0 else -nx * (x[0] / abs(x[0]))
        v = x
        v[0] -= alpha
        v /= norm(v)
        # B <- H B H with w = B v - (v^H B v) v: B - 2 v w^H - 2 w v^H
        sub = B[kk + 1:, kk + 1:]
        w = sub @ v
        vh = v.conj()
        w -= (vh @ w) * v
        sub -= 2.0 * (v[:, None] * w.conj()) + 2.0 * (w[:, None] * vh)
        B[kk + 1, kk] = alpha
    return np.diagonal(B).real.copy(), np.diagonal(B, offset=-1).copy()


def _dense_tridiagonal(H: np.ndarray) -> tuple[SymTridiagonal, int]:
    """(T, e): a unit-scaled real tridiagonal T whose spectrum times 2^e is
    that of the Hermitian array H, which is left as it is.  H is reduced
    unit-scaled (_householder_tridiagonal), so that the column norms of the
    reduction neither overflow nor underflow."""
    e = _scale_exponent(float(np.max(np.abs(H))))
    d, sub = _householder_tridiagonal(_ldexp(H, -e))
    T, f = _unit_scaled(SymTridiagonal(d, np.abs(sub)))
    return T, e + f


def _norm_input(A) -> tuple[SymTridiagonal, Callable[[float], float]]:
    """(S, finish): a unit-scaled tridiagonal S and the map from its
    max(|lambda_1|, |lambda_n|) to spectral_norm(A).  S is A itself for a
    tridiagonal and its Householder tridiagonal for a dense Hermitian
    matrix; a general rectangular block gives sigma_1 = sqrt(lambda_max) of
    its Gram matrix on the smaller side, formed unit-scaled so that the
    squares stay in range."""
    if isinstance(A, SymTridiagonal):
        S, e = _unit_scaled(A)
    elif isinstance(A, DenseHermitian):
        S, e = _dense_tridiagonal(A.entries)
    else:
        B = np.atleast_2d(np.asarray(A))
        if not np.any(B.imag):
            B = B.real
        e = _scale_exponent(float(np.max(np.abs(B))))
        Bs = _ldexp(B, -e)
        S, f = _dense_tridiagonal(Bs.conj().T @ Bs if B.shape[1] <= B.shape[0]
                                  else Bs @ Bs.conj().T)
        return S, lambda top: math.ldexp(math.sqrt(math.ldexp(top, f)), e)
    return S, lambda top: math.ldexp(top, e)


# the results of the open _solved block by _solved_key, None outside one
_served: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "_served", default=None)


def _solved_key(kind: str, A) -> tuple:
    """What a result of _solved is found by: its kind (spectrum or norm),
    the input's type, and the dtype, shape and bytes of its arrays.  The
    value, not the object: the bound layer rebuilds its sub-blocks on every
    call."""
    arrays = ((A.diag, A.offdiag) if isinstance(A, SymTridiagonal) else
              (A.entries,) if isinstance(A, DenseHermitian) else (np.asarray(A),))
    return (kind, type(A), *((a.dtype.str, a.shape, a.tobytes()) for a in arrays))


@contextlib.contextmanager
def _solved(spectra=(), norms=()):
    """Solve the spectra and norms of _dense_batch in one call on entry, and
    within the block let a _dense_batch call (so eig_dense values and
    spectral_norm) that names only these inputs be served from its results;
    a call that names any other input is solved whole, as outside.  No
    result outlives the block."""
    values, tops = _dense_batch(spectra, norms)
    keys = [_solved_key("spectrum", A) for A in spectra] + [_solved_key("norm", A) for A in norms]
    token = _served.set(dict(zip(keys, values + tops)))
    try:
        yield
    finally:
        _served.reset(token)


def _dense_batch(spectra=(), norms=()) -> tuple[list[np.ndarray], list[float]]:
    """The eigenvalues, ascending, of each SymTridiagonal or DenseHermitian
    in spectra and the spectral_norm of each matrix in norms, from one
    _block_eigenvalues call: the only way into the engine.  A tridiagonal
    is solved unit-scaled (_unit_scaled), a dense input after a Householder
    reduction (_dense_tridiagonal, _norm_input).  Each value is within tol
    / 2 of the eigenvalue of its rank as Sturm counts see it
    (_bisection_start).  Within a _solved block a call that names only the
    inputs it solved is served from there, with copies of its values.

    Zero couplings split a spectrum's T into blocks whose spectra make up
    T's: each block is a member of its own, so an eigenvalue two blocks
    share needs no telling apart, but from T's Gerschgorin interval and
    tol, so that its shifts are those a bisection of T would take.  A block
    of one row is its diagonal entry.  A Sturm count whose shift met the
    pivot guard above the last row may be one short (see _sturm_counts), so
    a dense spectrum in which any count met it is redone by Jacobi
    (_jacobi), that one alone; a tridiagonal spectrum is returned as
    counted.

    A norm computes only ranks 1 and n, rank 1 counted from above so that a
    zero pivot cannot mislead it (see _sturm_counts).  Where _norm_blocks
    gives a principal block for each rank, each is a member on its block,
    from T's Gerschgorin interval and tol, certified on T: one Sturm count
    of T at x - tol/2 and x + tol/2 for each, with the same counting
    directions, must bracket its rank, which is the contract of the whole
    solve.  The norms that fail are solved whole, together, in one more
    call.
    """
    served = _served.get()
    if served is not None:
        keys = ([_solved_key("spectrum", A) for A in spectra]
                + [_solved_key("norm", A) for A in norms])
        if all(key in served for key in keys):
            out = [served[key] for key in keys]
            # copies, so that no caller can change what a later one is served
            return [v.copy() for v in out[:len(spectra)]], out[len(spectra):]
    reduced = [_unit_scaled(A) if isinstance(A, SymTridiagonal) else _dense_tridiagonal(A.entries)
               for A in spectra]
    inputs = [_norm_input(A) for A in norms]
    members, splits, paths = [], [], []
    for T, _ in reduced:
        off_sq, glo, ghi, tol = _bisection_start(T)
        edges = [0, *(np.flatnonzero(off_sq == 0.0) + 1).tolist(), T.n]
        splits.append(list(zip(edges, edges[1:])))
        members += [_Member(T.diag[a:b], off_sq[a:b - 1], glo, ghi, tol)
                    for a, b in splits[-1] if b - a > 1]
    for S, _ in inputs:
        off_sq, glo, ghi, tol = _bisection_start(S)
        blocks = _norm_blocks(S)
        whole = _Member(S.diag, off_sq, glo, ghi, tol, (1, S.n), (True, False))
        paths.append((blocks, off_sq, tol, whole))
        if blocks:
            (a, b), (c, d) = blocks
            members += [_Member(S.diag[a:b], off_sq[a:b - 1], glo, ghi, tol, (b - a,)),
                        _Member(S.diag[c:d], off_sq[c:d - 1], glo, ghi, tol, (1,), (True,))]
        else:
            members.append(whole)
    solved = iter(_block_eigenvalues(members) if members else ())
    values = []
    for A, (T, e), blocks in zip(spectra, reduced, splits):
        parts = [(T.diag[a:b], False) if b - a == 1 else next(solved) for a, b in blocks]
        if isinstance(A, DenseHermitian) and any(met for _, met in parts):
            values.append(_jacobi(A).values)
        else:
            vals = (parts[0][0] if len(parts) == 1
                    else np.sort(np.concatenate([v for v, _ in parts])))
            values.append(np.ldexp(vals, e))
    ends, refused = [], []
    for (S, _), (blocks, off_sq, tol, whole) in zip(inputs, paths):
        x = next(solved)[0]
        if blocks:
            xn, x1 = x[0], next(solved)[0][0]
            h = 0.5 * tol
            cnt = _sturm_counts(S.diag, off_sq, np.array([x1 - h, x1 + h, xn - h, xn + h]),
                                np.array([True, True, False, False]))
            x = (x1, xn) if cnt[0] < 1 <= cnt[1] and cnt[2] < S.n <= cnt[3] else None
        if x is None:
            refused.append(whole)
        ends.append(x)
    solved = iter(_block_eigenvalues(refused) if refused else ())
    ends = [next(solved)[0] if x is None else x for x in ends]
    return values, [finish(max(abs(float(x[0])), abs(float(x[-1]))))
                    for (_, finish), x in zip(inputs, ends)]


def spectral_norm(A) -> float:
    """Largest singular value: spectral norm for the Hermitian types,
    and sigma_1 via the Gram matrix for a general rectangular block.

    Only the extreme eigenvalues are computed: ranks 1 and n by the
    isolate-refine-certify engine of eig_tridiag (_block_eigenvalues), after
    a Householder reduction for dense input; never a full spectrum.
    Graded tridiagonals have both ranks solved on certified principal
    blocks; see _norm_blocks.  One call is the one-matrix case of
    _dense_batch.
    """
    return _dense_batch(norms=[A])[1][0]
