import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from conftest import graded_tridiagonal, random_hermitian, random_tridiagonal
from eigbounds import (DenseHermitian, SymTridiagonal, aed_example, eig_dense,
                       eig_tridiag, spectral_norm, wilkinson_plus,
                       wilkinson_split)
from eigbounds import solvers
from eigbounds.solvers import (JacobiConvergenceError, _bisect_values,
                               _distance_to_spectrum, _round_robin_pairs,
                               gerschgorin_disks, sturm_count)


def _assert_eigenpairs(T, spec):
    """Residual within 1e-12 of the norm and orthonormal columns within
    1e-12, both on the full matrix."""
    D = T.to_dense().real_array()
    V = spec.vectors
    assert np.max(np.abs(D @ V - V * spec.values)) <= 1e-12 * spectral_norm(T)
    assert np.max(np.abs(V.T @ V - np.eye(T.n))) <= 1e-12


class TestEigDense:
    def test_diagonal_matrix_exact(self):
        A = DenseHermitian.from_array(np.diag([3.0, -1.0, 2.0]))
        spec = eig_dense(A)
        assert np.allclose(spec.values, [-1.0, 2.0, 3.0], atol=1e-14)

    def test_known_2x2(self):
        # eigenvalues of [[0, 1], [1, 0]] are -1 and 1
        A = DenseHermitian.from_array([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(eig_dense(A).values, [-1.0, 1.0], atol=1e-15)

    def test_residual_and_orthogonality(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            n = int(rng.integers(2, 15))
            A = random_hermitian(rng, n, complex_entries=bool(trial % 2))
            spec = eig_dense(A, want_vectors=True)
            V = spec.vectors
            R = A.entries @ V - V * spec.values
            scale = max(spectral_norm(A), 1.0)
            assert np.max(np.abs(R)) <= 1e-12 * scale
            assert np.max(np.abs(V.conj().T @ V - np.eye(n))) <= 1e-12

    def test_eigenvalues_ascend(self):
        rng = np.random.default_rng(6)
        A = random_hermitian(rng, 12)
        vals = eig_dense(A).values
        assert np.all(np.diff(vals) >= 0)

    def test_trace_invariant(self):
        rng = np.random.default_rng(7)
        A = random_hermitian(rng, 9, complex_entries=True)
        assert np.sum(eig_dense(A).values) == pytest.approx(
            np.real(np.trace(A.entries)), abs=1e-10)


def _check_against_library(M, values_only=False):
    """eig_dense against numpy.linalg.eigvalsh (a third opinion, tests only):
    eigenvalues to 1e-13 relative, residual and orthogonality to 1e-12."""
    A = DenseHermitian.from_array(M)
    n = A.n
    ref = np.linalg.eigvalsh(M)
    norm = float(np.max(np.abs(ref)))
    spec = eig_dense(A, want_vectors=not values_only)
    assert np.max(np.abs(spec.values - ref)) <= 1e-13 * norm
    if values_only:
        return spec
    V = spec.vectors
    R = M @ V - V * spec.values
    assert np.max(np.abs(R)) <= 1e-12 * max(norm, 1.0)
    assert np.max(np.abs(V.conj().T @ V - np.eye(n))) <= 1e-12
    return spec


class TestRoundRobinJacobi:
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 10])
    def test_rounds_pair_every_index_pair_once(self, n):
        rounds = _round_robin_pairs(n)
        assert len(rounds) == n - 1 + n % 2
        seen = []
        for P, Q in rounds:
            assert np.all(P < Q)
            assert len(set(P) | set(Q)) == 2 * P.size  # disjoint planes
            seen += list(zip(P.tolist(), Q.tolist()))
        assert sorted(seen) == [(p, q) for p in range(n) for q in range(p + 1, n)]

    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 40])
    def test_random_matches_library(self, n, complex_entries):
        # odd n pads the round-robin schedule with an index that never rotates
        rng = np.random.default_rng(100 + n)
        A = random_hermitian(rng, n, complex_entries=complex_entries)
        _check_against_library(A.entries)

    def test_block_diagonal_rounds_mix_skipped_and_rotated_pairs(self):
        # cross-block pairs are exactly zero and drop out of their round
        # while the within-block pairs of the same round still rotate
        rng = np.random.default_rng(101)
        M = np.zeros((11, 11), dtype=complex)
        M[:5, :5] = random_hermitian(rng, 5, complex_entries=True).entries
        M[5:, 5:] = random_hermitian(rng, 6, complex_entries=True).entries + 3.0 * np.eye(6)
        V = _check_against_library(M).vectors
        # no rotation ever couples the blocks, so every vector stays in one
        assert np.all((V[:5] == 0).all(axis=0) | (V[5:] == 0).all(axis=0))

    def test_graded_diagonally_dominant(self):
        rng = np.random.default_rng(102)
        d = 2.0 ** -(3.0 * np.arange(12))
        G = 0.1 * rng.standard_normal((12, 12))
        M = np.diag(d) + np.sqrt(np.outer(d, d)) * (G + G.T) / 2.0 * (1 - np.eye(12))
        _check_against_library(M)

    def test_diagonal_input_needs_no_sweep(self):
        # with no sweep allowed any off-diagonal mass would raise
        A = DenseHermitian.from_array(np.diag([3.0, -1.0, 2.0, 0.5]))
        spec = eig_dense(A, want_vectors=True, max_sweeps=0)
        assert np.array_equal(spec.values, [-1.0, 0.5, 2.0, 3.0])
        assert np.array_equal(np.abs(spec.vectors), np.eye(4)[:, [1, 3, 2, 0]])

    def test_sweep_budget_exhausted_raises(self):
        rng = np.random.default_rng(103)
        with pytest.raises(JacobiConvergenceError):
            eig_dense(random_hermitian(rng, 6), max_sweeps=0)

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_values_only_returns_no_vectors(self, complex_entries):
        rng = np.random.default_rng(104)
        A = random_hermitian(rng, 9, complex_entries=complex_entries)
        spec = _check_against_library(A.entries, values_only=True)
        assert spec.vectors is None


class TestSturmAndGerschgorin:
    def test_counts_are_monotone(self):
        rng = np.random.default_rng(8)
        T = random_tridiagonal(rng, 20)
        xs = np.linspace(-50.0, 50.0, 40)
        counts = [sturm_count(T, x) for x in xs]
        assert counts == sorted(counts)

    def test_counts_bracket_spectrum(self):
        rng = np.random.default_rng(9)
        T = random_tridiagonal(rng, 15)
        disks = gerschgorin_disks(T)
        lo = min(c - r for c, r in disks)
        hi = max(c + r for c, r in disks)
        assert sturm_count(T, lo - 1e-9) == 0
        assert sturm_count(T, hi + 1e-9) == 15

    def test_disks_contain_spectrum(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(2, 25))
            T = random_tridiagonal(rng, n)
            vals = eig_tridiag(T).values
            disks = gerschgorin_disks(T)
            for lam in vals:
                assert any(abs(lam - c) <= r + 1e-12 for c, r in disks)

    def test_count_equals_rank_at_eigenvalue_midpoints(self):
        T = SymTridiagonal([2.0, 1.0, 0.0], [0.1, 0.1])
        vals = eig_tridiag(T).values
        mids = (vals[:-1] + vals[1:]) / 2.0
        for rank, m in enumerate(mids, start=1):
            assert sturm_count(T, m) == rank


class TestEigTridiag:
    def test_zero_offdiagonal_is_sorted_diagonal(self):
        T = SymTridiagonal([3.0, -1.0, 2.0], [0.0, 0.0])
        assert np.allclose(eig_tridiag(T).values, [-1.0, 2.0, 3.0], atol=1e-14)

    def test_vectors_satisfy_eigen_equation(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(3, 30))
            T = random_tridiagonal(rng, n)
            spec = eig_tridiag(T, want_vectors=True)
            D = T.to_dense().real_array()
            R = D @ spec.vectors - spec.vectors * spec.values
            assert np.max(np.abs(R)) <= 1e-12 * max(spectral_norm(T), 1.0)
            gram = spec.vectors.T @ spec.vectors
            assert np.max(np.abs(gram - np.eye(n))) <= 1e-12

    def test_cross_validates_dense_solver(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            n = int(rng.integers(2, 40))
            T = random_tridiagonal(rng, n)
            vt = eig_tridiag(T).values
            vd = eig_dense(T.to_dense()).values
            assert np.max(np.abs(vt - vd)) <= 1e-12 * max(1.0, spectral_norm(T))

    def test_close_pair_resolved(self):
        # the top two Wilkinson eigenvalues differ by ~7e-14 yet both vectors
        # must come out orthogonal
        spec = eig_tridiag(wilkinson_plus(10), want_vectors=True)
        assert abs(spec.vectors[:, -1] @ spec.vectors[:, -2]) <= 1e-10

    def test_split_halves_give_exactly_double_eigenvalues(self):
        A, _ = wilkinson_split(8)
        vals = eig_tridiag(A).values
        # decoupled mirror-image halves: the top eigenvalue appears twice
        assert abs(vals[-1] - vals[-2]) <= 1e-13


class TestSpectralNorm:
    def test_tridiagonal_matches_dense(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            T = random_tridiagonal(rng, int(rng.integers(2, 25)))
            assert spectral_norm(T) == pytest.approx(
                spectral_norm(T.to_dense()), rel=1e-11)

    def test_diagonal_is_max_abs(self):
        A = DenseHermitian.from_array(np.diag([1.0, -9.0, 4.0]))
        assert spectral_norm(A) == pytest.approx(9.0, rel=1e-12)

    def test_rectangular_matches_hermitian_dilation(self):
        rng = np.random.default_rng(14)
        B = rng.standard_normal((3, 6))
        dil = np.zeros((9, 9))
        dil[:6, 6:] = B.T
        dil[6:, :6] = B
        sigma = eig_dense(DenseHermitian.from_array(dil)).values[-1]
        assert spectral_norm(B) == pytest.approx(sigma, rel=1e-11)

    def test_zero_matrix(self):
        assert spectral_norm(DenseHermitian.zeros(4)) == 0.0


def _one_midpoint_bisection(T):
    """Bisection with one midpoint per Sturm pass: the reference that the
    subtree passes of _bisect_values must reproduce bit for bit."""
    off_sq = T.offdiag ** 2
    pivmin = solvers._pivmin(off_sq)
    glo, ghi = solvers._gersch_bounds(T)
    tol = 4.0 * solvers._EPS * max(abs(glo), abs(ghi), 1e-30)
    lo, hi = np.full(T.n, glo), np.full(T.n, ghi)
    ranks = np.arange(1, T.n + 1)
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if np.all((hi - lo) <= tol) or np.all((mid <= lo) | (mid >= hi)):
            break
        above = solvers._sturm_counts(T.diag, off_sq, mid, pivmin) >= ranks
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return np.maximum.accumulate(0.5 * (lo + hi))


def _one_row_sturm_counts(diag, off_sq, xs, pivmin):
    """The Sturm recurrence written with fresh arrays per row: the reference
    for the in-place _sturm_counts, zero-pivot behaviour included."""
    q = diag[0] - xs
    count = (q < 0.0).astype(np.int64)
    for i in range(1, diag.size):
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        q = diag[i] - xs - off_sq[i - 1] / q
        count += q < 0.0
    return count


def _depth(n):
    return max(1, int(math.log2(solvers._SHIFTS_PER_PASS / n + 1)))


# one order per subtree depth the rule picks, 10 (n = 1) down to 1
_DEPTH_ORDERS = [1, 2, 3, 5, 9, 17, 34, 69, 147, 342, 1100]


def _assert_bit_identical(T):
    got = _bisect_values(T)
    ref = _one_midpoint_bisection(T)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


class TestSubtreeBisection:
    def test_orders_cover_every_depth(self):
        assert sorted({_depth(n) for n in _DEPTH_ORDERS}) == list(range(1, 11))

    @pytest.mark.parametrize("n", _DEPTH_ORDERS)
    def test_random_bit_identical(self, n):
        rng = np.random.default_rng(300 + n)
        _assert_bit_identical(SymTridiagonal(10.0 * rng.standard_normal(n),
                                             rng.standard_normal(n - 1)))

    @pytest.mark.parametrize("n", [2, 5, 9, 17, 34, 69, 147])
    def test_graded_bit_identical(self, n):
        _assert_bit_identical(graded_tridiagonal(np.random.default_rng(400 + n), n))

    @pytest.mark.parametrize("n", range(5, 41))
    def test_wilkinson_bit_identical(self, n):
        # exactly zero pivots occur here (n = 5, 9, ...): the counts are not
        # monotone in the shift, and the replay must follow them as they are
        _assert_bit_identical(wilkinson_plus(n))
        # the split matrix has two zero couplings and double eigenvalues
        _assert_bit_identical(wilkinson_split(n)[0])

    @pytest.mark.parametrize("T", [wilkinson_plus(5), wilkinson_plus(9),
                                   wilkinson_split(6)[0],
                                   random_tridiagonal(np.random.default_rng(450), 30),
                                   wilkinson_plus(40), wilkinson_split(40)[0],
                                   random_tridiagonal(np.random.default_rng(451),
                                                      2 * solvers._STURM_ROWS + 1),
                                   aed_example(1000),
                                   SymTridiagonal([0.0, 1.0, 2.0], [1.0, 1.0]),
                                   SymTridiagonal([0.0, -1.0, -2.0], [0.0, 1.0])],
                             ids=["w5", "w9", "split6", "random30", "w40", "split40",
                                  "random-2blocks+1", "aed1000", "zero-diag",
                                  "zero-diag-and-coupling"])
    def test_sturm_counts_match_one_row_reference(self, T):
        # integer shifts on the Wilkinson matrices hit exactly zero pivots;
        # orders from 81 rows up cross row-block edges of _sturm_counts; the
        # shifts +-1e-40 make a zero diagonal a nonzero pivot below pivmin,
        # and at shift 0 a zero coupling under a zero pivot gives 0 / 0,
        # a NaN pivot with negative pivots after it
        off_sq = T.offdiag ** 2
        pivmin = solvers._pivmin(off_sq)
        xs = np.concatenate([np.arange(-12.0, 13.0), np.linspace(-12, 12, 301),
                             [-1e-40, 1e-40],
                             eigvalsh_tridiagonal(T.diag, T.offdiag)])
        got = solvers._sturm_counts(T.diag, off_sq, xs, pivmin)
        assert np.array_equal(got, _one_row_sturm_counts(T.diag, off_sq, xs, pivmin))

    @pytest.mark.parametrize("n", [1, 3, 17, 342])
    def test_diagonal_bit_identical(self, n):
        rng = np.random.default_rng(500 + n)
        _assert_bit_identical(SymTridiagonal(rng.standard_normal(n), np.zeros(n - 1)))

    @staticmethod
    def _count_passes(monkeypatch):
        calls = []
        counts = solvers._sturm_counts

        def counting(*args):
            calls.append(args[2].size)
            return counts(*args)

        monkeypatch.setattr(solvers, "_sturm_counts", counting)
        return calls

    def test_small_order_needs_few_passes(self, monkeypatch):
        rng = np.random.default_rng(600)
        T = random_tridiagonal(rng, 10)
        calls = self._count_passes(monkeypatch)
        eig_tridiag(T, want_vectors=True)
        assert len(calls) <= 10
        assert max(calls) <= solvers._SHIFTS_PER_PASS
        calls.clear()
        _one_midpoint_bisection(T)
        assert len(calls) >= 40  # one pass per bisection step

    @pytest.mark.parametrize("n", [1024, 1100])
    def test_large_order_keeps_one_step_per_pass(self, monkeypatch, n):
        T = aed_example(n)
        calls = self._count_passes(monkeypatch)
        _bisect_values(T)
        passes = len(calls)
        calls.clear()
        _one_midpoint_bisection(T)
        assert passes == len(calls)

    @pytest.mark.parametrize("n", [2, 3, 10, 57, 300, 1000])
    def test_extreme_ranks_match_full_bisection(self, n):
        # the two-rank run stops on its own intervals, so it may end up to
        # one bisection tolerance away from the full run; against scipy
        # both carry the counts' roundoff too (several tol at n = 200), so
        # that comparison uses the oracle's 1e-12 relative gate
        rng = np.random.default_rng(700 + n)
        T = aed_example(n) if n == 1000 else random_tridiagonal(rng, n)
        glo, ghi = solvers._gersch_bounds(T)
        tol = 4.0 * solvers._EPS * max(abs(glo), abs(ghi))
        ends = _bisect_values(T, ranks=(1, n))
        full = _bisect_values(T)
        ref = eigvalsh_tridiagonal(T.diag, T.offdiag)
        assert np.max(np.abs(ends - full[[0, -1]])) <= tol
        norm = float(np.max(np.abs(ref)))
        assert np.max(np.abs(ends - ref[[0, -1]])) <= 1e-12 * max(norm, 1.0)
        assert spectral_norm(T) == max(abs(ends[0]), abs(ends[1]))

    def test_empty_rank_list(self):
        T = random_tridiagonal(np.random.default_rng(710), 6)
        assert _bisect_values(T, ranks=()).shape == (0,)


def _meets_small_pivot(T, x, pivmin):
    """Whether the unguarded pivots of T - x*I, one float at a time, reach
    one with |q| < pivmin (before any guard could change the chain)."""
    q = float(T.diag[0]) - x
    for d, b in zip(T.diag[1:].tolist(), T.offdiag.tolist()):
        if abs(q) < pivmin:
            return True
        q = d - x - b * b / q
    return abs(q) < pivmin


class TestSturmKernel:
    @staticmethod
    def _record_guarded(monkeypatch):
        calls = []
        guarded = solvers._guarded_sturm_counts

        def recording(diag, off_sq, xs, pivmin):
            calls.append(xs.copy())
            return guarded(diag, off_sq, xs, pivmin)

        monkeypatch.setattr(solvers, "_guarded_sturm_counts", recording)
        return calls

    @pytest.mark.parametrize("kind", ["random", "graded"])
    def test_continuous_inputs_never_take_the_guard(self, monkeypatch, kind):
        rng = np.random.default_rng(800)
        T = (random_tridiagonal(rng, 150) if kind == "random"
             else graded_tridiagonal(rng, 150))
        calls = self._record_guarded(monkeypatch)
        eig_tridiag(T, want_vectors=True)
        spectral_norm(T)
        sturm_count(T, 0.5)
        assert calls == []

    def test_guard_gets_exactly_the_zero_pivot_shifts(self, monkeypatch):
        T = wilkinson_plus(5)
        off_sq = T.offdiag ** 2
        pivmin = solvers._pivmin(off_sq)
        xs = np.arange(-12.0, 13.0)
        hit = np.array([_meets_small_pivot(T, x, pivmin) for x in xs.tolist()])
        assert 0 < hit.sum() < xs.size
        calls = self._record_guarded(monkeypatch)
        got = solvers._sturm_counts(T.diag, off_sq, xs, pivmin)
        assert len(calls) == 1
        assert np.array_equal(calls[0], xs[hit])
        assert np.array_equal(got, _one_row_sturm_counts(T.diag, off_sq, xs, pivmin))


def _scaled(T, k):
    return SymTridiagonal(np.ldexp(T.diag, k), np.ldexp(T.offdiag, k))


class TestPowerOfTwoScaling:
    @pytest.mark.parametrize("s", [1e300, 1e-300])
    def test_out_of_range_matches_library(self, s):
        # b_i^2 overflows at 1e300 and underflows at 1e-300
        rng = np.random.default_rng(900)
        for T in (SymTridiagonal([s, 2 * s, 3 * s], [0.5 * s, 1.5 * s]),
                  SymTridiagonal(s * rng.standard_normal(20), s * rng.standard_normal(19))):
            ref = eigvalsh_tridiagonal(T.diag, T.offdiag)
            norm = float(np.max(np.abs(ref)))
            for vec in (False, True):
                vals = eig_tridiag(T, want_vectors=vec).values
                assert np.max(np.abs(vals - ref)) <= 1e-12 * norm
            assert spectral_norm(T) == pytest.approx(norm, rel=1e-12)
            mids = 0.5 * (ref[1:] + ref[:-1])
            assert [sturm_count(T, x) for x in mids] == list(range(1, T.n))
            near = np.min(np.abs(ref[:, None] - mids), axis=0)
            assert np.allclose(_distance_to_spectrum(T, mids), near, rtol=0.0,
                               atol=1e-12 * norm)

    @pytest.mark.parametrize("k", [600, -600, 900, -900])
    def test_spectrum_scales_bit_for_bit(self, k):
        rng = np.random.default_rng(910)
        # at 1e+-300 the order-3 matrix overflowed or collapsed unscaled; a
        # bisection midpoint lands on its zero pivot at d_0 = 1 at every
        # scale, so its values are wrong, and here compared only with
        # themselves
        for T in (random_tridiagonal(rng, 40), graded_tridiagonal(rng, 30),
                  aed_example(200), SymTridiagonal([1.0, 2.0, 3.0], [1.0, 1.0])):
            S = _scaled(T, k)
            vals = eig_tridiag(T).values
            assert np.array_equal(eig_tridiag(S).values, np.ldexp(vals, k))
            assert spectral_norm(S) == math.ldexp(spectral_norm(T), k)
            xs = 0.5 * (vals[1:] + vals[:-1])
            assert ([sturm_count(S, x) for x in np.ldexp(xs, k)]
                    == [sturm_count(T, x) for x in xs])

    def test_in_range_input_is_not_rescaled(self):
        T = random_tridiagonal(np.random.default_rng(920), 10)
        for k in (-499, 0, 490):
            S = _scaled(T, k)
            same, e = solvers._unit_scaled(S)
            assert same is S and e == 0


def _zero_pivot_rows(T, shifts):
    """Rows where an unguarded L D L^T pivot of T - s*I is exactly zero for
    some shift s, counted top down and bottom up."""
    rows = []
    for d, b in ((T.diag, T.offdiag), (T.diag[::-1], T.offdiag[::-1])):
        q = d[0] - shifts
        hit = [0] if (q == 0.0).any() else []
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(1, d.size):
                q = d[i] - shifts - b[i - 1] ** 2 / q
                if (q == 0.0).any():
                    hit.append(i)
        rows.append(hit)
    return rows


# integer matrices whose bisected eigenvalues are exact (or exactly hit a
# pivot): -2 = d_1 = d_3 in the first, 3 in the second
_ZERO_PIVOT_MATRICES = [
    SymTridiagonal([-2.0, 0.0, -2.0], [1.0, -1.0]),
    SymTridiagonal([-1.0, 2.0, -2.0, 1.0, 0.0, 2.0], [-2.0, 2.0, -1.0, -2.0, -1.0]),
    SymTridiagonal([2.0, 0.0, 0.0, 1.0], [-2.0, 2.0, 2.0]),
]

def _glued_wilkinson(m, copies, coupling=1e-14):
    W = wilkinson_plus(m)
    return SymTridiagonal(np.tile(W.diag, copies),
                          np.tile(np.append(W.offdiag, coupling), copies)[:-1])


_VECTOR_CASES = {
    "wilkinson10": wilkinson_plus(10),
    "wilkinson50": wilkinson_plus(50),
    "split8": wilkinson_split(8)[0],
    # copies of W+(2m+1) glued by 1e-14: clusters of values equal to
    # roundoff, whose vectors spread over the copies
    "glued-wilkinson5x6": _glued_wilkinson(5, 6),
    "glued-wilkinson3x20": _glued_wilkinson(3, 20),
    "glued-wilkinson10x20": _glued_wilkinson(10, 20),
    # 500 values within 1e-13, one cluster: the solves grow by about 100 a
    # row, and members closer than the values' error cannot all meet the
    # rounds' target
    "near-constant": SymTridiagonal(1.0 + 1e-14 * np.cos(np.arange(500.0)),
                                    1e-14 * (1.5 + np.sin(np.arange(499.0)))),
    # repeated entries, all couplings zero: every value is a block of its own
    "diagonal": SymTridiagonal([2.0, 1.0, 2.0, 2.0, 1.0, 3.0], np.zeros(5)),
    # two equal 2x2 blocks around a 1x1 block: exact doubles across splits
    "equal-blocks": SymTridiagonal([1.0, 1.0, 2.0, 1.0, 1.0], [0.5, 0.0, 0.0, 0.5]),
    "n1": SymTridiagonal([3.0], []),
    "n2": SymTridiagonal([1.0, 3.0], [0.5]),
    "n2-split": SymTridiagonal([1.0, 1.0], [0.0]),
    **{f"zero-pivot{i}": T for i, T in enumerate(_ZERO_PIVOT_MATRICES)},
}


class TestTwistedVectors:
    @pytest.mark.parametrize("name", list(_VECTOR_CASES))
    def test_residual_and_orthogonality(self, name):
        T = _VECTOR_CASES[name]
        spec = eig_tridiag(T, want_vectors=True)
        assert np.array_equal(spec.values, eig_tridiag(T).values)
        _assert_eigenpairs(T, spec)

    @pytest.mark.parametrize("T", _ZERO_PIVOT_MATRICES)
    def test_inputs_hit_an_exact_zero_pivot(self, T):
        vals = eig_tridiag(T).values
        assert any(_zero_pivot_rows(T, vals))
        assert np.max(np.abs(vals - eigvalsh_tridiagonal(T.diag, T.offdiag))) <= 1e-14

    def test_near_exact_cluster_spans_its_invariant_subspace(self):
        # the top pair of W+(101) is about 1e-30 apart and the bisected
        # values coincide: the two vectors must span the pair's subspace
        T = wilkinson_plus(50)
        spec = eig_tridiag(T, want_vectors=True)
        assert spec.values[-1] == spec.values[-2]
        U = eigh_tridiagonal(T.diag, T.offdiag)[1][:, -2:]
        top = spec.vectors[:, -2:]
        assert np.max(np.abs(top @ top.T - U @ U.T)) <= 1e-12

    def test_no_dense_fallback(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eig_tridiag fell back to eig_dense")

        monkeypatch.setattr(solvers, "eig_dense", refuse)
        for T in _VECTOR_CASES.values():
            eig_tridiag(T, want_vectors=True)
        rng = np.random.default_rng(103)  # criterion 9's generator
        for _ in range(500):
            n = int(rng.integers(2, 51))
            eig_tridiag(random_tridiagonal(rng, n), want_vectors=True)

    def test_dense_fallback_is_the_last_resort(self, monkeypatch):
        # values 1e-6 off leave every residual above target after all
        # rounds: the dense solver answers, with its own values
        calls = []
        dense = solvers.eig_dense
        bisect = solvers._bisect_values

        def counting(*args, **kwargs):
            calls.append(args[0].n)
            return dense(*args, **kwargs)

        monkeypatch.setattr(solvers, "eig_dense", counting)
        monkeypatch.setattr(solvers, "_bisect_values",
                            lambda *args, **kwargs: bisect(*args, **kwargs) + 1e-6)
        T = random_tridiagonal(np.random.default_rng(800), 12)
        spec = eig_tridiag(T, want_vectors=True)
        assert calls == [12]
        _assert_eigenpairs(T, spec)

    def test_eigenvalue_blocks_give_the_same_vectors(self, monkeypatch):
        # a pass starts at the first cluster head from a multiple of 4 on, so
        # the pairs of W+(21) stay whole and a pass holds at most 4 + 1 values
        T = wilkinson_plus(10)
        whole = eig_tridiag(T, want_vectors=True)
        widths = []
        chunk = solvers._chunk_vectors

        def recording(diag, off, shifts, clusters, *args):
            widths.append((shifts.size, clusters))
            return chunk(diag, off, shifts, clusters, *args)

        monkeypatch.setattr(solvers, "_chunk_vectors", recording)
        monkeypatch.setattr(solvers, "_BLOCK_ELEMENTS", 4 * T.n)
        parts = eig_tridiag(T, want_vectors=True)
        assert len(widths) > 1 and all(m <= 5 for m, _ in widths)
        assert any(clusters for _, clusters in widths)
        _assert_eigenpairs(T, parts)
        assert np.max(np.abs(parts.vectors - whole.vectors)) <= 1e-12

    def test_vectors_at_order_1000(self):
        # the twisted vectors overlap by up to 2e-13 here: the cleanup
        # brings them to a tenth of the orthogonality contract
        T = aed_example(1000)
        spec = eig_tridiag(T, want_vectors=True)
        _assert_eigenpairs(T, spec)
        V = spec.vectors
        assert np.max(np.abs(V.T @ V - np.eye(T.n))) <= 0.1 * solvers.TOL_ORTH
