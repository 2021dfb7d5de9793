import numpy as np
import pytest

from conftest import random_hermitian, random_tridiagonal
from eigbounds import (DenseHermitian, SymTridiagonal, eig_dense, eig_tridiag,
                       gerschgorin_disks, spectral_norm, sturm_count,
                       wilkinson_plus, wilkinson_split)
from eigbounds.solvers import JacobiConvergenceError, _round_robin_pairs


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
