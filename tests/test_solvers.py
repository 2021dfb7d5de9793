import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

import eigbounds.aed
from conftest import graded_tridiagonal, random_hermitian, random_tridiagonal
from eigbounds import (BlockSplit, DenseHermitian, SymTridiagonal, aed_example,
                       eig_dense, eig_tridiag, run_qr_with_aed, spectral_norm,
                       wilkinson_plus, wilkinson_split)
from eigbounds import solvers
from eigbounds.blocks import _sub_blocks
from eigbounds.solvers import (JacobiConvergenceError, _counts_within,
                               _round_robin_pairs)


def _assert_eigenpairs(T, spec):
    """Residual within 1e-12 of the norm and orthonormal columns within
    1e-12, both on the full matrix."""
    D = T.to_dense().entries
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

    @pytest.mark.parametrize("a", [
        [[2.5]], [[-3.0 + 0j]], [[2.0 ** 600]], [[-(2.0 ** -600)]],
        np.zeros((4, 4)), np.zeros((4, 4), dtype=complex),
    ])
    def test_no_rotation_gives_diagonal_and_identity(self, a):
        # Jacobi starts converged: one row, or no off-diagonal mass at all
        spec = eig_dense(DenseHermitian.from_array(a), want_vectors=True)
        assert np.array_equal(spec.values, np.diagonal(a).real)
        assert np.array_equal(spec.vectors, np.eye(len(a)))


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

    def test_diagonal_input_needs_no_sweep(self, monkeypatch):
        # with no sweep allowed any off-diagonal mass would raise
        monkeypatch.setattr(solvers, "JACOBI_MAX_SWEEPS", 0)
        A = DenseHermitian.from_array(np.diag([3.0, -1.0, 2.0, 0.5]))
        spec = eig_dense(A, want_vectors=True)
        assert np.array_equal(spec.values, [-1.0, 0.5, 2.0, 3.0])
        assert np.array_equal(np.abs(spec.vectors), np.eye(4)[:, [1, 3, 2, 0]])

    def test_sweep_budget_exhausted_raises(self, monkeypatch):
        # values alone come from the tridiagonal, so only vectors sweep
        monkeypatch.setattr(solvers, "JACOBI_MAX_SWEEPS", 0)
        rng = np.random.default_rng(103)
        with pytest.raises(JacobiConvergenceError):
            eig_dense(random_hermitian(rng, 6), want_vectors=True)

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_values_only_returns_no_vectors(self, complex_entries):
        rng = np.random.default_rng(104)
        A = random_hermitian(rng, 9, complex_entries=complex_entries)
        spec = _check_against_library(A.entries, values_only=True)
        assert spec.vectors is None


def _dense_input(seed, n, kind, complex_entries):
    """A seeded dense Hermitian array: random of order n; graded, diagonal
    2^-3i with couplings of the geometric mean of their diagonal entries'
    size; or W+(2m+1), m = n // 2, as it is (its integer entries meet exactly
    zero pivots) or rotated by a random orthogonal or unitary matrix."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return random_hermitian(rng, n, complex_entries=complex_entries).entries
    if kind == "graded":
        d = 2.0 ** -(3.0 * np.arange(n))
        G = random_hermitian(rng, n, 0.1, complex_entries).entries
        return np.diag(d) + np.sqrt(np.outer(d, d)) * G * (1 - np.eye(n))
    W = wilkinson_plus(n // 2).to_dense().entries
    if kind == "wilkinson":
        return W
    Q, _ = np.linalg.qr(random_hermitian(rng, W.shape[0],
                                         complex_entries=complex_entries).entries)
    M = Q @ W @ Q.conj().T
    return (M + M.conj().T) / 2.0


class TestDenseValues:
    """eig_dense values come from the Householder tridiagonal through the
    isolate-refine-certify engine; Jacobi answers only for vectors and for
    solves in which a Sturm count met the pivot guard."""

    @pytest.mark.parametrize("M", [
        wilkinson_plus(5).to_dense().entries,
        wilkinson_plus(9).to_dense().entries,
        SymTridiagonal([1.0, 2.0, 3.0], [1.0, 1.0]).to_dense().entries,
        np.array([[-3.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])],
        ids=["wilkinson5", "wilkinson9", "123", "zero-pivot3"])
    def test_guarded_counts_fall_back_to_jacobi(self, M):
        # the tridiagonal route alone is off by 0.92, 0.996, 0.73 and 0.73
        # here: a count on a zero pivot reads one short
        _check_against_library(M, values_only=True)

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_values_never_reach_jacobi(self, complex_entries, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eig_dense values reached Jacobi")

        monkeypatch.setattr(solvers, "_jacobi", refuse)
        rng = np.random.default_rng(120)
        for n in range(2, 41):
            A = random_hermitian(rng, n, complex_entries=complex_entries)
            _check_against_library(A.entries, values_only=True)

    @settings(derandomize=True, max_examples=80, deadline=None, database=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 30),
           st.sampled_from(["random", "graded", "wilkinson", "rotated-wilkinson"]),
           st.booleans())
    def test_jacobi_and_bisection_agree_on_graded_and_wilkinson_input(
            self, seed, n, kind, complex_entries):
        A = DenseHermitian.from_array(_dense_input(seed, n, kind, complex_entries))
        vals = eig_dense(A).values
        full = eig_dense(A, want_vectors=True).values
        assert np.max(np.abs(vals - full)) <= 1e-13 * np.max(np.abs(full))


def _engine_spy(monkeypatch):
    """The member count of each _block_eigenvalues call, and the number of
    _jacobi calls, from here on."""
    engine_calls, jacobi_calls = [], []
    engine, jacobi = solvers._block_eigenvalues, solvers._jacobi

    def engine_spy(members):
        engine_calls.append(len(members))
        return engine(members)

    def jacobi_spy(*args):
        jacobi_calls.append(args[0].n)
        return jacobi(*args)

    monkeypatch.setattr(solvers, "_block_eigenvalues", engine_spy)
    monkeypatch.setattr(solvers, "_jacobi", jacobi_spy)
    return engine_calls, jacobi_calls


def _copy(M):
    """An equal input that is another object, as the bound layer rebuilds
    its sub-blocks on every call."""
    if isinstance(M, DenseHermitian):
        return DenseHermitian.from_array(M.entries.copy())
    if isinstance(M, SymTridiagonal):
        return SymTridiagonal(M.diag.copy(), M.offdiag.copy())
    return M.copy()


class TestSolvedScope:
    """solvers._solved solves the listed spectra and norms in one engine call
    on entry; within the block _dense_batch serves a call that names only
    those bit for bit as it would solve them, finds them by value, solves a
    call that names anything else whole, and keeps nothing after the
    block."""

    @staticmethod
    def _inputs():
        rng = np.random.default_rng(2500)
        spectra = [random_hermitian(rng, 12), random_hermitian(rng, 9, complex_entries=True),
                   # its Sturm counts meet the pivot guard: redone by Jacobi
                   DenseHermitian.from_array(wilkinson_plus(5).to_dense().entries)]
        norms = [random_hermitian(rng, 7, complex_entries=True),
                 rng.standard_normal((4, 9)),
                 rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3)),
                 random_tridiagonal(rng, 15), spectra[0]]
        return spectra, norms

    def test_served_results_are_the_unscoped_ones(self, monkeypatch):
        spectra, norms = self._inputs()
        values, tops = solvers._dense_batch(spectra, norms)
        engine_calls, jacobi_calls = _engine_spy(monkeypatch)
        with solvers._solved(spectra, norms):
            assert len(engine_calls) == 1 and jacobi_calls == [11]
            copies = ([_copy(A) for A in spectra], [_copy(M) for M in norms])
            for got_values, got_tops in (solvers._dense_batch(spectra, norms),
                                         solvers._dense_batch(*copies),
                                         ([eig_dense(A).values for A in copies[0]],
                                          [spectral_norm(M) for M in copies[1]])):
                for got, ref in zip(got_values, values):
                    assert np.array_equal(got.view(np.int64), ref.view(np.int64))
                assert [float(t).hex() for t in got_tops] == [t.hex() for t in tops]
        # served from the block: no engine call and no Jacobi redo after entry
        assert len(engine_calls) == 1 and jacobi_calls == [11]

    def test_served_values_are_copies(self):
        spectra, _ = self._inputs()
        with solvers._solved(spectra[:1]):
            first = solvers._dense_batch(spectra[:1])[0][0]
            ref = first.copy()
            first[:] = 0.0
            assert np.array_equal(solvers._dense_batch(spectra[:1])[0][0], ref)

    def test_nothing_outlives_the_block(self, monkeypatch):
        spectra, norms = self._inputs()
        engine_calls, _ = _engine_spy(monkeypatch)
        with solvers._solved(spectra, norms):
            pass
        assert solvers._served.get() is None
        solvers._dense_batch(spectra[:1], norms[:1])
        assert len(engine_calls) == 2

    @staticmethod
    def _assert_same(got, ref):
        (got_values, got_tops), (values, tops) = got, ref
        assert len(got_values) == len(values)
        for v, r in zip(got_values, values):
            assert np.array_equal(v.view(np.int64), r.view(np.int64))
        assert [float(t).hex() for t in got_tops] == [t.hex() for t in tops]

    def test_an_unlisted_input_is_solved(self, monkeypatch):
        spectra, norms = self._inputs()
        ref = solvers._dense_batch(spectra[:2], norms[:2])
        engine_calls, _ = _engine_spy(monkeypatch)
        with solvers._solved(spectra[:1], norms[:1]):
            # one input is unlisted, so the call is solved whole: all four
            # inputs, one member each, in one engine call
            got = solvers._dense_batch(spectra[:2], norms[:2])
            assert engine_calls[1:] == [4]
            # the same entries as another kind of input are not listed
            solvers._dense_batch(norms=[spectra[0].entries])
            assert len(engine_calls) == 3
        self._assert_same(got, ref)

    def test_a_call_with_one_unlisted_input_is_the_unscoped_call(self, monkeypatch):
        spectra, norms = self._inputs()
        ref = solvers._dense_batch(spectra, norms)
        engine_calls, jacobi_calls = _engine_spy(monkeypatch)
        with solvers._solved(spectra, norms[1:]):
            engine_calls.clear()
            jacobi_calls.clear()
            got = solvers._dense_batch(spectra, norms)
        assert len(engine_calls) == 1 and jacobi_calls == [11]
        self._assert_same(got, ref)


class TestTridiagonalValues:
    """Several tridiagonal spectra from one engine call (_dense_batch), each
    bit for bit its eig_tridiag; cmd_wilkinson solves W+ in one call with
    the norm of a half of its split part.  A tridiagonal spectrum is
    returned as counted, never redone by Jacobi, where the same matrix in
    dense form is."""

    @pytest.mark.parametrize("n", range(5, 13))
    def test_wilkinson_pair_in_one_call(self, n, monkeypatch):
        from eigbounds import cli
        W, A = wilkinson_plus(n), wilkinson_split(n)[0]
        refs = [eig_tridiag(W).values, eig_tridiag(A).values]
        engine_calls, _ = _engine_spy(monkeypatch)
        values, tops = solvers._dense_batch([W, A])
        assert len(values) == 2 and tops == []
        for got, ref in zip(values, refs):
            assert np.array_equal(got, ref)
        assert len(engine_calls) == 1
        engine_calls.clear()
        cli.cmd_wilkinson(n)
        assert len(engine_calls) == 1

    @pytest.mark.parametrize("n", [*range(5, 14), 20, 27, 50])
    def test_wilkinson_takes_the_split_top_from_a_half_norm(self, n, monkeypatch):
        # the split part is two copies of a positive semidefinite order-n
        # block around a zero, so its top eigenvalue is that block's norm
        from eigbounds import cli
        members = []
        engine = solvers._block_eigenvalues

        def spy(mbs):
            members.extend(mbs)
            return engine(mbs)

        monkeypatch.setattr(solvers, "_block_eigenvalues", spy)
        shift = cli.cmd_wilkinson(n).records[0]["split_shift"]
        monkeypatch.undo()
        W, A = wilkinson_plus(n), wilkinson_split(n)[0]
        assert [(mb.diag.size, mb.ranks, mb.above) for mb in members] == [
            (2 * n + 1, None, None), (n, (1, n), (True, False))]
        S, e = solvers._unit_scaled(A)
        tol = math.ldexp(solvers._bisection_start(S)[3], e)
        ref = abs(eig_tridiag(W).values[-1] - eig_tridiag(A).values[-1])
        assert abs(shift - ref) <= tol

    _SPECTRA = {
        "random": random_tridiagonal(np.random.default_rng(2800), 25),
        "graded": graded_tridiagonal(np.random.default_rng(2801), 30),
        "split": SymTridiagonal(np.random.default_rng(2802).standard_normal(12),
                                [0.5, 1.0, 0.0, 2.0, 0.3, 0.0, 0.0, 1.5, 0.7, 0.0, 1.0]),
        # its Sturm counts meet the pivot guard
        "wilkinson5": wilkinson_plus(5),
    }

    def test_tridiagonal_spectra_are_eig_tridiag(self, monkeypatch):
        refs = [eig_tridiag(T).values for T in self._SPECTRA.values()]
        engine_calls, jacobi_calls = _engine_spy(monkeypatch)
        together = solvers._dense_batch(list(self._SPECTRA.values()))[0]
        alone = [solvers._dense_batch([T])[0][0] for T in self._SPECTRA.values()]
        for got, one, ref in zip(together, alone, refs):
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))
            assert np.array_equal(one.view(np.int64), ref.view(np.int64))
        assert len(engine_calls) == 1 + len(refs) and jacobi_calls == []

    def test_only_the_dense_form_is_redone_by_jacobi(self, monkeypatch):
        T = self._SPECTRA["wilkinson5"]
        _, jacobi_calls = _engine_spy(monkeypatch)
        solvers._dense_batch([T])
        assert jacobi_calls == []
        solvers._dense_batch([T.to_dense()])
        assert jacobi_calls == [T.n]


def _counts_below(T, xs):
    """Counts of eigenvalues of T strictly below each x in xs, as the solvers
    take them: on unit-scaled T (_unit_scaled), at the shifts scaled alike."""
    S, e = solvers._unit_scaled(T)
    xs = np.ldexp(np.asarray(xs, dtype=float), -e)
    return solvers._sturm_counts(S.diag, S.offdiag ** 2, xs).tolist()


class TestSturmAndGerschgorin:
    def test_counts_are_monotone(self):
        rng = np.random.default_rng(8)
        T = random_tridiagonal(rng, 20)
        xs = np.linspace(-50.0, 50.0, 40)
        counts = _counts_below(T, xs)
        assert counts == sorted(counts)

    def test_counts_bracket_spectrum(self):
        rng = np.random.default_rng(9)
        T = random_tridiagonal(rng, 15)
        lo, hi = solvers._gersch_bounds(T)
        assert _counts_below(T, [lo - 1e-9, hi + 1e-9]) == [0, 15]

    def test_disks_contain_spectrum(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(2, 25))
            T = random_tridiagonal(rng, n)
            vals = eig_tridiag(T).values
            # row i's Gerschgorin disk: centre d_i, radius |b_{i-1}| + |b_i|
            radii = np.zeros(n)
            radii[1:] += np.abs(T.offdiag)
            radii[:-1] += np.abs(T.offdiag)
            for lam in vals:
                assert np.any(np.abs(lam - T.diag) <= radii + 1e-12)

    def test_count_equals_rank_at_eigenvalue_midpoints(self):
        T = SymTridiagonal([2.0, 1.0, 0.0], [0.1, 0.1])
        vals = eig_tridiag(T).values
        mids = (vals[:-1] + vals[1:]) / 2.0
        assert _counts_below(T, mids) == [1, 2]


class TestEigTridiag:
    def test_zero_offdiagonal_is_sorted_diagonal(self):
        T = SymTridiagonal([3.0, -1.0, 2.0], [0.0, 0.0])
        assert np.allclose(eig_tridiag(T).values, [-1.0, 2.0, 3.0], atol=1e-14)

    @pytest.mark.parametrize("x", [0.0, 3.0, -(2.0 ** -600), 2.0 ** 600])
    def test_one_row(self, x):
        T = SymTridiagonal([x], [])
        spec = eig_tridiag(T, want_vectors=True)
        assert np.array_equal(spec.values, [x])
        assert np.array_equal(spec.vectors, [[1.0]])
        assert spec.vectors.dtype == np.float64
        assert np.array_equal(eig_tridiag(T).values, [x])

    def test_vectors_satisfy_eigen_equation(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(3, 30))
            T = random_tridiagonal(rng, n)
            spec = eig_tridiag(T, want_vectors=True)
            D = T.to_dense().entries
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


def _rank_deficient(rng, m, k, rank, complex_entries=False):
    a = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, k))
    if complex_entries:
        a = a + 1j * (rng.standard_normal((m, rank)) @ rng.standard_normal((rank, k)))
    return a


class TestSpectralNorm:
    def test_tridiagonal_matches_dense(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            T = random_tridiagonal(rng, int(rng.integers(2, 25)))
            assert spectral_norm(T) == pytest.approx(
                np.linalg.norm(T.to_dense().entries, 2), rel=1e-11)

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
        assert spectral_norm(DenseHermitian.from_array(np.zeros((4, 4)))) == 0.0

    @pytest.mark.parametrize("x", [0.0, 3.5, -3.5, 7.0, 1e300, -1e-300,
                                   2.0 ** -1070])
    def test_one_row_is_abs(self, x):
        assert spectral_norm(SymTridiagonal([x], [])) == abs(x)
        assert spectral_norm(DenseHermitian.from_array([[x]])) == abs(x)

    # dense and rectangular input: a Householder reduction and bisection of
    # the extreme ranks, checked against numpy (tests only)
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_hermitian_matches_library(self, complex_entries):
        rng = np.random.default_rng(31)
        for n in range(1, 41):
            A = random_hermitian(rng, n, complex_entries=complex_entries)
            ref = np.linalg.norm(A.entries, 2)
            assert spectral_norm(A) == pytest.approx(ref, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_rectangular_matches_library(self, complex_entries):
        rng = np.random.default_rng(32)
        for m, k in [(1, 1), (1, 7), (3, 6), (6, 3), (7, 1), (13, 29), (29, 13)]:
            B = rng.standard_normal((m, k))
            if complex_entries:
                B = B + 1j * rng.standard_normal((m, k))
            assert spectral_norm(B) == pytest.approx(
                np.linalg.norm(B, 2), rel=1e-13, abs=0.0)

    def test_rank_deficient_and_diagonal(self):
        rng = np.random.default_rng(33)
        for cplx in (False, True):
            for m, k in [(12, 12), (9, 20), (20, 9)]:
                B = _rank_deficient(rng, m, k, 2, cplx)
                assert spectral_norm(B) == pytest.approx(
                    np.linalg.norm(B, 2), rel=1e-13, abs=0.0)
            B = _rank_deficient(rng, 15, 15, 3, cplx)
            H = DenseHermitian.from_array(B + B.conj().T)
            assert spectral_norm(H) == pytest.approx(
                np.linalg.norm(H.entries, 2), rel=1e-13, abs=0.0)
        for d in ([0.0, 0.0, -3.5, 1e-3], [2.0, -2.0], [5.0], [0.0, 7.25, 0.0]):
            top = max(map(abs, d))
            assert spectral_norm(DenseHermitian.from_array(np.diag(d))) == pytest.approx(
                top, rel=1e-13, abs=0.0)
            assert spectral_norm(np.diag(d)) == pytest.approx(top, rel=1e-13, abs=0.0)

    def test_zero_pivot_on_the_bisection_grid(self):
        # scaled by 1/4, the Gerschgorin interval is [-1, 0] and the first
        # rank-1 subtree has a shift on d_0 = -0.75, a zero pivot
        A = np.array([[-3.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
        ref = 2.0 + math.sqrt(3.0)
        for M in (A, -A):
            assert spectral_norm(DenseHermitian.from_array(M)) == pytest.approx(
                ref, rel=1e-13, abs=0.0)
            T = SymTridiagonal(M.diagonal().copy(), np.ones(2))
            assert spectral_norm(T) == pytest.approx(ref, rel=1e-13, abs=0.0)
            assert spectral_norm(M[:, :2]) == pytest.approx(
                np.linalg.norm(M[:, :2], 2), rel=1e-13, abs=0.0)

    def test_small_integer_matrices(self):
        rng = np.random.default_rng(37)
        for n in range(1, 7):
            for _ in range(40):
                M = rng.integers(-3, 4, (n, n)).astype(float)
                H = M + M.T
                R = rng.integers(-3, 4, (n, n + 2)).astype(float)
                T = SymTridiagonal(rng.integers(-3, 4, n).astype(float),
                                   rng.integers(-2, 3, n - 1).astype(float))
                for got, ref in ((spectral_norm(DenseHermitian.from_array(H)), H),
                                 (spectral_norm(R), R),
                                 (spectral_norm(R.T), R),
                                 (spectral_norm(T), T.to_dense().entries)):
                    assert got == pytest.approx(np.linalg.norm(ref, 2), rel=1e-13,
                                                abs=1e-15)

    @pytest.mark.parametrize("k", [300, -300, 600, -600, 900, -900])
    def test_scales_bit_for_bit(self, k):
        rng = np.random.default_rng(34)
        for cplx in (False, True):
            A = random_hermitian(rng, 17, complex_entries=cplx)
            S = DenseHermitian.from_array(np.ldexp(A.entries.real, k)
                                          + 1j * np.ldexp(A.entries.imag, k))
            assert spectral_norm(S) == math.ldexp(spectral_norm(A), k)
            B = rng.standard_normal((5, 11))
            if cplx:
                B = B + 1j * rng.standard_normal((5, 11))
            for M in (B, B.T):
                scaled = np.ldexp(M.real, k) + 1j * np.ldexp(M.imag, k)
                assert spectral_norm(scaled) == math.ldexp(spectral_norm(M), k)

    def test_never_takes_a_full_spectrum(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("spectral_norm reached eig_dense")

        monkeypatch.setattr(solvers, "eig_dense", refuse)
        monkeypatch.setattr(solvers, "eig_tridiag", refuse)
        rng = np.random.default_rng(35)
        for cplx in (False, True):
            spectral_norm(random_hermitian(rng, 20, complex_entries=cplx))
            spectral_norm(_rank_deficient(rng, 6, 14, 6, cplx))
            spectral_norm(_rank_deficient(rng, 14, 6, 6, cplx))

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_householder_keeps_spectrum_and_first_row(self, complex_entries):
        rng = np.random.default_rng(36)
        for n in (1, 2, 3, 8, 25):
            A = random_hermitian(rng, n, complex_entries=complex_entries)
            B = A.entries.copy() if complex_entries else A.entries.real.copy()
            d, sub = solvers._householder_tridiagonal(B.copy())
            assert d[0] == B[0, 0].real
            if n > 1:
                assert abs(sub[0]) == pytest.approx(np.linalg.norm(B[1:, 0]), rel=1e-15)
            vals = eig_tridiag(SymTridiagonal(d, np.abs(sub))).values
            ref = eig_dense(A).values
            assert np.max(np.abs(vals - ref)) <= 1e-13 * np.linalg.norm(B, 2)


def _jittered_graded(rng, n):
    """Diagonal n, ..., 1 with jitter in [-0.25, 0.25] and couplings of size
    in [0.5, 1] and random sign: the eigenvectors of the extreme eigenvalues
    decay super-exponentially away from the two ends."""
    d = np.arange(n, 0, -1.0) + rng.uniform(-0.25, 0.25, n)
    return SymTridiagonal(d, rng.uniform(0.5, 1.0, n - 1) * rng.choice([-1.0, 1.0], n - 1))


def _library_norm(T):
    return float(np.max(np.abs(eigvalsh_tridiagonal(T.diag, T.offdiag))))


class TestNormBlock:
    """A tridiagonal's spectral norm from the principal blocks that hold its
    extreme eigenvectors (_top_block), certified on the whole matrix."""

    @staticmethod
    def _spy(monkeypatch):
        """The members of each _block_eigenvalues call, and the number of
        shifts of each _sturm_counts call, from here on."""
        engine_calls, sturm_calls = [], []
        engine, counts = solvers._block_eigenvalues, solvers._sturm_counts

        def engine_spy(members):
            engine_calls.append(members)
            return engine(members)

        def counts_spy(*args):
            sturm_calls.append(args[2].size)
            return counts(*args)

        monkeypatch.setattr(solvers, "_block_eigenvalues", engine_spy)
        monkeypatch.setattr(solvers, "_sturm_counts", counts_spy)
        return engine_calls, sturm_calls

    @pytest.mark.parametrize("n", [60, 120, 200, 500, 1000, "aed1000"])
    def test_matches_library(self, n, monkeypatch):
        T = (aed_example(1000) if n == "aed1000"
             else _jittered_graded(np.random.default_rng(1800 + n), n))
        engine_calls, _ = self._spy(monkeypatch)
        d, b = T.diag, T.offdiag
        for M in (T, SymTridiagonal(d[::-1].copy(), b[::-1].copy()),
                  SymTridiagonal(-d, b)):
            engine_calls.clear()
            norm = spectral_norm(M)
            # one engine call, no member of more than 64 rows, and none is
            # refused: from order 64 or so both ranks are solved on blocks,
            # two members of one call
            assert len(engine_calls) == 1
            assert len(engine_calls[0]) == (1 if M.n < 64 else 2)
            assert max(mb.diag.size for mb in engine_calls[0]) <= 64
            assert norm == pytest.approx(_library_norm(M), rel=1e-13, abs=0.0)
            for k in (-600, -40, 40, 600):
                S = SymTridiagonal(np.ldexp(M.diag, k), np.ldexp(M.offdiag, k))
                assert spectral_norm(S) == math.ldexp(norm, k)

    @pytest.mark.parametrize("case", ["random", "wilkinson", "householder"])
    def test_spread_eigenvectors_decline(self, case, monkeypatch):
        # one engine call with one member on every row, ranks 1 and n, and
        # no Sturm count besides the ones that call makes
        rng = np.random.default_rng(1850)
        # below 64 rows the order alone declines; above, the blocks do
        if case == "random":
            mats = [SymTridiagonal(rng.standard_normal(n), rng.standard_normal(n - 1))
                    for n in (2, 3, 5, 10, 20, 50, 100, 200) for _ in range(3)]
        elif case == "wilkinson":
            mats = [wilkinson_plus(21), wilkinson_plus(101)]
        else:
            mats = [random_hermitian(rng, n, complex_entries=c)
                    for n in (3, 12, 40, 80) for c in (False, True)]
        engine_calls, sturm_calls = self._spy(monkeypatch)
        for A in mats:
            engine_calls.clear()
            sturm_calls.clear()
            norm = spectral_norm(A)
            assert len(engine_calls) == 1
            [member] = engine_calls[0]
            assert (member.diag.size == A.n and member.ranks == (1, A.n)
                    and member.above == (True, False))
            made = len(sturm_calls)
            sturm_calls.clear()
            solvers._block_eigenvalues(engine_calls[0])
            assert made == len(sturm_calls)
            dense = A.entries if case == "householder" else A.to_dense().entries
            assert norm == pytest.approx(np.linalg.norm(dense, 2), rel=1e-13, abs=0.0)

    def test_refused_block_solves_whole(self, monkeypatch):
        # a 2-row block for lambda_n, lambda_1 or both: its value fails the
        # certificate on T, and the norm is the whole solve's, bit for bit
        T = aed_example(200)
        S, e = solvers._unit_scaled(T)
        off_sq, glo, ghi, tol = solvers._bisection_start(S)
        [(ends, _)] = solvers._block_eigenvalues(
            [solvers._Member(S.diag, off_sq, glo, ghi, tol, (1, T.n), (True, False))])
        whole = math.ldexp(max(abs(float(ends[0])), abs(float(ends[1]))), e)
        choose = solvers._top_block
        engine_calls, _ = self._spy(monkeypatch)
        for wrong in ({0, 1}, {0}, {1}):
            order = iter(range(2))      # T first, then -T
            monkeypatch.setattr(
                solvers, "_top_block",
                lambda diag, off: (0, 2) if next(order) in wrong else choose(diag, off))
            engine_calls.clear()
            assert spectral_norm(T) == whole
            # the two blocks are one call of two members, then T is solved
            # whole in a second
            assert [mb.diag.size for mb in engine_calls[-1]] == [T.n]
            assert [len(c) for c in engine_calls] == [2, 1]
            assert min(mb.diag.size for mb in engine_calls[0]) == 2

    def test_small_orders_and_zero_couplings(self, monkeypatch):
        rng = np.random.default_rng(1870)
        mats = [SymTridiagonal(rng.standard_normal(n), rng.standard_normal(n - 1))
                for n in (2, 3) for _ in range(10)]
        mats += [_jittered_graded(rng, n) for n in (2, 3)]
        mats += [wilkinson_split(n)[0] for n in (3, 10, 30)]
        # one coupling zeroed inside, at the edge of and just past each block
        G = _jittered_graded(rng, 200)
        for i in (*range(0, 26), *range(172, 199)):
            off = G.offdiag.copy()
            off[i] = 0.0
            mats.append(SymTridiagonal(G.diag, off))
        engine_calls, _ = self._spy(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for T in mats:
                engine_calls.clear()
                assert spectral_norm(T) == pytest.approx(_library_norm(T), rel=1e-13,
                                                         abs=0.0)
                # no block was refused: one call, of T or of its two blocks
                assert len(engine_calls) == 1 and len(engine_calls[0]) in (1, 2)


def _bisection_tol(T):
    glo, ghi = solvers._gersch_bounds(T)
    return 4.0 * solvers._EPS * max(abs(glo), abs(ghi))


def _one_midpoint_steps(T, ranks, steps):
    """(lo, hi) of the given ascending ranks after each of the given number
    of bisection steps from the Gerschgorin interval, one midpoint per
    Sturm pass and no stop test: the steps that a subtree pass
    (_subtree_pass) must replay bit for bit."""
    off_sq = T.offdiag ** 2
    glo, ghi = solvers._gersch_bounds(T)
    lo, hi = np.full(ranks.size, glo), np.full(ranks.size, ghi)
    out = []
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        above = solvers._sturm_counts(T.diag, off_sq, mid) >= ranks
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
        out.append((lo, hi))
    return np.array(out).transpose(1, 0, 2)


def _one_midpoint_bisection(T, ranks=None):
    """Bisection of the given ascending ranks (default all) with one midpoint
    per Sturm pass, to tol: the reference that eig_tridiag must meet within
    tol."""
    off_sq = T.offdiag ** 2
    glo, ghi = solvers._gersch_bounds(T)
    tol = _bisection_tol(T)
    ranks = np.arange(1, T.n + 1) if ranks is None else np.asarray(ranks)
    lo, hi = np.full(ranks.size, glo), np.full(ranks.size, ghi)
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if np.all((hi - lo) <= tol) or np.all((mid <= lo) | (mid >= hi)):
            break
        above = solvers._sturm_counts(T.diag, off_sq, mid) >= ranks
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return np.maximum.accumulate(0.5 * (lo + hi))


def _refined_eigenvalues(T, monkeypatch):
    """eig_tridiag(T).values, and the ranks whose value came from Laguerre's
    iteration and passed the certificate (the rest came from bisection)."""
    found = []
    laguerre = solvers._laguerre

    def recording(diag, off_sq, ranks, x, hi, tol):
        out = laguerre(diag, off_sq, ranks, x, hi, tol)
        found.extend(out.tolist())
        return out

    monkeypatch.setattr(solvers, "_laguerre", recording)
    vals = eig_tridiag(T).values
    monkeypatch.undo()
    e = solvers._unit_scaled(T)[1]
    return vals, np.flatnonzero(np.isin(vals, np.ldexp(found, e))) + 1


def _assert_certified(T, vals, ranks):
    """The Sturm counts at v - tol/2 and v + tol/2 are below and at least
    the rank of each value v of the given ranks."""
    half = 0.5 * _bisection_tol(T)
    v = vals[ranks - 1]
    off_sq = T.offdiag ** 2
    assert np.all(solvers._sturm_counts(T.diag, off_sq, v - half) < ranks)
    assert np.all(solvers._sturm_counts(T.diag, off_sq, v + half) >= ranks)


def _one_row_sturm_counts(diag, off_sq, xs):
    """The Sturm recurrence written with fresh arrays per row: the reference
    for the in-place _sturm_counts, zero-pivot behaviour included."""
    pivmin = solvers._PIVMIN
    q = diag[0] - xs
    count = (q < 0.0).astype(np.int64)
    for i in range(1, diag.size):
        q = np.where(np.abs(q) < pivmin, -pivmin, q)
        q = diag[i] - xs - off_sq[i - 1] / q
        count += q < 0.0
    return count


def _depth(n):
    return max(1, int(math.log2(solvers._SHIFTS_PER_MEMBER / n + 1)))


# the least order of each subtree depth the rule picks, 8 (n = 1) down to 1
# (1, 2, 3, 5, 9, 18, 37, 86), and further orders up to 1100, across the
# row-block edges of the Sturm counts
_DEPTH_ORDERS = [1, 2, 3, 5, 9, 17, 18, 34, 37, 69, 86, 147, 342, 1100]


def _assert_bit_identical(T, monkeypatch):
    """One subtree pass of all ranks and of every other rank, from the
    Gerschgorin interval, replays its L steps as the one-midpoint reference
    takes them, bit for bit, whether each rank has an interval of its own
    or all share one; eig_tridiag, which refines isolated eigenvalues by
    Laguerre's iteration, meets the reference within tol, and each of its
    refined values passes the certificate."""
    off_sq, glo, ghi, _ = solvers._bisection_start(T)
    for ranks in (np.arange(1, T.n + 1), np.arange(1, T.n + 1, 2)):
        m = ranks.size
        for rows in (np.arange(m), np.zeros(m, dtype=np.intp)):
            u = int(rows[-1]) + 1
            L = _depth(u)
            grid, _, path, span, _ = solvers._subtree_pass(
                T.diag, off_sq, ranks, rows, np.full(u, glo), np.full(u, ghi),
                np.zeros(u, dtype=np.int64), np.full(u, T.n), np.zeros(u, dtype=bool),
                [(0, u, L)])
            assert path.shape[0] == L
            spans = (1 << L) >> np.arange(1, L + 1)[:, None]
            assert np.array_equal(span, np.broadcast_to(spans[-1], (m,)))
            lo, hi = _one_midpoint_steps(T, ranks, L)
            assert np.array_equal(grid[path].view(np.int64), lo.view(np.int64))
            assert np.array_equal(grid[path + spans].view(np.int64), hi.view(np.int64))
    vals, refined = _refined_eigenvalues(T, monkeypatch)
    assert np.max(np.abs(vals - _one_midpoint_bisection(T))) <= _bisection_tol(T)
    _assert_certified(T, vals, refined)


class TestSubtreeBisection:
    def test_orders_cover_every_depth(self):
        assert sorted({_depth(n) for n in _DEPTH_ORDERS}) == list(range(1, 9))

    @pytest.mark.parametrize("n", _DEPTH_ORDERS)
    def test_random_bit_identical(self, n, monkeypatch):
        rng = np.random.default_rng(300 + n)
        _assert_bit_identical(SymTridiagonal(10.0 * rng.standard_normal(n),
                                             rng.standard_normal(n - 1)), monkeypatch)

    @pytest.mark.parametrize("n", [2, 5, 9, 17, 34, 69, 147])
    def test_graded_bit_identical(self, n, monkeypatch):
        _assert_bit_identical(graded_tridiagonal(np.random.default_rng(400 + n), n),
                              monkeypatch)

    @pytest.mark.parametrize("n", range(5, 41))
    def test_wilkinson_bit_identical(self, n, monkeypatch):
        # exactly zero pivots occur here (n = 5, 9, ...): the counts are not
        # monotone in the shift, and the replay must follow them as they are
        _assert_bit_identical(wilkinson_plus(n), monkeypatch)
        # the split matrix has two zero couplings and double eigenvalues
        _assert_bit_identical(wilkinson_split(n)[0], monkeypatch)

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
        xs = np.concatenate([np.arange(-12.0, 13.0), np.linspace(-12, 12, 301),
                             [-1e-40, 1e-40],
                             eigvalsh_tridiagonal(T.diag, T.offdiag)])
        got = solvers._sturm_counts(T.diag, off_sq, xs)
        assert np.array_equal(got, _one_row_sturm_counts(T.diag, off_sq, xs))

    @pytest.mark.parametrize("depths", [(10, 6), (3, 9), (1, 4)])
    def test_runs_of_two_depths_each_replay_their_own_steps(self, depths):
        # intervals of two depths in one pass: each rank takes its own L
        # steps as the one-midpoint reference does, bit for bit, then stays
        T = random_tridiagonal(np.random.default_rng(480), 12)
        off_sq, glo, ghi, _ = solvers._bisection_start(T)
        ranks, h = np.arange(1, T.n + 1), 5
        grid, counts, path, span, marked = solvers._subtree_pass(
            T.diag, off_sq, ranks, np.arange(T.n), np.full(T.n, glo), np.full(T.n, ghi),
            np.zeros(T.n, dtype=np.int64), np.full(T.n, T.n), np.zeros(T.n, dtype=bool),
            [(0, h, depths[0]), (h, T.n, depths[1])])
        assert path.shape[0] == max(depths) and marked.size == 0
        for part, L in ((slice(0, h), depths[0]), (slice(h, T.n), depths[1])):
            lo, hi = _one_midpoint_steps(T, ranks[part], L)
            assert np.array_equal(grid[path[:L, part]], lo)
            assert np.all(path[L:, part] == path[L - 1, part])
            left = path[-1, part]
            assert np.array_equal(grid[left + span[part]], hi[-1])
            # the counts at both ends of each rank's last interval bracket it
            assert np.all(counts[left] < ranks[part])
            assert np.all(counts[left + span[part]] >= ranks[part])

    @pytest.mark.parametrize("n", [1, 3, 17, 342])
    def test_diagonal_bit_identical(self, n, monkeypatch):
        rng = np.random.default_rng(500 + n)
        _assert_bit_identical(SymTridiagonal(rng.standard_normal(n), np.zeros(n - 1)),
                              monkeypatch)

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
        assert len(calls) <= 5
        assert max(calls) <= solvers._SHIFTS_PER_PASS
        calls.clear()
        _one_midpoint_bisection(T)
        assert len(calls) >= 40  # one pass per bisection step

    def test_a_lone_interval_counts_255_shifts(self, monkeypatch):
        # depth 8 for the one Gerschgorin interval of a dense spectrum
        calls = self._count_passes(monkeypatch)
        eig_dense(random_hermitian(np.random.default_rng(620), 12))
        assert calls[0] == 255

    def test_stacked_members_keep_their_own_budget(self, monkeypatch):
        # the seven inputs of a bound-block request in one call: every count
        # takes at most 256 shifts of any one member, 255 in the first pass
        rng = np.random.default_rng(621)
        n, k = 12, 3
        A = DenseHermitian.from_array(random_hermitian(rng, n).entries
                                      + np.diag(np.arange(n) * 4.0))
        E = random_hermitian(rng, n, scale=0.02)
        blocks = _sub_blocks(A, E, BlockSplit(k))
        per_member = []
        stacked = solvers._stacked_counts

        def counting(diag, off_sq, at, xs, above, guarded):
            per_member.append(np.bincount(at).max())
            return stacked(diag, off_sq, at, xs, above, guarded)

        monkeypatch.setattr(solvers, "_stacked_counts", counting)
        engine_calls, _ = _engine_spy(monkeypatch)
        solvers._dense_batch([A, blocks.a22], [E, *blocks.norms])
        assert engine_calls == [7]
        assert per_member[0] == 255 and max(per_member) <= solvers._SHIFTS_PER_MEMBER

    @pytest.mark.parametrize("n", [1024, 1100])
    def test_large_order_needs_no_more_passes(self, monkeypatch, n):
        T = aed_example(n)
        calls = self._count_passes(monkeypatch)
        _one_midpoint_bisection(T)
        reference = len(calls)
        calls.clear()
        eig_tridiag(T)
        assert len(calls) <= reference
        assert max(calls) <= solvers._SHIFTS_PER_PASS

    @pytest.mark.parametrize("n", [2, 3, 10, 57, 300, 1000])
    def test_extreme_ranks_match_full_bisection(self, n):
        # the two-rank run (rank 1 counted from above, as spectral_norm
        # does) is refined by Laguerre's iteration, so it may end up to one
        # bisection tolerance away from the full bisection; against scipy
        # both carry the counts' roundoff too (several tol at n = 200), so
        # that comparison uses the oracle's 1e-12 relative gate
        rng = np.random.default_rng(700 + n)
        T = aed_example(n) if n == 1000 else random_tridiagonal(rng, n)
        off_sq, glo, ghi, tol = solvers._bisection_start(T)
        [(ends, _)] = solvers._block_eigenvalues(
            [solvers._Member(T.diag, off_sq, glo, ghi, tol, (1, n), (True, False))])
        full = _one_midpoint_bisection(T)
        ref = eigvalsh_tridiagonal(T.diag, T.offdiag)
        assert np.max(np.abs(ends - full[[0, -1]])) <= tol
        norm = float(np.max(np.abs(ref)))
        assert np.max(np.abs(ends - ref[[0, -1]])) <= 1e-12 * max(norm, 1.0)
        assert spectral_norm(T) == max(abs(ends[0]), abs(ends[1]))

    def test_empty_rank_list(self):
        T = random_tridiagonal(np.random.default_rng(710), 6)
        off_sq, glo, ghi, tol = solvers._bisection_start(T)
        [(vals, met)] = solvers._block_eigenvalues(
            [solvers._Member(T.diag, off_sq, glo, ghi, tol, ranks=())])
        assert vals.shape == (0,) and not met


def _member_matrix(kind, n, seed):
    """A tridiagonal of about order n (1..130) of the given kind, unit-scaled
    as the engine takes it."""
    rng = np.random.default_rng(seed)
    T = {"random": lambda: random_tridiagonal(rng, n),
         "graded": lambda: graded_tridiagonal(rng, n),
         "wilkinson": lambda: wilkinson_plus(max(1, (n - 1) // 2)),
         "split": lambda: wilkinson_split(max(2, (n - 1) // 2))[0],
         "123": lambda: SymTridiagonal([1.0, 2.0, 3.0], [1.0, 1.0]),
         "11": lambda: SymTridiagonal([1.0, 1.0], [0.5])}[kind]()
    return solvers._unit_scaled(T)[0]


@st.composite
def _members(draw):
    """1 to 6 engine members: all ranks, ranks 1 and n as a norm takes them,
    or a random subset of ranks with random counting directions."""
    out = []
    for _ in range(draw(st.integers(1, 6))):
        S = _member_matrix(draw(st.sampled_from(["random", "graded", "wilkinson", "split",
                                                 "123", "11"])),
                           draw(st.integers(1, 130)), draw(st.integers(0, 2 ** 32 - 1)))
        off_sq, glo, ghi, tol = solvers._bisection_start(S)
        ranks = draw(st.sampled_from(["all", "ends", "subset"]))
        if ranks == "all":
            out.append(solvers._Member(S.diag, off_sq, glo, ghi, tol))
        elif ranks == "ends":
            out.append(solvers._Member(S.diag, off_sq, glo, ghi, tol, (1, S.n),
                                       (True, False)))
        else:
            picked = sorted(draw(st.sets(st.integers(1, S.n), max_size=S.n)))
            above = draw(st.lists(st.booleans(), min_size=len(picked),
                                  max_size=len(picked)))
            out.append(solvers._Member(S.diag, off_sq, glo, ghi, tol, picked, above))
    return out


class TestStackedMembers:
    """Members stacked in one _block_eigenvalues call give, each, what a call
    with that member alone gives, bit for bit: values and guard flag."""

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(_members())
    def test_each_member_as_if_alone(self, members):
        stacked = solvers._block_eigenvalues(members)
        assert len(stacked) == len(members)
        for member, (vals, met) in zip(members, stacked):
            [(alone, alone_met)] = solvers._block_eigenvalues([member])
            assert np.array_equal(vals.view(np.int64), alone.view(np.int64))
            assert met == alone_met

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(st.lists(st.tuples(st.integers(1, 20), st.booleans(), st.integers(-8, 8)),
                    min_size=1, max_size=8),
           st.integers(0, 2 ** 32 - 1))
    def test_dense_inputs_stacked_as_if_alone(self, shapes, seed):
        # random dense Hermitian inputs of orders 1-20 in one _dense_batch
        # call: each spectrum is bit for bit that of a call with it alone,
        # and meets the library to the oracle's 1e-13 gate; not to tol,
        # since the certificate brackets the eigenvalue that the rounded
        # Sturm counts see, which lay up to 2.4 tol from scipy's values of
        # the same tridiagonal on 3,000 random inputs
        rng = np.random.default_rng(seed)
        inputs = [random_hermitian(rng, n, scale=2.0 ** e, complex_entries=c)
                  for n, c, e in shapes]
        together = solvers._dense_batch(inputs)[0]
        for A, got in zip(inputs, together):
            alone = solvers._dense_batch([A])[0][0]
            assert np.array_equal(got.view(np.int64), alone.view(np.int64))
            ref = np.linalg.eigvalsh(A.entries)
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_the_guard_flag_is_each_members_own(self):
        # W+(5) meets exactly zero pivots above its last row; the 3-row
        # member meets one only in its last row (a shift of 0 on its
        # decoupled last row 0), which does not count, also with the
        # padding of a longer member below it; the random member meets none
        mats = [_member_matrix("wilkinson", 11, 0),
                solvers._unit_scaled(SymTridiagonal([-0.5, 0.5, 0.0], [1.0, 0.0]))[0],
                _member_matrix("random", 40, 1)]
        members = []
        for S in mats:
            off_sq, glo, ghi, tol = solvers._bisection_start(S)
            members.append(solvers._Member(S.diag, off_sq, glo, ghi, tol))
        assert [met for _, met in solvers._block_eigenvalues(members)] == [True, False, False]
        assert [solvers._block_eigenvalues([mb])[0][1] for mb in members] == [True, False, False]

    def test_counts_in_parts_of_bounded_size(self, monkeypatch):
        # shifts of one order counted a few hundred at a time give the same
        # bits as counted all at once
        members = []
        for kind, n in (("random", 30), ("graded", 30), ("split", 21), ("random", 9)):
            S = _member_matrix(kind, n, n)
            members.append(solvers._Member(S.diag, *solvers._bisection_start(S)))
        whole = solvers._block_eigenvalues(members)
        monkeypatch.setattr(solvers, "_BLOCK_ELEMENTS", 30 * 300)
        for (vals, met), (ref, ref_met) in zip(solvers._block_eigenvalues(members), whole):
            assert np.array_equal(vals.view(np.int64), ref.view(np.int64)) and met == ref_met

    def test_members_that_share_an_interval_stay_apart(self):
        # equal intervals, tolerances and ranks: the ranks of one member must
        # not join the subtree of the other's
        members = []
        for T in (SymTridiagonal([1.1, 2.3, 3.7], [0.5, 0.7]),
                  SymTridiagonal([-1.3, 0.2, 1.9], [0.9, 0.3])):
            off_sq = T.offdiag ** 2
            members.append(solvers._Member(T.diag, off_sq, -5.0, 5.0, 1e-15))
        for mb, (vals, _) in zip(members, solvers._block_eigenvalues(members)):
            [(alone, _)] = solvers._block_eigenvalues([mb])
            assert np.array_equal(vals, alone)
            ref = eigvalsh_tridiagonal(mb.diag, np.sqrt(mb.off_sq))
            assert np.max(np.abs(vals - ref)) <= 1e-14


def _log_derivative_inputs():
    for n in (1, 2, 3, 64, 65, 129, 300):     # across the row-block edges
        rng = np.random.default_rng(900 + n)
        yield f"random{n}", SymTridiagonal(rng.standard_normal(n),
                                           rng.standard_normal(n - 1))
    yield "wilkinson40", wilkinson_plus(40)
    yield "aed1000", aed_example(1000)


class TestLogDerivatives:
    """_log_derivatives against the spectrum: f'/f = sum 1 / (x - lambda_j),
    -(f'/f)' = sum 1 / (x - lambda_j)^2 and the negative pivots count the
    eigenvalues below x, at shifts at least 1e-3 from the spectrum of the
    unit-scaled matrix (between eigenvalues and beyond both ends)."""

    @pytest.mark.parametrize("name,T", list(_log_derivative_inputs()))
    def test_matches_the_spectrum(self, name, T):
        S, _ = solvers._unit_scaled(T)
        lam = eigvalsh_tridiagonal(S.diag, S.offdiag)
        x = np.concatenate([0.5 * (lam[:-1] + lam[1:]),
                            np.linspace(lam[0] - 0.5, lam[-1] + 0.5, 101)])
        x = x[np.min(np.abs(x[:, None] - lam), axis=1) >= 1e-3]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            s1, s2, below = solvers._log_derivatives(S.diag, S.offdiag ** 2, x)
        terms = 1.0 / (x[:, None] - lam)
        # worst seen: 2.1e-12 for s1 (against sum |terms|) and 2.2e-7 for s2,
        # both on random65
        assert np.max(np.abs(s1 - terms.sum(axis=1))
                      / np.abs(terms).sum(axis=1)) <= 1e-11
        s2_ref = np.sum(terms ** 2, axis=1)
        assert np.max(np.abs(s2 - s2_ref) / s2_ref) <= 1e-6
        assert np.array_equal(below, np.sum(lam < x[:, None], axis=1))


class TestLaguerreRefinement:
    """Edge cases of the refinement in eig_tridiag: a non-finite Laguerre
    step, the smallest order, zero couplings and eigenvalues that never
    isolate.  Tier-1 runs with RuntimeWarning as an error, so a division
    outside np.errstate would fail here."""

    def test_start_on_an_eigenvalue(self, monkeypatch):
        # the Gerschgorin interval of T starts at 0.25, the lower eigenvalue
        # of the leading block, so that rank's Laguerre iteration starts on
        # it, where the last pivot is zero
        T = SymTridiagonal([0.5, 0.5, 0.9], [0.25, 0.0])
        starts = []
        laguerre = solvers._laguerre

        def recording(diag, off_sq, ranks, x, hi, tol):
            starts.extend(x.tolist())
            return laguerre(diag, off_sq, ranks, x, hi, tol)

        monkeypatch.setattr(solvers, "_laguerre", recording)
        vals = eig_tridiag(T).values
        assert 0.25 in starts
        with np.errstate(divide="ignore", invalid="ignore"):
            s1, _, _ = solvers._log_derivatives(T.diag[:2], T.offdiag[:1] ** 2,
                                                np.array([0.25]))
        assert not np.isfinite(s1[0])
        # the start itself passes the certificate, and the last row, a
        # block of its own, is its diagonal entry
        assert vals[0] == 0.25 and vals[2] == 0.9
        assert abs(vals[1] - 0.75) <= _bisection_tol(T)

    def test_diagonal_is_exact(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a diagonal matrix reached the refinement")

        monkeypatch.setattr(solvers, "_laguerre", refuse)
        d = np.array([0.5, -0.25, 0.75, 0.0, 0.5])
        assert np.array_equal(eig_tridiag(SymTridiagonal(d, np.zeros(4))).values,
                              np.sort(d))

    @pytest.mark.parametrize("diag, off", [([1.0, 3.0], [0.5]), ([0.3, 0.3], [0.7]),
                                           ([-2.0, 5.0], [-3.0])])
    def test_order_two(self, diag, off, monkeypatch):
        T = SymTridiagonal(diag, off)
        mean, half = 0.5 * (diag[0] + diag[1]), 0.5 * (diag[1] - diag[0])
        r = math.hypot(half, off[0])
        vals, refined = _refined_eigenvalues(T, monkeypatch)
        assert refined.tolist() == [1, 2]
        assert np.max(np.abs(vals - [mean - r, mean + r])) <= _bisection_tol(T)
        _assert_certified(T, vals, refined)

    def test_zero_couplings(self, monkeypatch):
        # blocks [2], [3, -1], [2.5, -0.5, 0.25] and [2]: each is solved
        # alone, so the two 2s need no telling apart
        T = SymTridiagonal([2.0, 3.0, -1.0, 2.5, -0.5, 0.25, 2.0],
                           [0.0, 0.3, 0.0, 0.2, 0.7, 0.0])
        ref = np.sort(np.concatenate([
            np.linalg.eigvalsh(T.to_dense().entries[a:b, a:b])
            for a, b in ((0, 1), (1, 3), (3, 6), (6, 7))]))
        vals, refined = _refined_eigenvalues(T, monkeypatch)
        double = np.flatnonzero(ref == 2.0) + 1
        assert np.array_equal(vals[double - 1], [2.0, 2.0])
        assert refined.tolist() == [k for k in range(1, T.n + 1) if k not in double]
        assert np.max(np.abs(vals - ref)) <= _bisection_tol(T)
        _assert_certified(T, vals, refined)

    def test_equal_blocks_agree_bit_for_bit(self, monkeypatch):
        # two copies of one block: every eigenvalue is double in T, and the
        # copies, solved alone from one interval, give the same bits
        B = random_tridiagonal(np.random.default_rng(620), 6)
        T = SymTridiagonal(np.tile(B.diag, 2), np.concatenate([B.offdiag, [0.0], B.offdiag]))
        vals, refined = _refined_eigenvalues(T, monkeypatch)
        assert refined.size == T.n
        assert np.array_equal(vals[0::2], vals[1::2])
        ref = np.linalg.eigvalsh(B.to_dense().entries)
        assert np.max(np.abs(vals[0::2] - ref)) <= _bisection_tol(T)
        _assert_certified(T, vals, refined)

    def test_double_eigenvalues_finish_by_bisection(self, monkeypatch):
        # the top pair of W+(101) is about 1e-30 apart, far below tol: the
        # counts never isolate it, and both ranks bisect to the same value
        T = wilkinson_plus(50)
        vals, refined = _refined_eigenvalues(T, monkeypatch)
        assert not np.isin([T.n - 1, T.n], refined).any()
        assert vals[-1] == vals[-2]
        assert np.max(np.abs(vals - _one_midpoint_bisection(T))) <= _bisection_tol(T)
        _assert_certified(T, vals, refined)

    @pytest.mark.parametrize("n", [4, 10, 25])
    def test_wilkinson_split(self, n, monkeypatch):
        # two zero couplings split off the middle row: the mirror-image
        # halves share every eigenvalue but are solved alone
        T = wilkinson_split(n)[0]
        tol = _bisection_tol(T)
        vals, refined = _refined_eigenvalues(T, monkeypatch)
        assert refined.size == T.n - 1
        assert np.max(np.abs(vals - _one_midpoint_bisection(T))) <= tol
        assert np.max(np.abs(vals - eigvalsh_tridiagonal(T.diag, T.offdiag))) <= tol
        _assert_certified(T, vals, refined)


class TestCertificateFailure:
    """A Laguerre iterate that fails the certificate goes back to isolation
    with its interval and the counts at its ends, and bisects to tol there;
    it is never refined again.  A stand-in for Laguerre's iteration that
    returns the upper end hi of each isolated interval fails the certificate
    for almost every rank, since the eigenvalue would have to lie within
    tol / 2 below hi."""

    @staticmethod
    def _failing_laguerre(monkeypatch):
        """Replace _laguerre by one that returns hi; records, per
        _block_eigenvalues call, [its members, its _laguerre calls]."""
        per_call = []
        block = solvers._block_eigenvalues

        def to_hi(diag, off_sq, ranks, x, hi, tol):
            per_call[-1][1] += 1
            return hi.copy()

        def counting(members):
            per_call.append([len(members), 0])
            return block(members)

        monkeypatch.setattr(solvers, "_laguerre", to_hi)
        monkeypatch.setattr(solvers, "_block_eigenvalues", counting)
        return per_call

    _INPUTS = [random_tridiagonal(np.random.default_rng(640), 30),
               graded_tridiagonal(np.random.default_rng(641), 30),
               wilkinson_split(10)[0]]

    @pytest.mark.parametrize("T", _INPUTS, ids=["random", "graded", "split10"])
    def test_failed_ranks_bisect_to_tol(self, T, monkeypatch):
        # one engine call, the two halves of split10 its two members, and
        # one Laguerre iteration in it
        per_call = self._failing_laguerre(monkeypatch)
        vals = eig_tridiag(T).values
        assert per_call == [[2 if T is self._INPUTS[2] else 1, 1]]
        assert np.max(np.abs(vals - _one_midpoint_bisection(T))) <= _bisection_tol(T)
        _assert_certified(T, vals, np.arange(1, T.n + 1))

    def test_failed_ranks_of_stacked_members_bisect_to_tol(self, monkeypatch):
        # the three inputs in one call: one Laguerre iteration for all four
        # members, and each value within tol of its own bisection
        per_call = self._failing_laguerre(monkeypatch)
        mats = [solvers._unit_scaled(T)[0] for T in self._INPUTS]
        spectra, _ = solvers._dense_batch(mats)
        assert per_call == [[4, 1]]
        for S, vals in zip(mats, spectra):
            assert np.max(np.abs(vals - _one_midpoint_bisection(S))) <= _bisection_tol(S)
            _assert_certified(S, vals, np.arange(1, S.n + 1))

    def test_the_step_cap_ends_a_double_eigenvalue(self, monkeypatch):
        # one member with an exactly double eigenvalue, which never isolates
        # (through _dense_batch the zero coupling would split it): with the
        # cap at 5 steps the call still returns, each value within the
        # width of five bisection steps of the Gerschgorin interval
        monkeypatch.setattr(solvers, "_MAX_BISECT_STEPS", 5)
        T = SymTridiagonal([2.0, 1.0, 3.0, 2.0, 1.0, 3.0], [0.5, 0.5, 0.0, 0.5, 0.5])
        off_sq, glo, ghi, tol = solvers._bisection_start(T)
        [(vals, _)] = solvers._block_eigenvalues(
            [solvers._Member(T.diag, off_sq, glo, ghi, tol)])
        ref = eigvalsh_tridiagonal(T.diag, T.offdiag)
        assert np.max(np.abs(vals - ref)) <= (ghi - glo) / 2 ** 5

    def test_guard_still_reaches_jacobi(self, monkeypatch):
        # W+(5)'s tridiagonal meets exactly zero pivots: the flag from the
        # passes and the certificate counts must still send the dense solve
        # to Jacobi
        per_call = self._failing_laguerre(monkeypatch)
        redo = []
        jacobi = solvers._jacobi

        def recording(*args, **kwargs):
            redo.append(args[0].n)
            return jacobi(*args, **kwargs)

        monkeypatch.setattr(solvers, "_jacobi", recording)
        M = wilkinson_plus(5).to_dense().entries
        _check_against_library(M, values_only=True)
        assert per_call == [[1, 1]] and redo == [11]


def _meets_small_pivot(T, x):
    """Whether the unguarded pivots of T - x*I, one float at a time, reach
    one with |q| < _PIVMIN (before any guard could change the chain)."""
    pivmin = solvers._PIVMIN
    q = float(T.diag[0]) - x
    for d, b in zip(T.diag[1:].tolist(), T.offdiag.tolist()):
        if abs(q) < pivmin:
            return True
        q = d - x - b * b / q
    return abs(q) < pivmin


class TestSturmKernel:
    @staticmethod
    def _record_guarded(monkeypatch):
        """The shifts of every guarded pivot run (_pivot_blocks with
        guard=True), one array per call."""
        calls = []
        pivot_blocks = solvers._pivot_blocks

        def recording(diag, off_sq, x, ts, guard=False):
            if guard:
                calls.append(x.copy())
            return pivot_blocks(diag, off_sq, x, ts, guard)

        monkeypatch.setattr(solvers, "_pivot_blocks", recording)
        return calls

    @pytest.mark.parametrize("kind", ["random", "graded"])
    def test_continuous_inputs_never_take_the_guard(self, monkeypatch, kind):
        rng = np.random.default_rng(800)
        T = (random_tridiagonal(rng, 150) if kind == "random"
             else graded_tridiagonal(rng, 150))
        calls = self._record_guarded(monkeypatch)
        eig_tridiag(T, want_vectors=True)
        spectral_norm(T)
        _counts_below(T, [0.5])
        assert calls == []

    def test_guard_gets_exactly_the_zero_pivot_shifts(self, monkeypatch):
        T = wilkinson_plus(5)
        off_sq = T.offdiag ** 2
        xs = np.arange(-12.0, 13.0)
        hit = np.array([_meets_small_pivot(T, x) for x in xs.tolist()])
        assert 0 < hit.sum() < xs.size
        calls = self._record_guarded(monkeypatch)
        got = solvers._sturm_counts(T.diag, off_sq, xs)
        assert len(calls) == 1
        assert np.array_equal(calls[0], xs[hit])
        assert np.array_equal(got, _one_row_sturm_counts(T.diag, off_sq, xs))


    @pytest.mark.parametrize("T", [wilkinson_plus(5),
                                   SymTridiagonal(np.array([-3.0, -2.0, -1.0]),
                                                  np.ones(2))])
    def test_counts_from_above_keep_the_extreme_ranks(self, T):
        off_sq = T.offdiag ** 2
        xs = np.arange(-12.0, 13.0, 0.25)
        lam = np.linalg.eigvalsh(T.to_dense().entries)
        xs = xs[np.min(np.abs(xs[:, None] - lam), axis=1) > 1e-9]
        assert any(_meets_small_pivot(T, x) for x in xs.tolist())
        below = solvers._sturm_counts(T.diag, off_sq, xs)
        above = solvers._sturm_counts(T.diag, off_sq, xs,
                                      np.ones(xs.size, dtype=bool))
        true = np.sum(lam < xs[:, None], axis=1)
        # rank n is decided by "count == n" from below, rank 1 by
        # "count == 0" from above; both match the true spectrum
        assert np.array_equal(below == T.n, true == T.n)
        assert np.array_equal(above == 0, true == 0)
        # from above, -T's guarded recurrence recounts at -x
        hit = np.array([_meets_small_pivot(T, x) for x in xs.tolist()])
        neg = _one_row_sturm_counts(-T.diag, off_sq, -xs[hit])
        assert np.array_equal(above[hit], T.n - neg)
        assert np.array_equal(above[~hit], below[~hit])


class TestDenseScaling:
    @pytest.mark.parametrize("k", [100, -100, 300, -300, 600, -600, 900, -900])
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_spectrum_scales_bit_for_bit(self, k, complex_entries):
        rng = np.random.default_rng(930)
        A = random_hermitian(rng, 14, complex_entries=complex_entries)
        S = DenseHermitian.from_array(np.ldexp(A.entries.real, k)
                                      + 1j * np.ldexp(A.entries.imag, k))
        assert np.array_equal(eig_dense(S).values, np.ldexp(eig_dense(A).values, k))

    def test_tiny_matrix_matches_library(self):
        # unscaled, Jacobi's rotation threshold underflowed and this matrix
        # came back with 0.70 relative error
        rng = np.random.default_rng(940)
        M = 1e-200 * random_hermitian(rng, 12).entries.real
        ref = np.linalg.eigvalsh(M)
        vals = eig_dense(DenseHermitian.from_array(M)).values
        assert np.max(np.abs(vals - ref)) <= 1e-13 * np.max(np.abs(ref))


def _scaled(T, k):
    return SymTridiagonal(np.ldexp(T.diag, k), np.ldexp(T.offdiag, k))


def _assert_scales_bit_for_bit(T, k):
    """eig_tridiag values, spectral_norm and the Sturm counts at the midpoints
    of 2^k T are those of T scaled by 2^k, bit for bit."""
    S = _scaled(T, k)
    vals = eig_tridiag(T).values
    assert np.array_equal(eig_tridiag(S).values, np.ldexp(vals, k))
    assert spectral_norm(S) == math.ldexp(spectral_norm(T), k)
    xs = 0.5 * (vals[1:] + vals[:-1])
    assert _counts_below(S, np.ldexp(xs, k)) == _counts_below(T, xs)


# 0, or |x| in [2^-20, 1]: times any 2^k, |k| <= 990, every entry stays normal
_unit_entries = st.one_of(
    st.just(0.0),
    st.builds(lambda x, neg: -x if neg else x,
              st.floats(2.0 ** -20, 1.0), st.booleans()))


class TestPowerOfTwoScaling:
    @pytest.mark.parametrize("s", [1e300, 1e-300, 1e28, 1e-28, 1e31, 1e-31,
                                   1e-50, 1e-140, 1e100, 1e150])
    def test_out_of_range_matches_library(self, s, monkeypatch):
        # b_i^2 overflows at 1e300 and underflows at 1e-300; from 1e-28
        # down and 1e28 up an absolute pivot guard or tolerance of unit
        # scale would meet the pivots and interval widths
        def refuse(*args, **kwargs):
            raise AssertionError("eig_tridiag fell back to eig_dense")

        monkeypatch.setattr(solvers, "eig_dense", refuse)
        rng = np.random.default_rng(900)
        for T in (SymTridiagonal([s, 2 * s, 3 * s], [0.5 * s, 1.5 * s]),
                  SymTridiagonal(s * rng.standard_normal(20), s * rng.standard_normal(19))):
            ref = eigvalsh_tridiagonal(T.diag, T.offdiag)
            norm = float(np.max(np.abs(ref)))
            vals = eig_tridiag(T).values
            assert np.max(np.abs(vals - ref)) <= 1e-12 * norm
            assert np.array_equal(eig_tridiag(T, want_vectors=True).values, vals)
            assert spectral_norm(T) == pytest.approx(norm, rel=1e-12)
            mids = 0.5 * (ref[1:] + ref[:-1])
            assert _counts_below(T, mids) == list(range(1, T.n))
            # around each midpoint, an interval short of both neighbours and
            # one that reaches past them; the counts equal the library's and
            # do not change, bit for bit, when everything is scaled to unit
            # size by a power of two
            near = np.min(np.abs(ref[:, None] - mids), axis=0)
            k = -math.frexp(s)[1]
            for radii in (0.5 * near, 1.5 * near):
                counts = _counts_within(T, mids, radii)
                lo, hi = mids - radii, mids + radii
                expected = (np.searchsorted(ref, hi, side="left")
                            - np.searchsorted(ref, lo, side="right"))
                assert np.array_equal(counts, expected)
                assert np.array_equal(_counts_within(_scaled(T, k), np.ldexp(mids, k),
                                                     np.ldexp(radii, k)), counts)

    @pytest.mark.parametrize("k", [100, -100, 300, -300, 600, -600, 900, -900])
    def test_spectrum_scales_bit_for_bit(self, k):
        rng = np.random.default_rng(910)
        # at 1e+-300 the order-3 matrix overflowed or collapsed unscaled; a
        # bisection midpoint lands on its zero pivot at d_0 = 1 at every
        # scale, so its values are wrong, and here compared only with
        # themselves
        for T in (random_tridiagonal(rng, 40), graded_tridiagonal(rng, 30),
                  aed_example(200), SymTridiagonal([1.0, 2.0, 3.0], [1.0, 1.0])):
            _assert_scales_bit_for_bit(T, k)

    def test_every_input_is_unit_scaled_exactly(self):
        T = random_tridiagonal(np.random.default_rng(920), 10)
        for k in (-499, 0, 490):
            S = _scaled(T, k)
            U, e = solvers._unit_scaled(S)
            top = max(np.max(np.abs(U.diag)), np.max(np.abs(U.offdiag)))
            assert 0.5 <= top < 1.0
            assert np.array_equal(np.ldexp(U.diag, e), S.diag)
            assert np.array_equal(np.ldexp(U.offdiag, e), S.offdiag)

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(
               st.lists(_unit_entries, min_size=n, max_size=n),
               st.lists(_unit_entries, min_size=n - 1, max_size=n - 1))),
           st.integers(-990, 990))
    def test_results_scale_by_any_power_of_two(self, entries, k):
        _assert_scales_bit_for_bit(SymTridiagonal(*entries), k)


def _seeded_tridiagonal(seed, n, graded):
    """Entries from a seeded numpy generator: continuous, so that no shift
    the solvers count at meets an exactly zero pivot (almost surely)."""
    rng = np.random.default_rng(seed)
    return rng, (graded_tridiagonal(rng, n) if graded else random_tridiagonal(rng, n))


class TestMetamorphicRelations:
    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.booleans())
    def test_shift_moves_the_spectrum(self, seed, n, graded):
        rng, T = _seeded_tridiagonal(seed, n, graded)
        s = rng.uniform(-20.0, 20.0)
        S = SymTridiagonal(T.diag + s, T.offdiag)
        moved = eig_tridiag(S).values - s
        assert np.max(np.abs(moved - eig_tridiag(T).values)) <= (
            _bisection_tol(T) + _bisection_tol(S))

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 40), st.booleans())
    def test_reversal_and_sign_flips_keep_the_spectrum(self, seed, n, graded):
        rng, T = _seeded_tridiagonal(seed, n, graded)
        vals = eig_tridiag(T).values
        signs = rng.choice([-1.0, 1.0], n - 1)
        # only b^2 and |b| reach the values, so a sign flip changes no bit
        assert np.array_equal(eig_tridiag(SymTridiagonal(T.diag, signs * T.offdiag)).values,
                              vals)
        R = SymTridiagonal(T.diag[::-1].copy(), T.offdiag[::-1].copy())
        assert np.max(np.abs(eig_tridiag(R).values - vals)) <= _bisection_tol(T)


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


def _mp_first_entry_log10(T, lam, dps=250):
    """log10 |v(1)| of the unit eigenvector of T at lam, from a twisted
    factorisation T - lam I = N_r G_r N_r^T in dps-digit arithmetic (tests
    only): z_r = 1, z_i = -b_i z_{i+1} / D+_i above the twist row r and
    z_i = -b_{i-1} z_{i-1} / D-_i below it, with r where |gamma_r| is least."""
    with mpmath.workdps(dps):
        d = [mpmath.mpf(float(x)) - mpmath.mpf(float(lam)) for x in T.diag]
        b = [mpmath.mpf(float(x)) for x in T.offdiag]
        n = len(d)
        dp, dm = d[:], d[:]
        for i in range(1, n):
            dp[i] = d[i] - b[i - 1] ** 2 / dp[i - 1]
        for i in range(n - 2, -1, -1):
            dm[i] = d[i] - b[i] ** 2 / dm[i + 1]
        r = min(range(n), key=lambda i: abs(dp[i] + dm[i] - d[i]))
        z = [mpmath.mpf(0)] * n
        z[r] = mpmath.mpf(1)
        for i in range(r - 1, -1, -1):
            z[i] = -b[i] * z[i + 1] / dp[i]
        for i in range(r + 1, n):
            z[i] = -b[i - 1] * z[i - 1] / dm[i]
        norm = mpmath.sqrt(mpmath.fsum(x * x for x in z))
        return float(mpmath.log10(abs(z[0]) / norm))


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

    @pytest.mark.parametrize("n", [2, 3])
    def test_zero_matrix_needs_no_dense_fallback(self, n, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eig_tridiag fell back to eig_dense")

        monkeypatch.setattr(solvers, "eig_dense", refuse)
        spec = eig_tridiag(SymTridiagonal(np.zeros(n), np.zeros(n - 1)),
                           want_vectors=True)
        assert np.array_equal(spec.values, np.zeros(n))
        assert np.array_equal(spec.vectors, np.eye(n))

    def test_dense_fallback_is_the_last_resort(self, monkeypatch):
        # values 1e-6 off leave every residual above target after all
        # rounds: the dense solver answers, with its own values
        calls = []
        dense = solvers.eig_dense
        batch = solvers._dense_batch

        def counting(*args, **kwargs):
            calls.append(args[0].n)
            return dense(*args, **kwargs)

        def shifted(spectra=(), norms=()):
            values, tops = batch(spectra, norms)
            return [v + 1e-6 for v in values], tops

        monkeypatch.setattr(solvers, "eig_dense", counting)
        monkeypatch.setattr(solvers, "_dense_batch", shifted)
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

    def test_tiny_first_row_entries_keep_their_relative_accuracy(self, monkeypatch):
        # pass 7 of an AED run on the graded fixture: the twisted vectors
        # overlap by about 1e-13, so Newton-Schulz runs, and the smallest
        # first-row entries (the spike over the coupling) are near 1e-160;
        # clearing overlaps between columns that are orthogonal to roundoff
        # already would mix in entries about 29 orders larger
        windows = []
        solve = eigbounds.aed.eig_tridiag

        def capturing(W, want_vectors=False):
            windows.append(W)
            return solve(W, want_vectors)

        monkeypatch.setattr(eigbounds.aed, "eig_tridiag", capturing)
        run_qr_with_aed(aed_example(1000), 100)
        W = windows[7]
        assert W.n == 100
        spec = eig_tridiag(W, want_vectors=True)
        first = np.abs(spec.vectors[0])
        for i in np.argsort(first)[:3]:
            assert np.log10(first[i]) == pytest.approx(
                _mp_first_entry_log10(W, spec.values[i]), abs=0.05)
