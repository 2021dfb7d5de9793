import numpy as np
import pytest

from scipy.linalg import eigh_tridiagonal

import eigbounds.aed
import eigbounds.solvers
from conftest import random_tridiagonal
from eigbounds import (SymTridiagonal, aed_example, aed_transform,
                       deflation_decide, deflation_soundness_check,
                       eig_tridiag, qr_sweep, run_qr_with_aed, spectral_norm,
                       wilkinson_plus)
from eigbounds.solvers import _distance_to_spectrum, _gersch_bounds


def graded_example(rng, n, b_scale=0.05):
    return SymTridiagonal(np.arange(n, 0, -1.0) * 2.0,
                          b_scale * rng.uniform(0.5, 1.0, n - 1))


class TestAedTransform:
    def test_spike_norm_equals_coupling(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            n = int(rng.integers(5, 40))
            k = int(rng.integers(2, n))
            T = random_tridiagonal(rng, n)
            out = aed_transform(T, k)
            assert np.linalg.norm(out.spike) == pytest.approx(
                abs(T.offdiag[n - k - 1]), abs=1e-13)

    def test_window_values_descend_in_magnitude(self):
        rng = np.random.default_rng(31)
        T = random_tridiagonal(rng, 12)
        out = aed_transform(T, 6)
        mags = np.abs(out.values)
        assert np.all(np.diff(mags) <= 1e-14)

    def test_values_match_window_oracle(self):
        rng = np.random.default_rng(32)
        T = random_tridiagonal(rng, 15)
        out = aed_transform(T, 5)
        assert np.allclose(np.sort(out.values),
                           eig_tridiag(T.window(5)).values, atol=1e-12)

    def test_spike_matches_library_on_the_graded_fixture(self):
        # a third opinion (tests only): |t_i| = |b_{n-k} V(1, i)| to 1e-8 |b_{n-k}|
        T = aed_example(1000)
        out = aed_transform(T, 100)
        W = T.window(100)
        vals, V = eigh_tridiagonal(W.diag, W.offdiag)
        order = np.argsort(out.values, kind="stable")
        assert np.max(np.abs(out.values[order] - vals)) <= 1e-12 * vals[-1]
        ref = np.abs(out.coupling * V[0, :])
        assert np.max(np.abs(np.abs(out.spike[order]) - ref)) <= 1e-8 * abs(out.coupling)

    def test_spike_is_coupling_times_first_basis_row(self):
        rng = np.random.default_rng(33)
        T = random_tridiagonal(rng, 9)
        out = aed_transform(T, 4)
        spec = eig_tridiag(T.window(4), want_vectors=True)
        order = np.argsort(-np.abs(spec.values), kind="stable")
        assert np.allclose(out.spike, T.offdiag[4] * spec.vectors[0, order],
                           atol=1e-14)


class TestDeflationDecide:
    def test_threshold_splits_flags(self):
        rng = np.random.default_rng(34)
        T = graded_example(rng, 20, b_scale=1e-4)
        scale = spectral_norm(T)
        out = deflation_decide(aed_transform(T, 8), tol=1e-6, scale=scale)
        flags = np.abs(out.spike) <= 1e-6 * scale
        assert np.array_equal(out.deflatable, flags)
        assert out.deflation_count == int(np.sum(flags))

    def test_idempotent(self):
        rng = np.random.default_rng(35)
        T = graded_example(rng, 12)
        scale = spectral_norm(T)
        once = deflation_decide(aed_transform(T, 5), 1e-8, scale)
        twice = deflation_decide(once, 1e-8, scale)
        assert np.array_equal(once.deflatable, twice.deflatable)

    def test_invalid_tolerance_rejected(self):
        rng = np.random.default_rng(36)
        out = aed_transform(graded_example(rng, 8), 3)
        with pytest.raises(ValueError):
            deflation_decide(out, 0.0, 1.0)

    def test_deflated_values_near_full_spectrum(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            T = graded_example(rng, 25, b_scale=1e-3)
            scale = spectral_norm(T)
            out = deflation_decide(aed_transform(T, 10), 1e-8, scale)
            if out.deflation_count == 0:
                continue
            observed = deflation_soundness_check(T, out)
            predicted = np.abs(out.spike[out.deflatable])
            assert np.all(observed <= predicted + 1e-12 * scale)


def bisection_tol(T):
    glo, ghi = _gersch_bounds(T)
    return 4.0 * np.finfo(float).eps * max(abs(glo), abs(ghi))


def full_spectrum_distance(T, xs):
    full = eig_tridiag(T).values
    return np.array([float(np.min(np.abs(full - x))) for x in xs])


class TestDeflationSoundnessCheck:
    """The check bisects only the ranks c and c + 1 next to each value."""

    def test_matches_full_spectrum_distance(self):
        rng = np.random.default_rng(43)
        for trial in range(20):
            n = int(rng.integers(100, 601))
            k = int(rng.choice([10, 40, 90]))
            T = (graded_example(rng, n, b_scale=float(rng.choice([1e-3, 0.3])))
                 if trial % 2 else random_tridiagonal(rng, n))
            xs = aed_transform(T, k).values
            observed = _distance_to_spectrum(T, xs)
            ref = full_spectrum_distance(T, xs)
            assert np.max(np.abs(observed - ref)) <= bisection_tol(T)

    def test_values_outside_and_between_eigenvalues(self):
        # ranks c = 0 and c = n (clipped to 1 and n), and a point on each
        # side of the middle of a pair 4e-8 apart
        T = wilkinson_plus(7)
        full = eig_tridiag(T).values
        glo, ghi = _gersch_bounds(T)
        gap = full[-1] - full[-2]
        xs = np.array([glo - 1.0, ghi + 1.0, full[-2] + 0.3 * gap,
                       full[-2] + 0.7 * gap])
        observed = _distance_to_spectrum(T, xs)
        expected = [full[0] - xs[0], xs[1] - full[-1], 0.3 * gap, 0.3 * gap]
        assert np.allclose(observed, expected, rtol=0.0,
                           atol=2 * bisection_tol(T))

    def test_never_asks_for_the_full_spectrum(self, monkeypatch):
        rng = np.random.default_rng(44)
        T = graded_example(rng, 200, b_scale=1e-3)
        out = deflation_decide(aed_transform(T, 40), 1e-8, spectral_norm(T))
        assert out.deflation_count > 0
        ref = full_spectrum_distance(T, out.values[out.deflatable])

        def no_full_spectrum(*args, **kwargs):
            raise AssertionError("full spectrum requested")

        monkeypatch.setattr(eigbounds.aed, "eig_tridiag", no_full_spectrum)
        observed = deflation_soundness_check(T, out)
        assert observed.shape == (out.deflation_count,)
        assert np.max(np.abs(observed - ref)) <= bisection_tol(T)

    def test_nothing_deflated_makes_no_sturm_call(self, monkeypatch):
        rng = np.random.default_rng(45)
        T = graded_example(rng, 30)
        out = aed_transform(T, 10)
        assert out.deflation_count == 0

        def no_sturm(*args, **kwargs):
            raise AssertionError("Sturm count requested")

        monkeypatch.setattr(eigbounds.solvers, "_sturm_counts", no_sturm)
        assert deflation_soundness_check(T, out).shape == (0,)


class TestQrSweep:
    def test_preserves_spectrum(self):
        rng = np.random.default_rng(38)
        for _ in range(10):
            n = int(rng.integers(3, 25))
            T = random_tridiagonal(rng, n)
            before = eig_tridiag(T).values
            after = eig_tridiag(qr_sweep(T)).values
            assert np.max(np.abs(before - after)) <= 1e-11 * max(
                1.0, spectral_norm(T))

    def test_drives_last_offdiagonal_down(self):
        rng = np.random.default_rng(39)
        T = graded_example(rng, 10, b_scale=0.2)
        for _ in range(8):
            T = qr_sweep(T)
        assert abs(T.offdiag[-1]) < 1e-10


class TestRunQrWithAed:
    def test_matches_oracle_on_random_graded(self):
        rng = np.random.default_rng(40)
        for _ in range(5):
            T = graded_example(rng, 20, b_scale=0.1)
            spec, stats = run_qr_with_aed(T, window=6)
            assert stats.converged
            ref = eig_tridiag(T).values
            assert np.max(np.abs(spec.values - ref)) <= 1e-12 * max(
                1.0, spectral_norm(T))

    def test_handles_wilkinson_close_pairs(self):
        T = wilkinson_plus(6)
        spec, stats = run_qr_with_aed(T, window=4)
        assert stats.converged
        ref = eig_tridiag(T).values
        assert np.max(np.abs(spec.values - ref)) <= 1e-11 * spectral_norm(T)

    def test_aed_deflations_counted(self):
        rng = np.random.default_rng(41)
        T = graded_example(rng, 30, b_scale=1e-5)
        spec, stats = run_qr_with_aed(T, window=10, tol=1e-12)
        assert stats.first_pass_aed_count > 0
        assert stats.total_aed >= stats.first_pass_aed_count
        ref = eig_tridiag(T).values
        assert np.max(np.abs(spec.values - ref)) <= 1e-10 * spectral_norm(T)

    @pytest.mark.parametrize("window", [0, -5])
    def test_window_below_one_raises(self, window):
        with pytest.raises(ValueError, match="window"):
            run_qr_with_aed(aed_example(30), window=window)
