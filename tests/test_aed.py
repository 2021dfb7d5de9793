import math

import numpy as np
import pytest

from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

import eigbounds.aed
import eigbounds.cli
import eigbounds.solvers
from conftest import random_tridiagonal
from eigbounds import (AedOutcome, Spectrum, SymTridiagonal, aed_example,
                       aed_transform, deflation_soundness_check, eig_tridiag,
                       qr_sweep, run_qr_with_aed, spectral_norm, wilkinson_plus)
from eigbounds.solvers import _gersch_bounds


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
            out = aed_transform(T, k, 1e-16, spectral_norm(T))
            assert np.linalg.norm(out.spike) == pytest.approx(
                abs(T.offdiag[n - k - 1]), abs=1e-13)

    def test_window_values_descend_in_magnitude(self):
        rng = np.random.default_rng(31)
        T = random_tridiagonal(rng, 12)
        out = aed_transform(T, 6, 1e-16, spectral_norm(T))
        mags = np.abs(out.values)
        assert np.all(np.diff(mags) <= 1e-14)

    def test_values_match_window_oracle(self):
        rng = np.random.default_rng(32)
        T = random_tridiagonal(rng, 15)
        out = aed_transform(T, 5, 1e-16, spectral_norm(T))
        assert np.allclose(np.sort(out.values),
                           eig_tridiag(T.window(5)).values, atol=1e-12)

    def test_spike_matches_library_on_the_graded_fixture(self):
        # a third opinion (tests only): |t_i| = |b_{n-k} V(1, i)| to 1e-8 |b_{n-k}|
        T = aed_example(1000)
        out = aed_transform(T, 100, 1e-16, spectral_norm(T))
        coupling = T.offdiag[T.n - 101]
        W = T.window(100)
        vals, V = eigh_tridiagonal(W.diag, W.offdiag)
        order = np.argsort(out.values, kind="stable")
        assert np.max(np.abs(out.values[order] - vals)) <= 1e-12 * vals[-1]
        ref = np.abs(coupling * V[0, :])
        assert np.max(np.abs(np.abs(out.spike[order]) - ref)) <= 1e-8 * abs(coupling)

    def test_spike_is_coupling_times_first_basis_row(self):
        rng = np.random.default_rng(33)
        T = random_tridiagonal(rng, 9)
        out = aed_transform(T, 4, 1e-16, spectral_norm(T))
        spec = eig_tridiag(T.window(4), want_vectors=True)
        order = np.argsort(-np.abs(spec.values), kind="stable")
        assert np.allclose(out.spike, T.offdiag[4] * spec.vectors[0, order],
                           atol=1e-14)


class TestDeflationDecide:
    """The deflation flags aed_transform sets from tol and scale."""

    def test_threshold_splits_flags(self):
        rng = np.random.default_rng(34)
        T = graded_example(rng, 20, b_scale=1e-4)
        scale = spectral_norm(T)
        out = aed_transform(T, 8, tol=1e-6, scale=scale)
        flags = np.abs(out.spike) <= 1e-6 * scale
        assert np.array_equal(out.deflatable, flags)
        assert out.deflation_count == int(np.sum(flags))

    def test_invalid_tolerance_rejected(self):
        rng = np.random.default_rng(36)
        T = graded_example(rng, 8)
        with pytest.raises(ValueError):
            aed_transform(T, 3, 0.0, 1.0)
        with pytest.raises(ValueError):
            aed_transform(T, 3, 1e-16, -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected(self, bad, monkeypatch):
        # NaN passes every <= 0 test, and a driver with a NaN tol never
        # deflates: a few sweeps, should it get through
        monkeypatch.setattr(eigbounds.aed, "_MAX_SWEEPS", 5)
        T = graded_example(np.random.default_rng(36), 8)
        with pytest.raises(ValueError):
            aed_transform(T, 3, bad, 1.0)
        with pytest.raises(ValueError):
            aed_transform(T, 3, 1e-16, bad)
        with pytest.raises(ValueError):
            run_qr_with_aed(T, 3, tol=bad)

    @pytest.mark.parametrize("k", [0, 8, -1])
    def test_window_size_out_of_range_rejected(self, k):
        T = graded_example(np.random.default_rng(37), 8)
        with pytest.raises(ValueError, match="window size"):
            aed_transform(T, k, 1e-16, 1.0)

    def test_scale_zero_deflates_only_exact_zeros(self):
        # scale 0 is the norm of the zero matrix, whose spike is all zero
        out = aed_transform(SymTridiagonal(np.zeros(4), np.zeros(3)), 2, 1e-16, 0.0)
        assert out.deflation_count == 2
        rng = np.random.default_rng(38)
        d, e = rng.standard_normal(12), rng.uniform(0.5, 1.0, 11)
        out = aed_transform(SymTridiagonal(d, e), 5, 1e-16, 0.0)
        assert out.deflation_count == 0
        e[6] = 0.0                  # the coupling above the window
        out = aed_transform(SymTridiagonal(d, e), 5, 1e-16, 0.0)
        assert out.deflation_count == 5

    def test_deflated_values_near_full_spectrum(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            T = graded_example(rng, 25, b_scale=1e-3)
            scale = spectral_norm(T)
            out = aed_transform(T, 10, 1e-8, scale)
            if out.deflation_count == 0:
                continue
            slack = 1e-12 * scale
            counts = deflation_soundness_check(T, out, slack)
            assert np.all(counts >= 1)
            # the library's spectrum has an eigenvalue within each radius too
            full = eigvalsh_tridiagonal(T.diag, T.offdiag)
            mus = out.values[out.deflatable]
            radii = np.abs(out.spike[out.deflatable]) + slack
            assert np.all(np.min(np.abs(full[:, None] - mus), axis=0) <= radii)


def library_counts(T, mus, radii):
    """(counts, clear): eigenvalues of T by scipy strictly inside each
    (mu - r, mu + r), and whether both ends lie more than 1e-12 ||T|| from
    every eigenvalue, so that roundoff cannot move the count."""
    full = eigvalsh_tridiagonal(T.diag, T.offdiag)
    lo, hi = mus - radii, mus + radii
    counts = (np.searchsorted(full, hi, side="left")
              - np.searchsorted(full, lo, side="right"))
    margin = 1e-12 * np.max(np.abs(full))
    clear = ((np.min(np.abs(full[:, None] - lo), axis=0) > margin)
             & (np.min(np.abs(full[:, None] - hi), axis=0) > margin))
    return counts, clear


def outcome_with_radii(mus, radii):
    """An AedOutcome that deflates every value in mus, with |spike| = radii."""
    mus = np.asarray(mus, dtype=float)
    return AedOutcome(values=mus, spike=np.asarray(radii, dtype=float),
                      deflatable=np.ones(mus.size, dtype=bool))


class TestDeflationSoundnessCheck:
    """The check counts the eigenvalues in (mu - r, mu + r) by two Sturm
    counts per value and computes no eigenvalue."""

    def test_matches_library_counts(self):
        rng = np.random.default_rng(43)
        seen, compared, total = set(), 0, 0
        for trial in range(20):
            n = int(rng.integers(100, 601))
            k = int(rng.choice([10, 40, 90]))
            T = (graded_example(rng, n, b_scale=float(rng.choice([1e-3, 0.3])))
                 if trial % 2 else random_tridiagonal(rng, n))
            norm = spectral_norm(T)
            mus = aed_transform(T, k, 1e-16, norm).values
            # radii from 1e-10 ||T|| up to ||T||, three per value
            radii = norm * 10.0 ** rng.uniform(-10.0, 0.0, (3, mus.size))
            for r in radii:
                counts = deflation_soundness_check(T, outcome_with_radii(mus, r), 0.0)
                ref, clear = library_counts(T, mus, r)
                assert np.array_equal(counts[clear], ref[clear])
                seen.update(np.minimum(ref[clear], 2).tolist())
                compared += int(np.sum(clear))
                total += mus.size
        assert compared >= 0.9 * total
        assert seen == {0, 1, 2}

    def test_values_outside_and_between_eigenvalues(self):
        # a point below and above the spectrum and two on each side of the
        # middle of the top pair, 4e-8 apart; radii 10% short of and beyond
        # the true distance (from above the spectrum the longer one takes in
        # the whole pair), and one that reaches the far member of the pair
        T = wilkinson_plus(7)
        full = eigvalsh_tridiagonal(T.diag, T.offdiag)
        glo, ghi = _gersch_bounds(T)
        gap = full[-1] - full[-2]
        mus = np.array([glo - 1.0, ghi + 1.0, full[-2] + 0.3 * gap,
                        full[-2] + 0.7 * gap])
        dist = np.array([full[0] - mus[0], mus[1] - full[-1], 0.3 * gap,
                         0.3 * gap])
        for factor, expected in ((0.9, [0, 0, 0, 0]), (1.1, [1, 2, 1, 1])):
            counts = deflation_soundness_check(
                T, outcome_with_radii(mus, factor * dist), 0.0)
            assert counts.tolist() == expected
        both = deflation_soundness_check(
            T, outcome_with_radii(mus[2:], [0.77 * gap, 0.77 * gap]), 0.0)
        assert both.tolist() == [2, 2]

    def test_zero_pivot_can_only_refuse(self):
        # the spectrum is 2 - sqrt(3), 2 and 2 + sqrt(3), so (1.0, 1.5) holds
        # no eigenvalue; a count from below at d_0 = 1.0 meets an exactly
        # zero pivot and reads 0 where one eigenvalue lies below, so counting
        # both ends from below would find 1 inside and pass
        T = SymTridiagonal([1.0, 2.0, 3.0], [1.0, 1.0])
        counts = deflation_soundness_check(T, outcome_with_radii([1.25], [0.25]), 0.0)
        assert counts[0] < 1

    def test_never_asks_for_the_full_spectrum(self, monkeypatch):
        rng = np.random.default_rng(44)
        T = graded_example(rng, 200, b_scale=1e-3)
        scale = spectral_norm(T)
        out = aed_transform(T, 40, 1e-8, scale)
        assert out.deflation_count > 0
        mus = out.values[out.deflatable]
        radii = np.abs(out.spike[out.deflatable]) + 1e-12 * scale
        ref, clear = library_counts(T, mus, radii)
        assert clear.any()

        def refuse(*args, **kwargs):
            raise AssertionError("an eigenvalue was computed")

        shifts = []
        sturm_counts = eigbounds.solvers._sturm_counts

        def counted(diag, off_sq, xs, *args, **kwargs):
            shifts.append(xs.size)
            return sturm_counts(diag, off_sq, xs, *args, **kwargs)

        monkeypatch.setattr(eigbounds.aed, "eig_tridiag", refuse)
        monkeypatch.setattr(eigbounds.solvers, "eig_tridiag", refuse)
        monkeypatch.setattr(eigbounds.solvers, "_block_eigenvalues", refuse)
        monkeypatch.setattr(eigbounds.solvers, "_sturm_counts", counted)
        counts = deflation_soundness_check(T, out, 1e-12 * scale)
        assert shifts == [2 * out.deflation_count]
        assert np.all(counts >= 1)
        assert np.array_equal(counts[clear], ref[clear])

    def test_nothing_deflated_makes_no_sturm_call(self, monkeypatch):
        rng = np.random.default_rng(45)
        T = graded_example(rng, 30)
        out = aed_transform(T, 10, 1e-300, spectral_norm(T))
        assert out.deflation_count == 0

        def no_sturm(*args, **kwargs):
            raise AssertionError("Sturm count requested")

        monkeypatch.setattr(eigbounds.solvers, "_sturm_counts", no_sturm)
        assert deflation_soundness_check(T, out, 1e-12).shape == (0,)


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

    @pytest.mark.parametrize("d", [[3.0, -1.0, 2.0, 2.0], [1.0, 1.0],
                                   [0.0, 5.0, -7.25], [1e-300, -3e200, 0.5]])
    def test_zero_couplings_return_the_rows(self, d):
        # every rotation is the identity up to sign: c = +-1, s = 0
        T = SymTridiagonal(d, np.zeros(len(d) - 1))
        S = qr_sweep(T)
        assert np.array_equal(S.diag, T.diag)
        assert np.array_equal(S.offdiag, T.offdiag)

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

    def test_simulation_takes_the_norm_once(self, monkeypatch):
        T = aed_example(60)
        calls = []

        def counting(A):
            calls.append(A)
            return spectral_norm(A)

        monkeypatch.setattr(eigbounds.aed, "spectral_norm", counting)
        monkeypatch.setattr(eigbounds.cli, "spectral_norm", counting)
        report = eigbounds.cli.cmd_aed(T, 10, simulate=True)
        assert len(calls) == 1
        assert next(iter(report.summary)) == "norm"
        assert report.summary["norm"] == spectral_norm(T)

    def test_spectrum_check_is_relative_below_unit_norm(self, monkeypatch):
        # aed --simulate --verify holds the run to 1e-10 ||T|| of eig_tridiag
        # also where ||T|| < 1, so a run 1e-9 ||T|| off fails there
        W = aed_example(60)
        T = SymTridiagonal(np.ldexp(W.diag, -600), np.ldexp(W.offdiag, -600))
        assert eigbounds.cli.cmd_aed(T, 10, simulate=True, verify=True).sound
        run = eigbounds.aed.run_qr_with_aed

        def off(T, window, tol):
            spec, stats = run(T, window=window, tol=tol)
            return Spectrum(spec.values + 1e-9 * stats.scale), stats

        monkeypatch.setattr(eigbounds.cli, "run_qr_with_aed", off)
        report = eigbounds.cli.cmd_aed(T, 10, simulate=True, verify=True)
        assert report.failures == ["spectrum-match"]

    def test_deflation_check_is_relative_below_unit_norm(self):
        # aed --verify checks each deflated value within |t| + 1e-12 ||T||:
        # at 2^-600 each check still finds only its own eigenvalue, as at
        # unit scale (an absolute 1e-12 would take in the whole spectrum)
        W = aed_example(60)
        for k in (0, -600):
            T = SymTridiagonal(np.ldexp(W.diag, k), np.ldexp(W.offdiag, k))
            report = eigbounds.cli.cmd_aed(T, 10, tol=1e-3, verify=True)
            checks = [r["detail"] for r in report.records if "check" in r]
            assert len(checks) == 6 and report.sound
            assert all(c.startswith("eigenvalues=1 ") for c in checks)

    def test_pass_that_deflates_nothing_keeps_its_rows(self, monkeypatch):
        # the window is rebuilt only when a pass deflates some of it (all of
        # it leaves the 1x1 block [head]); a pass that deflates nothing keeps
        # d and e as they are
        decided, rebuilt = [], []
        transform = eigbounds.aed.aed_transform
        rebuild = eigbounds.aed._tridiagonalize_bordered

        def deciding(T, k, tol, scale):
            out = transform(T, k, tol, scale)
            decided.append((out.deflation_count, out.values.size))
            return out

        def rebuilding(*args):
            rebuilt.append(args[1].size)
            return rebuild(*args)

        monkeypatch.setattr(eigbounds.aed, "aed_transform", deciding)
        monkeypatch.setattr(eigbounds.aed, "_tridiagonalize_bordered", rebuilding)
        rng = np.random.default_rng(42)
        T = SymTridiagonal(rng.standard_normal(50), rng.standard_normal(49))
        spec, stats = run_qr_with_aed(T, window=10)
        assert stats.converged
        assert sum(1 for c, k in decided if c == 0) > 0
        assert rebuilt == [k - c for c, k in decided if c > 0]
        ref = eigvalsh_tridiagonal(T.diag, T.offdiag)
        assert np.max(np.abs(spec.values - ref)) <= 1e-12 * spectral_norm(T)

    def test_pass_that_deflates_the_whole_window_keeps_the_head(self, monkeypatch):
        # a zero coupling above the window makes every spike entry zero, so
        # the first pass deflates all 4 window values and leaves rows 0..7
        rng = np.random.default_rng(43)
        d, e = rng.standard_normal(12), rng.uniform(0.5, 1.0, 11)
        e[7] = 0.0
        swept = []
        sweep = eigbounds.aed.qr_sweep

        def recording(S):
            swept.append(S)
            return sweep(S)

        monkeypatch.setattr(eigbounds.aed, "qr_sweep", recording)
        T = SymTridiagonal(d, e)
        spec, stats = run_qr_with_aed(T, window=4)
        assert stats.converged
        first = stats.records[0]
        assert (first.aed_deflations, first.negligible_deflations,
                first.active_size) == (4, 0, 8)
        # the run sweeps T unit-scaled, 2^-p T
        p = eigbounds.solvers._unit_scaled(T)[1]
        assert np.array_equal(np.ldexp(swept[0].diag, p), d[:8])
        assert np.array_equal(np.ldexp(swept[0].offdiag, p), e[:7])
        ref = eigvalsh_tridiagonal(d, e)
        assert np.max(np.abs(spec.values - ref)) <= 1e-12 * spectral_norm(T)

    @pytest.mark.parametrize("T,window", [
        (aed_example(60), 10),
        (aed_example(1000), 100),
        (random_tridiagonal(np.random.default_rng(44), 50), 8),
    ], ids=["aed60", "aed1000", "random50"])
    def test_power_of_two_scaling(self, T, window):
        # 2^k T runs the same sweeps and deflations to 2^k times the values
        # for |k| = 300, and for k = 600, where the squares of the sweeps
        # would overflow on the raw entries (the run is unit-scaled); far
        # below 1 the window rebuild still does not underflow (unit-scaled),
        # so the values stay right
        def scaled(k):
            return SymTridiagonal(np.ldexp(T.diag, k), np.ldexp(T.offdiag, k))

        spec, stats = run_qr_with_aed(T, window)
        for k in (300, -300, 600):
            got, got_stats = run_qr_with_aed(scaled(k), window)
            assert np.array_equal(got.values, np.ldexp(spec.values, k))
            assert got_stats.sweeps == stats.sweeps
            assert got_stats.records == stats.records
        ref = eig_tridiag(T).values
        for k in (-600, -900):
            got, _ = run_qr_with_aed(scaled(k), window)
            assert (np.max(np.abs(np.ldexp(got.values, -k) - ref))
                    <= 1e-12 * spectral_norm(T))

    def test_zero_matrix_is_converged_at_once(self):
        T = SymTridiagonal(np.zeros(5), np.zeros(4))
        spec, stats = run_qr_with_aed(T, window=2)
        assert stats.converged and stats.sweeps == 0
        assert np.array_equal(spec.values, np.zeros(5))
        # one record, of pass 0: the window deflates as a plain AED pass
        # does, and the rest deflates on its zero couplings
        deflated = aed_transform(T, 2, 1e-16, 0.0).deflation_count
        assert [(r.sweep, r.aed_deflations, r.negligible_deflations, r.active_size)
                for r in stats.records] == [(0, deflated, 5 - deflated, 0)]

    @pytest.mark.parametrize("window", [0, -5])
    def test_window_below_one_raises(self, window):
        with pytest.raises(ValueError, match="window"):
            run_qr_with_aed(aed_example(30), window=window)
