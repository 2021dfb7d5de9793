import math

import numpy as np
import pytest

from conftest import graded_tridiagonal
from eigbounds import (SymTridiagonal, aed_example, aed_window_bounds,
                       decay_profile, decay_step_bound, eig_tridiag,
                       wilkinson_gap_bound, wilkinson_pair_gap_bound,
                       wilkinson_plus)
from eigbounds import tridiag


class TestDecayStep:
    def test_plain_ratio(self):
        T = SymTridiagonal([100.0, 50.0, 0.0], [1.0, 1.0])
        lam = float(eig_tridiag(T).values[0])
        assert decay_step_bound(T, lam, 1) == pytest.approx(1.0 / abs(lam - 100.0))
        assert decay_step_bound(T, lam, 2) == pytest.approx(2.0 / abs(lam - 50.0))

    def test_none_inside_disk(self):
        T = SymTridiagonal([5.0, 5.1], [1.0])
        assert decay_step_bound(T, 5.0, 1) is None

    def test_boundary_rows_use_single_neighbor(self):
        T = SymTridiagonal([10.0, 0.0, -10.0], [0.5, 0.25])
        assert decay_step_bound(T, 0.0, 1) == pytest.approx(0.05)
        assert decay_step_bound(T, 0.0, 3) == pytest.approx(0.025)

    def test_row_range_checked(self):
        T = SymTridiagonal([1.0, 2.0], [0.1])
        with pytest.raises(IndexError):
            decay_step_bound(T, 0.0, 3)


class TestDecayProfile:
    def test_chains_step_bounds(self):
        T = SymTridiagonal([100.0, 50.0, 0.0], [1.0, 1.0])
        lam = float(eig_tridiag(T).values[0])
        prof = decay_profile(T, lam, 1, 2)
        assert prof.complete and prof.rows == (1, 2)
        expected = decay_step_bound(T, lam, 1) * decay_step_bound(T, lam, 2)
        assert prof.final_bound().to_float() == pytest.approx(expected, rel=1e-13)

    def test_bounds_oracle_component(self):
        T = SymTridiagonal([100.0, 50.0, 0.0], [1.0, 1.0])
        spec = eig_tridiag(T, want_vectors=True)
        lam = float(spec.values[0])
        x = np.abs(spec.vectors[:, 0])
        cum = decay_profile(T, lam, 1, 2).final_bound().to_float()
        assert x[0] <= cum * x[2] + 1e-14

    def test_truncates_at_first_invalid_row(self):
        T = SymTridiagonal([100.0, 0.05, 0.0], [1.0, 1.0])
        lam = float(eig_tridiag(T).values[0])
        prof = decay_profile(T, lam, 1, 2)
        assert not prof.complete and prof.truncated_at == 2
        assert prof.rows == (1,)

    def test_soundness_on_graded_matrices(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = int(rng.integers(5, 16))
            T = graded_tridiagonal(rng, n)
            spec = eig_tridiag(T, want_vectors=True)
            lam = float(spec.values[0])
            x = np.abs(spec.vectors[:, 0])
            prof = decay_profile(T, lam, 1, n - 1)
            for m, k in enumerate(prof.rows):
                cum = prof.cumulative[m].float_or_zero()
                assert x[0] <= cum * x[k] + 1e-14

    def test_log_space_matches_plain_product(self):
        rng = np.random.default_rng(78)
        for _ in range(20):
            n = int(rng.integers(5, 14))
            T = graded_tridiagonal(rng, n)
            lam = float(eig_tridiag(T).values[0])
            prof = decay_profile(T, lam, 1, n - 1)
            plain = 1.0
            for m, r in enumerate(prof.ratios):
                plain *= r
                if plain > 1e-300:
                    assert prof.cumulative[m].to_float() == pytest.approx(
                        plain, rel=1e-12)


class TestWilkinsonBounds:
    def test_reference_value_n10(self):
        # (4/30) / (8!)^2 = 8.20158e-11
        assert wilkinson_gap_bound(10).to_float() == pytest.approx(
            8.20158310237679e-11, rel=1e-12)

    def test_log_gamma_matches_direct_product(self):
        for n in range(5, 18):
            direct = (4.0 / (3.0 * n)) / float(math.factorial(n - 2)) ** 2
            assert wilkinson_gap_bound(n).to_float() == pytest.approx(
                direct, rel=1e-12)

    def test_large_n_stays_finite_in_log_space(self):
        b = wilkinson_gap_bound(500)
        assert b.sign == 1 and b.log10 < -1000.0

    def test_pair_bound_values(self):
        assert wilkinson_pair_gap_bound(10, 1).to_float() == pytest.approx(
            6.151187326782594e-11, rel=1e-12)
        # ell = n - 2: 1 / (3 * (1!)^2) = 1/3
        assert wilkinson_pair_gap_bound(10, 8).to_float() == pytest.approx(
            1.0 / 3.0, rel=1e-12)

    def test_pair_bound_grows_with_ell(self):
        vals = [wilkinson_pair_gap_bound(12, ell) for ell in range(1, 11)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_scaling_limit(self):
        # n * bound * ((n-2)!)^2 = 4/3 exactly, checked in log space
        target = math.log10(4.0 / 3.0)
        for n in range(6, 31):
            got = wilkinson_gap_bound(n).log10 + math.log10(n) \
                + 2.0 * math.lgamma(n - 1) / math.log(10.0)
            assert abs(got - target) <= 1e-10

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            wilkinson_gap_bound(4)

    def test_pair_gaps_of_oracle_obey_bounds(self):
        vals = eig_tridiag(wilkinson_plus(8)).values
        for ell in range(1, 7):
            gap = float(vals[-(2 * ell - 1)] - vals[-(2 * ell)])
            assert gap <= wilkinson_pair_gap_bound(8, ell).to_float() + 1e-14


def reference_window_bounds(T, k, j=None, alpha=None, window_values=None):
    """One window eigenvalue and one row at a time, in plain floats: the
    gap test in numpy's float order for the fixed depth and the rows
    1..n-k, in Python's (|a - lam| > b_i + b_{i-1} + alpha) for the scan.
    Returns (lam, log10 or None, j_used), log10 -inf for a zero bound."""
    n, a = T.n, T.diag.tolist()
    b = [0.0] + np.abs(T.offdiag).tolist() + [0.0]       # b[i] = |b_i|
    alpha = b[n - k] if alpha is None else alpha
    log10 = lambda x: math.log10(x) if x > 0.0 else -math.inf
    denom = lambda i, lam: abs(a[i - 1] - lam) - alpha - max(b[i], b[i - 1])
    fixed_gap = lambda i, lam: abs(a[i - 1] - lam) - b[i] - b[i - 1] - alpha > 0.0
    scan_gap = lambda i, lam: abs(a[i - 1] - lam) > b[i] + b[i - 1] + alpha
    out = []
    for lam in map(float, window_values):
        if j is not None and (not 1 <= j <= k - 1 or b[n - k] == 0.0):
            out.append((lam, -math.inf, j) if 1 <= j <= k - 1 else (lam, None, None))
            continue
        best = (None, None)
        if all(fixed_gap(i, lam) for i in range(1, n - k + 1)) and denom(n - k, lam) > 0.0:
            acc = log10(b[n - k] / 2.0) + log10(b[n - k] / denom(n - k, lam))
            for depth in range(1, k if j is None else j + 1):
                row = n - k + depth
                gap_ok = scan_gap if j is None else fixed_gap
                if denom(row, lam) <= 0.0 or not gap_ok(row, lam):
                    break
                acc += 2.0 * log10(b[row] / denom(row, lam))
                if (j is None and (best[0] is None or acc < best[0])) or depth == j:
                    best = (acc, depth)
        out.append((lam,) + best)
    return out


def as_triples(bounds):
    """(lam, log10 or None, j_used), checking that a zero bound has sign 0."""
    out = []
    for lam, b, jj in bounds:
        if b is not None:
            assert (b.sign == 0) == (b.log10 == -math.inf)
        out.append((lam, None if b is None else b.log10, jj))
    return out


def jittered_tridiagonal(rng, n):
    """Diagonal n, ..., 1 with jitter, couplings of random size and sign:
    the graded inputs of the benchmark's aed-window workload."""
    d = np.arange(n, 0, -1, dtype=float) + rng.uniform(-0.25, 0.25, n)
    b = rng.uniform(0.5, 1.0, n - 1) * rng.choice([-1.0, 1.0], n - 1)
    return SymTridiagonal(d, b)


def assert_matches_reference(T, k, j=None, alpha=None, window_values=None):
    if window_values is None:
        window_values = eig_tridiag(T.window(k)).values
    got = as_triples(aed_window_bounds(T, k, j, alpha, window_values=window_values))
    want = reference_window_bounds(T, k, j, alpha, window_values)
    assert got == want
    return got


class TestAedWindowBoundsReference:
    @pytest.mark.parametrize("j, alpha", [(None, None), (None, 1.0), (88, 1.0)])
    def test_headline_fixture(self, j, alpha):
        got = assert_matches_reference(aed_example(1000), 100, j, alpha)
        assert sum(1 for _, lg, _ in got if lg is not None) >= (10 if j else 90)

    @pytest.mark.parametrize("seed", range(3))
    def test_graded(self, seed):
        rng = np.random.default_rng(seed)
        g500, g800 = jittered_tridiagonal(rng, 500), jittered_tridiagonal(rng, 800)
        assert_matches_reference(g500, 50, j=40)
        assert_matches_reference(g500, 50)
        assert_matches_reference(g800, 80)

    def test_zero_window_coupling(self):
        # b_{n-k} = 0: zero at any fixed depth in range, gap test or not;
        # the scan still needs a feasible depth
        T = SymTridiagonal([5.0, 4.0, 3.0, 2.0], [1.0, 0.0, 1.0])
        for lam in (4.0, 0.5):
            _, b, jj = aed_window_bounds(T, 2, j=1, window_values=[lam])[0]
            assert b.is_zero and jj == 1
        assert_matches_reference(T, 2, j=1, window_values=[4.0, 0.5])
        got = assert_matches_reference(T, 2, window_values=[4.0, 0.5])
        assert got == [(4.0, None, None), (0.5, -math.inf, 1)]

    def test_zero_interior_coupling(self):
        # b_{n-k+2} = 0: eta vanishes from depth 2 on; the scan takes the
        # first zero
        T = SymTridiagonal([80.0, 70.0, 60.0, 50.0, 40.0, 30.0, 20.0, 10.0],
                           [1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0])
        got = assert_matches_reference(T, 4, window_values=[10.0])
        assert got == [(10.0, -math.inf, 2)]
        for j in (1, 2, 3):
            assert_matches_reference(T, 4, j=j, window_values=[10.0])
        assert aed_window_bounds(T, 4, j=3, window_values=[10.0])[0][1].is_zero

    @pytest.mark.parametrize("row", [1, 6])
    def test_gap_failure_in_head_rows(self, row):
        # row 1 and row n-k = 6 of an order-8 matrix with k = 2
        diag = [80.0, 70.0, 60.0, 50.0, 40.0, 30.0, 20.0, 10.0]
        diag[row - 1] = 10.5
        T = SymTridiagonal(diag, np.full(7, 1.0))
        for j in (None, 1):
            assert aed_window_bounds(T, 2, j=j, window_values=[10.0]) == \
                [(10.0, None, None)]
            assert_matches_reference(T, 2, j=j, window_values=[10.0])

    @pytest.mark.parametrize("a3", [10.5, 13.0])
    def test_no_feasible_depth(self, a3):
        # the gap condition fails on row n-k+1 = 3, at 13 with |a_3 - lam|
        # equal to b_3 + b_2 + alpha: F = 0
        T = SymTridiagonal([80.0, 70.0, a3, 30.0, 10.0], np.full(4, 1.0))
        for j in (None, 1):
            assert aed_window_bounds(T, 3, j=j, window_values=[10.0]) == \
                [(10.0, None, None)]
            assert_matches_reference(T, 3, j=j, window_values=[10.0])

    def test_depth_out_of_range_is_none(self):
        T = aed_example(50)
        for j in (0, 5, 6):
            got = aed_window_bounds(T, 5, j=j)
            assert got and all(b is None and jj is None for _, b, jj in got)
            assert_matches_reference(T, 5, j=j)

    def test_window_of_one_row_has_no_bound(self):
        # the gap condition holds on every head row; depth 1 needs k >= 2
        T = SymTridiagonal([80.0, 70.0, 60.0, 10.0], [1.0, 1.0, 0.1])
        for j in (None, 1):
            assert aed_window_bounds(T, 1, j=j) == [(10.0, None, None)]

    @pytest.mark.parametrize("j", [None, 30])
    def test_eigenvalue_blocks_give_the_same_bounds(self, j, monkeypatch):
        T = aed_example(200)
        whole = aed_window_bounds(T, 40, j=j)
        monkeypatch.setattr(tridiag, "_BLOCK_ELEMENTS", 3 * T.n)
        assert aed_window_bounds(T, 40, j=j) == whole
        assert sum(1 for _, b, _ in whole if b is not None) > 3

    @pytest.mark.parametrize("j", [None, 2])
    def test_invalid_arguments_raise(self, j):
        T = aed_example(50)
        with pytest.raises(ValueError, match="alpha"):
            aed_window_bounds(T, 5, j=j, alpha=-1.0)
        for k in (0, 50):
            with pytest.raises(ValueError, match="window size"):
                aed_window_bounds(T, k, j=j)


class TestAedEta:
    def test_invalid_denominator_is_none(self):
        # row 2: |1.05 - 1| - 0.1 - 0.5 < 0
        T = SymTridiagonal([1.0, 1.05, 0.5], [0.5, 0.5])
        for j in (None, 1):
            assert aed_window_bounds(T, 2, j=j, alpha=0.1, window_values=[1.0]) == \
                [(1.0, None, None)]


class TestAedPerturbationBound:
    def test_zero_coupling_gives_zero(self):
        T = SymTridiagonal([5.0, 4.0, 3.0, 2.0], [1.0, 0.0, 1.0])
        (_, bound, j_used), = aed_window_bounds(T, 2, j=1, alpha=0.0,
                                                 window_values=[2.0])
        assert bound.is_zero and j_used == 1

    def test_gap_condition_violation_raises(self):
        # named for the exception the fixed-depth bound once raised; the
        # violation now reads as no bound, at a fixed depth and in the scan
        T = SymTridiagonal([5.0, 4.0, 1.0, 0.9], [0.5, 0.5, 0.5])
        for j in (None, 1):
            assert aed_window_bounds(T, 2, j=j, alpha=0.5, window_values=[4.0]) == \
                [(4.0, None, None)]

    def test_soundness_at_observable_scale(self):
        # constant couplings with diagonal gaps a few couplings wide keep the
        # eta factors conservative enough to cover the true movement of each
        # window eigenvalue when the coupling is zeroed
        rng = np.random.default_rng(1234)
        checked = 0
        for _ in range(100):
            n = int(rng.integers(8, 31))
            b = float(rng.uniform(0.005, 0.05))
            steps = rng.uniform(3.2, 5.5, n - 1)
            diag = 50.0 - np.concatenate([[0.0], np.cumsum(steps * b)])
            T = SymTridiagonal(diag, np.full(n - 1, b))
            k = int(rng.integers(2, 6))
            j = int(rng.integers(1, min(4, k)))
            full = eig_tridiag(T).values
            off_hat = T.offdiag.copy()
            off_hat[n - k - 1] = 0.0
            hat = eig_tridiag(SymTridiagonal(T.diag.copy(), off_hat)).values
            for lam, bound, _ in aed_window_bounds(T, k, j=j):
                if bound is None:
                    continue
                bf = bound.float_or_zero()
                if bf < 1e-14:
                    continue
                pos = int(np.argmin(np.abs(hat - lam)))
                moved = float(abs(full[pos] - lam))
                assert moved <= bf + 1e-14
                checked += 1
        assert checked > 100

    def test_scan_never_exceeds_fixed_depth(self):
        T = SymTridiagonal(np.arange(20, 0, -1.0), np.full(19, 0.05))
        fixed = {lam: b for lam, b, _ in aed_window_bounds(T, 5, j=2)}
        for lam, b, _ in aed_window_bounds(T, 5):
            if b is not None and fixed.get(lam) is not None:
                assert b.log10 <= fixed[lam].log10 + 1e-12

    def test_headline_fixture_row_factors(self):
        # graded 1000x1000 fixture at lam = 5, alpha = 1: eta at row n-100+i
        # is at most 1/(|90-i|-1), so consecutive depths differ by at most
        # its square and the bound at depth j by at most the product
        T = aed_example(1000)
        depths = (1, 19, 20, 69, 70, 87, 88)
        log10 = {j: aed_window_bounds(T, 100, j=j, alpha=1.0,
                                      window_values=[5.0])[0][1].log10
                 for j in depths}
        cap = lambda i: -math.log10(abs(90 - i) - 1)
        for j in (20, 70, 88):
            assert log10[j] - log10[j - 1] <= 2.0 * cap(j) + 1e-12
        for j in (1, 20, 70, 88):
            product = math.log10(0.5) + cap(0) + 2.0 * sum(cap(i) for i in range(1, j + 1))
            assert log10[j] <= product + 1e-9
