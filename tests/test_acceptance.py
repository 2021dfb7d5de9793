"""End-to-end acceptance suite.

Each test reproduces one headline claim at its stated tolerance and runtime
budget and prints a single PASS/FAIL line (run with -s to see them inline).
"""

import math
import time

import numpy as np

from conftest import graded_tridiagonal, random_hermitian, random_tridiagonal
from eigbounds import (BlockSplit, DenseHermitian, aed_example, aed_transform,
                       aed_window_bounds, decay_profile, deflation_decide,
                       detect_multiple, eig_dense, eig_tridiag,
                       expansion_order, quadratic_residual_bounds,
                       run_qr_with_aed, spectral_norm, theorem1_bounds,
                       wilkinson_gap_bound, wilkinson_plus, wilkinson_split)


def report(num, name, ok, detail, elapsed, budget):
    in_time = elapsed <= budget
    verdict = "PASS" if (ok and in_time) else "FAIL"
    print(f"criterion {num:2d} ({name}): {verdict} "
          f"[{detail}; {elapsed:.2f}s of {budget:.0f}s]")
    assert ok, f"criterion {num}: {detail}"
    assert in_time, f"criterion {num}: took {elapsed:.2f}s, budget {budget}s"


def test_criterion_1_wilkinson_pair_gap():
    t0 = time.perf_counter()
    vals = eig_tridiag(wilkinson_plus(10)).values
    gap = float(vals[-1] - vals[-2])
    report(1, "wilkinson pair gap", 1e-15 <= gap <= 1e-13,
           f"gap={gap:.3e}", time.perf_counter() - t0, 1.0)


def test_criterion_2_wilkinson_gap_bound():
    t0 = time.perf_counter()
    bound = wilkinson_gap_bound(10).to_float()
    direct = (4.0 / 30.0) / float(math.factorial(8)) ** 2
    six_digits = abs(bound - 8.20158e-11) <= 0.5e-5 * 8.20158e-11
    agree = abs(bound - direct) <= 1e-12 * direct
    a_vals = eig_tridiag(wilkinson_split(10)[0]).values
    w_vals = eig_tridiag(wilkinson_plus(10)).values
    shift = float(abs(w_vals[-1] - a_vals[-1]))
    report(2, "wilkinson gap bound", six_digits and agree and shift <= bound,
           f"bound={bound:.6e} shift={shift:.3e}",
           time.perf_counter() - t0, 1.0)


def test_criterion_3_deflation_window_bounds():
    t0 = time.perf_counter()
    T = aed_example(1000)
    win_vals = eig_tridiag(T.window(100)).values
    small = np.array([v for v in win_vals if v < 10.0])
    fixed = aed_window_bounds(T, 100, j=88, alpha=1.0, window_values=small)
    min_log10 = min(b.log10 for _, b, _ in fixed if b is not None)
    scan = aed_window_bounds(T, 100, alpha=1.0, window_values=win_vals)
    tiny = sum(1 for _, b, _ in scan if b is not None and b.log10 <= -16.0)
    report(3, "deflation window bounds",
           min_log10 <= -270.7 and tiny > 80,
           f"min_log10={min_log10:.1f} count<=1e-16: {tiny}",
           time.perf_counter() - t0, 30.0)


def test_criterion_4_aed_spike():
    t0 = time.perf_counter()
    T = aed_example(1000)
    scale = spectral_norm(T)
    out = deflation_decide(aed_transform(T, 100), 1e-16, scale)
    norm_t = float(np.linalg.norm(out.spike))
    tiny = int(np.sum(np.abs(out.spike) <= 1e-16 * scale))
    report(4, "aed spike", abs(norm_t - 1.0) <= 1e-12 and tiny > 80,
           f"|t|={norm_t!r} tiny entries={tiny}",
           time.perf_counter() - t0, 30.0)


def test_criterion_5_structured_bound_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    violations = 0
    instances = 0
    while instances < 200:
        n = int(rng.integers(2, 21))
        k = int(rng.integers(1, n))
        A = random_hermitian(rng, n, complex_entries=bool(instances % 2))
        A = DenseHermitian.from_array(A.entries + np.diag(np.arange(n) * 4.0))
        E = random_hermitian(rng, n, scale=0.02)
        before = eig_dense(A).values
        after = eig_dense(DenseHermitian.from_array(A.entries + E.entries)).values
        shifts = np.abs(before - after)
        for rep in theorem1_bounds(A, E, BlockSplit(k), values=before):
            if shifts[rep.index - 1] > rep.bound_float() + 1e-12:
                violations += 1
            if rep.bound_float() > rep.components["weyl"] * (1 + 1e-14):
                violations += 1
        instances += 1
    report(5, "structured bound soundness", violations == 0,
           f"{instances} instances, {violations} violations",
           time.perf_counter() - t0, 10.0)


def test_criterion_6_quadratic_residual_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    violations = 0
    checked = 0
    for trial in range(100):
        m = int(rng.integers(1, 7))
        k = int(rng.integers(1, 7))
        A = DenseHermitian.from_blocks(
            random_hermitian(rng, m).entries + 25.0 * np.eye(m),
            np.zeros((k, m)),
            random_hermitian(rng, k).entries)
        E = DenseHermitian.from_blocks(np.zeros((m, m)),
                                       0.05 * rng.standard_normal((k, m)),
                                       np.zeros((k, k)))
        shifts = np.abs(eig_dense(A).values - eig_dense(
            DenseHermitian.from_array(A.entries + E.entries)).values)
        norm_e = spectral_norm(E)
        for rep in quadratic_residual_bounds(A, BlockSplit(k), E):
            if not rep.valid or rep.gap < 10.0 * norm_e:
                continue
            checked += 1
            if shifts[rep.index - 1] > rep.bound_float() + 1e-12:
                violations += 1
    report(6, "quadratic residual soundness",
           violations == 0 and checked > 100,
           f"{checked} checks, {violations} violations",
           time.perf_counter() - t0, 5.0)


def test_criterion_7_cubic_scaling():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for delta in (1e-2, 1e-3):
        for eps in (1e-3, 1e-4):
            a11 = np.diag([1.0, 2.0, 3.0])
            coupling = np.full((1, 3), delta)
            w = DenseHermitian.from_blocks(a11, coupling, [[eps]])
            wo = DenseHermitian.from_blocks(a11, coupling, [[0.0]])
            move = np.abs(eig_dense(w).values - eig_dense(wo).values)
            ratio = float(np.max(move[1:])) / (eps * delta * delta)
            worst = max(worst, ratio)
            ok = ok and ratio <= 10.0
    report(7, "cubic scaling", ok, f"worst move = {worst:.2f} * eps*delta^2",
           time.perf_counter() - t0, 1.0)


def test_criterion_8_expansion_order():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    A = DenseHermitian.from_array(np.diag([1.0, 1.0, 5.0]))
    ctx = detect_multiple(A)[0]
    ok = True
    slopes = []
    for _ in range(5):
        m = rng.standard_normal((3, 3))
        E = DenseHermitian.from_array((m + m.T) / 2.0)
        fit = expansion_order(ctx, E, (1e-2, 1e-3, 1e-4, 1e-5))
        slopes.append(fit.slope)
        ok = ok and (fit.exact or 1.8 <= fit.slope <= 2.2)
        ok = ok and bool(np.all(fit.errors <= fit.gap_bounds))
    report(8, "expansion order",
           ok, "slopes=" + ",".join(f"{s:.3f}" for s in slopes),
           time.perf_counter() - t0, 5.0)


def test_criterion_9_oracle_cross_validation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    worst_val = 0.0
    worst_resid = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 51))
        T = random_tridiagonal(rng, n)
        norm = spectral_norm(T)
        scale = max(1.0, norm)
        spec = eig_tridiag(T, want_vectors=True)
        dense_vals = eig_dense(T.to_dense()).values
        worst_val = max(worst_val,
                        float(np.max(np.abs(spec.values - dense_vals))) / scale)
        R = T.to_dense().real_array() @ spec.vectors - spec.vectors * spec.values
        worst_resid = max(worst_resid,
                          float(np.max(np.abs(R))) / max(norm, 1e-30))
    report(9, "oracle cross-validation",
           worst_val <= 1e-12 and worst_resid <= 1e-12,
           f"val err={worst_val:.2e} resid={worst_resid:.2e}",
           time.perf_counter() - t0, 60.0)


def test_criterion_10_decay_profile_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    violations = 0
    checked = 0
    for _ in range(100):
        n = int(rng.integers(5, 16))
        T = graded_tridiagonal(rng, n)
        spec = eig_tridiag(T, want_vectors=True)
        lam = float(spec.values[0])
        x = np.abs(spec.vectors[:, 0])
        prof = decay_profile(T, lam, 1, n - 1)
        for m, k in enumerate(prof.rows):
            checked += 1
            if x[0] > prof.cumulative[m].float_or_zero() * x[k] + 1e-14:
                violations += 1
    report(10, "decay profile soundness", violations == 0 and checked > 100,
           f"{checked} prefixes, {violations} violations",
           time.perf_counter() - t0, 10.0)


def test_criterion_11_end_to_end_qr_with_aed():
    t0 = time.perf_counter()
    T = aed_example(1000)
    scale = spectral_norm(T)
    spec, stats = run_qr_with_aed(T, window=100, tol=1e-16)
    ref = eig_tridiag(T).values
    err = float(np.max(np.abs(spec.values - ref)))
    # the first pass deflates by AED alone: no coupling of T is negligible
    negligible = np.abs(T.offdiag) <= 1e-16 * (np.abs(T.diag[:-1]) + np.abs(T.diag[1:]))
    ok = (stats.first_pass_aed_count >= 80
          and not np.any(negligible)
          and stats.converged
          and err <= 1e-10 * scale)
    report(11, "end-to-end qr with aed", ok,
           f"first pass deflated {stats.first_pass_aed_count}, "
           f"spectrum err={err:.2e}",
           time.perf_counter() - t0, 120.0)
