"""End-to-end acceptance suite.

test_claim runs each of the paper's case studies from ``cli.CLAIMS``, the
table ``verify-all`` runs, within its budget.  The numbered criteria check
bound soundness over random instances and the QR+AED driver end to end.
Each test prints a single PASS/FAIL line (run with -s to see them inline).
"""

import time

import numpy as np
import pytest

from conftest import graded_tridiagonal, random_hermitian, random_tridiagonal
from eigbounds import (BlockSplit, DenseHermitian, RunReport, aed_example,
                       cli, decay_profile, eig_dense, eig_tridiag,
                       quadratic_residual_bounds, run_qr_with_aed,
                       spectral_norm, theorem1_bounds)


def report(label, ok, detail, elapsed, budget):
    in_time = elapsed <= budget
    verdict = "PASS" if (ok and in_time) else "FAIL"
    print(f"{label}: {verdict} [{detail}; {elapsed:.2f}s of {budget:.0f}s]")
    assert ok, f"{label}: {detail}"
    assert in_time, f"{label}: took {elapsed:.2f}s, budget {budget}s"


@pytest.mark.parametrize("name, claim, budget", cli.CLAIMS,
                         ids=[name for name, _, _ in cli.CLAIMS])
def test_claim(name, claim, budget):
    t0 = time.perf_counter()
    rep = RunReport(name)
    claim(rep)
    checks = sum(1 for r in rep.records if "check" in r)
    report(f"claim {name}", rep.sound and checks > 0,
           f"checks={checks} failed={','.join(rep.failures) or 'none'}",
           time.perf_counter() - t0, budget)


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
            if shifts[rep.index - 1] > rep.bound.float_or_zero() + 1e-12:
                violations += 1
            if rep.bound.float_or_zero() > rep.components["weyl"] * (1 + 1e-14):
                violations += 1
        instances += 1
    report("criterion 5 (structured bound soundness)", violations == 0,
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
            if shifts[rep.index - 1] > rep.bound.float_or_zero() + 1e-12:
                violations += 1
    report("criterion 6 (quadratic residual soundness)",
           violations == 0 and checked > 100,
           f"{checked} checks, {violations} violations",
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
    report("criterion 9 (oracle cross-validation)",
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
    report("criterion 10 (decay profile soundness)",
           violations == 0 and checked > 100,
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
    report("criterion 11 (end-to-end qr with aed)", ok,
           f"first pass deflated {stats.first_pass_aed_count}, "
           f"spectrum err={err:.2e}",
           time.perf_counter() - t0, 120.0)
