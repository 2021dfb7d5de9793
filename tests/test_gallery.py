"""Tridiagonals with closed-form or otherwise known spectra, many of whose
Sturm sequences meet an exactly zero pivot, checked against their closed
forms, numpy.polynomial's Gauss nodes or scipy, at unit scale and at
2^600 and 2^-600 (a power of two scales every entry and eigenvalue
exactly).

Values-only eig_tridiag miscounts at such a pivot (ROADMAP direction 1),
so its checks are strict xfails, to be flipped by the fix.  The same
matrices through eig_tridiag with vectors (right through its dense QR
fallback), through eig_dense of their dense form, their spectral norms,
and the Sturm counts in a quarter gap around each eigenvalue are right and
are checked unmarked.
"""

import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigvalsh_tridiagonal

from eigbounds import (SymTridiagonal, eig_dense, eig_tridiag, spectral_norm,
                       wilkinson_plus)
from eigbounds.solvers import _counts_within


def toeplitz_121(n):
    """diag 2, couplings 1: eigenvalues 2 + 2 cos(j pi / (n + 1))."""
    return (SymTridiagonal(np.full(n, 2.0), np.ones(n - 1)),
            np.sort(2.0 + 2.0 * np.cos(np.arange(1, n + 1) * math.pi / (n + 1))))


def clement(n):
    """Symmetrised Clement matrix: zero diagonal, couplings sqrt(i (n - i));
    eigenvalues -(n - 1), -(n - 3), ..., n - 1."""
    i = np.arange(1, n)
    return (SymTridiagonal(np.zeros(n), np.sqrt(i * (n - i))),
            np.arange(-(n - 1), n, 2, dtype=float))


def gauss_legendre(n):
    """Jacobi matrix of the Legendre polynomials: zero diagonal, couplings
    i / sqrt(4 i^2 - 1); eigenvalues the n-point Gauss-Legendre nodes
    (Golub & Welsch 1969)."""
    i = np.arange(1, n)
    return SymTridiagonal(np.zeros(n), i / np.sqrt(4.0 * i * i - 1.0)), leggauss(n)[0]


def gauss_hermite(n):
    """Jacobi matrix of the Hermite polynomials (weight exp(-x^2)): zero
    diagonal, couplings sqrt(i / 2); eigenvalues the n-point Gauss-Hermite
    nodes."""
    i = np.arange(1, n)
    return SymTridiagonal(np.zeros(n), np.sqrt(i / 2.0)), hermgauss(n)[0]


def with_scipy(T):
    return T, eigvalsh_tridiagonal(T.diag, T.offdiag)


GALLERY = {
    "123-11": (SymTridiagonal([1.0, 2.0, 3.0], [1.0, 1.0]),
               np.array([2.0 - math.sqrt(3.0), 2.0, 2.0 + math.sqrt(3.0)])),
    "11-half": (SymTridiagonal([1.0, 1.0], [0.5]), np.array([0.5, 1.5])),
    "12-half": (SymTridiagonal([1.0, 2.0], [0.5]),
                np.array([1.5 - math.sqrt(0.5), 1.5 + math.sqrt(0.5)])),
    **{f"toeplitz-{n}": toeplitz_121(n)
       for n in (3, 4, 5, 8, 16, 17, 33, 64, 65, 101)},
    "wilkinson-plus-5": with_scipy(wilkinson_plus(5)),
    "wilkinson-plus-9": with_scipy(wilkinson_plus(9)),
    "wilkinson-plus-13": with_scipy(wilkinson_plus(13)),
    **{f"clement-{n}": clement(n) for n in (2, 4, 6, 8, 10, 16, 64)},
    **{f"legendre-{n}": gauss_legendre(n) for n in (4, 8, 16, 64)},
    **{f"hermite-{n}": gauss_hermite(n) for n in (4, 8, 16, 64)},
}

# each entry at unit scale under its own name, and at 2^600 and 2^-600
CASES = [pytest.param(name, s, id=name if s == 0 else f"{name}-2^{s}")
         for s in (0, 600, -600) for name in GALLERY]


def scaled(name, s):
    T, want = GALLERY[name]
    return (SymTridiagonal(np.ldexp(T.diag, s), np.ldexp(T.offdiag, s)),
            np.ldexp(want, s))


def tolerance(want):
    return 1e-13 * float(np.max(np.abs(want)))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="zero-pivot count, ROADMAP direction 1")
@pytest.mark.parametrize("name, s", CASES)
def test_eig_tridiag_values(name, s):
    T, want = scaled(name, s)
    got = eig_tridiag(T).values
    assert np.max(np.abs(got - want)) <= tolerance(want)


@pytest.mark.parametrize("name, s", CASES)
def test_eig_tridiag_values_with_vectors(name, s):
    T, want = scaled(name, s)
    got = eig_tridiag(T, want_vectors=True).values
    assert np.max(np.abs(got - want)) <= tolerance(want)


@pytest.mark.parametrize("name, s", CASES)
def test_eig_dense_values(name, s):
    T, want = scaled(name, s)
    got = eig_dense(T.to_dense()).values
    assert np.max(np.abs(got - want)) <= tolerance(want)


@pytest.mark.parametrize("name, s", CASES)
def test_spectral_norm(name, s):
    T, want = scaled(name, s)
    top = float(np.max(np.abs(want)))
    assert abs(spectral_norm(T) - top) <= tolerance(want)
    assert abs(spectral_norm(T.to_dense()) - top) <= tolerance(want)


@pytest.mark.parametrize("name, s", [c for c in CASES
                                     if not c.values[0].startswith("wilkinson")])
def test_one_eigenvalue_in_each_quarter_gap(name, s):
    # the Wilkinson top pairs are closer than roundoff, so they are left out
    T, want = scaled(name, s)
    gaps = np.diff(want)
    nearest = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))
    assert np.array_equal(_counts_within(T, want, nearest / 4.0), np.ones(want.size))
