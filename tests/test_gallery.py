"""Small tridiagonals whose Sturm sequences meet an exactly zero pivot,
checked against closed forms or scipy.

eig_tridiag miscounts at such a pivot (ROADMAP direction 1), so its
values-only checks are strict xfails, to be flipped by the fix.  The same
matrices through eig_dense of their dense form, and their spectral norms,
are right and are checked unmarked.
"""

import math

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from eigbounds import (SymTridiagonal, eig_dense, eig_tridiag, spectral_norm,
                       wilkinson_plus)


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


def with_scipy(T):
    return T, eigvalsh_tridiagonal(T.diag, T.offdiag)


GALLERY = {
    "123-11": (SymTridiagonal([1.0, 2.0, 3.0], [1.0, 1.0]),
               np.array([2.0 - math.sqrt(3.0), 2.0, 2.0 + math.sqrt(3.0)])),
    "11-half": (SymTridiagonal([1.0, 1.0], [0.5]), np.array([0.5, 1.5])),
    "toeplitz-3": toeplitz_121(3),
    "toeplitz-4": toeplitz_121(4),
    "wilkinson-plus-5": with_scipy(wilkinson_plus(5)),
    "wilkinson-plus-9": with_scipy(wilkinson_plus(9)),
    "wilkinson-plus-13": with_scipy(wilkinson_plus(13)),
    **{f"clement-{n}": clement(n) for n in (2, 4, 6, 8, 10)},
}


def tolerance(want):
    return 1e-13 * float(np.max(np.abs(want)))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="zero-pivot count, ROADMAP direction 1")
@pytest.mark.parametrize("name", GALLERY)
def test_eig_tridiag_values(name):
    T, want = GALLERY[name]
    got = eig_tridiag(T).values
    assert np.max(np.abs(got - want)) <= tolerance(want)


@pytest.mark.parametrize("name", GALLERY)
def test_eig_dense_values(name):
    T, want = GALLERY[name]
    got = eig_dense(T.to_dense()).values
    assert np.max(np.abs(got - want)) <= tolerance(want)


@pytest.mark.parametrize("name", GALLERY)
def test_spectral_norm(name):
    T, want = GALLERY[name]
    top = float(np.max(np.abs(want)))
    assert abs(spectral_norm(T) - top) <= tolerance(want)
    assert abs(spectral_norm(T.to_dense()) - top) <= tolerance(want)
