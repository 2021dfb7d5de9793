"""Matrix containers, spectra and the extended-range scalar.

The two matrix types store their data canonically: DenseHermitian keeps the
lower triangle authoritative and mirrors the conjugate into the upper
triangle, so hermiticity is exact by construction.  It holds a matrix whose
imaginary parts are all zero once canonical (real, integer or complex input)
as a float64 array, and any other as complex128, so the dtype of its entries
is the real/complex decision and no solver branches on it.  SymTridiagonal
places no sign constraint on the couplings; all bound formulas take absolute
values.  Both reject NaN and infinite entries, which the oracle would
otherwise turn into plausible wrong spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DenseHermitian",
    "BlockSplit",
    "SymTridiagonal",
    "Spectrum",
    "LogScalar",
]


class HermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


def _canonical_hermitian(entries: np.ndarray) -> np.ndarray:
    a = np.asarray(entries)
    a = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise HermitianError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise HermitianError("matrix has NaN or infinite entries")
    # relative to the largest entry, so the verdict is the same at any scale
    # down to the subnormals, whose roundoff is absolute
    tol = max(1e-8 * float(np.max(np.abs(a))), np.finfo(float).tiny)
    if float(np.max(np.abs(a - a.conj().T))) > tol:
        raise HermitianError("matrix deviates from Hermitian beyond tolerance")
    # stored real unless the strictly lower triangle, the only imaginary
    # parts kept, has a nonzero one
    if np.iscomplexobj(a) and not np.tril(a.imag, -1).any():
        a = a.real
    lower = np.tril(a)
    out = lower + np.tril(a, -1).conj().T
    out[np.diag_indices_from(out)] = out.diagonal().real
    return out


@dataclass(frozen=True)
class DenseHermitian:
    """Square Hermitian matrix; lower triangle is authoritative."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _canonical_hermitian(self.entries))
        self.entries.setflags(write=False)

    @classmethod
    def from_array(cls, a) -> "DenseHermitian":
        return cls(a)

    @classmethod
    def from_blocks(cls, a11, a21, a22) -> "DenseHermitian":
        """Assemble [[A11, A21^H], [A21, A22]] from the lower-block data."""
        a21 = np.atleast_2d(np.asarray(a21))
        return cls.from_array(np.block([[np.asarray(a11), a21.conj().T],
                                        [a21, np.atleast_2d(np.asarray(a22))]]))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def block(self, split: "BlockSplit", which: str) -> np.ndarray:
        """Return one of the 2x2 partition blocks ('11', '21', '22')."""
        m = self.n - split.k
        if which == "11":
            return self.entries[:m, :m]
        if which == "22":
            return self.entries[m:, m:]
        if which == "21":
            return self.entries[m:, :m]
        raise ValueError(f"unknown block {which!r}")


@dataclass(frozen=True)
class BlockSplit:
    """Trailing block size k of a 2x2 partition; 1 <= k <= n-1."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("trailing block size must be >= 1")

    def check(self, n: int) -> None:
        if not 1 <= self.k <= n - 1:
            raise ValueError(f"split k={self.k} invalid for order {n}")


@dataclass(frozen=True)
class SymTridiagonal:
    """Real symmetric tridiagonal matrix: diagonal a_i, couplings b_i."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.diag, dtype=float).reshape(-1)
        b = np.asarray(self.offdiag, dtype=float).reshape(-1)
        if d.size == 0:
            raise ValueError("empty diagonal")
        if b.size != d.size - 1:
            raise ValueError(f"offdiag length {b.size} != diag length {d.size} - 1")
        if not (np.isfinite(d).all() and np.isfinite(b).all()):
            raise ValueError("tridiagonal has NaN or infinite entries")
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", b)
        d.setflags(write=False)
        b.setflags(write=False)

    @property
    def n(self) -> int:
        return self.diag.size

    def to_dense(self) -> DenseHermitian:
        a = np.diag(self.diag)
        idx = np.arange(self.n - 1)
        a[idx, idx + 1] = self.offdiag
        a[idx + 1, idx] = self.offdiag
        return DenseHermitian.from_array(a)

    def window(self, k: int) -> "SymTridiagonal":
        """Trailing k-by-k submatrix."""
        if not 1 <= k <= self.n:
            raise ValueError(f"window size {k} out of range for order {self.n}")
        return SymTridiagonal(self.diag[self.n - k:], self.offdiag[self.n - k:])


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues, optionally with orthonormal eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray | None = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1)
        if np.any(np.diff(v) < 0):
            raise ValueError("eigenvalues must be ascending")
        object.__setattr__(self, "values", v)
        v.setflags(write=False)
        if self.vectors is not None:
            object.__setattr__(self, "vectors", np.asarray(self.vectors))

    @property
    def n(self) -> int:
        return self.values.size


# Conversions to plain floats are refused below this point; everything
# smaller only exists in log space.
UNDERFLOW_LOG10 = -300.0


@dataclass(frozen=True)
class LogScalar:
    """Sign plus log10 magnitude; exact for products far below underflow."""

    sign: int
    log10: float = field(default=float("-inf"))

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")
        if math.isnan(self.log10):
            raise ValueError("log10 is NaN")
        # a zero is one value, whether built from sign 0 or log10 -inf
        if self.sign == 0 or self.log10 == -math.inf:
            object.__setattr__(self, "sign", 0)
            object.__setattr__(self, "log10", -math.inf)

    @classmethod
    def from_float(cls, x: float) -> "LogScalar":
        if x == 0.0:
            return cls(0)
        return cls(1 if x > 0 else -1, math.log10(abs(x)))

    @classmethod
    def from_log10(cls, log10: float, sign: int = 1) -> "LogScalar":
        return cls(sign, log10)

    def __mul__(self, other):
        if isinstance(other, LogScalar):
            if self.sign == 0 or other.sign == 0:
                return LogScalar(0)
            return LogScalar(self.sign * other.sign, self.log10 + other.log10)
        return self * LogScalar.from_float(float(other))

    __rmul__ = __mul__

    def to_float(self) -> float:
        """Plain float; refuses magnitudes below the underflow threshold."""
        if self.sign == 0:
            return 0.0
        if self.log10 <= UNDERFLOW_LOG10:
            raise OverflowError(
                f"magnitude 10^{self.log10:.2f} is below the float underflow threshold"
            )
        return self.sign * 10.0 ** self.log10

    def float_or_zero(self) -> float:
        """Best-effort float; underflows quietly to signed zero."""
        if self.sign == 0 or self.log10 <= UNDERFLOW_LOG10:
            return 0.0 * (self.sign or 1)
        return self.sign * 10.0 ** self.log10

    def _key(self):
        # signed magnitude ordering: negatives below zero below positives
        return (self.sign, self.sign * self.log10 if self.sign else 0.0)

    def __lt__(self, other):
        o = other if isinstance(other, LogScalar) else LogScalar.from_float(float(other))
        return self._key() < o._key()

    def __le__(self, other):
        o = other if isinstance(other, LogScalar) else LogScalar.from_float(float(other))
        return self._key() <= o._key()

    def format(self, digits: int = 4) -> str:
        if self.sign == 0:
            return "0"
        exp = math.floor(self.log10)
        mant = 10.0 ** (self.log10 - exp)
        # guard against mantissa rounding up to 10
        if mant >= 10.0 - 0.5 * 10.0 ** (1 - digits):
            mant /= 10.0
            exp += 1
        s = "-" if self.sign < 0 else ""
        return f"{s}{mant:.{digits - 1}f}e{exp:+d}"

    def __str__(self) -> str:
        return self.format()
