import math

import numpy as np
import pytest

from eigbounds import BlockSplit, DenseHermitian, HermitianError, LogScalar, SymTridiagonal
from eigbounds.io import serialize_matrix
from eigbounds.types import UNDERFLOW_LOG10


class TestDenseHermitian:
    def test_mirrors_lower_triangle(self):
        A = DenseHermitian.from_array([[1.0, 2.0 + 1e-10j], [2.0, 3.0]])
        assert A.entries[0, 1] == np.conj(A.entries[1, 0])

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermitianError):
            DenseHermitian.from_array([[1.0, 5.0], [2.0, 3.0]])

    @pytest.mark.parametrize("scale", [2.0 ** -600, 1.0, 2.0 ** 600],
                             ids=["2^-600", "1", "2^600"])
    def test_rejects_non_hermitian_at_any_scale(self, scale):
        with pytest.raises(HermitianError):
            DenseHermitian.from_array(np.array([[1.0, 1.0], [-1.0, 1.0]]) * scale)

    @pytest.mark.parametrize("scale", [2.0 ** -1060, 2.0 ** -600, 1.0, 2.0 ** 600],
                             ids=["2^-1060", "2^-600", "1", "2^600"])
    def test_accepts_roundoff_asymmetry_at_any_scale(self, scale):
        # at 2^-1060 the entries are subnormal and the asymmetry is 2e-4 of
        # the largest
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
        a = q @ np.diag(rng.standard_normal(8) * scale) @ q.T
        assert np.any(a != a.T)
        lower = np.tril_indices(8)
        assert np.array_equal(DenseHermitian.from_array(a).entries[lower], a[lower])

    def test_rejects_non_finite_entries(self):
        with pytest.raises(HermitianError, match="infinite"):
            DenseHermitian.from_array([[1.0, np.inf], [np.inf, 2.0]])
        with pytest.raises(HermitianError, match="NaN"):
            DenseHermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_from_blocks_assembly(self):
        A = DenseHermitian.from_blocks(np.diag([1.0, 2.0]), [[0.5, 0.0]], [[7.0]])
        split = BlockSplit(1)
        assert np.array_equal(A.block(split, "11"), np.diag([1.0, 2.0]))
        assert np.array_equal(A.block(split, "21"), [[0.5, 0.0]])
        assert np.array_equal(A.block(split, "22"), [[7.0]])
        assert A.entries[0, 2] == 0.5  # mirrored upper block

    def test_real_detection(self):
        A = DenseHermitian.from_array([[1.0, 2.0], [2.0, 3.0]])
        assert A.entries.dtype == np.float64
        B = DenseHermitian.from_array([[1.0, 1j], [-1j, 3.0]])
        assert B.entries.dtype == np.complex128

    @pytest.mark.parametrize("a", [
        np.array([[1.0, -0.5], [-0.5, 3.0]]),
        np.array([[1, 2], [2, 3]]),
        np.array([[1.0, -0.5], [-0.5, 3.0]], dtype=complex),
        np.array([[1.0, -0.5], [-0.5, 3.0]], dtype=complex).conj(),  # -0j
        # within tolerance: the diagonal's and the upper triangle's imaginary
        # parts are not kept
        np.array([[1.0 + 1e-12j, -0.5 + 1e-12j], [-0.5, 3.0]]),
    ])
    def test_real_input_is_stored_as_float64(self, a):
        A = DenseHermitian.from_array(a)
        assert A.entries.dtype == np.float64
        assert np.array_equal(A.entries, np.real(a))

    @pytest.mark.parametrize("a", [
        np.array([[1.0, -1j], [1j, 3.0]]),
        np.array([[1.0, -1j], [1j, 3.0]], dtype=np.complex64),
        np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 1e-300j, 3.0]]),
    ])
    def test_nonzero_imaginary_part_stays_complex128(self, a):
        A = DenseHermitian.from_array(a)
        assert A.entries.dtype == np.complex128
        assert np.array_equal(np.tril(A.entries), np.tril(a))
        assert np.array_equal(A.entries, A.entries.conj().T)

    @pytest.mark.parametrize("coupling", [
        [[0.5, -1.5, 0.25]],
        [[0.5, -1.5j, 0.25]],
        [[1, 0, -2]],
    ])
    def test_from_blocks_dtype_and_entries(self, coupling):
        rng = np.random.default_rng(19)
        m = rng.standard_normal((3, 3))
        a11, a22 = m + m.T, [[7.0]]
        A = DenseHermitian.from_blocks(a11, coupling, a22)
        # the zero-filled assembly of [[A11, A21^H], [A21, A22]]
        full = np.zeros((4, 4), dtype=complex)
        full[:3, :3], full[3:, :3], full[3:, 3:] = a11, coupling, a22
        full[:3, 3:] = np.conj(coupling).T
        assert np.array_equal(A.entries, DenseHermitian.from_array(full).entries)
        assert A.entries.dtype == (np.complex128 if np.iscomplexobj(coupling)
                                   else np.float64)

    def test_serialize_real_matrix_text(self):
        A = DenseHermitian.from_array([[2, -0.0, 0.1], [-0.0, 1e-300, 3],
                                       [0.1, 3, -4.5]])
        assert serialize_matrix(A) == (
            "format dense-hermitian\n"
            "row (2+0j) 0j (0.1+0j)\n"
            "row 0j (1e-300+0j) (3+0j)\n"
            "row (0.1+0j) (3+0j) (-4.5+0j)\n")

    def test_block_split_validation(self):
        with pytest.raises(ValueError):
            BlockSplit(0)
        with pytest.raises(ValueError):
            BlockSplit(3).check(3)


class TestSymTridiagonal:
    def test_to_dense_symmetry(self):
        T = SymTridiagonal([3.0, 2.0, 1.0], [0.5, 0.25])
        D = T.to_dense()
        assert np.array_equal(D.entries, D.entries.T)
        assert D.entries[1, 2] == 0.25
        assert D.entries.dtype == np.float64
        assert np.array_equal(D.entries, [[3.0, 0.5, 0.0], [0.5, 2.0, 0.25],
                                          [0.0, 0.25, 1.0]])

    def test_window_is_trailing_block(self):
        T = SymTridiagonal([4.0, 3.0, 2.0, 1.0], [0.1, 0.2, 0.3])
        W = T.window(2)
        assert np.array_equal(W.diag, [2.0, 1.0])
        assert np.array_equal(W.offdiag, [0.3])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SymTridiagonal([1.0, 2.0], [0.1, 0.2])

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError, match="NaN"):
            SymTridiagonal([1.0, np.nan, 3.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="infinite"):
            SymTridiagonal([1.0, 2.0, 3.0], [0.5, -np.inf])


class TestLogScalar:
    def test_round_trip(self):
        for x in (1.0, -2.5, 3e-200, 7e150):
            assert LogScalar.from_float(x).to_float() == pytest.approx(x, rel=1e-12)

    def test_zero(self):
        z = LogScalar.from_float(0.0)
        assert z.sign == 0 and z.float_or_zero() == 0.0

    def test_zero_is_one_value(self):
        # log10 -inf is a zero however it is built
        for z in (LogScalar.from_log10(-math.inf), LogScalar(1, -math.inf),
                  LogScalar(-1, -math.inf)):
            assert z == LogScalar(0) and z.sign == 0
            assert z <= LogScalar(0) <= z and not z < LogScalar(0)
            assert LogScalar.from_float(-1.0) < z < LogScalar.from_float(1e-300)
            assert z.to_float() == 0.0
            assert z.format() == "0" and str(z) == "0"

    def test_nan_log10_rejected(self):
        with pytest.raises(ValueError):
            LogScalar(1, math.nan)
        with pytest.raises(ValueError):
            LogScalar.from_float(math.nan)

    def test_products_below_underflow(self):
        tiny = LogScalar.from_float(1e-200)
        prod = tiny * tiny * tiny
        assert prod.log10 == pytest.approx(-600.0, abs=1e-9)
        assert prod.float_or_zero() == 0.0
        with pytest.raises(OverflowError):
            prod.to_float()

    def test_sign_rules(self):
        a = LogScalar.from_float(-2.0)
        assert (a * a).sign == 1
        assert (a * a * a).sign == -1

    def test_ordering(self):
        xs = [LogScalar.from_float(v) for v in (3.0, -5.0, 1e-320, 0.0)]
        ordered = sorted(xs)
        assert [x.float_or_zero() for x in ordered][-1] == 3.0
        assert ordered[0].sign == -1

    def test_from_log10(self):
        assert LogScalar.from_log10(-2.0).to_float() == pytest.approx(0.01)

    def test_format_far_below_underflow(self):
        s = LogScalar.from_log10(-271.5).format(digits=4)
        assert "272" in s or "271" in s

    @pytest.mark.parametrize("x, text", [
        (LogScalar(0), "0"),
        (LogScalar.from_float(2.5e-3), "2.500e-3"),
        # a mantissa that rounds up to 10 moves to the next decade
        (LogScalar.from_float(9.9996), "1.000e+1"),
        (LogScalar.from_float(-9.99996e-5), "-1.000e-4"),
        # an overflowed magnitude, as quadratic_residual_bounds can return
        (LogScalar.from_float(math.inf), "inf"),
        (LogScalar.from_float(-math.inf), "-inf"),
    ])
    def test_format(self, x, text):
        assert x.format(digits=4) == text

    def test_underflow_threshold_constant(self):
        assert UNDERFLOW_LOG10 == -300.0
