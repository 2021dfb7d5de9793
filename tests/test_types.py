import numpy as np
import pytest

from eigbounds import BlockSplit, DenseHermitian, HermitianError, LogScalar, SymTridiagonal
from eigbounds.types import UNDERFLOW_LOG10


class TestDenseHermitian:
    def test_mirrors_lower_triangle(self):
        A = DenseHermitian.from_array([[1.0, 2.0 + 1e-10j], [2.0, 3.0]])
        assert A.entries[0, 1] == np.conj(A.entries[1, 0])

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermitianError):
            DenseHermitian.from_array([[1.0, 5.0], [2.0, 3.0]])

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
        assert A.is_real
        B = DenseHermitian.from_array([[1.0, 1j], [-1j, 3.0]])
        assert not B.is_real

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

    def test_underflow_threshold_constant(self):
        assert UNDERFLOW_LOG10 == -300.0
