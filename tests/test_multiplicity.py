import numpy as np
import pytest

from conftest import random_hermitian
from eigbounds import (DenseHermitian, detect_multiple, eig_dense,
                       expansion_order, first_order_eigs)


def symmetric(rng, n, scale=1.0):
    m = rng.standard_normal((n, n))
    return DenseHermitian.from_array(scale * (m + m.T) / 2.0)


class TestDetectMultiple:
    def test_double_eigenvalue(self):
        A = DenseHermitian.from_array(np.diag([1.0, 1.0, 5.0]))
        ctxs = detect_multiple(A)
        assert len(ctxs) == 1
        ctx = ctxs[0]
        assert ctx.multiplicity == 2
        assert ctx.lambda0 == pytest.approx(1.0, abs=1e-13)
        assert ctx.gap == pytest.approx(4.0, abs=1e-12)
        assert ctx.basis.shape == (3, 2)

    def test_identity_is_one_full_cluster(self):
        ctxs = detect_multiple(DenseHermitian.from_array(np.eye(3)))
        assert len(ctxs) == 1
        assert ctxs[0].multiplicity == 3
        assert np.isinf(ctxs[0].gap)

    def test_simple_spectrum_has_no_clusters(self):
        A = DenseHermitian.from_array(np.diag([1.0, 2.0, 3.0]))
        assert detect_multiple(A) == []

    def test_rotated_double_eigenvalue_found(self):
        # the same double eigenvalue hidden by a random orthogonal similarity
        rng = np.random.default_rng(50)
        m = rng.standard_normal((4, 4))
        q, _ = np.linalg.qr(m)
        A = DenseHermitian.from_array(q @ np.diag([2.0, 2.0, -1.0, 7.0]) @ q.T)
        ctxs = detect_multiple(A)
        assert len(ctxs) == 1 and ctxs[0].multiplicity == 2
        assert ctxs[0].lambda0 == pytest.approx(2.0, abs=1e-10)


class TestFirstOrderEigs:
    def test_identity_perturbation_shifts_exactly(self):
        A = DenseHermitian.from_array(np.diag([1.0, 1.0, 5.0]))
        ctx = detect_multiple(A)[0]
        E = DenseHermitian.from_array(np.eye(3))
        preds = first_order_eigs(ctx, E, 0.01)
        assert np.allclose(preds, [1.01, 1.01], atol=1e-13)

    def test_invariant_under_cluster_basis_rotation(self):
        # conjugating everything by an orthogonal matrix must not change the
        # predicted eigenvalues
        rng = np.random.default_rng(51)
        A = DenseHermitian.from_array(np.diag([3.0, 3.0, 3.0, -2.0]))
        E = symmetric(rng, 4, scale=0.5)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        Aq = DenseHermitian.from_array(q @ A.entries @ q.T)
        Eq = DenseHermitian.from_array(q @ E.entries @ q.T)
        p1 = first_order_eigs(detect_multiple(A)[0], E, 1e-3)
        p2 = first_order_eigs(detect_multiple(Aq)[0], Eq, 1e-3)
        assert np.allclose(np.sort(p1), np.sort(p2), atol=1e-10)

    def test_oracle_agreement_to_first_order(self):
        rng = np.random.default_rng(52)
        A = DenseHermitian.from_array(np.diag([1.0, 1.0, 5.0]))
        ctx = detect_multiple(A)[0]
        E = symmetric(rng, 3)
        eps = 1e-6
        preds = first_order_eigs(ctx, E, eps)
        exact = eig_dense(DenseHermitian.from_array(
            A.entries + eps * E.entries)).values[:2]
        assert np.max(np.abs(np.sort(preds) - exact)) <= 1e-10


class TestExpansionOrder:
    def test_trailing_term_is_quadratic(self):
        rng = np.random.default_rng(53)
        A = DenseHermitian.from_array(np.diag([1.0, 1.0, 5.0]))
        ctx = detect_multiple(A)[0]
        for _ in range(5):
            E = symmetric(rng, 3)
            fit = expansion_order(ctx, E, (1e-2, 1e-3, 1e-4, 1e-5))
            assert fit.exact or 1.8 <= fit.slope <= 2.2
            assert np.all(fit.errors <= fit.gap_bounds)

    def test_exact_when_perturbation_commutes(self):
        A = DenseHermitian.from_array(np.diag([2.0, 2.0, 8.0]))
        ctx = detect_multiple(A)[0]
        E = DenseHermitian.from_array(np.diag([0.3, -0.4, 0.0]))
        fit = expansion_order(ctx, E, (1e-2, 1e-3, 1e-4, 1e-5))
        assert fit.exact

    def test_grid_must_span_two_decades(self):
        A = DenseHermitian.from_array(np.diag([1.0, 1.0, 5.0]))
        ctx = detect_multiple(A)[0]
        E = DenseHermitian.from_array(np.eye(3))
        with pytest.raises(ValueError):
            expansion_order(ctx, E, (1e-2, 5e-3))

    def test_large_eps_rejected(self):
        rng = np.random.default_rng(54)
        A = DenseHermitian.from_array(np.diag([1.0, 1.0, 1.2]))
        ctx = detect_multiple(A)[0]
        E = random_hermitian(rng, 3, scale=10.0)
        with pytest.raises(ValueError):
            expansion_order(ctx, E, (1e-1, 1e-2, 1e-3, 1e-4))
