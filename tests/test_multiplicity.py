import numpy as np
import pytest

from conftest import random_hermitian
from eigbounds import (DenseHermitian, cli, detect_multiple, eig_dense,
                       expansion_order, first_order_eigs, load_matrix,
                       multiplicity)
from test_golden import write_inputs


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

    @pytest.mark.parametrize("cluster_tol", [0.0, float("nan"), float("inf")])
    def test_cluster_tol_must_be_positive_and_finite(self, cluster_tol):
        with pytest.raises(ValueError, match="cluster_tol"):
            detect_multiple(DenseHermitian.from_array(np.eye(3)), cluster_tol)

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

    def test_eps_grid_gives_one_row_per_eps(self):
        rng = np.random.default_rng(55)
        ctx = detect_multiple(DenseHermitian.from_array(
            np.diag([2.0, 2.0, 2.0, 6.0])))[0]
        E = symmetric(rng, 4)
        grid = np.array([1e-2, 1e-3, 0.0])
        rows = first_order_eigs(ctx, E, grid)
        assert rows.shape == (3, 3)
        for eps, row in zip(grid, rows):
            assert np.array_equal(row, first_order_eigs(ctx, E, float(eps)))
        with pytest.raises(ValueError):
            first_order_eigs(ctx, E, [1e-2, -1e-3])

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_eps_rejected(self, eps):
        ctx = detect_multiple(DenseHermitian.from_array(np.diag([1.0, 1.0, 5.0])))[0]
        E = DenseHermitian.from_array(np.eye(3))
        for grid in (eps, [1e-2, eps]):
            with pytest.raises(ValueError, match="finite"):
                first_order_eigs(ctx, E, grid)

    def test_e_of_another_order_rejected(self):
        # Q1^H E Q1 and A + eps E would otherwise fail inside numpy
        ctx = detect_multiple(DenseHermitian.from_array(np.diag([1.0, 1.0, 5.0])))[0]
        E = DenseHermitian.from_array(np.eye(2))
        with pytest.raises(ValueError, match="shape mismatch: E has order 2, A has order 3"):
            first_order_eigs(ctx, E, 1e-2)
        with pytest.raises(ValueError, match="shape mismatch: E has order 2, A has order 3"):
            expansion_order([ctx], E, (1e-2, 1e-3, 1e-4))


class TestExpansionOrder:
    def test_trailing_term_is_quadratic(self):
        rng = np.random.default_rng(53)
        A = DenseHermitian.from_array(np.diag([1.0, 1.0, 5.0]))
        ctx = detect_multiple(A)[0]
        for _ in range(5):
            E = symmetric(rng, 3)
            fit = expansion_order([ctx], E, (1e-2, 1e-3, 1e-4, 1e-5))[0]
            assert fit.exact or 1.8 <= fit.slope <= 2.2
            assert np.all(fit.errors <= fit.gap_bounds)

    def test_exact_when_perturbation_commutes(self):
        A = DenseHermitian.from_array(np.diag([2.0, 2.0, 8.0]))
        ctx = detect_multiple(A)[0]
        E = DenseHermitian.from_array(np.diag([0.3, -0.4, 0.0]))
        fit = expansion_order([ctx], E, (1e-2, 1e-3, 1e-4, 1e-5))[0]
        assert fit.exact

    def test_grid_must_span_two_decades(self):
        A = DenseHermitian.from_array(np.diag([1.0, 1.0, 5.0]))
        ctx = detect_multiple(A)[0]
        E = DenseHermitian.from_array(np.eye(3))
        with pytest.raises(ValueError):
            expansion_order([ctx], E, (1e-2, 5e-3))

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_grid_rejected(self, eps):
        # before any A + eps E is built, which would reject its entries
        ctx = detect_multiple(DenseHermitian.from_array(np.diag([1.0, 1.0, 5.0])))[0]
        E = DenseHermitian.from_array(np.eye(3))
        with pytest.raises(ValueError, match="eps grid"):
            expansion_order([ctx], E, (eps, 1e-2, 1e-4))

    def test_large_eps_rejected(self):
        rng = np.random.default_rng(54)
        A = DenseHermitian.from_array(np.diag([1.0, 1.0, 1.2]))
        ctx = detect_multiple(A)[0]
        E = random_hermitian(rng, 3, scale=10.0)
        with pytest.raises(ValueError):
            expansion_order([ctx], E, (1e-1, 1e-2, 1e-3, 1e-4))

    def test_fits_every_cluster_of_one_matrix(self):
        rng = np.random.default_rng(56)
        A = DenseHermitian.from_array(np.diag([1.0, 1.0, 4.0, 4.0, 4.0, 9.0]))
        E = symmetric(rng, 6)
        grid = (1e-2, 1e-3, 1e-4)
        ctxs = detect_multiple(A)
        fits = expansion_order(ctxs, E, grid)
        assert len(fits) == 2
        for ctx, fit in zip(ctxs, fits):
            alone = expansion_order([ctx], E, grid)[0]
            assert np.array_equal(fit.errors, alone.errors)
            assert np.array_equal(fit.predictions,
                                  first_order_eigs(ctx, E, fit.eps_grid))
            assert fit.predictions.shape == (3, ctx.multiplicity)

    def test_contexts_of_two_matrices_rejected(self):
        E = DenseHermitian.from_array(0.01 * np.eye(3))
        c1 = detect_multiple(DenseHermitian.from_array(np.diag([1.0, 1.0, 5.0])))[0]
        c2 = detect_multiple(DenseHermitian.from_array(np.diag([2.0, 3.0, 3.0])))[0]
        with pytest.raises(ValueError):
            expansion_order([c1, c2], E, (1e-2, 1e-3, 1e-4))
        with pytest.raises(ValueError):
            expansion_order([], E, (1e-2, 1e-3, 1e-4))

    def test_gap_of_every_cluster_checked_before_any_fit(self, monkeypatch):
        # the second cluster's gap (0.2) is too small for eps = 0.1; the
        # check needs ||E||, which comes in the one engine call with the
        # perturbed spectra, and no cluster's first-order spectrum follows
        A = DenseHermitian.from_array(np.diag([1.0, 1.0, 5.0, 5.0, 5.2]))
        E = DenseHermitian.from_array(np.eye(5))
        ctxs = detect_multiple(A)
        assert len(ctxs) == 2
        batches = []
        batch = multiplicity._dense_batch

        def counting(spectra=(), norms=()):
            batches.append((len(spectra), len(norms)))
            return batch(spectra, norms)

        def refuse(*args, **kwargs):
            raise AssertionError("a spectrum was computed")

        monkeypatch.setattr(multiplicity, "_dense_batch", counting)
        monkeypatch.setattr(multiplicity, "eig_dense", refuse)
        with pytest.raises(ValueError, match="gap"):
            expansion_order(ctxs, E, (1e-1, 1e-2, 1e-3))
        assert batches == [(3, 1)]

    def test_one_engine_call_plus_one_per_cluster(self, tmp_path, monkeypatch):
        # ||E|| and every A + eps E share one call; each cluster's
        # first-order spectrum is one more
        from eigbounds import solvers
        A = load_matrix(write_inputs(tmp_path)["M2"])
        ctxs = detect_multiple(A)
        assert len(ctxs) == 2
        E = symmetric(np.random.default_rng(2302), A.n, 0.01)
        calls = []
        engine = solvers._block_eigenvalues

        def counting(members):
            calls.append(len(members))
            return engine(members)

        monkeypatch.setattr(solvers, "_block_eigenvalues", counting)
        expansion_order(ctxs, E, (1e-2, 1e-3, 1e-4, 1e-5))
        assert len(calls) == 1 + len(ctxs)
        assert calls[0] >= 5


def test_multieig_solves_each_perturbed_matrix_once(tmp_path, monkeypatch):
    """Two clusters (multiplicities 3 and 2) share one ||E|| and one
    spectrum of A + eps*E per eps, all from one batched call."""
    paths = write_inputs(tmp_path)
    A = load_matrix(paths["M2"])
    E = load_matrix(paths["P2"])
    batches, values_only = [], []
    batch = multiplicity._dense_batch

    def counting_batch(spectra=(), norms=()):
        batches.append((spectra, norms))
        return batch(spectra, norms)

    def counting_eig(M, want_vectors=False):
        if M.n == A.n and not want_vectors:
            values_only.append(M)
        return eig_dense(M, want_vectors)

    monkeypatch.setattr(multiplicity, "_dense_batch", counting_batch)
    monkeypatch.setattr(multiplicity, "eig_dense", counting_eig)
    grid = (1e-2, 1e-3, 1e-4, 1e-5)
    report = cli.cmd_multieig(A, E, eps_grid=grid)
    clusters = [r for r in report.records if "multiplicity" in r]
    assert sorted(r["multiplicity"] for r in clusters) == [2, 3]
    assert report.sound
    assert len(batches) == 1 and values_only == []
    perturbed, norms = batches[0]
    assert len(perturbed) == len(grid)
    for eps, M in zip(grid, perturbed):
        assert np.array_equal(M.entries, A.entries + eps * E.entries)
    assert len(norms) == 1 and norms[0] is E
