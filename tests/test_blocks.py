import numpy as np
import pytest

from conftest import dense_shift, random_hermitian
from eigbounds import (BlockSplit, DenseHermitian, eig_dense, eigvec_tail_bound,
                       quadratic_residual_bounds, spectral_norm, theorem1_bounds,
                       weyl_bound)


def off_diagonal_perturbation(rng, m, k, scale):
    """Hermitian E with zero diagonal blocks."""
    return DenseHermitian.from_blocks(np.zeros((m, m)),
                                      scale * rng.standard_normal((k, m)),
                                      np.zeros((k, k)))


class TestWeyl:
    def test_equals_spectral_norm(self):
        rng = np.random.default_rng(20)
        E = random_hermitian(rng, 6)
        assert weyl_bound(E) == pytest.approx(spectral_norm(E), rel=1e-14)

    def test_bounds_every_shift(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            n = int(rng.integers(2, 12))
            A = random_hermitian(rng, n)
            E = random_hermitian(rng, n, scale=0.3)
            assert np.max(dense_shift(A, E)) <= weyl_bound(E) + 1e-12


class TestQuadraticResidual:
    def test_closed_form_2x2(self):
        # A = diag(0, 2), off-diagonal perturbation 0.1: bound 0.1^2/2 = 0.005
        A = DenseHermitian.from_array(np.diag([0.0, 2.0]))
        E = DenseHermitian.from_array([[0.0, 0.1], [0.1, 0.0]])
        rep = quadratic_residual_bounds(A, BlockSplit(1), E, [1])[0]
        assert rep.valid and rep.formula == "quad_residual"
        assert rep.bound.float_or_zero() == pytest.approx(0.005, rel=1e-13)
        assert np.max(dense_shift(A, E)) <= rep.bound.float_or_zero()

    @pytest.mark.parametrize("s", [-600, 600])
    def test_bound_follows_a_power_of_two_scaling(self, s):
        # ||E||^2 underflows at 2^-600 and overflows at 2^+600
        A = DenseHermitian.from_array(np.diag([0.0, 2.0]))
        E = DenseHermitian.from_array([[0.0, 0.1], [0.1, 0.0]])
        unit = quadratic_residual_bounds(A, BlockSplit(1), E, [1])[0]
        far = quadratic_residual_bounds(DenseHermitian.from_array(np.ldexp(A.entries, s)),
                                        BlockSplit(1),
                                        DenseHermitian.from_array(np.ldexp(E.entries, s)),
                                        [1])[0]
        assert far.valid and far.formula == "quad_residual"
        assert far.bound.log10 == pytest.approx(unit.bound.log10 + s * np.log10(2.0),
                                                abs=1e-12)

    def test_soundness_when_gap_dominates(self):
        rng = np.random.default_rng(22)
        for _ in range(25):
            m = int(rng.integers(1, 6))
            k = int(rng.integers(1, 6))
            A = DenseHermitian.from_blocks(
                random_hermitian(rng, m).entries + 20.0 * np.eye(m),
                np.zeros((k, m)),
                random_hermitian(rng, k).entries)
            E = off_diagonal_perturbation(rng, m, k, 0.05)
            shifts = dense_shift(A, E)
            for i, rep in enumerate(quadratic_residual_bounds(A, BlockSplit(k), E),
                                    start=1):
                if rep.valid and rep.gap >= 10.0 * spectral_norm(E):
                    assert shifts[i - 1] <= rep.bound.float_or_zero() + 1e-12

    def test_trailing_block_eigenvalue_gap_is_to_leading_block(self):
        # the three smallest eigenvalues of A belong to A22; measured against
        # the A22 spectrum they had a roundoff gap and a useless bound
        rng = np.random.default_rng(24)
        a11 = random_hermitian(rng, 4).entries + 12.0 * np.eye(4)
        a22 = random_hermitian(rng, 3).entries
        A = DenseHermitian.from_blocks(a11, np.zeros((3, 4)), a22)
        E = off_diagonal_perturbation(rng, 4, 3, 0.05)
        a11_low = eig_dense(DenseHermitian.from_array(a11)).values[0]
        a22_vals = eig_dense(DenseHermitian.from_array(a22)).values
        shifts = dense_shift(A, E)
        reps = quadratic_residual_bounds(A, BlockSplit(3), E)
        for i in (1, 2, 3):
            rep = reps[i - 1]
            assert rep.valid and rep.formula == "quad_residual"
            assert rep.gap == pytest.approx(a11_low - a22_vals[i - 1], rel=1e-13)
            assert rep.bound.float_or_zero() < spectral_norm(E)
            assert shifts[i - 1] <= rep.bound.float_or_zero()

    def test_rejects_coupled_a(self):
        A = DenseHermitian.from_array([[1.0, 0.5], [0.5, 2.0]])
        E = DenseHermitian.from_array([[0.0, 0.1], [0.1, 0.0]])
        with pytest.raises(ValueError):
            quadratic_residual_bounds(A, BlockSplit(1), E, [1])

    def test_rejects_diagonal_perturbation(self):
        A = DenseHermitian.from_array(np.diag([0.0, 2.0]))
        E = DenseHermitian.from_array(np.diag([0.1, 0.0]))
        with pytest.raises(ValueError):
            quadratic_residual_bounds(A, BlockSplit(1), E, [1])

    def test_an_overflowed_bound_renders_as_overflow(self):
        # ||E||^2 / gap is 1e400 * 2^40: valid, with log10 inf
        from eigbounds import RunReport
        A = DenseHermitian.from_array(np.diag([1.0, 1.0 + 2.0 ** -40]))
        E = DenseHermitian.from_array([[0.0, 1e200], [1e200, 0.0]])
        rep = quadratic_residual_bounds(A, BlockSplit(1), E, [1])[0]
        assert rep.valid and rep.bound.log10 == np.inf
        assert str(rep.bound) == "inf"
        report = RunReport("demo")
        report.add(bound=rep.bound, log10=rep.bound.log10)
        assert report.render().splitlines()[1] == "bound=overflow log10=overflow"

    def test_zero_gap_falls_back_to_weyl(self):
        A = DenseHermitian.from_array(np.diag([2.0, 2.0]))
        E = DenseHermitian.from_array([[0.0, 0.1], [0.1, 0.0]])
        rep = quadratic_residual_bounds(A, BlockSplit(1), E, [1])[0]
        assert not rep.valid and rep.formula == "weyl"
        assert rep.bound.float_or_zero() == pytest.approx(0.1, rel=1e-12)


class TestEigvecTailBound:
    def test_bounds_oracle_tail(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            m, k = int(rng.integers(2, 6)), int(rng.integers(1, 5))
            A = DenseHermitian.from_blocks(
                random_hermitian(rng, m).entries + 15.0 * np.eye(m),
                0.1 * rng.standard_normal((k, m)),
                random_hermitian(rng, k).entries)
            spec = eig_dense(A, want_vectors=True)
            lam = float(spec.values[-1])      # top eigenvalue lives in A11
            tail = np.linalg.norm(spec.vectors[m:, -1])
            assert tail <= eigvec_tail_bound(A, BlockSplit(k), lam) + 1e-12

    def test_double_eigenvalue_in_leading_block(self):
        A = DenseHermitian.from_blocks(np.diag([5.0, 5.0]), [[0.01, 0.02]], [[1.0]])
        spec = eig_dense(A, want_vectors=True)
        bound = eigvec_tail_bound(A, BlockSplit(1), float(spec.values[-1]))
        for col in (-1, -2):
            assert abs(spec.vectors[2, col]) <= bound + 1e-12

    def test_zero_gap_raises(self):
        A = DenseHermitian.from_array(np.diag([3.0, 3.0]))
        with pytest.raises(ValueError):
            eigvec_tail_bound(A, BlockSplit(1), 3.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_lam_raises(self, lam):
        # the gap to A22 would read NaN or inf: a NaN bound, or a plausible 0
        A = DenseHermitian.from_blocks(np.diag([5.0, 4.0]), [[0.01, 0.02]], [[1.0]])
        with pytest.raises(ValueError, match="not finite"):
            eigvec_tail_bound(A, BlockSplit(1), lam)


class TestTau:
    def test_none_when_gap_too_small(self):
        A = DenseHermitian.from_array(np.diag([1.0, 1.05]))
        E = random_hermitian(np.random.default_rng(24), 2, scale=0.5)
        assert theorem1_bounds(A, E, BlockSplit(1), [1])[0].tau is None

    def test_refined_never_exceeds_plain(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            n = int(rng.integers(3, 10))
            k = int(rng.integers(1, n))
            A = random_hermitian(rng, n)
            A = DenseHermitian.from_array(A.entries + np.diag(np.arange(n) * 4.0))
            E = random_hermitian(rng, n, scale=0.05)
            plain = theorem1_bounds(A, E, BlockSplit(k))
            sharp = theorem1_bounds(A, E, BlockSplit(k), refined=True)
            for p, q in zip(plain, sharp):
                if p.tau is not None and q.tau is not None:
                    assert q.tau <= p.tau + 1e-15

    def test_bounds_perturbed_tail_component(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            m, k = 4, 2
            A = DenseHermitian.from_blocks(
                random_hermitian(rng, m).entries + 12.0 * np.eye(m),
                0.2 * rng.standard_normal((k, m)),
                random_hermitian(rng, k).entries)
            E = random_hermitian(rng, m + k, scale=0.02)
            spec = eig_dense(DenseHermitian.from_array(A.entries + E.entries),
                             want_vectors=True)
            t = theorem1_bounds(A, E, BlockSplit(k), [m + k])[0].tau
            assert t is not None
            assert np.linalg.norm(spec.vectors[m:, -1]) <= t + 1e-12


class TestTheorem1:
    def test_never_worse_than_weyl(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            A = random_hermitian(rng, n)
            E = random_hermitian(rng, n, scale=0.1)
            k = int(rng.integers(1, n))
            rep = theorem1_bounds(A, E, BlockSplit(k), [1])[0]
            assert rep.bound.float_or_zero() <= weyl_bound(E) * (1 + 1e-14)

    def test_soundness_randomized(self):
        rng = np.random.default_rng(28)
        valid_seen = 0
        for _ in range(40):
            n = int(rng.integers(2, 16))
            k = int(rng.integers(1, n))
            A = random_hermitian(rng, n)
            A = DenseHermitian.from_array(A.entries + np.diag(np.arange(n) * 5.0))
            E = random_hermitian(rng, n, scale=0.02, complex_entries=True)
            shifts = dense_shift(A, E)
            for i, rep in enumerate(theorem1_bounds(A, E, BlockSplit(k)), start=1):
                assert shifts[i - 1] <= rep.bound.float_or_zero() + 1e-12
                if rep.valid:
                    valid_seen += 1
                    assert shifts[i - 1] <= rep.components["theorem1"] + 1e-12
        assert valid_seen > 100

    def test_structured_perturbation_beats_weyl(self):
        # tiny coupling to a far block: the structured bound is far sharper
        A = DenseHermitian.from_blocks(np.diag([1.0, 2.0, 3.0]),
                                       np.full((1, 3), 1e-3), [[50.0]])
        E = DenseHermitian.from_blocks(np.zeros((3, 3)),
                                       np.full((1, 3), 1e-3), [[1e-3]])
        rep = theorem1_bounds(A, E, BlockSplit(1), [1])[0]
        assert rep.valid
        assert rep.bound.float_or_zero() < 1e-6 < weyl_bound(E)

    @pytest.mark.parametrize("kwargs, error", [
        ({"indices": [0]}, IndexError),
        ({"indices": [1, 5]}, IndexError),
    ])
    def test_rejects_bad_indices_and_values(self, kwargs, error):
        rng = np.random.default_rng(29)
        A = random_hermitian(rng, 4)
        E = random_hermitian(rng, 4, scale=0.1)
        with pytest.raises(error, match="index"):
            theorem1_bounds(A, E, BlockSplit(2), **kwargs)

    def test_invalid_tau_reports_weyl_fallback(self):
        A = DenseHermitian.from_array(np.diag([1.0, 1.01]))
        E = DenseHermitian.from_array([[0.0, 0.3], [0.3, 0.0]])
        rep = theorem1_bounds(A, E, BlockSplit(1), [1])[0]
        assert not rep.valid
        assert rep.bound.float_or_zero() == pytest.approx(weyl_bound(E), rel=1e-12)

    def test_cubic_scaling_of_far_block_sensitivity(self):
        # leading eigenvalues react to a trailing-entry change of size eps
        # through the coupling delta twice: total movement O(eps * delta^2)
        for delta in (1e-2, 1e-3):
            for eps in (1e-3, 1e-4):
                a11 = np.diag([1.0, 2.0, 3.0])
                coupling = np.full((1, 3), delta)
                w = DenseHermitian.from_blocks(a11, coupling, [[eps]])
                wo = DenseHermitian.from_blocks(a11, coupling, [[0.0]])
                move = np.abs(eig_dense(w).values - eig_dense(wo).values)
                assert float(np.max(move[1:])) <= 10.0 * eps * delta * delta


class TestSubBlocks:
    """_sub_blocks builds A11 exactly in the quadratic residual bound's
    shape, A21, E11 and E22 all zero, and bound-block reports the bound
    exactly then."""

    @pytest.mark.parametrize("nonzero", [None, "a21", "e11", "e22"])
    def test_a11_exactly_in_the_quad_shape(self, nonzero):
        from eigbounds import cli
        from eigbounds.blocks import _sub_blocks
        rng = np.random.default_rng(2310)
        m, k = 4, 2
        a = np.diag(4.0 * np.arange(m + k))
        a[:m, :m] += random_hermitian(rng, m).entries
        e = off_diagonal_perturbation(rng, m, k, 0.01).entries.copy()
        if nonzero == "a21":
            a[m, 0] = a[0, m] = 0.01
        elif nonzero == "e11":
            e[1, 1] = 0.01
        elif nonzero == "e22":
            e[m + 1, m + 1] = 0.01
        A, E = DenseHermitian.from_array(a), DenseHermitian.from_array(e)
        quad = nonzero is None
        blocks = _sub_blocks(A, E, BlockSplit(k))
        assert (blocks.a11 is not None) == quad
        if quad:
            assert np.array_equal(blocks.a11.entries, a[:m, :m])
        else:
            with pytest.raises(ValueError):
                quadratic_residual_bounds(A, BlockSplit(k), E)
        rows = [r for r in cli.cmd_bound_block(A, E, k).records if "index" in r]
        assert len(rows) == m + k
        assert all(("quad_residual" in r) == quad for r in rows)

    @pytest.mark.parametrize("bound", ["theorem1", "quad_residual"])
    def test_e_of_another_order_is_refused(self, bound, engine_calls):
        # E's own order would slice blocks of another matrix than A + E
        A = DenseHermitian.from_array(np.diag([0.0, 2.0]))
        E = DenseHermitian.from_array(np.ones((3, 3)))
        with pytest.raises(ValueError, match="E has order 3, A has order 2"):
            if bound == "theorem1":
                theorem1_bounds(A, E, BlockSplit(1))
            else:
                quadratic_residual_bounds(A, BlockSplit(1), E)
        assert engine_calls == []


@pytest.fixture
def engine_calls(monkeypatch):
    """The member count of each _block_eigenvalues call from here on."""
    from eigbounds import solvers
    calls = []
    engine = solvers._block_eigenvalues

    def counting(members):
        calls.append(len(members))
        return engine(members)

    monkeypatch.setattr(solvers, "_block_eigenvalues", counting)
    return calls


class TestEngineCalls:
    """The bound layer's spectra and norms are stacked into few calls of
    the tridiagonal engine: the engine's fixed cost is paid per call."""

    def test_theorem1_makes_two_calls(self, engine_calls):
        # weyl_bound(E), then the spectra of A and A22 and the norms of
        # A21, E11, E21 and E22 in one call
        rng = np.random.default_rng(2300)
        A = random_hermitian(rng, 12, complex_entries=True)
        E = random_hermitian(rng, 12, scale=0.01)
        reports = theorem1_bounds(A, E, BlockSplit(4))
        assert len(engine_calls) <= 2
        assert engine_calls[-1] >= 6
        assert len(reports) == 12

    def test_bound_block_verify_makes_one_call(self, engine_calls):
        # quad shape: the spectra of A, A22, A + E and A11 and the norms of
        # E, A21, E11, E21 and E22 in one call, which serves the bounds
        from eigbounds import cli
        rng = np.random.default_rng(2301)
        m, k = 14, 6
        a11 = random_hermitian(rng, m).entries + np.diag(4.0 * np.arange(m))
        a22 = random_hermitian(rng, k).entries + np.diag(4.0 * np.arange(m, m + k))
        A = DenseHermitian.from_blocks(a11, np.zeros((k, m)), a22)
        E = off_diagonal_perturbation(rng, m, k, 0.05)
        report = cli.cmd_bound_block(A, E, k, verify=True)
        assert report.sound
        assert any("quad-residual" in r.get("check", "") for r in report.records)
        assert len(engine_calls) == 1

    def test_quad_residual_claim_makes_two_one_member_calls(self, engine_calls):
        # ||E||, then the spectrum of A + E; the 1x1 blocks need no engine
        from eigbounds import RunReport, cli
        report = RunReport("verify-all")
        cli._claim_quad_residual(report)
        assert report.sound
        assert engine_calls == [1, 1]

    def test_plain_bound_block_makes_one_call(self, engine_calls):
        # the spectra of A and A22 and the norms of E, A21, E11, E21, E22
        from eigbounds import cli
        rng = np.random.default_rng(2302)
        A = random_hermitian(rng, 12, complex_entries=True)
        A = DenseHermitian.from_array(A.entries + np.diag(4.0 * np.arange(12)))
        E = random_hermitian(rng, 12, scale=0.02)
        report = cli.cmd_bound_block(A, E, 3)
        assert not any("quad_residual" in r for r in report.records)
        assert engine_calls == [7]
        # outside the command every solve reaches the engine again
        engine_calls.clear()
        assert report.summary["weyl"] == weyl_bound(E)
        assert engine_calls == [1]
