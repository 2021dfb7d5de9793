import dataclasses

import numpy as np
import pytest

from conftest import random_hermitian, random_tridiagonal
from eigbounds import (DenseHermitian, LogScalar, RunReport, SymTridiagonal,
                       load_matrix, parse_matrix, serialize_matrix, wilkinson_plus)
from eigbounds import aed, cli
from eigbounds.cli import main
from eigbounds.io import GENERATORS, MatrixFormatError


class TestMatrixFiles:
    def test_dense_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(60)
        A = random_hermitian(rng, 8, complex_entries=True)
        back = parse_matrix(serialize_matrix(A))
        assert np.array_equal(back.entries, A.entries)

    def test_tridiagonal_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(61)
        T = random_tridiagonal(rng, 12)
        back = parse_matrix(serialize_matrix(T))
        assert np.array_equal(back.diag, T.diag)
        assert np.array_equal(back.offdiag, T.offdiag)

    def test_generator_file(self):
        T = parse_matrix("format generator\nname wilkinson_plus\nn 5\n")
        assert T.n == 11
        assert np.array_equal(T.diag, wilkinson_plus(5).diag)

    def test_generator_error_is_a_format_error(self):
        with pytest.raises(MatrixFormatError, match="wilkinson_plus"):
            parse_matrix("format generator\nname wilkinson_plus\nn 0\n")

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\nformat tridiagonal\n\ndiag 1.0 2.0  # trailing\noffdiag 0.5\n"
        T = parse_matrix(text)
        assert np.array_equal(T.diag, [1.0, 2.0])

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_every_generator_name(self, name):
        fn, params = GENERATORS[name]
        text = f"format generator\nname {name}\n" + "".join(f"{p} 6\n" for p in params)
        T, expected = parse_matrix(text), fn(*(6 for _ in params))
        assert np.array_equal(T.diag, expected.diag)
        assert np.array_equal(T.offdiag, expected.offdiag)

    @pytest.mark.parametrize("text, match", [
        ("diag 1 2\noffdiag 1\n", "first line"),
        ("format tridiagonal\ndiag 1 2\noffdiag 1\nsuper 3\n", "needs 'diag'"),
        ("format tridiagonal\noffdiag 1\n", "needs 'diag'"),
        ("format dense-hermitian\nrow 1 0\ncol 0 1\n", "only 'row'"),
        ("format dense-hermitian\nrow 1 2\nrow 3 4\n", "Hermitian"),
        ("format generator\nname wilkinson_plus\nn 5\nm 3\n", "no parameter 'm'"),
        ("format generator\nname wilkinson_plus\n", "missing parameters"),
        ("format generator\nname hilbert\n", "unknown generator"),
    ])
    def test_malformed_file_rejected(self, text, match):
        with pytest.raises(MatrixFormatError, match=match):
            parse_matrix(text)

    def test_unknown_format_rejected(self):
        with pytest.raises(MatrixFormatError):
            parse_matrix("format sparse\nrow 1\n")

    def test_malformed_dense_entry_rejected(self):
        with pytest.raises(MatrixFormatError,
                           match=r"^malformed number: complex\(\) arg is a malformed string$"):
            parse_matrix("format dense-hermitian\nrow 1 2\nrow 2 1+\n")

    def test_malformed_dense_rejected(self):
        with pytest.raises(MatrixFormatError):
            parse_matrix("format dense-hermitian\nrow 1.0 2.0\nrow 3.0\n")

    def test_load_from_disk(self, tmp_path):
        T = SymTridiagonal([2.0, 1.0], [0.25])
        path = tmp_path / "t.mat"
        path.write_text(serialize_matrix(T))
        assert np.array_equal(load_matrix(str(path)).diag, T.diag)


@pytest.fixture
def matrix_files(tmp_path):
    rng = np.random.default_rng(62)
    A = random_hermitian(rng, 6)
    A = DenseHermitian.from_array(A.entries + np.diag(np.arange(6) * 5.0))
    E = random_hermitian(rng, 6, scale=0.01)
    T = SymTridiagonal(np.arange(8, 0, -1.0) * 2.0, np.full(7, 0.01))
    paths = {}
    for name, m in (("A", A), ("E", E), ("T", T)):
        p = tmp_path / f"{name}.mat"
        p.write_text(serialize_matrix(m))
        paths[name] = str(p)
    paths["Adouble"] = str(tmp_path / "Ad.mat")
    (tmp_path / "Ad.mat").write_text(
        serialize_matrix(DenseHermitian.from_array(np.diag([1.0, 1.0, 5.0]))))
    paths["Esmall"] = str(tmp_path / "Es.mat")
    (tmp_path / "Es.mat").write_text(
        serialize_matrix(random_hermitian(rng, 3, scale=0.5)))
    return paths


class TestCli:
    def test_bound_block_verified_run_exits_zero(self, matrix_files, capsys):
        rc = main(["bound-block", "--matrix", matrix_files["A"],
                   "--perturbation", matrix_files["E"], "--k", "2", "--verify"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "status=sound" in out

    def test_output_is_deterministic(self, matrix_files, capsys):
        argv = ["bound-block", "--matrix", matrix_files["A"],
                "--perturbation", matrix_files["E"], "--k", "3",
                "--refined", "--verify"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_wilkinson_command(self, capsys):
        rc = main(["wilkinson", "--n", "6", "--ell-range", "1:3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("verdict=PASS") == 4

    def test_aed_analysis_and_sim_agree_on_exit(self, matrix_files, capsys):
        assert main(["aed", "--matrix", matrix_files["T"], "--k", "3",
                     "--verify"]) == 0
        capsys.readouterr()
        assert main(["aed", "--matrix", matrix_files["T"], "--k", "3",
                     "--simulate", "--verify"]) == 0

    def test_sloppy_deflation_tolerance_fails_verification(self, matrix_files,
                                                           capsys):
        rc = main(["aed", "--matrix", matrix_files["T"], "--k", "4",
                   "--tol", "0.5", "--simulate", "--verify"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "verdict=FAIL" in out

    def test_aed_analysis_of_the_zero_matrix(self, tmp_path, capsys):
        # its norm is 0, and each window value deflates on an exactly zero
        # spike entry; all 4 eigenvalues lie within the slack of 0
        path = tmp_path / "zero.mat"
        path.write_text(serialize_matrix(SymTridiagonal(np.zeros(4), np.zeros(3))))
        assert main(["aed", "--matrix", str(path), "--k", "2", "--verify"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "summary deflation_count=2" in out
        checks = [line for line in out if line.startswith("check=deflated-0 ")]
        assert len(checks) == 2
        assert all("verdict=PASS" in c and "eigenvalues=4 " in c for c in checks)

    def test_multieig_command(self, matrix_files, capsys):
        rc = main(["multieig", "--matrix", matrix_files["Adouble"],
                   "--perturbation", matrix_files["Esmall"],
                   "--eps-grid", "1e-2,1e-3,1e-4,1e-5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "slope=" in out

    def test_csv_export(self, matrix_files, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        main(["wilkinson", "--n", "6", "--csv", str(csv_path)])
        lines = csv_path.read_text().splitlines()
        assert len(lines) > 2 and "record" in lines[0]

    def test_shape_mismatch_is_a_clean_error(self, matrix_files):
        with pytest.raises(SystemExit):
            main(["bound-block", "--matrix", matrix_files["A"],
                  "--perturbation", matrix_files["Esmall"], "--k", "1"])

    def test_verify_all_case_studies(self, capsys):
        rc = main(["verify-all"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict=FAIL" not in out
        assert "status=sound" in out

    def test_wilkinson_bounds_below_float_range_are_compared(self, capsys):
        # the top-pair bound at n = 100 is about 10^-310, below the float range
        rc = main(["wilkinson", "--n", "100"])
        out = capsys.readouterr().out
        assert rc in (0, 1)
        assert "record=top-pair" in out and "status=" in out

    def test_aed_window_of_one_row(self, matrix_files, capsys):
        # a one-row window has no decay depth: its bound reads invalid
        rc = main(["aed", "--matrix", matrix_files["T"], "--k", "1", "--verify"])
        out = capsys.readouterr().out
        assert rc in (0, 1)
        assert "index=1 " in out and "bound=invalid" in out and "status=" in out

    @pytest.mark.parametrize("value, text", [
        (float("nan"), "undefined"), (float("inf"), "overflow"),
        (float("-inf"), "-overflow"), (None, "invalid"), (True, "true"),
        (0.25, "0.25"), (LogScalar(0), "0"),
    ])
    def test_report_renders_every_value(self, value, text):
        report = RunReport("demo")
        report.add(x=value)
        assert report.render().splitlines()[1] == f"x={text}"

    def test_calls_in_a_row_match_fresh_calls(self, capsys):
        # main builds its parser once per process; later calls reuse it
        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        cases = (["wilkinson", "--n", "7"], ["wilkinson", "--n", "3"],
                 ["wilkinson", "--n", "seven"], ["verify-all"])
        fresh = []
        for argv in cases:
            cli.build_parser.cache_clear()
            fresh.append(run(argv))
        assert [code for code, _, _ in fresh] == [0, 2, 2, 0]
        assert cli.build_parser() is cli.build_parser()
        for _ in range(2):
            assert [run(argv) for argv in cases] == fresh


def _block_pair(quad_shape):
    """A and E of order 6 for bound-block --k 2; in the quad shape A is
    block diagonal and E has zero diagonal blocks."""
    rng = np.random.default_rng(63)
    a = random_hermitian(rng, 6).entries + np.diag(np.arange(6) * 4.0)
    e = random_hermitian(rng, 6, scale=0.01).entries.copy()
    if quad_shape:
        a[4:, :4] = a[:4, 4:] = 0.0
        e[:4, :4] = e[4:, 4:] = 0.0
    return a, e


def _verdicts(a, e, s):
    """The bound-block --verify checks of 2^s A and 2^s E."""
    report = cli.cmd_bound_block(DenseHermitian.from_array(np.ldexp(a, s)),
                                 DenseHermitian.from_array(np.ldexp(e, s)), 2,
                                 verify=True)
    return [(r["check"], r["verdict"]) for r in report.records if "check" in r]


def _zeroed(bounds):
    """bounds with every bound, and the Weyl bound, replaced by 0."""
    def run(*args, **kwargs):
        return [dataclasses.replace(r, bound=LogScalar(0),
                                    components={**r.components, "weyl": 0.0})
                for r in bounds(*args, **kwargs)]
    return run


class TestBoundBlockVerdictsAtEveryScale:
    """The slack of bound-block --verify is relative to ||A||, so a power of
    two scaling of A and E moves no verdict."""

    @pytest.mark.parametrize("quad_shape", [False, True])
    def test_sound_bounds_pass(self, quad_shape):
        a, e = _block_pair(quad_shape)
        unit = _verdicts(a, e, 0)
        assert unit and all(v == "PASS" for _, v in unit)
        assert any("quad-residual" in c for c, _ in unit) == quad_shape
        for s in (-600, 600):
            assert _verdicts(a, e, s) == unit

    @pytest.mark.parametrize("quad_shape", [False, True])
    def test_zero_bounds_fail(self, quad_shape, monkeypatch):
        monkeypatch.setattr(cli, "theorem1_bounds", _zeroed(cli.theorem1_bounds))
        monkeypatch.setattr(cli, "quadratic_residual_bounds",
                            _zeroed(cli.quadratic_residual_bounds))
        a, e = _block_pair(quad_shape)
        unit = _verdicts(a, e, 0)
        assert unit and all(v == "FAIL" for _, v in unit)
        for s in (-600, 600):
            assert _verdicts(a, e, s) == unit


class TestCliInputErrors:
    """Bad input exits 2 with one error line; 1 means a failed verification."""

    @staticmethod
    def _exit_code(argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        return info.value.code, lines[0]

    def test_malformed_number(self, tmp_path, capsys):
        path = tmp_path / "bad.mat"
        path.write_text("format tridiagonal\ndiag 1 x 3\noffdiag 1 1\n")
        code, line = self._exit_code(["aed", "--matrix", str(path), "--k", "1"],
                                     capsys)
        assert code == 2 and "'x'" in line

    def test_malformed_generator_parameter(self, tmp_path, capsys):
        path = tmp_path / "bad.mat"
        path.write_text("format generator\nname wilkinson_plus\nn five\n")
        code, _ = self._exit_code(["aed", "--matrix", str(path), "--k", "1"],
                                  capsys)
        assert code == 2

    def test_non_finite_entry(self, tmp_path, capsys):
        path = tmp_path / "bad.mat"
        path.write_text("format tridiagonal\ndiag 1 nan 3\noffdiag 1 1\n")
        code, line = self._exit_code(["aed", "--matrix", str(path), "--k", "1"],
                                     capsys)
        assert code == 2 and "NaN" in line

    def test_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.mat")
        code, line = self._exit_code(["aed", "--matrix", missing, "--k", "1"],
                                     capsys)
        assert code == 2 and "nope.mat" in line

    def test_shape_mismatch(self, matrix_files, capsys):
        code, line = self._exit_code(
            ["bound-block", "--matrix", matrix_files["A"],
             "--perturbation", matrix_files["Esmall"], "--k", "1"], capsys)
        assert code == 2 and "shape mismatch" in line

    def test_dense_file_for_tridiagonal_command(self, matrix_files, capsys):
        code, _ = self._exit_code(["aed", "--matrix", matrix_files["A"],
                                   "--k", "2"], capsys)
        assert code == 2

    @pytest.mark.parametrize("argv", [["wilkinson", "--n", "3"],
                                      ["wilkinson", "--n", "6", "--ell-range", "9"],
                                      ["wilkinson", "--n", "6", "--ell-range", "5:3"],
                                      ["wilkinson", "--n", "6", "--ell-range", ","],
                                      ["wilkinson", "--n", "6", "--ell-range", "0"]])
    def test_wilkinson_arguments(self, argv, capsys):
        assert self._exit_code(argv, capsys)[0] == 2

    @pytest.mark.parametrize("flags", [["--k", "0"], ["--k", "8"],
                                       ["--k", "3", "--alpha", "-1"],
                                       ["--k", "3", "--j", "1", "--alpha", "-1"],
                                       ["--k", "3", "--simulate", "--alpha", "-1"],
                                       ["--k", "3", "--tol", "0"],
                                       ["--k", "3", "--simulate", "--tol", "-1"]])
    def test_aed_arguments(self, matrix_files, flags, capsys):
        code, line = self._exit_code(["aed", "--matrix", matrix_files["T"]] + flags,
                                     capsys)
        assert code == 2 and any(w in line for w in ("window size", "alpha", "tol"))

    @pytest.mark.parametrize("flags", [["--k", "3", "--simulate", "--tol", "nan"],
                                       ["--k", "3", "--tol", "nan"],
                                       ["--k", "3", "--alpha", "nan"],
                                       ["--k", "3", "--j", "1", "--alpha", "inf"]])
    def test_aed_non_finite_tolerances(self, matrix_files, flags, capsys, monkeypatch):
        # NaN passes every <= 0 test; a run with a NaN tol never deflates, so
        # it would sweep to the cap and fail verification
        monkeypatch.setattr(aed, "_MAX_SWEEPS", 5)
        code, line = self._exit_code(["aed", "--matrix", matrix_files["T"]] + flags,
                                     capsys)
        assert code == 2 and ("alpha" in line or "tol" in line)

    @pytest.mark.parametrize("flags", [["--k", "0"], ["--k", "6"],
                                       ["--k", "2", "--indices", "0"],
                                       ["--k", "2", "--indices", "1,7"],
                                       ["--k", "2", "--indices", ","]])
    def test_bound_block_arguments(self, matrix_files, flags, capsys):
        code, _ = self._exit_code(["bound-block", "--matrix", matrix_files["A"],
                                   "--perturbation", matrix_files["E"]] + flags,
                                  capsys)
        assert code == 2

    @pytest.mark.parametrize("flags", [["--eps-grid", "1e-2"],
                                       ["--eps-grid", "100,1e-3"],
                                       ["--cluster-tol", "0"],
                                       ["--cluster-tol", "nan"]])
    def test_multieig_arguments(self, matrix_files, flags, capsys):
        code, line = self._exit_code(
            ["multieig", "--matrix", matrix_files["Adouble"],
             "--perturbation", matrix_files["Esmall"]] + flags, capsys)
        assert code == 2 and ("eps" in line or "cluster_tol" in line)

    def test_no_cluster_found(self, matrix_files, capsys):
        code, line = self._exit_code(
            ["multieig", "--matrix", matrix_files["A"],
             "--perturbation", matrix_files["E"]], capsys)
        assert code == 2 and "cluster" in line
