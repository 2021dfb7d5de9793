import numpy as np
import pytest

from conftest import random_hermitian, random_tridiagonal
from eigbounds import (DenseHermitian, SymTridiagonal, load_matrix,
                       parse_matrix, serialize_matrix, wilkinson_plus)
from eigbounds.cli import main
from eigbounds.io import MatrixFormatError


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

    def test_unknown_format_rejected(self):
        with pytest.raises(MatrixFormatError):
            parse_matrix("format sparse\nrow 1\n")

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
                                      ["wilkinson", "--n", "6", "--ell-range", "9"]])
    def test_wilkinson_arguments(self, argv, capsys):
        assert self._exit_code(argv, capsys)[0] == 2

    @pytest.mark.parametrize("flags", [["--k", "0"], ["--k", "8"],
                                       ["--k", "3", "--alpha", "-1"],
                                       ["--k", "3", "--j", "1", "--alpha", "-1"],
                                       ["--k", "3", "--simulate", "--alpha", "-1"]])
    def test_aed_arguments(self, matrix_files, flags, capsys):
        code, line = self._exit_code(["aed", "--matrix", matrix_files["T"]] + flags,
                                     capsys)
        assert code == 2 and ("window size" in line or "alpha" in line)

    @pytest.mark.parametrize("flags", [["--k", "0"], ["--k", "6"],
                                       ["--k", "2", "--indices", "0"],
                                       ["--k", "2", "--indices", "1,7"]])
    def test_bound_block_arguments(self, matrix_files, flags, capsys):
        code, _ = self._exit_code(["bound-block", "--matrix", matrix_files["A"],
                                   "--perturbation", matrix_files["E"]] + flags,
                                  capsys)
        assert code == 2

    def test_no_cluster_found(self, matrix_files, capsys):
        code, line = self._exit_code(
            ["multieig", "--matrix", matrix_files["A"],
             "--perturbation", matrix_files["E"]], capsys)
        assert code == 2 and "cluster" in line
