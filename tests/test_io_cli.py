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
        back = parse_matrix(serialize_matrix(A)).realize()
        assert np.array_equal(back.entries, A.entries)

    def test_tridiagonal_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(61)
        T = random_tridiagonal(rng, 12)
        back = parse_matrix(serialize_matrix(T)).realize()
        assert np.array_equal(back.diag, T.diag)
        assert np.array_equal(back.offdiag, T.offdiag)

    def test_generator_file(self):
        m = parse_matrix("format generator\nname wilkinson_plus\nn 5\n")
        T = m.realize()
        assert T.n == 11
        assert np.array_equal(T.diag, wilkinson_plus(5).diag)

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\nformat tridiagonal\n\ndiag 1.0 2.0  # trailing\noffdiag 0.5\n"
        T = parse_matrix(text).realize()
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
        assert np.array_equal(load_matrix(str(path)).realize().diag, T.diag)


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
