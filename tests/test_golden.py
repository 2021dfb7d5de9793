"""Golden CLI outputs: each command's report, after its ``command=`` echo
line (which carries temporary file paths), must match the file under
tests/golden byte for byte.

A change that moves a digit of any report regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says in its description why the outputs changed.
"""

import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

from eigbounds import DenseHermitian, cli, serialize_matrix

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> argv; {gen}, {A}, {E}, {M}, {P}, {M2} and {P2} name the input files
# below
CASES = {
    "verify-all": ["verify-all"],
    "wilkinson-10": ["wilkinson", "--n", "10"],
    "aed-scan": ["aed", "--matrix", "{gen}", "--k", "100", "--verify"],
    "aed-j88-alpha1": ["aed", "--matrix", "{gen}", "--k", "100", "--verify",
                       "--j", "88", "--alpha", "1.0"],
    "aed-simulate": ["aed", "--matrix", "{gen}", "--k", "100", "--simulate",
                     "--verify"],
    "bound-block-quad": ["bound-block", "--matrix", "{A}", "--perturbation",
                         "{E}", "--k", "6", "--verify", "--refined"],
    "bound-block-quad-indices": ["bound-block", "--matrix", "{A}",
                                 "--perturbation", "{E}", "--k", "6",
                                 "--verify", "--indices", "1,7,14,20"],
    "multieig": ["multieig", "--matrix", "{M}", "--perturbation", "{P}"],
    "multieig-two-clusters": ["multieig", "--matrix", "{M2}",
                              "--perturbation", "{P2}"],
}


def _symmetric(rng, n):
    m = rng.standard_normal((n, n))
    return (m + m.T) / 2.0


def write_inputs(workdir: Path) -> dict:
    """Write the input files of CASES under workdir; return their paths."""
    rng = np.random.default_rng(20260)
    # block-diagonal A with a spread diagonal and off-diagonal E: the shape
    # of the quadratic-residual bound, split k = 6 of n = 20
    n, m = 20, 14
    a = _symmetric(rng, n) + np.diag(np.arange(n) * 4.0)
    a[m:, :m] = 0.0
    a[:m, m:] = 0.0
    e = 0.02 * _symmetric(rng, n)
    e[:m, :m] = 0.0
    e[m:, m:] = 0.0
    # a double eigenvalue 2.0 planted under a Householder reflection
    v = rng.standard_normal(8)
    h = np.eye(8) - 2.0 * np.outer(v, v) / float(v @ v)
    vals = np.array([2.0, 2.0, 3.5, 4.5, 5.5, 7.0, 8.0, 9.5])
    p = _symmetric(rng, 8)
    matrices = {"A": a, "E": e, "M": (h * vals) @ h,
                "P": p / np.max(np.abs(p))}
    # two clusters, a triple 0.5 and a double -1.0, below seven spread
    # singles under a random orthogonal similarity (drawn from its own
    # generator so the inputs above stay as they are)
    rng2 = np.random.default_rng(20261)
    vals = np.concatenate([np.cumsum(rng2.uniform(0.5, 1.5, 7)) + 1.0,
                           [0.5, 0.5, 0.5, -1.0, -1.0]])
    q, _ = np.linalg.qr(rng2.standard_normal((12, 12)))
    p = _symmetric(rng2, 12)
    matrices["M2"] = (q * vals) @ q.T
    matrices["P2"] = p / np.linalg.norm(p, 2)
    paths = {}
    for key, entries in matrices.items():
        path = workdir / f"{key}.mat"
        path.write_text(serialize_matrix(DenseHermitian.from_array(entries)))
        paths[key] = str(path)
    gen = workdir / "aed_example_1000.mat"
    gen.write_text("format generator\nname aed_example_1000\n")
    paths["gen"] = str(gen)
    return paths


def run_case(name: str, paths: dict) -> str:
    """The report of one case, without its command= line."""
    argv = [arg.format(**paths) for arg in CASES[name]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(argv)
    first, _, rest = buf.getvalue().partition("\n")
    assert first.startswith("command=")
    return rest


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, inputs):
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert run_case(name, inputs) == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(Path(tmp))
        for case in sorted(CASES):
            (GOLDEN / f"{case}.out").write_text(run_case(case, paths),
                                                encoding="utf-8")
            print(f"wrote {case}.out", file=sys.stderr)
