"""Golden CLI outputs: each command's report, after its ``command=`` echo
line (which carries temporary file paths), must match the file under
tests/golden byte for byte.  The cases on matrix files also run on 2^-600
and 2^600 copies of their inputs, and must give the same exit code and
verdicts as at unit scale, with no overflowed or undefined field.

A change that moves a digit of any report regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and says in its description why the outputs changed.
"""

import contextlib
import io
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from eigbounds import DenseHermitian, SymTridiagonal, cli, load_matrix, serialize_matrix

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


def _run(argv: list) -> tuple[int, str]:
    """The exit code and the report of cli.main(argv), without its command=
    line."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    first, _, rest = buf.getvalue().partition("\n")
    assert first.startswith("command=")
    return rc, rest


def run_case(name: str, paths: dict) -> str:
    """The report of one case, without its command= line."""
    return _run([arg.format(**paths) for arg in CASES[name]])[1]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, inputs):
    expected = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert run_case(name, inputs) == expected


def _scaled(m, e: int):
    """2^e m, exactly."""
    if isinstance(m, SymTridiagonal):
        return SymTridiagonal(np.ldexp(m.diag, e), np.ldexp(m.offdiag, e))
    return DenseHermitian.from_array(np.ldexp(m.entries, e))


@pytest.fixture(scope="module")
def scaled_inputs(inputs, tmp_path_factory):
    """For e = -600 and 600, the paths of the inputs times 2^e, the
    generator fixture written out as a tridiagonal file."""
    out = {}
    for e in (-600, 600):
        workdir = tmp_path_factory.mktemp(f"scaled{e}")
        out[e] = {key: str(workdir / f"{key}.mat") for key in inputs}
        for key, path in inputs.items():
            Path(out[e][key]).write_text(serialize_matrix(_scaled(load_matrix(path), e)))
    return out


# multieig's exactness test, errors <= 64 eps max(|lambda0|, 1), has an
# absolute floor: at 2^-600 every error is below it, so the fit reads exact
# and its slope checks are not made
_EXACTNESS_FLOOR = pytest.mark.xfail(
    strict=True, reason="multieig's absolute exactness floor skips the slope checks")

# the cases on matrix files; verify-all and wilkinson take no input
SCALED = [pytest.param(e, name, id=f"2^{e}-{name}",
                       marks=_EXACTNESS_FLOOR if e < 0 and name.startswith("multieig") else ())
          for e in (-600, 600) for name in sorted(CASES) if "--matrix" in CASES[name]]


def _verdicts(text: str) -> list:
    return re.findall(r"verdict=(\w+)", text)


@pytest.mark.parametrize("e, name", SCALED)
def test_verdicts_hold_at_any_scale(e, name, inputs, scaled_inputs):
    argv = [arg.format(**scaled_inputs[e]) for arg in CASES[name]]
    if "--alpha" in argv:
        at = argv.index("--alpha") + 1
        argv[at] = repr(math.ldexp(float(argv[at]), e))
    rc, out = _run(argv)
    unit_rc, unit = _run([arg.format(**inputs) for arg in CASES[name]])
    assert (rc, _verdicts(out)) == (unit_rc, _verdicts(unit))
    assert not re.search(r"=-?(overflow|undefined)\b", out)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(Path(tmp))
        for case in sorted(CASES):
            (GOLDEN / f"{case}.out").write_text(run_case(case, paths),
                                                encoding="utf-8")
            print(f"wrote {case}.out", file=sys.stderr)
