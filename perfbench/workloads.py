"""Seeded inputs and the operation list of each workload.

An operation is one ``eigbounds.cli.main(argv)`` call on one set of matrix
files, or one ``run_qr_with_aed`` call on one tridiagonal.  A round runs
every operation of a workload once, in a fixed order; the benchmark only ever
runs whole rounds, so the share of failed operations is the same in every
run.  Sizes are fixed per workload and only the matrix entries depend on the
seed, so the work in a round barely moves from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass, field

import numpy as np

from eigbounds import DenseHermitian, SymTridiagonal, cli
from eigbounds import aed as aed_module
from eigbounds.io import serialize_matrix

WORKLOADS = ("block-bounds", "aed-window", "qr-aed")

# Operations that fail on every run because of a fault in the program, not
# in the benchmark.  They stay in their workload and count as failed until
# the fault is mended.
STURM_ZERO_PIVOT = ("_sturm_counts counts an exactly zero pivot as "
                    "non-negative but continues as if it were -pivmin, so "
                    "eig_tridiag(wilkinson_plus(n)) is wrong for n = 5, 9")
KNOWN_FAULTS = {"wilkinson --n 5": STURM_ZERO_PIVOT,
                "wilkinson --n 9": STURM_ZERO_PIVOT}


@dataclass
class Op:
    """One operation: what to run, the inputs its checker needs, and the
    checker's reference (filled in after set-up, outside any timing)."""

    label: str
    kind: str                       # bound-block | multieig | aed | wilkinson | verify-all | qr
    argv: list | None = None        # CLI operations
    inputs: dict = field(default_factory=dict)
    warmup: bool = False            # its input family's warm-up in set-up
    ref: object = None

    @property
    def known_fault(self) -> str | None:
        return KNOWN_FAULTS.get(self.label)

    def run(self):
        """Perform the operation; return its raw output."""
        if self.argv is not None:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(self.argv)
            return rc, buf.getvalue()
        # looked up on every call so that the traced run sees its wrapper
        return aed_module.run_qr_with_aed(self.inputs["T"],
                                          window=self.inputs["k"])


def _write(workdir: str, name: str, matrix) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_matrix(matrix))
    return path


def _hermitian(rng, n: int, complex_entries: bool) -> np.ndarray:
    m = rng.standard_normal((n, n))
    if complex_entries:
        m = m + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2.0


def _unitary(rng, n: int, complex_entries: bool) -> np.ndarray:
    q, r = np.linalg.qr(_hermitian(rng, n, complex_entries) + 2.0 * n * np.eye(n))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _block_ops(rng, workdir: str) -> list[Op]:
    ops = []

    def pair(tag, n, k, complex_entries, quad_shape, flag_sets, warm=None):
        # A: random Hermitian plus a spread diagonal so the theorem-1
        # denominators are positive for most indices; E: small Hermitian
        a = _hermitian(rng, n, complex_entries) + np.diag(np.arange(n) * 4.0)
        e = 0.02 * _hermitian(rng, n, complex_entries)
        m = n - k
        if quad_shape:
            # block-diagonal A, off-diagonal E: the quadratic-residual path
            a[m:, :m] = 0.0
            a[:m, m:] = 0.0
            e[:m, :m] = 0.0
            e[m:, m:] = 0.0
        A = DenseHermitian.from_array(a)
        E = DenseHermitian.from_array(e)
        pa = _write(workdir, f"{tag}-A.mat", A)
        pe = _write(workdir, f"{tag}-E.mat", E)
        for flags in flag_sets:
            argv = ["bound-block", "--matrix", pa, "--perturbation", pe,
                    "--k", str(k)] + flags
            ops.append(Op(f"bound-block {tag} {' '.join(flags)}".strip(),
                          "bound-block", argv,
                          {"A": A.entries, "E": E.entries, "k": k,
                           "verify": "--verify" in flags},
                          warmup=flags == warm))

    pair("real12", 12, 3, False, False, [[], ["--verify"]], warm=["--verify"])
    pair("complex16", 16, 4, True, False, [[], ["--verify", "--refined"]])
    pair("quad-real20", 20, 6, False, True, [["--verify"]])
    pair("quad-complex14", 14, 5, True, True, [["--verify", "--refined"]])
    pair("real40", 40, 8, False, False, [["--refined"]])

    def multi(tag, n, complex_entries, planted, warm=False):
        # eigenvalues spread >= 0.5 apart, with the planted ones repeated
        rest = n - sum(mult for _, mult in planted)
        singles = np.cumsum(rng.uniform(0.5, 1.5, rest)) + 1.0
        vals = np.concatenate([singles] + [np.full(mult, lam)
                                           for lam, mult in planted])
        q = _unitary(rng, n, complex_entries)
        A = DenseHermitian.from_array((q * vals) @ q.conj().T)
        e = _hermitian(rng, n, complex_entries)
        E = DenseHermitian.from_array(e / np.linalg.norm(e, 2))
        pa = _write(workdir, f"{tag}-A.mat", A)
        pe = _write(workdir, f"{tag}-E.mat", E)
        argv = ["multieig", "--matrix", pa, "--perturbation", pe]
        ops.append(Op(f"multieig {tag}", "multieig", argv,
                      {"A": A.entries, "E": E.entries}, warmup=warm))

    # planted values lie below the singles, which start above 1.5, so every
    # gap is at least 1 and eps * ||E|| = 0.01 stays below gap / 4
    multi("multi-real12", 12, False, [(0.5, 3), (-1.0, 2)], warm=True)
    multi("multi-complex16", 16, True, [(-0.5, 2)])
    return ops


def graded_tridiagonal(rng, n: int) -> SymTridiagonal:
    """Graded like the aed_example fixture: diagonal descending n, ..., 1
    with continuous jitter, couplings of random size and sign."""
    d = np.arange(n, 0, -1, dtype=float) + rng.uniform(-0.25, 0.25, n)
    b = rng.uniform(0.5, 1.0, n - 1) * rng.choice([-1.0, 1.0], n - 1)
    return SymTridiagonal(d, b)


def _aed_ops(rng, workdir: str) -> list[Op]:
    from eigbounds import aed_example
    ops = []

    def aed(tag, T, path, k, j=None, warm=False):
        argv = ["aed", "--matrix", path, "--k", str(k), "--verify"]
        if j is not None:
            argv += ["--j", str(j)]
        depth = f"--j {j}" if j is not None else "scan"
        ops.append(Op(f"aed {tag} k={k} {depth}", "aed", argv,
                      {"T": T, "k": k, "j": j}, warmup=warm))

    fixture = os.path.join(workdir, "aed_example_1000.mat")
    with open(fixture, "w", encoding="utf-8") as fh:
        fh.write("format generator\nname aed_example_1000\n")
    aed("aed_example_1000", aed_example(1000), fixture, 100)
    g500 = graded_tridiagonal(rng, 500)
    aed("graded500", g500, _write(workdir, "graded500.mat", g500), 50, j=40,
        warm=True)
    g800 = graded_tridiagonal(rng, 800)
    aed("graded800", g800, _write(workdir, "graded800.mat", g800), 80)
    for n in range(5, 13):
        ops.append(Op(f"wilkinson --n {n}", "wilkinson", ["wilkinson", "--n", str(n)],
                      {"n": n}, warmup=n == 6))
    ops.append(Op("verify-all", "verify-all", ["verify-all"], warmup=True))
    return ops


def _qr_ops(rng) -> list[Op]:
    ops = []
    # continuous random: AED deflates slowly, so ~100 QR sweeps per call
    for i in range(6):
        n = 50
        T = SymTridiagonal(rng.standard_normal(n), rng.standard_normal(n - 1))
        ops.append(Op(f"qr random{n}#{i} k=10", "qr",
                      inputs={"T": T, "k": 10}, warmup=i == 0))
    # graded: AED deflates most of each window at once
    for n, k in ((120, 10), (150, 50), (200, 100)):
        ops.append(Op(f"qr graded{n} k={k}", "qr",
                      inputs={"T": graded_tridiagonal(rng, n), "k": k},
                      warmup=n == 150))
    return ops


def build(workload: str, seed: int, workdir: str) -> list[Op]:
    """Generate the seeded inputs of a workload, write its matrix files
    under workdir, and return its operations in round order."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "block-bounds":
        return _block_ops(rng, workdir)
    if workload == "aed-window":
        return _aed_ops(rng, workdir)
    return _qr_ops(rng)
