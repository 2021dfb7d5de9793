"""Tests of the benchmark itself: each workload runs end to end on a small
seed, the traced round accounts for its wall time, the command refuses to
run without the program's sources, and every checker marks a deliberately
corrupted output as failed."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from eigbounds import DenseHermitian  # noqa: E402
from eigbounds.io import serialize_matrix  # noqa: E402
from spans import Tracer, metric_units, summarize  # noqa: E402

SEED = 3


def _ops(workload, tmp_path):
    ops = workloads.build(workload, SEED, str(tmp_path))
    for op in ops:
        op.ref = checks.reference(op)
    return ops


@pytest.mark.parametrize("workload", ["aed-window", "qr-aed"])
def test_one_round_fails_only_on_known_faults(workload, tmp_path):
    ops = _ops(workload, tmp_path)
    failed = {op.label for op in ops if checks.check(op, op.run())}
    assert failed == {op.label for op in ops if op.known_fault}


def test_command_prints_every_end_to_end_metric():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                           "block-bounds", "--seed", str(SEED), "--seconds", "0",
                           "--trace", "0"], capture_output=True, text=True,
                          cwd=ROOT, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 9
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_round_accounts_for_its_wall_time(tmp_path):
    ops = _ops("block-bounds", tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        root = tracer.open("bench.round")
        for op in ops:
            span = tracer.open("bench.op")
            tracer.op = span[0]
            op.run()
            tracer.close(span)
        tracer.close(root)
    finally:
        tracer.uninstall()
    from eigbounds import cli, solvers
    assert not hasattr(solvers.eig_dense, "__wrapped__")
    assert not hasattr(cli.eig_dense, "__wrapped__")
    metrics, problems = summarize([tracer.round_metrics(root)], [1.0])
    assert problems == []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(metric_units())
    assert metrics["solvers.eig_dense.calls"][0] > 0
    # bound-block --verify recomputes spectral_norm(A) once per index
    assert metrics["solvers.spectral_norm.repeat_calls"][0] > 0
    assert metrics["solvers.eig_tridiag.calls"][0] == 0
    assert metrics["cli.main.calls"][0] == len(ops)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "qr-aed", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=170,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ------------------------------------------------- corrupted outputs fail

def _cli_op(kind, argv, inputs):
    op = workloads.Op(f"{kind} test", kind, argv, inputs)
    op.ref = checks.reference(op)
    out = op.run()
    assert checks.check(op, out) == []
    return op, out


def _corrupt(out, pattern, repl):
    rc, text = out
    new = re.sub(pattern, repl, text, count=1, flags=re.M)
    assert new != text
    return rc, new


def test_bound_below_the_true_shift_fails(tmp_path):
    rng = np.random.default_rng(0)
    a = np.diag(np.arange(8) * 4.0) + 0.1 * rng.standard_normal((8, 8))
    e = 0.05 * rng.standard_normal((8, 8))
    A, E = DenseHermitian.from_array((a + a.T) / 2), DenseHermitian.from_array((e + e.T) / 2)
    for name, m in (("A", A), ("E", E)):
        (tmp_path / name).write_text(serialize_matrix(m))
    op, out = _cli_op("bound-block", ["bound-block", "--matrix", str(tmp_path / "A"),
                                      "--perturbation", str(tmp_path / "E"),
                                      "--k", "3", "--verify"],
                      {"A": A.entries, "E": E.entries, "k": 3, "verify": True})
    assert any("below the shift" in p for p in
               checks.check(op, _corrupt(out, r"^(index=2 .*?) bound=\S+", r"\1 bound=0.0")))
    assert checks.check(op, _corrupt(out, r"^status=sound", "status=violations:x"))


def test_shifted_window_eigenvalue_fails(tmp_path):
    T = workloads.graded_tridiagonal(np.random.default_rng(1), 120)
    (tmp_path / "T").write_text(serialize_matrix(T))
    op, out = _cli_op("aed", ["aed", "--matrix", str(tmp_path / "T"), "--k", "20",
                              "--verify"], {"T": T, "k": 20, "j": None})
    shifted = _corrupt(out, r"(window_eigenvalue=)(\S+)",
                       lambda m: m.group(1) + repr(float(m.group(2)) + 1e-6))
    assert any("window eigenvalues" in p for p in checks.check(op, shifted))
    lowered = _corrupt(out, r"(log10=)(-?\d\S*)",
                       lambda m: m.group(1) + repr(float(m.group(2)) - 1.0))
    assert any("bound log10" in p for p in checks.check(op, lowered))


def test_wrong_pair_gap_fails():
    op, out = _cli_op("wilkinson", ["wilkinson", "--n", "7"], {"n": 7})
    wrong = _corrupt(out, r"^(record=pair ell=2 gap=)(\S+)", r"\g<1>0.5")
    assert any("pair 2: gap" in p for p in checks.check(op, wrong))


def test_error_above_gap_bound_fails(tmp_path):
    ops = [op for op in _ops("block-bounds", tmp_path) if op.kind == "multieig"]
    op, out = ops[0], ops[0].run()
    assert checks.check(op, out) == []
    wrong = _corrupt(out, r"^(cluster=1 eps=1e-05 error=)(\S+)", r"\g<1>0.5")
    assert any("above its gap bound" in p for p in checks.check(op, wrong))


def test_wrong_qr_spectrum_fails():
    op = workloads.Op("qr test", "qr", inputs={
        "T": workloads.graded_tridiagonal(np.random.default_rng(2), 40), "k": 10})
    op.ref = checks.reference(op)
    spec, stats = op.run()
    assert checks.check(op, (spec, stats)) == []
    shifted = type(spec)(np.sort(spec.values + np.eye(1, spec.n, 3).ravel() * 1e-6))
    assert checks.check(op, (shifted, stats))
    stats.converged = False
    assert checks.check(op, (spec, stats))


def test_parser_keeps_values_with_spaces():
    rep = checks.parse_report("command=x\ncluster=1 lambda0=0.5 predictions_at_min_eps=0.1 0.2\n"
                              "check=a verdict=PASS detail=observed=1 weyl=2\n"
                              "summary norm=3.0\nstatus=sound\n")
    assert rep.records == [{"cluster": 1.0, "lambda0": 0.5,
                            "predictions_at_min_eps": "0.1 0.2"}]
    assert rep.summary == {"norm": 3.0}
    assert rep.status == "sound"
