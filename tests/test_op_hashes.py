"""tools/op_hashes.py, which hashes every benchmark operation's output to
show that a change keeps the program's outputs."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def _tree_state(path: Path) -> dict:
    return {p: p.stat().st_mtime_ns for p in path.rglob("*")}


def _hashes(*flags) -> str:
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "op_hashes.py"),
                           "--seeds", "3", *flags], capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _assert_stable_lines(tmp_path, *flags):
    """Two runs print the same output, one line per operation and a combined
    line, and leave perfbench/ as it was."""
    labels = [f"{w} seed=3 {op.label}" for w in workloads.WORKLOADS
              for op in workloads.build(w, 3, str(tmp_path))]
    before = _tree_state(ROOT / "perfbench")
    first, second = _hashes(*flags), _hashes(*flags)
    assert _tree_state(ROOT / "perfbench") == before
    assert first == second
    lines = first.splitlines()
    assert len(lines) == len(labels) + 1
    for label, line in zip(labels, lines):
        assert re.fullmatch(re.escape(label) + r" [0-9a-f]{16}", line)
    assert re.fullmatch(r"combined [0-9a-f]{16}", lines[-1])


def test_one_stable_line_per_operation(tmp_path):
    _assert_stable_lines(tmp_path)


def test_verdicts_one_stable_line_per_operation(tmp_path):
    _assert_stable_lines(tmp_path, "--verdicts")
