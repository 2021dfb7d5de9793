"""Hash the output of every benchmark operation, to show that a change keeps
the program's outputs.

    python3 tools/op_hashes.py [TREE] [--seeds 3 41] [--verdicts]

TREE is the root of a source checkout (default: this one).  The script
imports the program from TREE/src and the operation lists from
TREE/perfbench/workloads.py, runs every operation of the three workloads
once per seed, and prints one line per operation, ``<workload> seed=<s>
<label> <hash>``, then ``combined <hash>``.  A CLI operation's hash covers
its exit code and its report minus the ``command=`` line (which names the
input files); a ``run_qr_with_aed`` operation's hash covers the eigenvalues
and the sweep records.  With --verdicts a hash covers only the decisions: a
CLI operation's exit code, each ``check=`` label with its verdict (not its
``detail=``), the ``status=`` line and the ``deflatable=`` flags; a
``run_qr_with_aed`` operation's ``converged`` and sweep records, not its
eigenvalues.  So a change that moves digits can show that no decision moved.
Matrix files go to a temporary directory, never under perfbench/.  Run it on
two trees and compare the combined lines.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import sys
import tempfile
from pathlib import Path

# one BLAS thread, as the benchmark runs; set before numpy is first imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"


def _decisions(out: str) -> list[str]:
    """The check labels and verdicts, the status line and the deflatable=
    flags of a CLI report, in order."""
    kept = []
    for line in out.splitlines():
        if line.startswith(("check=", "status=")):
            kept.append(line.split(" detail=")[0])
        else:
            kept += re.findall(r"(?<!\S)deflatable=\S+", line)
    return kept


def op_digest(op, verdicts: bool = False) -> str:
    """Hash of one operation's output, or with verdicts of its decisions
    only (see the module docstring)."""
    h = hashlib.sha256()
    if op.argv is not None:
        try:
            rc, out = op.run()
        except SystemExit as exc:       # bad input: the CLI exits 2
            rc, out = exc.code, ""
        kept = (_decisions(out) if verdicts else
                [line for line in out.splitlines() if not line.startswith("command=")])
        h.update(f"rc={rc}\n".encode())
        h.update("\n".join(kept).encode())
    else:
        spec, stats = op.run()
        h.update(f"converged={stats.converged}\n".encode() if verdicts
                 else spec.values.tobytes())
        for rec in stats.records:
            h.update(f"{rec.sweep} {rec.aed_deflations} {rec.negligible_deflations} "
                     f"{rec.active_size}\n".encode())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", nargs="?", default=str(Path(__file__).resolve().parents[1]),
                        help="root of the source checkout to run")
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 41])
    parser.add_argument("--verdicts", action="store_true",
                        help="hash only the decisions, not the values")
    args = parser.parse_args(argv)
    tree = Path(args.tree).resolve()
    sys.dont_write_bytecode = True      # leave no __pycache__ in the tree
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import workloads

    combined = hashlib.sha256()
    with tempfile.TemporaryDirectory() as workdir:
        for workload in workloads.WORKLOADS:
            for seed in args.seeds:
                for op in workloads.build(workload, seed, workdir):
                    line = f"{workload} seed={seed} {op.label} {op_digest(op, args.verdicts)}"
                    print(line)
                    combined.update((line + "\n").encode())
    print(f"combined {combined.hexdigest()[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
