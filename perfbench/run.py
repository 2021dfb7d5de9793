"""Benchmark of eigbounds: one command, three seeded workloads.

    python3 perfbench/run.py --workload {block-bounds,aed-window,qr-aed}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` it runs whole rounds of the workload's
operations untraced for S seconds and prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced rounds and prints the
per-layer metrics and the tracing overhead.  Every output is checked against
numpy/scipy.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread: on a 2-CPU machine the OpenBLAS thread pool alone made
# set-up slower and noisier.  Must be set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5          # set-ups per run: this process plus fresh probes


def setup(workload: str, seed: int, workdir: str):
    """Import the program, generate and write the seeded inputs, and run one
    warm-up operation per input family.  Returns (ops, seconds)."""
    t0 = perf_counter()
    import workloads
    ops = workloads.build(workload, seed, workdir)
    for op in ops:
        if op.warmup:
            try:
                op.run()
            except Exception:   # a failing operation is counted in the timed phase
                pass
    return ops, perf_counter() - t0


def setup_probe_seconds(args) -> float:
    """Set-up time of a fresh interpreter running the same set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--trace", "0", "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          cwd=ROOT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_round(ops, checks, tracer=None):
    """Run every operation once; return [(op, seconds, problems)] and the
    round's wall time.  Checks run outside the operations' timing."""
    results = []
    root = tracer.open("bench.round") if tracer else None
    t0 = perf_counter()
    for op in ops:
        span = None
        if tracer:
            span = tracer.open("bench.op", {"label": op.label})
            tracer.op = span[0]
        t = perf_counter()
        try:
            out = op.run()
        except Exception as exc:     # counted as a failed operation
            out = exc
        dt = perf_counter() - t
        if span:
            tracer.close(span)
        results.append((op, dt, checks.check(op, out)))
    wall = perf_counter() - t0
    if tracer:
        tracer.close(root)
    return results, wall, root


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("block-bounds", "aed-window", "qr-aed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this interpreter and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "eigbounds" / "__init__.py").is_file():
        print(f"no eigbounds sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops, setup_s = setup(args.workload, args.seed, str(workdir))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, ops, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, ops, setup_s: float) -> int:
    import checks
    for op in ops:
        op.ref = checks.reference(op)

    # Whole rounds until the rounds alone have taken args.seconds.  The
    # set-up probes run between rounds, so that the set-up samples are
    # spread over the run instead of all meeting the same machine state.
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    results, problems, round_walls = [], [], []
    setups = [setup_s]
    tracer = None
    if args.trace:
        from spans import Tracer, summarize
        tracer, traced = Tracer(), []
    elapsed = 0.0
    while elapsed < args.seconds or not results:
        res, wall, _ = run_round(ops, checks)
        results += res
        round_walls.append(wall)
        elapsed += wall
        if tracer:
            tracer.install()
            try:
                res, wall, root = run_round(ops, checks, tracer)
            finally:
                tracer.uninstall()
            results += res
            traced.append(tracer.round_metrics(root))
            elapsed += wall
        elif len(setups) < SETUP_SAMPLES:
            setups.append(setup_probe_seconds(args))
    while not tracer and len(setups) < SETUP_SAMPLES:
        setups.append(setup_probe_seconds(args))

    if tracer:
        layer, problems = summarize(traced, round_walls)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        tracer.dump(str(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"))
    else:
        # Each operation's best latency over the run's rounds.  On a shared
        # machine whose speed drifts by tens of percent over minutes, the
        # best of several tries moves about half as much from run to run as
        # the median does (see README, Steadiness).
        best = [min(dt for _, dt, _ in results[i::len(ops)]) for i in range(len(ops))]
        rounds = len(results) // len(ops)
        done = sum(1 for _, _, p in results if not p) / rounds
        metrics = {
            "cases_per_s": {"value": done / sum(best), "unit": "1/s"},
            "case_p50_ms": {"value": 1e3 * statistics.median(best), "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }

    failed = [(op, p) for op, _, p in results if p]
    reported = set()
    for op, p in failed:
        if op.label not in reported:
            reported.add(op.label)
            why = f" (known fault: {op.known_fault})" if op.known_fault else ""
            print(f"FAILED {op.label}{why}: {'; '.join(p)}")
    unexpected = sorted({op.label for op, _ in failed if not op.known_fault})
    problems += [f"unexpected failure: {label}" for label in unexpected]
    for p in problems:
        print(f"PROBLEM {p}")
    result = {"correct": not problems, "attempted": len(results),
              "failed": len(failed), "metrics": metrics}
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
