"""Command-line front end: bound computation, case-study reproduction, and
oracle verification with deterministic machine-readable reports.

Subcommands: bound-block, wilkinson, aed, multieig, verify-all.  Exit status
is 0 exactly when every requested verification came out sound, 1 when one
failed, and 2 on bad input (arguments, missing or malformed matrix files),
which prints one ``error: ...`` line to stderr.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import generators
from .aed import aed_transform, deflation_soundness_check, run_qr_with_aed
from .blocks import _sub_blocks, quadratic_residual_bounds, theorem1_bounds
from .io import load_matrix
from .multiplicity import detect_multiple, expansion_order
from .report import RunReport
from .solvers import _dense_batch, _solved, eig_dense, eig_tridiag, spectral_norm
from .tridiag import aed_window_bounds, wilkinson_gap_bound, wilkinson_pair_gap_bound
from .types import BlockSplit, DenseHermitian, LogScalar, SymTridiagonal

__all__ = ["main", "cmd_bound_block", "cmd_wilkinson", "cmd_aed",
           "cmd_multieig", "cmd_verify_all", "InputError"]


class InputError(ValueError):
    """Input a command cannot run on; the CLI exits 2 on it."""


def _as_dense(m) -> DenseHermitian:
    return m.to_dense() if isinstance(m, SymTridiagonal) else m


def _as_tridiagonal(m) -> SymTridiagonal:
    if not isinstance(m, SymTridiagonal):
        raise InputError("this command needs a tridiagonal matrix file")
    return m


def _slack(norm: float) -> float:
    """--verify slack: 1e-12 of the norm, the least normal float at norm 0."""
    return max(1e-12 * norm, np.finfo(float).tiny)


def cmd_bound_block(A: DenseHermitian, E: DenseHermitian, k: int,
                    indices=None, refined: bool = False,
                    verify: bool = False) -> RunReport:
    report = RunReport("bound-block")
    if A.n != E.n:
        raise InputError(f"shape mismatch: A is {A.n}x{A.n}, E is {E.n}x{E.n}")
    if not 1 <= k <= A.n - 1:
        raise InputError(f"split k={k} out of range 1..{A.n - 1}")
    split = BlockSplit(k)
    indices = list(range(1, A.n + 1)) if indices is None else list(indices)
    if not indices:
        raise InputError("empty eigenvalue index selection")
    bad = [i for i in indices if not 1 <= i <= A.n]
    if bad:
        raise InputError(f"eigenvalue index {bad[0]} out of range 1..{A.n}")
    indices = sorted(indices)
    # every spectrum and norm the bounds and the check take, from one engine
    # call: within the block the bounds' own solves are served from it
    blocks = _sub_blocks(A, E, split)
    spectra = [A, blocks.a22] + ([blocks.a11] if blocks.a11 is not None else [])
    if verify:
        AE = DenseHermitian.from_array(A.entries + E.entries)
        spectra.append(AE)
    with _solved(spectra, [E, *blocks.norms]):
        reports = theorem1_bounds(A, E, split, indices, refined=refined)
        quads = (quadratic_residual_bounds(A, split, E, indices)
                 if blocks.a11 is not None else None)
        shifts = None
        if verify:
            (base, moved), _ = _dense_batch([A, AE])
            shifts = np.abs(base - moved)
            # spectral_norm(A) from the ascending spectrum already computed
            slack = _slack(max(abs(float(base[0])), abs(float(base[-1]))))
    weyl = reports[0].components["weyl"]
    report.summary["weyl"] = weyl
    for pos, i in enumerate(indices):
        rep = reports[pos]
        rec = {"index": i, "formula": rep.formula, "valid": rep.valid,
               "bound": rep.bound.float_or_zero(), "log10": rep.bound.log10,
               "tau": rep.tau, "gap": rep.gap, "weyl": weyl}
        if quads is not None:
            q = quads[pos]
            rec["quad_residual"] = q.bound.float_or_zero() if q.valid else None
        if shifts is not None:
            rec["observed"] = observed = float(shifts[i - 1])
        report.add(**rec)
        if shifts is not None:
            report.check(f"index-{i}-weyl", observed <= weyl + slack,
                         f"observed={observed:.6e} weyl={weyl:.6e}")
            if rep.valid:
                report.check(f"index-{i}-theorem1",
                             observed <= rep.bound.float_or_zero() + slack,
                             f"observed={observed:.6e} bound={rep.bound}")
            if rec.get("quad_residual") is not None:
                report.check(f"index-{i}-quad-residual",
                             observed <= rec["quad_residual"] + slack,
                             f"observed={observed:.6e} bound={rec['quad_residual']:.6e}")
    return report


def cmd_wilkinson(n: int, ell_range=None) -> RunReport:
    if n <= 4:
        raise InputError("wilkinson requires n > 4")
    report = RunReport("wilkinson")
    # the split part A is two copies of its order-n leading block around a
    # zero, and that block is positive semidefinite (each diagonal entry is
    # at least its row's Gerschgorin radius), so A's top eigenvalue is the
    # block's spectral norm: W+ and that two-rank norm from one engine call
    a = generators.wilkinson_split(n)[0]
    (vals,), (a_top,) = _dense_batch([generators.wilkinson_plus(n)],
                                     [SymTridiagonal(a.diag[:n], a.offdiag[:n - 1])])
    top_gap = float(vals[-1] - vals[-2])
    top_shift = float(abs(vals[-1] - a_top))
    fact = wilkinson_gap_bound(n)
    report.add(record="top-pair", gap=top_gap, split_shift=top_shift,
               bound=fact, log10=fact.log10)
    # in log space: the bound is below the float range from n of about 88
    report.check("top-shift-bounded", LogScalar.from_float(top_shift) <= fact,
                 f"shift={top_shift:.6e} bound={fact}")
    ells = range(1, n - 1) if ell_range is None else sorted(ell_range)
    if not ells:
        raise InputError("empty ell selection")
    for ell in ells:
        # raises on an ell out of range before the spectrum is indexed
        bound = wilkinson_pair_gap_bound(n, ell)
        # pairs are counted from the top of the ascending spectrum
        gap = float(vals[-(2 * ell - 1)] - vals[-(2 * ell)])
        report.add(record="pair", ell=ell, gap=gap, bound=bound,
                   log10=bound.log10)
        report.check(f"pair-{ell}", gap <= bound.float_or_zero() + 1e-14,
                     f"gap={gap:.6e} bound={bound}")
    return report


def cmd_aed(T: SymTridiagonal, k: int, tol: float = 1e-16,
            j: int | None = None, alpha: float | None = None,
            simulate: bool = False, verify: bool = False) -> RunReport:
    if not 1 <= k <= T.n - 1:
        raise InputError(f"window size k={k} out of range 1..{T.n - 1}")
    if alpha is not None and not 0 <= alpha < math.inf:
        raise InputError(f"alpha={alpha} must be finite and nonnegative")
    report = RunReport("aed")
    if simulate:
        spec, stats = run_qr_with_aed(T, window=k, tol=tol)
        scale = stats.scale
        report.summary["norm"] = scale
        report.summary["sweeps"] = stats.sweeps
        report.summary["converged"] = stats.converged
        report.summary["first_pass_aed"] = stats.first_pass_aed_count
        report.summary["total_aed"] = stats.total_aed
        report.summary["total_negligible"] = stats.total_negligible
        for rec in stats.records:
            report.add(sweep=rec.sweep, aed=rec.aed_deflations,
                       negligible=rec.negligible_deflations,
                       active=rec.active_size)
        if verify:
            ref = eig_tridiag(T).values
            err = float(np.max(np.abs(spec.values - ref)))
            report.check("spectrum-match", err <= 1e-10 * scale,
                         f"max_err={err:.6e}")
        return report
    scale = spectral_norm(T)
    report.summary["norm"] = scale
    outcome = aed_transform(T, k, tol, scale)
    report.summary["spike_norm"] = spectral_norm(outcome.spike[None, :])
    report.summary["deflation_count"] = outcome.deflation_count
    bounds = aed_window_bounds(T, k, j=j, alpha=alpha,
                               window_values=outcome.values)
    for idx, (lam, b, jj) in enumerate(bounds):
        report.add(index=idx + 1, window_eigenvalue=lam,
                   spike=float(abs(outcome.spike[idx])),
                   deflatable=bool(outcome.deflatable[idx]),
                   bound=b, log10=(b.log10 if b is not None else None),
                   j_used=jj)
    if verify:
        mask = outcome.deflatable
        slack = _slack(scale)
        counts = deflation_soundness_check(T, outcome, slack)
        for v, p, c in zip(outcome.values[mask], np.abs(outcome.spike[mask]),
                           counts):
            report.check(f"deflated-{v:.6g}", c >= 1,
                         f"eigenvalues={max(int(c), 0)} radius={p + slack:.6e} "
                         f"spike={p:.6e}")
    return report


def cmd_multieig(A: DenseHermitian, E: DenseHermitian, eps_grid=None,
                 cluster_tol: float = 1e-8) -> RunReport:
    report = RunReport("multieig")
    if A.n != E.n:
        raise InputError(f"shape mismatch: A is {A.n}x{A.n}, E is {E.n}x{E.n}")
    if eps_grid is None:
        eps_grid = (1e-2, 1e-3, 1e-4, 1e-5)
    contexts = detect_multiple(A, cluster_tol=cluster_tol)
    if not contexts:
        raise InputError("no eigenvalue cluster found at this tolerance")
    fits = expansion_order(contexts, E, eps_grid)
    for ci, (ctx, fit) in enumerate(zip(contexts, fits), start=1):
        report.add(cluster=ci, lambda0=ctx.lambda0,
                   multiplicity=ctx.multiplicity, gap=ctx.gap,
                   slope=("exact" if fit.exact else fit.slope),
                   predictions_at_min_eps=" ".join(
                       repr(float(p)) for p in fit.predictions[-1]))
        for eps, err, gb in zip(fit.eps_grid, fit.errors, fit.gap_bounds):
            report.add(cluster=ci, eps=float(eps), error=float(err),
                       gap_bound=float(gb))
            report.check(f"cluster-{ci}-eps-{eps:g}", err <= gb + 1e-14,
                         f"error={err:.6e} gap_bound={gb:.6e}")
        if not fit.exact:
            report.check(f"cluster-{ci}-slope", 1.8 <= fit.slope <= 2.2,
                         f"slope={fit.slope:.4f}")
    return report


def _claim_wilkinson(report: RunReport) -> None:
    """Wilkinson matrix, order 21: nearly equal top pair and its bound."""
    sub = cmd_wilkinson(10)
    top_gap = next(r["gap"] for r in sub.records if r.get("record") == "top-pair")
    report.add(case="wilkinson-21", top_gap=top_gap,
               bound=wilkinson_gap_bound(10))
    report.check("wilkinson-top-gap-scale", 1e-15 <= top_gap <= 1e-13,
                 f"gap={top_gap:.6e} expected about 7e-14")
    for f in sub.failures:
        report.check(f"wilkinson/{f}", False)
    if sub.sound:
        report.check("wilkinson-pair-bounds", True)


def _claim_deflation_window(report: RunReport) -> None:
    """Graded 1000x1000 deflation fixture: headline bound and spike profile."""
    T = generators.aed_example(1000)
    scale = spectral_norm(T)
    outcome = aed_transform(T, 100, 1e-16, scale)
    win_vals = np.sort(outcome.values)
    small = np.array([v for v in win_vals if v < 10.0])
    fixed = aed_window_bounds(T, 100, j=88, alpha=1.0, window_values=small)
    min_log10 = min(b.log10 for _, b, _ in fixed if b is not None)
    report.add(case="deflation-window", min_log10=min_log10,
               expected="<= -270.7")
    report.check("deflation-headline-bound", min_log10 <= -270.7,
                 f"min_log10={min_log10:.2f}")
    scan = aed_window_bounds(T, 100, alpha=1.0, window_values=win_vals)
    tiny = sum(1 for _, b, _ in scan if b is not None and b.log10 <= -16.0)
    report.check("deflation-count-1e-16", tiny > 80, f"count={tiny}")
    spike_norm = spectral_norm(outcome.spike[None, :])
    report.check("spike-norm", abs(spike_norm - 1.0) <= 1e-12,
                 f"norm={spike_norm!r}")
    report.check("spike-tiny-entries", outcome.deflation_count > 80,
                 f"count={outcome.deflation_count}")


def _claim_cubic_scaling(report: RunReport) -> None:
    """Cubic scaling of the trailing-block sensitivity."""
    delta, eps = 1e-2, 1e-3
    a11 = np.diag([1.0, 2.0, 3.0])
    coupling = np.full((1, 3), delta)
    with_eps = DenseHermitian.from_blocks(a11, coupling, [[eps]])
    without = DenseHermitian.from_blocks(a11, coupling, [[0.0]])
    (moved, base), _ = _dense_batch([with_eps, without])
    move = np.abs(moved - base)
    worst = float(np.max(np.sort(move)[:3]))
    report.add(case="cubic-scaling", delta=delta, eps=eps, worst_shift=worst,
               allowance=10.0 * eps * delta * delta)
    report.check("cubic-scaling", worst <= 10.0 * eps * delta * delta,
                 f"worst={worst:.6e} allowance={10.0 * eps * delta * delta:.6e}")


def _claim_quad_residual(report: RunReport) -> None:
    """Quadratic residual bound of a 2x2 example in closed form."""
    A = DenseHermitian.from_array(np.diag([0.0, 2.0]))
    E = DenseHermitian.from_array([[0.0, 0.1], [0.1, 0.0]])
    AE = DenseHermitian.from_array(A.entries + E.entries)
    q = quadratic_residual_bounds(A, BlockSplit(1), E, [1])[0]
    shift = float(abs(eig_dense(AE).values[0] - 0.0))
    report.add(case="quad-residual-2x2", bound=q.bound.float_or_zero(),
               observed=shift)
    report.check("quad-residual-2x2",
                 abs(q.bound.float_or_zero() - 0.005) < 1e-15 and shift <= 0.005,
                 f"bound={q.bound} observed={shift:.7f}")


def _claim_expansion_slopes(report: RunReport) -> None:
    """First-order expansion of a double eigenvalue: quadratic trailing term."""
    Amult = DenseHermitian.from_array(np.diag([1.0, 1.0, 5.0]))
    rng = np.random.default_rng(2024)
    ctx = detect_multiple(Amult)[0]
    for trial in range(3):
        M = rng.standard_normal((3, 3))
        Erand = DenseHermitian.from_array((M + M.T) / 2.0)
        fit = expansion_order([ctx], Erand, (1e-2, 1e-3, 1e-4, 1e-5))[0]
        ok = fit.exact or 1.8 <= fit.slope <= 2.2
        report.check(f"expansion-slope-{trial}", ok,
                     "exact" if fit.exact else f"slope={fit.slope:.4f}")


# The paper's case studies, one entry each: (name, claim, budget in seconds).
# A claim adds its case= and check= records to a RunReport; verify-all runs
# them in this order, and the acceptance suite runs each within its budget.
CLAIMS = (
    ("wilkinson-21", _claim_wilkinson, 1.0),
    ("deflation-window", _claim_deflation_window, 30.0),
    ("cubic-scaling", _claim_cubic_scaling, 1.0),
    ("quad-residual-2x2", _claim_quad_residual, 1.0),
    ("expansion-slopes", _claim_expansion_slopes, 5.0),
)


def cmd_verify_all() -> RunReport:
    """Reproduce the embedded case studies (CLAIMS) and check their expected
    values."""
    report = RunReport("verify-all")
    for _, claim, _ in CLAIMS:
        claim(report)
    return report


def _parse_indices(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v]


def _parse_ells(text: str) -> list[int]:
    if ":" in text:
        lo, hi = text.split(":")
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",") if v]


def _parse_eps_grid(text: str) -> tuple:
    return tuple(float(v) for v in text.split(",") if v)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process (a build costs ~20 parses)."""
    parser = argparse.ArgumentParser(
        prog="eigbounds",
        description="Structured eigenvalue perturbation bounds with oracle verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound-block", help="2x2-block perturbation bounds")
    p.add_argument("--matrix", required=True, help="matrix file for A")
    p.add_argument("--perturbation", required=True, help="matrix file for E")
    p.add_argument("--k", type=int, required=True, help="trailing block size")
    p.add_argument("--indices", type=_parse_indices, default=None,
                   help="comma-separated 1-based eigenvalue ranks (default all)")
    p.add_argument("--refined", action="store_true",
                   help="use the sharper tau denominator")
    p.add_argument("--verify", action="store_true",
                   help="compare each bound against oracle eigenvalue shifts")
    p.add_argument("--csv", default=None, help="also write records as CSV")

    p = sub.add_parser("wilkinson", help="Wilkinson matrix pair-gap case study")
    p.add_argument("--n", type=int, required=True, help="half-order; matrix is 2n+1")
    p.add_argument("--ell-range", type=_parse_ells, default=None,
                   help="pairs to check, e.g. 1:5 or 1,3,7")
    p.add_argument("--csv", default=None)

    p = sub.add_parser("aed", help="aggressive-early-deflation window analysis")
    p.add_argument("--matrix", required=True, help="tridiagonal matrix file")
    p.add_argument("--k", type=int, required=True, help="window size")
    p.add_argument("--j", type=int, default=None,
                   help="decay depth (omitted: scan per eigenvalue)")
    p.add_argument("--alpha", type=float, default=None,
                   help="homotopy slack (default |b_{n-k}|)")
    p.add_argument("--tol", type=float, default=1e-16, help="deflation tolerance")
    p.add_argument("--simulate", action="store_true",
                   help="run the QR+AED driver instead of one-shot analysis")
    p.add_argument("--verify", action="store_true",
                   help="check deflations/spectrum against the oracle")
    p.add_argument("--csv", default=None)

    p = sub.add_parser("multieig", help="multiple-eigenvalue expansion order")
    p.add_argument("--matrix", required=True)
    p.add_argument("--perturbation", required=True)
    p.add_argument("--eps-grid", type=_parse_eps_grid, default=None,
                   help="comma-separated descending eps values")
    p.add_argument("--cluster-tol", type=float, default=1e-8)
    p.add_argument("--csv", default=None)

    p = sub.add_parser("verify-all", help="reproduce every embedded case study")
    p.add_argument("--csv", default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = _run(args)
        report.command = " ".join(argv if argv is not None else sys.argv[1:])
        sys.stdout.write(report.render())
        if args.csv:
            report.write_csv(args.csv)
    # InputError, MatrixFormatError and HermitianError are ValueErrors, and so
    # are the library's own argument checks (tol, eps grid, cluster tol)
    except (ValueError, OSError) as exc:
        parser.exit(2, f"error: {exc}\n")
    return 0 if report.sound else 1


def _run(args) -> RunReport:
    if args.command == "bound-block":
        A = _as_dense(load_matrix(args.matrix))
        E = _as_dense(load_matrix(args.perturbation))
        return cmd_bound_block(A, E, args.k, indices=args.indices,
                               refined=args.refined, verify=args.verify)
    if args.command == "wilkinson":
        return cmd_wilkinson(args.n, ell_range=args.ell_range)
    if args.command == "aed":
        T = _as_tridiagonal(load_matrix(args.matrix))
        return cmd_aed(T, args.k, tol=args.tol, j=args.j, alpha=args.alpha,
                       simulate=args.simulate, verify=args.verify)
    if args.command == "multieig":
        A = _as_dense(load_matrix(args.matrix))
        E = _as_dense(load_matrix(args.perturbation))
        return cmd_multieig(A, E, eps_grid=args.eps_grid,
                            cluster_tol=args.cluster_tol)
    return cmd_verify_all()


if __name__ == "__main__":
    sys.exit(main())
