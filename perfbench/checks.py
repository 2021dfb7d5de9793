"""Independent checks of every operation's output.

numpy and scipy serve as a third opinion here and nowhere in the program.
``reference(op)`` computes what a correct output must contain; ``check(op,
output)`` returns the problems found (an empty list means the operation is
done).  Besides matching scipy, each CLI check requires ``status=sound``
exactly when every verified bound holds against scipy's spectra, and an exit
code that agrees with the status line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal, eigvalsh, eigvalsh_tridiagonal

EPS_GRID = (1e-2, 1e-3, 1e-4, 1e-5)       # multieig's default grid
AED_TOL = 1e-16                           # aed's default deflation tolerance


@dataclass
class Report:
    """A parsed RunReport: records, summary and status line."""

    records: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    status: str = ""

    def rows(self, key: str) -> list:
        return [r for r in self.records if key in r]


def _value(text: str):
    if text in ("true", "false"):
        return text == "true"
    if text == "invalid":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def parse_report(text: str) -> Report:
    """Parse the key=value report that cli.main prints."""
    rep = Report()
    for line in text.splitlines():
        if line.startswith("command="):
            continue
        if line.startswith("status="):
            rep.status = line[len("status="):]
        elif line.startswith("summary "):
            key, _, val = line[len("summary "):].partition("=")
            rep.summary[key] = _value(val)
        elif not line.startswith("check="):   # verdicts are judged from the data
            rec, last = {}, None
            for tok in line.split(" "):
                key, eq, val = tok.partition("=")
                if eq:
                    rec[key], last = val, key
                elif last is not None:   # a value holding spaces
                    rec[last] += " " + tok
            rep.records.append({k: _value(v) for k, v in rec.items()})
    return rep


def _close(got, want, tol) -> bool:
    return isinstance(got, float) and abs(got - float(want)) <= tol


def _status_problems(rc, rep: Report, expect_sound: bool) -> list[str]:
    problems = []
    if (rep.status == "sound") != expect_sound:
        problems.append(f"status={rep.status} but a sound program prints "
                        f"{'sound' if expect_sound else 'violations'}")
    if rc != (0 if rep.status == "sound" else 1):
        problems.append(f"exit code {rc} disagrees with status={rep.status}")
    return problems


# ---------------------------------------------------------------- bound-block

def _ref_bound_block(inp):
    A, E, k = inp["A"], inp["E"], inp["k"]
    m = A.shape[0] - k
    a_vals = eigvalsh(A)
    shifts = np.abs(a_vals - eigvalsh(A + E))
    a22 = eigvalsh(A[m:, m:])
    gaps = np.array([np.min(np.abs(lam - a22)) for lam in a_vals])
    quad_shape = not (np.any(A[m:, :m]) or np.any(E[:m, :m]) or np.any(E[m:, m:]))
    return {"shifts": shifts, "gaps": gaps, "quad_shape": quad_shape,
            "norm_a": float(np.max(np.abs(a_vals))),
            "norm_e": float(np.max(np.abs(eigvalsh(E))))}


def _check_bound_block(inp, ref, rc, rep: Report) -> list[str]:
    problems = []
    recs = rep.rows("index")
    n = inp["A"].shape[0]
    if [int(r["index"]) for r in recs] != list(range(1, n + 1)):
        return problems + [f"expected records for indices 1..{n}"]
    match_tol = 1e-10 * max(1.0, ref["norm_a"] + ref["norm_e"])
    slack = 1e-11 * max(1.0, ref["norm_a"])           # roundoff in the shifts
    prog_slack = 1e-12 * max(1.0, ref["norm_a"])      # the program's own slack
    expect_sound = True
    for r in recs:
        i = int(r["index"])
        s = ref["shifts"][i - 1]
        if not _close(r["weyl"], ref["norm_e"], 1e-10 * ref["norm_e"] + 1e-14):
            problems.append(f"index {i}: weyl={r['weyl']} but ||E||={ref['norm_e']:.6e}")
        if not _close(r["gap"], ref["gaps"][i - 1], match_tol):
            problems.append(f"index {i}: gap={r['gap']} but scipy {ref['gaps'][i - 1]:.6e}")
        bounds = {"weyl": r["weyl"], r["formula"]: r["bound"]}
        if ref["quad_shape"]:
            if "quad_residual" not in r:
                problems.append(f"index {i}: no quad_residual on a quadratic-residual pair")
            elif r["quad_residual"] is not None:
                bounds["quad_residual"] = r["quad_residual"]
        for name, b in bounds.items():
            if b is None or b < s - slack:
                problems.append(f"index {i}: {name} bound {b} below the shift {s:.6e}")
        if inp["verify"]:
            if not _close(r.get("observed"), s, match_tol):
                problems.append(f"index {i}: observed={r.get('observed')} "
                                f"but scipy shift {s:.6e}")
            checked = [bounds["weyl"]] + [bounds[f] for f in ("min_of", "quad_residual")
                                          if bounds.get(f) is not None]
            expect_sound &= all(s <= b + prog_slack for b in checked)
    return problems + _status_problems(rc, rep, expect_sound)


# ------------------------------------------------------------------- multieig

def _ref_multieig(inp):
    A, E = inp["A"], inp["E"]
    vals, vecs = eigh(A)
    scale = max(abs(vals[0]), abs(vals[-1]))
    norm_e = float(np.max(np.abs(eigvalsh(E))))
    clusters = []
    start = 0
    while start < vals.size:
        stop = start + 1
        while stop < vals.size and vals[stop] - vals[start] <= 1e-8 * scale:
            stop += 1
        if stop - start >= 2:
            lam0 = float(np.mean(vals[start:stop]))
            outside = np.concatenate([vals[:start], vals[stop:]])
            gap = float(np.min(np.abs(outside - lam0)))
            q = vecs[:, start:stop]
            mu = eigvalsh(q.conj().T @ E @ q)
            errors, bounds = [], []
            for eps in EPS_GRID:
                observed = eigvalsh(A + eps * E)[start:stop]
                errors.append(float(np.max(np.abs(observed - (lam0 + eps * mu)))))
                en = eps * norm_e
                bounds.append(2.0 * en * en / (gap + math.hypot(gap, 2.0 * en)))
            slope = float(np.polyfit(np.log(EPS_GRID), np.log(errors), 1)[0])
            clusters.append({"lambda0": lam0, "multiplicity": stop - start,
                             "gap": gap, "mu": mu, "errors": errors,
                             "bounds": bounds, "slope": slope})
        start = stop
    return {"clusters": clusters, "scale": scale}


def _check_multieig(inp, ref, rc, rep: Report) -> list[str]:
    problems = []
    tol = 1e-10 * max(1.0, ref["scale"])
    heads = rep.rows("lambda0")
    if len(heads) != len(ref["clusters"]):
        return [f"{len(heads)} clusters reported, scipy finds {len(ref['clusters'])}"]
    expect_sound = True
    for ci, (head, c) in enumerate(zip(heads, ref["clusters"]), start=1):
        if int(head["multiplicity"]) != c["multiplicity"]:
            problems.append(f"cluster {ci}: multiplicity {head['multiplicity']}")
        for key in ("lambda0", "gap"):
            if not _close(head[key], c[key], tol):
                problems.append(f"cluster {ci}: {key}={head[key]} but scipy {c[key]:.6e}")
        preds = [float(v) for v in str(head["predictions_at_min_eps"]).split()]
        want = c["lambda0"] + EPS_GRID[-1] * c["mu"]
        if len(preds) != want.size or np.max(np.abs(np.array(preds) - want)) > tol:
            problems.append(f"cluster {ci}: first-order predictions differ from scipy")
        if not _close(head["slope"], c["slope"], 1e-3):
            problems.append(f"cluster {ci}: slope={head['slope']} but scipy {c['slope']:.4f}")
        rows = [r for r in rep.rows("eps") if int(r["cluster"]) == ci]
        if [r["eps"] for r in rows] != list(EPS_GRID):
            problems.append(f"cluster {ci}: eps rows {[r['eps'] for r in rows]}")
            continue
        for r, err, gb in zip(rows, c["errors"], c["bounds"]):
            if not _close(r["error"], err, 1e-12 * max(1.0, ref["scale"])):
                problems.append(f"cluster {ci} eps {r['eps']:g}: error={r['error']} "
                                f"but scipy {err:.6e}")
            if not _close(r["gap_bound"], gb, 1e-8 * gb):
                problems.append(f"cluster {ci} eps {r['eps']:g}: gap_bound={r['gap_bound']}")
            if r["error"] is None or r["error"] > r["gap_bound"] + 1e-14:
                problems.append(f"cluster {ci} eps {r['eps']:g}: error above its gap bound")
            expect_sound &= err <= gb + 1e-14
        expect_sound &= 1.8 <= c["slope"] <= 2.2
    return problems + _status_problems(rc, rep, expect_sound)


# ------------------------------------------------------------------------ aed

def aed_bound_log10(d, off, k, j, lams):
    """log10 of the window bound (b_{n-k}/2) eta_{n-k} prod eta_{n-k+i}^2
    per window eigenvalue, conservative neighbour rule, alpha = |b_{n-k}|;
    with j=None the depth minimising it over the feasible prefix.  Returns
    (log10 or None, depth or None) pairs."""
    n = d.size
    b = np.abs(off)
    alpha = b[n - k - 1]
    b_next = np.concatenate([b, [0.0]])             # b_i for rows i = 1..n
    b_prev = np.concatenate([[0.0], b])             # b_{i-1}
    dist = np.abs(d[None, :] - np.asarray(lams)[:, None])
    margin = dist - b_next - b_prev - alpha         # gap condition per row
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = b_next / (dist - alpha - np.maximum(b_next, b_prev))
        log_eta = np.log10(eta)
    head = math.log10(alpha / 2.0) + log_eta[:, n - k - 1]
    out = []
    for row in range(len(lams)):
        if not np.all(margin[row, :n - k] > 0.0):
            out.append((None, None))
            continue
        rows = np.arange(n - k, n - 1)              # 0-based rows n-k+1..n-1
        ok = margin[row, rows] > 0.0
        feasible = rows.size if ok.all() else int(np.argmin(ok))
        cum = head[row] + 2.0 * np.cumsum(log_eta[row, rows[:feasible]])
        if j is not None:
            out.append((float(cum[j - 1]), j) if 1 <= j <= feasible else (None, None))
        elif feasible:
            best = int(np.argmin(cum))
            out.append((float(cum[best]), best + 1))
        else:
            out.append((None, None))
    return out


def _ref_aed(inp):
    T, k = inp["T"], inp["k"]
    d, off = T.diag, T.offdiag
    full = eigvalsh_tridiagonal(d, off)
    wvals, wvecs = eigh_tridiagonal(d[-k:], off[d.size - k:])
    coupling = float(off[d.size - k - 1])
    return {"full": full, "norm": float(np.max(np.abs(full))), "wvals": wvals,
            "spike": np.abs(coupling * wvecs[0, :]), "coupling": abs(coupling)}


def _check_aed(inp, ref, rc, rep: Report) -> list[str]:
    T, k = inp["T"], inp["k"]
    problems = []
    norm = ref["norm"]
    tol = 1e-11 * max(1.0, norm)
    if not _close(rep.summary.get("norm"), norm, tol):
        problems.append(f"norm={rep.summary.get('norm')} but scipy {norm:.17g}")
    if not _close(rep.summary.get("spike_norm"), ref["coupling"], 1e-10 * ref["coupling"]):
        problems.append(f"spike_norm={rep.summary.get('spike_norm')} "
                        f"but |b_(n-k)|={ref['coupling']:.17g}")
    recs = sorted(rep.rows("window_eigenvalue"), key=lambda r: r["window_eigenvalue"])
    if len(recs) != k:
        return problems + [f"{len(recs)} window records for k={k}"]
    lams = np.array([r["window_eigenvalue"] for r in recs])
    spikes = np.abs([r["spike"] for r in recs])
    worst = float(np.max(np.abs(lams - ref["wvals"])))
    if worst > tol:
        problems.append(f"window eigenvalues off scipy by {worst:.3e}")
    worst = float(np.max(np.abs(spikes - ref["spike"])))
    if worst > 1e-8 * ref["coupling"]:
        problems.append(f"spike entries off scipy by {worst:.3e}")
    flags = np.array([r["deflatable"] for r in recs])
    scale = rep.summary.get("norm") or norm
    if np.any(flags != (spikes <= AED_TOL * scale)):
        problems.append("deflatable flags disagree with |spike| <= tol * norm")
    expect_sound = True
    for lam, t in zip(lams[flags], spikes[flags]):
        dist = float(np.min(np.abs(ref["full"] - lam)))
        # the residual of a deflated window eigenpair in T is |t|
        expect_sound &= dist <= t + 1e-12 * max(norm, 1.0)
    for r, (lg, depth) in zip(recs, aed_bound_log10(T.diag, T.offdiag, k,
                                                    inp["j"], lams)):
        got = r.get("log10")
        if (got is None) != (lg is None) or (
                lg is not None and (abs(got - lg) > 1e-8 * max(1.0, abs(lg))
                                    or r["j_used"] != depth)):
            problems.append(f"window eigenvalue {r['window_eigenvalue']!r}: "
                            f"bound log10={got} j={r.get('j_used')}, "
                            f"recomputed {lg} j={depth}")
            break
    return problems + _status_problems(rc, rep, expect_sound)


# ------------------------------------------------------------------ wilkinson

def _wilkinson(n):
    diag = np.abs(np.arange(-n, n + 1)).astype(float)
    off = np.ones(2 * n)
    split = off.copy()
    split[n - 1] = split[n] = 0.0
    return eigvalsh_tridiagonal(diag, off), eigvalsh_tridiagonal(diag, split)


def _ref_wilkinson(inp):
    n = inp["n"]
    vals, a_vals = _wilkinson(n)
    ln10 = math.log(10.0)
    return {"top_gap": vals[-1] - vals[-2],
            "top_shift": abs(vals[-1] - a_vals[-1]),
            "top_log10": math.log10(4.0 / (3.0 * n)) - 2.0 * math.lgamma(n - 1) / ln10,
            "pairs": {ell: (vals[-(2 * ell - 1)] - vals[-2 * ell],
                            -math.log10(n - ell + 1) - 2.0 * math.lgamma(n - ell) / ln10)
                      for ell in range(1, n - 1)},
            "norm": float(np.max(np.abs(vals)))}


def _check_wilkinson(inp, ref, rc, rep: Report) -> list[str]:
    problems = []
    tol = 1e-12 * max(1.0, ref["norm"])
    top = [r for r in rep.records if r.get("record") == "top-pair"]
    if len(top) != 1:
        return [f"{len(top)} top-pair records"]
    top = top[0]
    if not _close(top["gap"], ref["top_gap"], tol):
        problems.append(f"top gap {top['gap']} but scipy {ref['top_gap']:.6e}")
    if not _close(top["split_shift"], ref["top_shift"], tol):
        problems.append(f"split shift {top['split_shift']} but scipy {ref['top_shift']:.6e}")
    if not _close(top["log10"], ref["top_log10"], 1e-9):
        problems.append(f"top bound log10 {top['log10']} but {ref['top_log10']:.12f}")
    pairs = [r for r in rep.records if r.get("record") == "pair"]
    if sorted(int(r["ell"]) for r in pairs) != sorted(ref["pairs"]):
        return problems + ["pair records do not cover ell = 1..n-2"]
    expect_sound = ref["top_shift"] <= 10.0 ** ref["top_log10"]
    for r in pairs:
        gap, log10 = ref["pairs"][int(r["ell"])]
        if not _close(r["gap"], gap, tol):
            problems.append(f"pair {int(r['ell'])}: gap {r['gap']} but scipy {gap:.6e}")
        if not _close(r["log10"], log10, 1e-9):
            problems.append(f"pair {int(r['ell'])}: bound log10 {r['log10']} but {log10:.12f}")
        expect_sound &= gap <= 10.0 ** log10 + 1e-14
    return problems + _status_problems(rc, rep, expect_sound)


# ----------------------------------------------------------------- verify-all

def _ref_verify_all(inp):
    vals, _ = _wilkinson(10)
    a11 = np.diag([1.0, 2.0, 3.0])
    full = np.zeros((4, 4))
    full[:3, :3] = a11
    full[3, :3] = full[:3, 3] = 1e-2
    without = eigvalsh(full)
    full[3, 3] = 1e-3
    cubic = float(np.max(np.sort(np.abs(eigvalsh(full) - without))[:3]))
    quad = abs(eigvalsh(np.array([[0.0, 0.1], [0.1, 2.0]]))[0])
    return {"top_gap": vals[-1] - vals[-2], "cubic": cubic, "quad": quad}


def _check_verify_all(inp, ref, rc, rep: Report) -> list[str]:
    problems = []
    cases = {r["case"]: r for r in rep.rows("case")}
    for case, key, want, tol in (("wilkinson-21", "top_gap", ref["top_gap"], 1e-13),
                                 ("cubic-scaling", "worst_shift", ref["cubic"], 1e-12),
                                 ("quad-residual-2x2", "observed", ref["quad"], 1e-13),
                                 ("quad-residual-2x2", "bound", 0.1 ** 2 / 2.0, 1e-15)):
        got = cases.get(case, {}).get(key)
        if not _close(got, want, tol):
            problems.append(f"{case} {key}={got} but scipy {want:.6e}")
    # every case study is a theorem or a closed form, so all checks pass
    return problems + _status_problems(rc, rep, True)


# ------------------------------------------------------------- run_qr_with_aed

def _ref_qr(inp):
    T = inp["T"]
    vals = eigvalsh_tridiagonal(T.diag, T.offdiag)
    return {"vals": vals, "norm": float(np.max(np.abs(vals)))}


def _check_qr(inp, ref, output) -> list[str]:
    spec, stats = output
    problems = []
    if not stats.converged:
        problems.append(f"not converged after {stats.sweeps} sweeps")
    if spec.values.size != ref["vals"].size:
        return problems + [f"{spec.values.size} values for order {ref['vals'].size}"]
    err = float(np.max(np.abs(np.sort(spec.values) - ref["vals"])))
    if err > 1e-10 * max(1.0, ref["norm"]):
        problems.append(f"values off scipy by {err:.3e}")
    return problems


_CLI = {"bound-block": (_ref_bound_block, _check_bound_block),
        "multieig": (_ref_multieig, _check_multieig),
        "aed": (_ref_aed, _check_aed),
        "wilkinson": (_ref_wilkinson, _check_wilkinson),
        "verify-all": (_ref_verify_all, _check_verify_all)}


def reference(op) -> object:
    """What a correct output of op must hold, from numpy/scipy."""
    return _ref_qr(op.inputs) if op.kind == "qr" else _CLI[op.kind][0](op.inputs)


def check(op, output) -> list[str]:
    """Problems in one output of op; op.ref must be set."""
    if isinstance(output, BaseException):
        return [f"raised {type(output).__name__}: {output}"]
    if op.kind == "qr":
        return _check_qr(op.inputs, op.ref, output)
    rc, text = output
    return _CLI[op.kind][1](op.inputs, op.ref, rc, parse_report(text))
