"""Independent numpy oracle and the output check built on it.

Nothing here imports ``predictu``.  The oracle re-reads the generated
input files, recomputes the plug-in risk table, and evaluates every
index by its pairwise definition (O(G^2) in blocks) rather than the
package's prefix-sum contraction.  The ROC and Lorenz areas come from
the Mann-Whitney and trapezoid forms, and the isotonic refit uses an
oracle PAVA of its own.

The plug-in risk is written in its canonical floating-point form,
r = a rho / (a rho + b (1 - rho)), so that genotypes tied in risk tie
bit for bit here as well; the package breaks such ties by input order,
and the trained ordering the ``validate`` check replays depends on it.

The tolerance is fixed before any comparison: |got - want| must not
exceed TOL_ABS + TOL_REL * |want|.  It is far above the rounding of
either summation order and far below any real error in an index.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

TOL_ABS = 1e-10
TOL_REL = 1e-8

_BLOCK = 256


@dataclass(frozen=True)
class Counts:
    """Genotype labels with case and control counts, in file (or sorted) order."""

    labels: tuple[str, ...]
    n_case: np.ndarray
    n_control: np.ndarray


@dataclass(frozen=True)
class Curve:
    """Masses and risks of a curve in its stored (evaluation) order."""

    labels: tuple[str, ...]
    p: np.ndarray
    r: np.ndarray


# ---------------------------------------------------------------------------
# reading the generated inputs


def read_subjects(path) -> Counts:
    """Aggregate a per-subject file by marker tuple, labels in sorted order."""
    with open(path, encoding="utf-8") as fh:
        n_cols = len(fh.readline().split(","))
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=range(1, n_cols), dtype=np.int64)
    status, codes = data[:, 0], data[:, 1:]
    # one-digit cells, so base-3 code order is label string order
    key = codes @ (3 ** np.arange(codes.shape[1] - 1, -1, -1))
    uniq, first, inv = np.unique(key, return_index=True, return_inverse=True)
    labels = tuple("/".join(map(str, row)) for row in codes[first].tolist())
    n_case = np.bincount(inv[status == 1], minlength=uniq.size)
    n_control = np.bincount(inv[status == 0], minlength=uniq.size)
    return Counts(labels, n_case, n_control)


def read_counts(path) -> Counts:
    """Pre-aggregated counts in file order."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return Counts(tuple(r[0] for r in rows),
                  np.array([int(r[1]) for r in rows]), np.array([int(r[2]) for r in rows]))


# ---------------------------------------------------------------------------
# plug-in table and indices


def plugin(counts: Counts, rho: float) -> Curve:
    """Plug-in masses and risks of the genotypes seen in either arm, file order."""
    seen = (counts.n_case + counts.n_control) > 0
    a = counts.n_case[seen] / counts.n_case.sum()
    b = counts.n_control[seen] / counts.n_control.sum()
    p = a * rho + b * (1.0 - rho)
    r = a * rho / p
    return Curve(tuple(l for l, s in zip(counts.labels, seen) if s), p, r)


def risk_sorted(curve: Curve) -> Curve:
    """The risk table: rows by ascending risk, ties in input order."""
    order = np.argsort(curve.r, kind="stable")
    return Curve(tuple(curve.labels[i] for i in order), curve.p[order], curve.r[order])


def pairwise_u(p, r) -> float:
    """U = sum_{i != j} p_i p_j (r_i - r_j) sign(i - j), by its definition."""
    p = np.asarray(p, float)
    r = np.asarray(r, float)
    pos = np.arange(p.size)
    total = 0.0
    for lo in range(0, p.size, _BLOCK):
        hi = min(lo + _BLOCK, p.size)
        sign = np.sign(pos[lo:hi, None] - pos[None, :])
        total += float(np.sum(p[lo:hi, None] * p[None, :] * (r[lo:hi, None] - r[None, :]) * sign))
    return total


def band_masses(p, q0: float, q1: float) -> np.ndarray:
    upper = np.cumsum(p)
    return np.clip(np.minimum(upper, q1) - np.maximum(upper - p, q0), 0.0, None)


def entropy(x) -> np.ndarray:
    x = np.asarray(x, float)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -(x * np.log(x) + (1 - x) * np.log(1 - x))
    return np.where((x <= 0) | (x >= 1), 0.0, h)


def indices(curve: Curve, tokens, band=None) -> dict[str, float]:
    """Index values under the package's display names, over the stored order.

    ``tokens`` are the CLI's ``--indices`` tokens; partial U uses the
    band-mass prevalence rho_pt = sum m r for its standardisation.
    """
    p, r = curve.p, curve.r
    rho = float(np.sum(p * r))
    u = pairwise_u(p, r)
    m = band_masses(p, *band) if band is not None else None
    rho_pt = float(np.sum(m * r)) if m is not None else None
    formulas = {
        "u": ("U", lambda: u),
        "ustd": ("U_std", lambda: u / (2 * rho * (1 - rho))),
        "upartial": ("U_partial", lambda: pairwise_u(m, r)),
        "upartialstd": ("U_partial_std", lambda: pairwise_u(m, r) / (2 * rho_pt * (1 - rho_pt))),
        "r": ("R", lambda: float(np.sum(p * (r - rho) ** 2))),
        "tg": ("TG", lambda: float(np.sum(p * np.abs(r - rho)))),
        "ae": ("AE", lambda: float(entropy(rho) - np.sum(p * entropy(r)))),
    }
    return {formulas[t][0]: formulas[t][1]() for t in tokens}


def links(table: Curve) -> dict[str, float]:
    """ROC and Lorenz areas of a risk table and the residuals of both U links."""
    p, r = table.p, table.r
    rho = float(np.sum(p * r))
    a = p * r / rho
    b = p * (1 - r) / (1 - rho)
    # Mann-Whitney: P(case ranks above control) + half the ties in position
    auc_roc = float(np.sum(a * (np.cumsum(b) - b)) + 0.5 * np.sum(a * b))
    h = np.concatenate([[0.0], np.cumsum(p * r) / rho])
    auc_lorenz = float(np.sum(p * (h[1:] + h[:-1])) / 2)
    u = pairwise_u(p, r)
    return {
        "u": u,
        "auc_roc": auc_roc,
        "auc_lorenz": auc_lorenz,
        "roc_identity_residual": abs(u - 2 * rho * (1 - rho) * (2 * auc_roc - 1)),
        "lorenz_identity_residual": abs(u - 4 * rho * (0.5 - auc_lorenz)),
    }


def pava(y, w) -> np.ndarray:
    """Weighted nondecreasing least-squares fit (pool adjacent violators)."""
    values: list[float] = []
    weights: list[float] = []
    sizes: list[int] = []
    for yi, wi in zip(np.asarray(y, float).tolist(), np.asarray(w, float).tolist()):
        values.append(yi)
        weights.append(wi)
        sizes.append(1)
        while len(values) > 1 and values[-2] >= values[-1]:
            w2 = weights[-2] + weights[-1]
            values[-2] = (values[-2] * weights[-2] + values[-1] * weights[-1]) / w2
            weights[-2] = w2
            sizes[-2] += sizes[-1]
            del values[-1], weights[-1], sizes[-1]
    return np.repeat(values, sizes)


def trained_test_curve(train: Counts, test: Counts, rho: float) -> tuple[Curve, tuple[str, ...]]:
    """Test masses and risks in the order learned on the training counts.

    Returns the curve and the labels of test genotypes absent from
    training, which follow the trained order sorted by their own risk.
    """
    trained = risk_sorted(plugin(train, rho))
    fresh = plugin(test, rho)
    slot = {label: i for i, label in enumerate(fresh.labels)}
    known = set(trained.labels)
    matched = [slot[label] for label in trained.labels if label in slot]
    extra = sorted((i for i, label in enumerate(fresh.labels) if label not in known),
                   key=lambda i: (fresh.r[i], i))
    idx = np.array(matched + extra, dtype=int)
    curve = Curve(tuple(fresh.labels[i] for i in idx), fresh.p[idx], fresh.r[idx])
    return curve, tuple(fresh.labels[i] for i in extra)


def integrated(q, r, grid) -> np.ndarray:
    """Integral of the step curve (q_{i-1}, q_i] -> r_i from 0 to each grid point.

    Continuous in the steps, so two curves that differ only in the order
    of equal-risk steps integrate alike.
    """
    q = np.asarray(q, float)
    lower = np.concatenate([[0.0], q[:-1]])
    width = np.clip(np.minimum(q[None, :], np.asarray(grid)[:, None]) - lower[None, :], 0.0, None)
    return width @ np.asarray(r, float)


# ---------------------------------------------------------------------------
# checking artifacts


def close(got, want) -> bool:
    return (isinstance(got, (int, float)) and math.isfinite(got)
            and abs(got - want) <= TOL_ABS + TOL_REL * abs(want))


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _read_csv(path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [row for row in csv.reader(fh) if row and not row[0].startswith("#")]


def compare_indices(where: str, blocks, want: dict[str, float]) -> list[str]:
    got = {block["name"]: block["value"] for block in blocks}
    problems = [f"{where}: {name} missing" for name in want if name not in got]
    problems += [f"{where}: {name} = {got[name]!r}, oracle {value!r}"
                 for name, value in want.items() if name in got and not close(got[name], value)]
    return problems


def compare_curve_csv(path, want: Curve) -> list[str]:
    rows = _read_csv(path)[1:]
    if len(rows) != len(want.p):
        return [f"{os.path.basename(path)}: {len(rows)} rows, oracle {len(want.p)}"]
    q, r = np.array(rows, dtype=float).T
    grid = np.linspace(0.0, 1.0, 101)
    gap = np.abs(integrated(q, r, grid) - integrated(np.cumsum(want.p), want.r, grid))
    if not np.all(np.isfinite(gap)) or gap.max() > TOL_ABS:
        return [f"{os.path.basename(path)}: curve integral off by {gap.max():.3g}"]
    return []


def check_curve(out: str, table: Curve, n_rows: int) -> list[str]:
    """``curve``: curve.json metadata and the curve.csv step function."""
    meta = _load_json(os.path.join(out, "curve.json"))
    problems = []
    if meta.get("n_genotypes") != len(table.p):
        problems.append(f"curve.json: n_genotypes {meta.get('n_genotypes')}, oracle {len(table.p)}")
    if meta.get("dropped") != []:
        problems.append("curve.json: genotypes dropped from observed data")
    if meta.get("boundary_risks") != bool(np.any((table.r == 0) | (table.r == 1))):
        problems.append("curve.json: boundary_risks disagrees with the oracle")
    if meta.get("parse", {}).get("rows") != n_rows or meta["parse"].get("dropped") != 0:
        problems.append(f"curve.json: parse report {meta.get('parse')}, oracle {n_rows} rows")
    return problems + compare_curve_csv(os.path.join(out, "curve.csv"), table)


def check_links(out: str, table: Curve) -> list[str]:
    """``links``: the areas and both identity residuals."""
    got = _load_json(os.path.join(out, "links.json"))
    return [f"links.json: {key} = {got.get(key)!r}, oracle {value!r}"
            for key, value in links(table).items() if not close(got.get(key), value)]


def _check_estimate(where: str, est, n_replicates: int, point: float) -> list[str]:
    ci = est.get("ci") or {}
    numbers = [est.get("u_hat"), est.get("variance"), ci.get("lower"), ci.get("upper")]
    if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in numbers):
        return [f"inference.json: {where} has a missing or non-finite value"]
    problems = []
    if not ci["lower"] <= ci["upper"] or est["variance"] < 0:
        problems.append(f"inference.json: {where} interval {ci} or variance unordered")
    if est.get("n_replicates") != n_replicates:
        problems.append(f"inference.json: {where} ran {est.get('n_replicates')} replicates")
    if not close(est["u_hat"], point):
        problems.append(f"inference.json: {where} u_hat {est['u_hat']!r}, oracle {point!r}")
    return problems


def check_summarize(out: str, table: Curve, tokens, band, n_boot: int, n_perm: int) -> list[str]:
    """``summarize``: index values, curve, and the structure of inference.json."""
    want = indices(table, tokens, band)
    problems = compare_indices("indices.json", _load_json(os.path.join(out, "indices.json"))["indices"], want)
    problems += compare_curve_csv(os.path.join(out, "curve.csv"), table)
    inf = _load_json(os.path.join(out, "inference.json"))
    problems += _check_estimate("global", inf.get("global", {}), n_boot, want["U"])
    m = band_masses(table.p, *band)
    problems += _check_estimate("partial", inf.get("partial", {}), n_boot, pairwise_u(m, table.r))
    p_value = inf.get("permutation_p")
    if not (isinstance(p_value, float) and 0.0 < p_value <= 1.0
            and abs(p_value * (n_perm + 1) - round(p_value * (n_perm + 1))) < 1e-6):
        problems.append(f"inference.json: permutation_p {p_value!r} is not k/{n_perm + 1}")
    return problems


def check_validate(out: str, train: Curve, test: Curve, unseen, tokens, band) -> list[str]:
    """``validate --isotonic``: train, test and refit indices, flags, test curve."""
    doc = _load_json(os.path.join(out, "validate.json"))
    problems = compare_indices("validate.json train", doc["train"]["indices"], indices(train, tokens, band))
    problems += compare_indices("validate.json test", doc["test"]["indices"], indices(test, tokens, band))
    refit = Curve(test.labels, test.p, pava(test.r, test.p))
    problems += compare_indices("validate.json refit", doc.get("refit", {}).get("indices", []),
                                indices(refit, tokens, band))
    if doc["test"].get("unseen") != list(unseen):
        problems.append("validate.json: unseen genotypes differ from the oracle")
    if doc["test"].get("monotone") != bool(np.all(np.diff(test.r) >= 0)):
        problems.append("validate.json: monotone flag differs from the oracle")
    return problems + compare_curve_csv(os.path.join(out, "test_curve.csv"), test)


def check_eval(out: str, n_indices: int, n_replicates: int) -> list[str]:
    """``simulate``: eval.csv has one finite, in-range row per index."""
    rows = _read_csv(os.path.join(out, "eval.csv"))
    header, body = rows[0], rows[1:]
    if len(body) != n_indices:
        return [f"eval.csv: {len(body)} rows, expected {n_indices}"]
    problems = []
    for row in body:
        rec = dict(zip(header, row))
        truth, mean, cov = float(rec["true_value"]), float(rec["mean"]), float(rec["pct_coverage"])
        if not (math.isfinite(truth) and math.isfinite(mean)):
            problems.append(f"eval.csv: {rec['index']} has a non-finite truth or mean")
        if not 0.0 <= cov <= 100.0:
            problems.append(f"eval.csv: {rec['index']} coverage {cov} outside [0, 100]")
        if int(rec["n_replicates"]) != n_replicates:
            problems.append(f"eval.csv: {rec['index']} ran {rec['n_replicates']} replicates")
    return problems
