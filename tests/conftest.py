import csv

import numpy as np
import pytest

from predictu.errors import NumericError, ValidationError
from predictu.fileio import ParseReport, _sniff_delimiter
from predictu.isotonic import pava
from predictu.risk_model import CaseControlCounts, GenotypeId, build_risk_table
from predictu.summary_indices import (
    _EDGE,
    INDICES,
    IndexResult,
    _check_band,
    _check_request,
    _masses_risks,
    clipped_band_masses,
)


@pytest.fixture
def three_genotype_table():
    # p = (0.5, 0.3, 0.2), r = (0.1, 0.2, 0.5), rho = 0.21
    return build_risk_table(
        conditional_case=np.array([5, 6, 10]) / 21,
        conditional_control=np.array([45, 24, 10]) / 79,
        rho=0.21,
    )


@pytest.fixture
def three_genotype_counts():
    return CaseControlCounts(
        genotypes=tuple(GenotypeId(i, f"g{i}") for i in range(3)),
        n_case=np.array([5, 6, 10]),
        n_control=np.array([45, 24, 10]),
        rho=0.21,
    )


@pytest.fixture
def two_genotype_counts():
    # cases (8, 2), controls (2, 8): plug-in risks 0.08/0.26 and 0.02/0.74
    return CaseControlCounts(
        genotypes=(GenotypeId(0, "g1"), GenotypeId(1, "g2")),
        n_case=np.array([8, 2]),
        n_control=np.array([2, 8]),
        rho=0.1,
    )


def random_sorted_table(rng, max_genotypes=12):
    """Random risk-sorted table with random prevalence in (0.01, 0.5)."""
    g = int(rng.integers(2, max_genotypes + 1))
    rho = float(rng.uniform(0.01, 0.5))
    case = rng.dirichlet(np.ones(g))
    control = rng.dirichlet(np.ones(g))
    return build_risk_table(case, control, rho)


def random_case(rng):
    """Counts with zero-count genotypes, and a shuffled order that may drop
    unobserved genotypes and add genotypes the counts do not list."""
    g = int(rng.integers(1, 12))
    while True:
        n_case = rng.integers(0, 30, g) * (rng.random(g) < 0.8)
        n_control = rng.integers(0, 30, g) * (rng.random(g) < 0.8)
        if n_case.sum() >= 2 and n_control.sum() >= 2:
            break
    genotypes = tuple(GenotypeId(i, f"g{i}") for i in range(g))
    counts = CaseControlCounts(genotypes, n_case, n_control, float(rng.uniform(0.05, 0.5)))
    empty = (n_case + n_control) == 0
    order = [x for x, e in zip(genotypes, empty) if not e or rng.random() < 0.5]
    order += [GenotypeId(g + k, f"extra{k}") for k in range(int(rng.integers(0, 3)))]
    rng.shuffle(order)
    return counts, tuple(order)


def brute_force_u(p, r):
    """U by the O(G^2) pairwise definition, independent of the library path."""
    p = np.asarray(p, dtype=float)
    r = np.asarray(r, dtype=float)
    total = 0.0
    for i in range(len(p)):
        for j in range(i):
            total += p[i] * p[j] * (r[i] - r[j])
    return 2.0 * total


def refit_rows_one_by_one(p, r):
    """Isotonic refit of each row's positive-mass risks, masses as weights.

    The simulation harness's former per-row loop over ``pava``: the
    reference the batched ``pava_rows`` must equal bit for bit.
    """
    out = np.array(r, dtype=float, copy=True)
    for i in range(p.shape[0]):
        mask = p[i] > 0
        if mask.sum() > 1:
            out[i, mask] = pava(r[i, mask], p[i, mask]).fitted
    return out


# The Bayes plug-in p = a rho + b (1 - rho), r = a rho / p as its three call
# sites wrote it before they shared one core: the references the shared
# core must equal bit for bit.


def plugin_conditionals_reference(counts, laplace=0.0):
    """Former ``_plugin_conditionals`` arithmetic: P(g|D), P(g|not D) of the
    genotypes seen in either arm, after adding ``laplace`` to each cell."""
    seen = (counts.n_case + counts.n_control) > 0
    n_case = counts.n_case[seen].astype(float)
    n_control = counts.n_control[seen].astype(float)
    g = n_case.size
    a = (n_case + laplace) / (counts.n_cases + laplace * g)
    b = (n_control + laplace) / (counts.n_controls + laplace * g)
    return a, b


def build_risk_table_reference(a, b, rho):
    """Former ``build_risk_table`` arithmetic: kept p and r, sorted by risk."""
    p = a * rho + b * (1.0 - rho)
    keep = p > 0
    p = p[keep]
    r = (a[keep] * rho) / p
    order = np.argsort(r, kind="stable")
    return p[order], r[order]


def plugin_rows_reference(case, control, rho):
    """Former ``_plugin_rows``: row-wise masses and risks from count arrays."""
    case = np.asarray(case, dtype=float)
    control = np.asarray(control, dtype=float)
    a = case / case.sum(axis=-1, keepdims=True)
    b = control / control.sum(axis=-1, keepdims=True)
    p = a * rho + b * (1.0 - rho)
    r = np.divide(a * rho, p, out=np.zeros_like(p), where=p > 0)
    return p, r


def apply_plugin_reference(a, b, rho):
    """Former ``apply_model_to_test`` arithmetic on the seen genotypes."""
    p = a * rho + b * (1.0 - rho)
    r = (a * rho) / p
    return p, r


# The scalar index evaluator as it stood beside the row path, before every
# IndexResult became a one-row call into it: the reference the one evaluator
# must equal (a standardised R was then named "R").


def index_result_reference(table_or_curve, token, band=None):
    """Former ``_index_result``: rho = p @ r, and rho_pt = m @ r for a band."""
    spec = INDICES[token]
    if spec.needs_band:
        _check_band(*band)
    p, r = _masses_risks(table_or_curve)
    rho = float(p @ r)
    extra = {}
    w, rho_std, rho_label = p, rho, "rho"
    if spec.needs_band:
        w = clipped_band_masses(p, *band)
        width = float(w.sum())
        if width <= _EDGE:
            raise ValidationError("band contains no curve mass")
        rho_std, rho_label = float(w @ r), "rho_pt"
        extra = dict(
            band=(float(band[0]), float(band[1])),
            rho_pt=rho_std,
            notes=(f"rho_pt[mean]={rho_std / width:.12g}",),
        )
    value = spec.statistic(w, r)
    if spec.scale is not None:
        if rho_std < _EDGE or rho_std > 1.0 - _EDGE:
            raise NumericError(f"{spec.name} undefined at {rho_label}={rho_std}")
        value = value / spec.scale(rho_std)
    name = "R" if token == "rstd" else spec.name
    return IndexResult(name, value, spec.scale is not None, rho, **extra)


def index_results_reference(table_or_curve, tokens, band=None):
    """Former ``_index_results``: the request check, then one index at a time."""
    _check_request(tokens, band)
    return [index_result_reference(table_or_curve, token, band) for token in tokens]


def parse_subjects_row_by_row(path, rho, max_bad_rows=0.01):
    """Subject-file aggregation by a per-row dict loop.

    The former ``parse_subject_file`` with its row reader: the reference
    the Counter tally must reproduce exactly, warnings included.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = [
            line
            for line in fh.read().splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        ]
    if not lines:
        raise ValidationError(f"{path}: file is empty")
    reader = csv.reader(lines, delimiter=_sniff_delimiter("\n".join(lines[:50])[:8192]))
    rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    header = [cell.strip() for cell in rows[0]]
    rows = rows[1:]

    lowered = [h.lower() for h in header]
    if "status" not in lowered:
        raise ValidationError(f"{path}: missing required column 'status'")
    status_col = lowered.index("status")
    id_col = lowered.index("sample_id") if "sample_id" in lowered else None
    marker_cols = [i for i in range(len(header)) if i not in (status_col, id_col)]
    if not marker_cols:
        raise ValidationError(f"{path}: no marker columns after sample_id/status")

    cases: dict[str, int] = {}
    controls: dict[str, int] = {}
    warnings: list[str] = []
    n_dropped = 0
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            n_dropped += 1
            warnings.append(f"line {lineno}: expected {len(header)} columns, got {len(row)}")
            continue
        status = row[status_col].strip()
        if status not in ("0", "1"):
            n_dropped += 1
            warnings.append(f"line {lineno}: status {status!r} is not 0 or 1")
            continue
        label = "/".join(row[i].strip() for i in marker_cols)
        bucket = cases if status == "1" else controls
        bucket[label] = bucket.get(label, 0) + 1

    report = ParseReport(
        path=str(path),
        n_rows=len(rows),
        n_used=len(rows) - n_dropped,
        n_dropped=n_dropped,
        n_markers=len(marker_cols),
        warnings=tuple(warnings),
    )
    if report.n_rows and report.dropped_fraction > max_bad_rows:
        raise ValidationError(
            f"{path}: {n_dropped}/{report.n_rows} malformed rows exceeds "
            f"--max-bad-rows {max_bad_rows:g}"
        )
    labels = sorted(set(cases) | set(controls))
    if not labels:
        raise ValidationError(f"{path}: no usable subject rows")
    genotypes = tuple(GenotypeId(i, label) for i, label in enumerate(labels))
    counts = CaseControlCounts(
        genotypes=genotypes,
        n_case=np.array([cases.get(l, 0) for l in labels], dtype=np.int64),
        n_control=np.array([controls.get(l, 0) for l in labels], dtype=np.int64),
        rho=rho,
    )
    return counts, report
