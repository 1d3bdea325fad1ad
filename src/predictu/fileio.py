"""Reading subject and count files, writing result artifacts.

Two input layouts are understood.  Format A is per-subject: a header
row with ``sample_id``, ``status`` and one column per marker, one row
per subject; subjects are aggregated into multi-locus genotype counts
by exact marker-tuple match.  Format B is pre-aggregated:
``genotype_id``, ``n_case``, ``n_control``.  Blank lines and lines
starting with ``#`` are ignored in both, so written counts files
re-parse even with their provenance comment.

All writers embed a provenance block (tool version, configuration
hash, seed) and produce deterministic bytes for fixed inputs: no
timestamps, no environment-dependent fields.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .errors import ValidationError
from .risk_model import CaseControlCounts, GenotypeId, RiskTable

_DELIMITERS = ",\t;"


@dataclass(frozen=True)
class ParseReport:
    """What happened while reading one subject or count file."""

    path: str
    n_rows: int
    n_used: int
    n_dropped: int
    n_markers: int
    warnings: tuple[str, ...] = field(default_factory=tuple)

    @property
    def dropped_fraction(self) -> float:
        return self.n_dropped / self.n_rows if self.n_rows else 0.0


def _sniff_delimiter(sample: str) -> str:
    try:
        return csv.Sniffer().sniff(sample, delimiters=_DELIMITERS).delimiter
    except csv.Error:
        return ","


@contextmanager
def _open_text(path):
    """Open ``path`` as UTF-8 text; an unreadable file is invalid input."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read file ({exc.strerror or exc})") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text (byte {exc.start})") from exc


def _is_counts_file(path) -> bool:
    """Whether the first non-blank, non-comment line is a counts header."""
    with _open_text(path) as fh:
        for line in fh:
            if (s := line.lstrip()) and s[0] != "#":
                return "genotype_id" in s.lower()
    return False


def _read_rows(path) -> tuple[list[str], list[list[str]]]:
    with _open_text(path) as fh:
        lines = [line for line in fh.read().splitlines() if (s := line.lstrip()) and s[0] != "#"]
    reader = csv.reader(lines, delimiter=_sniff_delimiter("\n".join(lines[:50])[:8192]))
    rows = [row for row in reader if "".join(row).strip()]
    if not rows:
        raise ValidationError(f"{path}: file is empty")
    header = [cell.strip() for cell in rows[0]]
    return header, rows[1:]


def parse_subject_file(path, rho: float, max_bad_rows: float = 0.01):
    """Aggregate a per-subject genotype file into case-control counts.

    Parameters
    ----------
    path : str or os.PathLike
        Delimited text with header ``sample_id``, ``status`` and at
        least one marker column.  Status must be 0 (control) or 1
        (case).
    rho : float
        Population prevalence; not identifiable from case-control data
        and therefore required.
    max_bad_rows : float
        Maximum tolerated fraction of malformed rows.  Malformed rows
        are dropped with a warning; beyond the threshold the parse
        fails instead.

    Returns
    -------
    (CaseControlCounts, ParseReport)
        Genotypes are labelled by the ``/``-joined marker tuple and
        indexed in sorted-label order.
    """
    header, rows = _read_rows(path)
    lowered = [h.lower() for h in header]
    if "status" not in lowered:
        raise ValidationError(f"{path}: missing required column 'status'")
    status_col = lowered.index("status")
    id_col = lowered.index("sample_id") if "sample_id" in lowered else None
    marker_cols = [
        i for i in range(len(header)) if i not in (status_col, id_col)
    ]
    if not marker_cols:
        raise ValidationError(f"{path}: no marker columns after sample_id/status")

    # tally the raw (status, *markers) cells at C speed; strip, check and
    # join once per distinct key, not once per row
    width = len(header)
    ragged = bool(set(map(len, rows)) - {width})
    good = [row for row in rows if len(row) == width] if ragged else rows
    cases: dict[str, int] = {}
    controls: dict[str, int] = {}
    bad_status: set[str] = set()
    for (raw, *cells), n in Counter(map(itemgetter(status_col, *marker_cols), good)).items():
        status = raw.strip()
        if status not in ("0", "1"):
            bad_status.add(raw)
            continue
        label = "/".join(cell.strip() for cell in cells)
        bucket = cases if status == "1" else controls
        bucket[label] = bucket.get(label, 0) + n

    warnings: list[str] = []
    if ragged or bad_status:
        for lineno, row in enumerate(rows, start=2):
            if len(row) != width:
                warnings.append(f"line {lineno}: expected {width} columns, got {len(row)}")
            elif row[status_col] in bad_status:
                warnings.append(f"line {lineno}: status {row[status_col].strip()!r} is not 0 or 1")
    n_dropped = len(warnings)

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


def parse_counts_file(path, rho: float):
    """Read pre-aggregated counts: ``genotype_id, n_case, n_control``."""
    header, rows = _read_rows(path)
    lowered = [h.lower() for h in header]
    required = ("genotype_id", "n_case", "n_control")
    missing = [c for c in required if c not in lowered]
    if missing:
        raise ValidationError(f"{path}: missing required columns {missing}")
    cols = [lowered.index(c) for c in required]
    labels: list[str] = []
    seen: set[str] = set()
    n_case: list[int] = []
    n_control: list[int] = []
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ValidationError(f"{path}: line {lineno}: wrong column count")
        label = row[cols[0]].strip()
        if label in seen:
            raise ValidationError(f"{path}: line {lineno}: duplicate genotype_id {label!r}")
        try:
            a, b = int(row[cols[1]]), int(row[cols[2]])
        except ValueError as exc:
            raise ValidationError(f"{path}: line {lineno}: counts must be integers") from exc
        labels.append(label)
        seen.add(label)
        n_case.append(a)
        n_control.append(b)
    genotypes = tuple(GenotypeId(i, label) for i, label in enumerate(labels))
    counts = CaseControlCounts(
        genotypes=genotypes,
        n_case=np.array(n_case, dtype=np.int64),
        n_control=np.array(n_control, dtype=np.int64),
        rho=rho,
    )
    report = ParseReport(
        path=str(path), n_rows=len(rows), n_used=len(rows), n_dropped=0, n_markers=0
    )
    return counts, report


def write_counts_csv(path, counts: CaseControlCounts, provenance: dict | None = None) -> None:
    """Emit counts in the pre-aggregated format (round-trips with
    :func:`parse_counts_file`)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_provenance_comment(fh, provenance)
        writer = csv.writer(fh)
        writer.writerow(["genotype_id", "n_case", "n_control"])
        for g, a, b in zip(counts.genotypes, counts.n_case, counts.n_control):
            writer.writerow([str(g), int(a), int(b)])


# ---------------------------------------------------------------------------
# provenance


def run_provenance(config: dict, seed: int | None) -> dict:
    """Provenance block for output artifacts.

    The hash covers the configuration that affects results; output
    locations are excluded so a re-run into a different directory
    produces identical bytes.
    """
    from . import __version__

    reduced = {
        k: v
        for k, v in sorted(config.items())
        if k not in ("out", "command") and v is not None
    }
    digest = hashlib.sha256(
        json.dumps(reduced, sort_keys=True, default=str).encode()
    ).hexdigest()
    return {
        "tool": "predictu",
        "version": __version__,
        "config_sha256": digest,
        "seed": seed,
    }


def _write_provenance_comment(fh, provenance: dict | None) -> None:
    if provenance:
        fh.write(
            "# predictu %s config=%s seed=%s\n"
            % (provenance["version"], provenance["config_sha256"], provenance["seed"])
        )


def write_json(path, payload: dict, provenance: dict | None = None) -> None:
    """Serialize one result document with deterministic bytes."""
    doc = dict(payload)
    if provenance is not None:
        doc = {"provenance": provenance, **doc}
    text = json.dumps(doc, indent=2, allow_nan=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# result writers


def curve_metadata(table: RiskTable) -> dict:
    """JSON metadata accompanying a curve CSV."""
    return {
        "rho": table.rho,
        "n_genotypes": table.n_genotypes,
        "dropped": [str(g) for g in table.dropped],
        "boundary_risks": bool(table.boundary_risks.any()),
    }


def write_xy_csv(path, xname, x, yname, y, provenance: dict | None = None) -> None:
    """Two-column plot-ready CSV (curve, ROC, Lorenz)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_provenance_comment(fh, provenance)
        writer = csv.writer(fh)
        writer.writerow([xname, yname])
        for xi, yi in zip(np.asarray(x), np.asarray(y)):
            writer.writerow([repr(float(xi)), repr(float(yi))])


def write_eval_csv(path, reports, provenance: dict | None = None) -> None:
    """EvalReport rows, one per model and index."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_provenance_comment(fh, provenance)
        writer = csv.writer(fh)
        writer.writerow(
            ["model", "index", "true_value", "mean", "sd", "pct_bias", "pct_coverage", "n_replicates"]
        )
        for rep in reports:
            d = rep.to_dict()
            writer.writerow(
                [
                    d["model"],
                    d["index"],
                    repr(d["true_value"]),
                    repr(d["mean"]),
                    repr(d["sd"]),
                    repr(d["pct_bias"]),
                    repr(d["pct_coverage"]),
                    d["n_replicates"],
                ]
            )


def read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
