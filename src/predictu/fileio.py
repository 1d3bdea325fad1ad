"""Reading subject and count files, writing result artifacts.

Two input layouts are understood.  Format A is per-subject: a header
row with ``sample_id``, ``status`` and one column per marker, one row
per subject; subjects are aggregated into multi-locus genotype counts
by exact marker-tuple match.  Format B is pre-aggregated:
``genotype_id``, ``n_case``, ``n_control``.  Blank lines and lines
starting with ``#`` are ignored in both, so written counts files
re-parse even with their provenance comment.  Warnings and errors name
the file line on which the offending row starts.

Both layouts are read as UTF-8 (a leading byte-order mark is dropped)
by one reader that streams the file in chunks of a fixed number of
rows.  A subject file is tallied chunk by chunk, so parsing holds one
chunk of rows plus the distinct genotypes, however long the file.

All writers embed a provenance block (tool version, configuration
hash, seed) and produce deterministic bytes for fixed inputs: no
timestamps, no environment-dependent fields.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, compress, filterfalse, islice
from operator import itemgetter

import numpy as np

from .errors import ValidationError
from .risk_model import CaseControlCounts, GenotypeId, RiskTable

_DELIMITERS = ",\t;"
# rows held at once while a file is read (a chunk of 2**14 short rows
# is a few MiB)
_CHUNK_ROWS = 1 << 14
_SKIP_LINE = re.compile(r"\s*(?:#|$)").match


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
    """Open ``path`` as UTF-8 text, a leading byte-order mark dropped; an
    unreadable file is invalid input."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read file ({exc.strerror or exc})") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text (byte {_bad_byte(path)})") from exc


def _bad_byte(path) -> int | None:
    """Offset in the file of the first byte that is not UTF-8.

    The streaming decoder reports offsets within its read buffer, so the
    error path decodes the raw bytes again, whole.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return exc.start
    return None


def _is_counts_file(path) -> bool:
    """Whether the first non-blank, non-comment line is a counts header."""
    with _open_text(path) as fh:
        return "genotype_id" in next(filterfalse(_SKIP_LINE, fh), "").lower()


def _records(lines):
    """A csv reader over the lines that are not blank or ``#`` comments,
    its delimiter sniffed from the first 50 of them."""
    lines = filterfalse(_SKIP_LINE, lines)
    head = list(islice(lines, 50))
    sample = "\n".join(line.rstrip("\r\n") for line in head)[:8192]
    return csv.reader(chain(head, lines), delimiter=_sniff_delimiter(sample))


def _read_chunks(path):
    r"""Yield the stripped header, then the rows below it in lists of at
    most ``_CHUNK_ROWS``.

    Lines end only at ``\n``, ``\r`` or ``\r\n``, as the csv module
    reads them.  Blank lines, ``#`` comments and rows of only blank
    cells are dropped; the delimiter is sniffed from the first 50 kept
    lines.  The file stays open while the caller walks the chunks, so
    one chunk is held at a time, never the whole file.  A row the csv
    module cannot read is invalid input, named by its file line.
    """
    with _open_text(path) as fh:
        reader = _records(fh)
        header = None
        try:
            while chunk := list(islice(reader, _CHUNK_ROWS)):
                chunk = list(compress(chunk, map(str.strip, map("".join, chunk))))
                if header is None and chunk:
                    header = [cell.strip() for cell in chunk.pop(0)]
                    yield header
                if header is not None:
                    yield chunk
                # drop this chunk before the next one is read
                del chunk
        except csv.Error as exc:
            line = deque(_row_starts(path), maxlen=1).pop()
            raise ValidationError(f"{path}: line {line}: {exc}") from exc
    if header is None:
        raise ValidationError(f"{path}: file is empty")


def _row_starts(path):
    """Yield the file line (from 1) on which each row ``_read_chunks``
    keeps starts, the header's first; a row the csv module cannot read
    yields its start line and ends the walk.

    The parsers count kept rows only; this second read of the file runs
    only to word a warning or an error.
    """
    kept = deque()  # file line numbers of the kept lines not yet in a row

    def numbered(fh):
        for n, line in enumerate(fh, start=1):
            if not _SKIP_LINE(line):
                kept.append(n)
            yield line

    with _open_text(path) as fh:
        reader = _records(numbered(fh))
        taken = 0
        try:
            for row in reader:
                start = kept[0]
                for _ in range(reader.line_num - taken):
                    kept.popleft()
                taken = reader.line_num
                if "".join(row).strip():
                    yield start
        except csv.Error:
            yield kept[0]


def _file_lines(path, ordinals) -> dict[int, int]:
    """File line of each kept row in ``ordinals``, the header being row 0."""
    wanted = set(ordinals)
    lines: dict[int, int] = {}
    if not wanted:
        return lines
    for ordinal, line in enumerate(_row_starts(path)):
        if ordinal in wanted:
            lines[ordinal] = line
            if len(lines) == len(wanted):
                break
    return lines


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
    chunks = _read_chunks(path)
    header = next(chunks)
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

    # tally the raw (status, *markers) cells of each chunk at C speed; walk
    # a chunk row by row only to word its warnings; strip, check and join
    # once per distinct key at the end
    width = len(header)
    key = itemgetter(status_col, *marker_cols)
    tally: Counter = Counter()
    bad: list[tuple[int, str]] = []  # (kept-row ordinal, the header 0; problem)
    n_rows = 0
    for rows in chunks:
        ragged = bool(set(map(len, rows)) - {width})
        good = [row for row in rows if len(row) == width] if ragged else rows
        chunk_tally = Counter(map(key, good))
        bad_status = {raw for raw, *_ in chunk_tally if raw.strip() not in ("0", "1")}
        if ragged or bad_status:
            for ordinal, row in enumerate(rows, start=n_rows + 1):
                if len(row) != width:
                    bad.append((ordinal, f"expected {width} columns, got {len(row)}"))
                elif row[status_col] in bad_status:
                    bad.append((ordinal, f"status {row[status_col].strip()!r} is not 0 or 1"))
        tally.update(chunk_tally)
        n_rows += len(rows)
        del rows, good  # hold one chunk, not two, while the next is read
    n_dropped = len(bad)
    if n_rows and n_dropped / n_rows > max_bad_rows:
        raise ValidationError(
            f"{path}: {n_dropped}/{n_rows} malformed rows exceeds "
            f"--max-bad-rows {max_bad_rows:g}"
        )

    cases: dict[str, int] = {}
    controls: dict[str, int] = {}
    for (raw, *cells), n in tally.items():
        status = raw.strip()
        if status not in ("0", "1"):
            continue
        label = "/".join(cell.strip() for cell in cells)
        bucket = cases if status == "1" else controls
        bucket[label] = bucket.get(label, 0) + n

    lines = _file_lines(path, (ordinal for ordinal, _ in bad))
    report = ParseReport(
        path=str(path),
        n_rows=n_rows,
        n_used=n_rows - n_dropped,
        n_dropped=n_dropped,
        n_markers=len(marker_cols),
        warnings=tuple(f"line {lines[ordinal]}: {problem}" for ordinal, problem in bad),
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
    chunks = _read_chunks(path)
    header = next(chunks)
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

    def error(ordinal, problem):
        return ValidationError(f"{path}: line {_file_lines(path, [ordinal])[ordinal]}: {problem}")

    for ordinal, row in enumerate(chain.from_iterable(chunks), start=1):
        if len(row) != len(header):
            raise error(ordinal, "wrong column count")
        label = row[cols[0]].strip()
        if label in seen:
            raise error(ordinal, f"duplicate genotype_id {label!r}")
        try:
            a, b = int(row[cols[1]]), int(row[cols[2]])
        except ValueError as exc:
            raise error(ordinal, "counts must be integers") from exc
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
        path=str(path), n_rows=len(labels), n_used=len(labels), n_dropped=0, n_markers=0
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
    locations and the worker count are excluded so a re-run into a
    different directory or on another number of processes produces
    identical bytes.
    """
    from . import __version__

    reduced = {
        k: v
        for k, v in sorted(config.items())
        if k not in ("out", "command", "workers") and v is not None
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
