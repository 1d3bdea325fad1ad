r"""Reading subject and count files, writing result artifacts.

Two input layouts are understood.  Format A is per-subject: a header
row with ``sample_id``, ``status`` and one column per marker, one row
per subject; subjects are aggregated into multi-locus genotype counts
by exact marker-tuple match.  Format B is pre-aggregated:
``genotype_id``, ``n_case``, ``n_control``.  Blank lines and lines
starting with ``#`` (comments, such as a provenance line) are ignored
in both.  Warnings and errors name the file line on which the offending
row starts.

Both layouts are read as UTF-8 (a leading byte-order mark is dropped)
from one stream.  Below its header, a subject file is read in blocks
of about ``_CHUNK_BYTES`` characters, each completed to a line end, so
parsing holds one block plus the distinct genotypes, however long the
file and however wide its rows.  While the blocks are clean, their lines
are counted by their text into one running Counter and each distinct
text is parsed once; one search per block tells whether it may hold a
blank or comment line, and only such a block is filtered line by line.
A block is not clean when it holds a quote, a NUL, a ``\r`` outside a
``\r\n`` or a line as long as the csv field limit, or when a line text
it adds is malformed; from that block on, the csv module reads every
row, in chunks of about the same text.

All writers embed a provenance block (tool version, configuration
hash, seed) and produce deterministic bytes for fixed inputs: no
timestamps, no environment-dependent fields.
"""

from __future__ import annotations

import csv
import importlib
import io
import json
import re
from collections import Counter, deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from itertools import chain, filterfalse, islice, repeat
from operator import itemgetter

import numpy as np

from .errors import ValidationError
from .risk_model import _COUNT_LIMIT, CaseControlCounts, RiskTable

__all__ = [
    "ParseReport", "parse_subject_file", "parse_counts_file", "run_provenance",
]

_DELIMITERS = ",\t;"
# characters of line text in a block or chunk of a subject file, held at
# once while it is read: about 8,000 lines of 7 markers, 500 of 200
_CHUNK_BYTES = 200_000
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
        raise _not_utf8(path, _bad_byte(path)) from exc


def _not_utf8(path, at) -> ValidationError:
    return ValidationError(f"{path}: not UTF-8 text (byte {at})")


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


def _input_error(path, problem: str) -> ValidationError:
    """``problem`` in ``path`` as invalid input, unless a byte of the file
    is not UTF-8: that is named instead, wherever it lies, since a file
    that is not text is the graver fault, and the answer then does not
    depend on how far the file was read."""
    at = _bad_byte(path)
    return ValidationError(f"{path}: {problem}") if at is None else _not_utf8(path, at)


def _check_arms(path, n_cases: int, n_controls: int, unit: str) -> None:
    """A curve needs both arms: name the file and the arm it lacks."""
    empty = [arm for arm, n in (("case", n_cases), ("control", n_controls)) if n == 0]
    if empty:
        raise _input_error(
            path, f"no {' and no '.join(empty)} {unit}: need at least one case and one control"
        )


class _ChunkSize:
    """Lines per chunk of csv rows: ``_CHUNK_BYTES`` over the mean length
    of the lines read so far, one line at least."""

    def __init__(self, head):
        self.chars, self.lines = sum(map(len, head)), len(head)

    def __call__(self) -> int:
        return max(1, _CHUNK_BYTES * self.lines // max(self.chars, 1))

    def add(self, chars: int, lines: int) -> None:
        self.chars += chars
        self.lines += lines


def _kept_lines(lines):
    r"""The first 50 lines of ``lines`` that are not blank or ``#``
    comments, and the delimiter sniffed from them: (delimiter, head).
    No line past the 50th kept one is read.

    Lines end only at ``\n``, ``\r`` or ``\r\n``, as the csv module
    reads them; this is the one line reader behind the csv rows of both
    layouts.
    """
    head = list(islice(filterfalse(_SKIP_LINE, lines), 50))
    sample = "\n".join(line.rstrip("\r\n") for line in head)[:8192]
    return _sniff_delimiter(sample), head


class _Below:
    """What lies below a header: the kept lines of the head not yet
    read, then the rest of the open file, read as kept lines or as
    blocks of text, and the ``_ChunkSize`` to read csv rows in."""

    def __init__(self, head, fh):
        self.chunk_size = _ChunkSize(head)
        self.head, self.fh = iter(head), fh

    def lines(self):
        """The kept lines not yet read, one at a time."""
        return chain(self.head, filterfalse(_SKIP_LINE, self.fh))

    def blocks(self):
        """The text not yet read, in blocks that end at a line end: each
        is the fewest lines whose text passes ``_CHUNK_BYTES`` characters,
        or the rest of the file.

        The head's kept lines are grouped first, and the last of them open
        the first block read from the file: ``_CHUNK_BYTES`` characters
        less theirs, completed to a line end.  Left unfinished, the
        generator leaves every line it has not yielded to ``lines``.
        """
        block, size = [], 0
        for line in self.head:
            block.append(line)
            size += len(line)
            if size > _CHUNK_BYTES:
                yield "".join(block)
                block, size = [], 0
        text = "".join(block)
        while text := text + self.fh.read(_CHUNK_BYTES - len(text)) + self.fh.readline():
            yield text
            text = ""


def _has_text(row) -> bool:
    return bool("".join(row).strip())


@contextmanager
def _open_rows(path):
    """Open ``path`` and yield its stripped header, its delimiter and the
    ``_Below`` that reads what lies below the header.

    The header is the first row with a non-blank cell.  The file stays
    open inside the block, so a caller that reads below the header in
    chunks or blocks holds one at a time, never the whole file.  A row
    the csv module cannot read, in the header or inside the block, is
    invalid input, named by its file line.
    """
    with _open_text(path) as fh:
        sep, head = _kept_lines(fh)
        below = _Below(head, fh)
        try:
            header = next(filter(_has_text, csv.reader(below.lines(), delimiter=sep)), None)
            if header is None:
                raise ValidationError(f"{path}: file is empty")
            yield [cell.strip() for cell in header], sep, below
        except csv.Error as exc:
            line = deque(_row_starts(path), maxlen=1).pop()
            raise ValidationError(f"{path}: line {line}: {exc}") from exc


def _row_starts(path):
    """Yield the file line (from 1) on which each row with a non-blank
    cell starts, the header's first; a row the csv module cannot read
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
        lines = numbered(fh)
        sep, head = _kept_lines(lines)
        reader = csv.reader(chain(head, filterfalse(_SKIP_LINE, lines)), delimiter=sep)
        taken = 0
        try:
            for row in reader:
                start = kept[0]
                for _ in range(reader.line_num - taken):
                    kept.popleft()
                taken = reader.line_num
                if _has_text(row):
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


def _may_skip(text: str) -> bool:
    r"""Whether a line of ``text``, whose line ends are ``\n`` or
    ``\r\n``, may be one that ``_SKIP_LINE`` matches: the first line or
    one after a ``\n`` is empty or starts with whitespace or ``#``."""
    return bool(_SKIP_LINE(text, 0, 1) or re.search(r"\n[\s#]", text))


def _lines_are_rows(text: str, lines, limit: int) -> bool:
    r"""Whether each of ``lines``, the lines of the block ``text`` split at
    ``\n``, is one csv row: the text holds no quote, no NUL and no ``\r``
    outside a ``\r\n``, and no line is ``limit`` characters long.

    A line that long spans a whole aligned window of ``limit // 2``
    characters with no line end, so the line lengths are taken only when
    some window has none.
    """
    if '"' in text or "\0" in text:
        return False
    if "\r" in text and text.count("\r") != text.count("\r\n"):
        return False
    step = max(limit // 2, 1)
    if all(text.find("\n", i, i + step) >= 0 for i in range(0, len(text), step)):
        return True
    return max(map(len, lines), default=0) < limit


def _tally_lines(blocks, sep, id_first: bool, width: int, cols, tally: Counter):
    r"""Tally the rows of ``blocks`` by their text while the blocks are clean.

    A block is clean when its lines split at ``\n`` are one row each
    (``_lines_are_rows``) and when each line text it adds parses to
    ``width`` cells (the id cell first when ``id_first``) with status 0
    or 1.  One search per block (``_may_skip``) looks for a line that is
    empty or starts with whitespace or ``#``; only a block it flags is
    filtered of blank and comment lines.  Every clean block is counted
    into one running Counter of the line texts after the id cell; the
    texts a block adds are the Counter's last keys, and one csv reader
    parses them.  A block with a malformed text is subtracted back out.
    At the end each distinct text's raw cells at ``cols`` are added to
    ``tally`` with its count.

    Returns the number of rows tallied and the kept lines of the first
    block that is not clean, untallied and split at ``\n``, ``\r`` and
    ``\r\n`` as the file reader splits them (empty when the file ended
    clean).
    """
    limit = csv.field_size_limit() - 1  # the line end is not in the line
    key = itemgetter(*(c - id_first for c in cols))
    status = itemgetter(cols[0] - id_first)
    counted: Counter = Counter()  # line text after the id cell -> rows
    parsed: dict[str, tuple] = {}  # line text -> its raw cells at cols
    n_rows = 0

    def texts(lines):
        if id_first:
            return map(itemgetter(2), map(str.partition, lines, repeat(sep)))
        return lines

    def well_formed(rows) -> bool:
        # a status of 0 or 1 is not blank, so no row of only blank cells
        # (which the csv path drops) is counted here
        return set(map(len, rows)) <= {width - id_first} and all(
            raw.strip() in ("0", "1") for raw in set(map(status, rows))
        )

    for text in blocks:
        lines = text.split("\n")
        if not lines[-1]:
            lines.pop()
        if _may_skip(text):
            lines = list(filterfalse(_SKIP_LINE, lines))
        if not _lines_are_rows(text, lines, limit):
            break
        before = len(counted)
        counted.update(texts(lines))
        new = list(islice(reversed(counted), len(counted) - before))
        rows = list(csv.reader(new, delimiter=sep))
        if not well_formed(rows):
            counted -= Counter(texts(lines))
            break
        parsed.update(zip(new, map(key, rows)))
        n_rows += len(lines)
    else:
        text = ""  # the file ended clean
    for line, n in counted.items():
        tally[parsed[line]] += n
    return n_rows, list(filterfalse(_SKIP_LINE, io.StringIO(text, newline="")))


def parse_subject_file(path, rho: float, max_bad_rows: float = 0.01, *, opened=None):
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
    opened : tuple, optional
        What ``_open_rows(path)`` yielded, inside its block: the file is
        then read on from there, not opened again.

    Returns
    -------
    (CaseControlCounts, ParseReport)
        Genotypes are labelled by the ``/``-joined marker tuple and
        indexed in sorted-label order.
    """
    with nullcontext(opened) if opened else _open_rows(path) as (header, sep, below):
        lowered = [h.lower() for h in header]
        if "status" not in lowered:
            raise _input_error(path, "missing required column 'status'")
        status_col = lowered.index("status")
        id_col = lowered.index("sample_id") if "sample_id" in lowered else None
        marker_cols = [
            i for i in range(len(header)) if i not in (status_col, id_col)
        ]
        if not marker_cols:
            raise _input_error(path, "no marker columns after sample_id/status")

        width = len(header)
        tally: Counter = Counter()  # raw (status, *markers) cells -> rows
        n_rows, pending = 0, []
        if id_col in (0, None):
            n_rows, pending = _tally_lines(
                below.blocks(), sep, id_col == 0, width, (status_col, *marker_cols), tally
            )

        # from the first block that is not clean on, tally the raw cells of
        # each chunk of csv rows at C speed; walk a chunk row by row only to
        # word its warnings
        key = itemgetter(status_col, *marker_cols)
        rows = filter(_has_text, csv.reader(chain(pending, below.lines()), delimiter=sep))
        del pending  # the chain frees it once its lines are read
        chunk_size = below.chunk_size
        bad: list[tuple[int, str]] = []  # (kept-row ordinal, the header 0; problem)
        while chunk := list(islice(rows, chunk_size())):
            # a row's line is about its cells, their delimiters and a line end
            chunk_size.add(sum(map(len, map(sep.join, chunk))) + len(chunk), len(chunk))
            ragged = bool(set(map(len, chunk)) - {width})
            good = [row for row in chunk if len(row) == width] if ragged else chunk
            chunk_tally = Counter(map(key, good))
            bad_status = {raw for raw, *_ in chunk_tally if raw.strip() not in ("0", "1")}
            if ragged or bad_status:
                for ordinal, row in enumerate(chunk, start=n_rows + 1):
                    if len(row) != width:
                        bad.append((ordinal, f"expected {width} columns, got {len(row)}"))
                    elif row[status_col] in bad_status:
                        bad.append((ordinal, f"status {row[status_col].strip()!r} is not 0 or 1"))
            tally.update(chunk_tally)
            n_rows += len(chunk)
            del chunk, good  # hold one chunk, not two, while the next is read
    n_dropped = len(bad)
    if n_rows and n_dropped / n_rows > max_bad_rows:
        raise ValidationError(
            f"{path}: {n_dropped}/{n_rows} malformed rows exceeds "
            f"--max-bad-rows {max_bad_rows:g}"
        )

    # strip, check and join once per distinct key
    cases: dict[str, int] = {}
    controls: dict[str, int] = {}
    for (raw, *cells), n in tally.items():
        status = raw.strip()
        if status not in ("0", "1"):
            continue
        label = "/".join(map(str.strip, cells))
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
    _check_arms(path, sum(cases.values()), sum(controls.values()), "rows")
    counts = CaseControlCounts(
        genotypes=tuple(labels),
        n_case=np.array([cases.get(l, 0) for l in labels], dtype=np.int64),
        n_control=np.array([controls.get(l, 0) for l in labels], dtype=np.int64),
        rho=rho,
    )
    return counts, report


def parse_counts_file(path, rho: float, *, opened=None):
    """Read pre-aggregated counts: ``genotype_id, n_case, n_control``;
    ``opened`` as in ``parse_subject_file``."""
    labels: list[str] = []
    seen: set[str] = set()
    n_case: list[int] = []
    n_control: list[int] = []
    totals = (0, 0)  # case and control totals so far, as Python ints

    def error(ordinal, problem):
        return _input_error(path, f"line {_file_lines(path, [ordinal])[ordinal]}: {problem}")

    with nullcontext(opened) if opened else _open_rows(path) as (header, sep, below):
        lowered = [h.lower() for h in header]
        required = ("genotype_id", "n_case", "n_control")
        missing = [c for c in required if c not in lowered]
        if missing:
            raise _input_error(path, f"missing required columns {missing}")
        cols = [lowered.index(c) for c in required]
        rows = filter(_has_text, csv.reader(below.lines(), delimiter=sep))
        for ordinal, row in enumerate(rows, start=1):
            if len(row) != len(header):
                raise error(ordinal, "wrong column count")
            label = row[cols[0]].strip()
            if not label:
                raise error(ordinal, "blank genotype_id")
            if label in seen:
                raise error(ordinal, f"duplicate genotype_id {label!r}")
            try:
                a, b = int(row[cols[1]]), int(row[cols[2]])
            except ValueError as exc:
                raise error(ordinal, "counts must be integers") from exc
            if min(a, b) < 0:
                raise error(ordinal, "counts must be nonnegative")
            if max(a, b) > _COUNT_LIMIT:
                raise error(ordinal, f"a count exceeds the limit 2**63 - 1 = {_COUNT_LIMIT}")
            totals = (totals[0] + a, totals[1] + b)
            if max(totals) > _COUNT_LIMIT:
                raise error(ordinal, f"an arm total exceeds the limit 2**63 - 1 = {_COUNT_LIMIT}")
            labels.append(label)
            seen.add(label)
            n_case.append(a)
            n_control.append(b)
    _check_arms(path, *totals, "counts")
    counts = CaseControlCounts(
        genotypes=tuple(labels),
        n_case=np.array(n_case, dtype=np.int64),
        n_control=np.array(n_control, dtype=np.int64),
        rho=rho,
    )
    report = ParseReport(
        path=str(path), n_rows=len(labels), n_used=len(labels), n_dropped=0, n_markers=0
    )
    return counts, report


# ---------------------------------------------------------------------------
# provenance


def _builtin_sha256():
    """CPython's own SHA-256 constructor, ``hashlib.sha256`` only without it.

    ``hashlib`` maps OpenSSL's libcrypto (about 3.5 MiB of RSS) to hash a
    config of a few hundred bytes; the interpreter's built-in module
    (``_sha2`` from 3.12, ``_sha256`` before) gives the same digest.
    """
    for name in ("_sha2", "_sha256"):
        try:
            return importlib.import_module(name).sha256
        except ImportError:
            pass
    from hashlib import sha256

    return sha256


_SHA256 = _builtin_sha256()


def run_provenance(config: dict, seed: int | None) -> dict:
    """Provenance block for output artifacts.

    The hash covers the configuration that affects results; output
    locations and the worker count are excluded so a re-run into a
    different directory or on another number of threads produces
    identical bytes.
    """
    from . import __version__

    reduced = {
        k: v
        for k, v in sorted(config.items())
        if k not in ("out", "command", "workers") and v is not None
    }
    digest = _SHA256(
        json.dumps(reduced, sort_keys=True, default=str).encode()
    ).hexdigest()
    return {
        "tool": "predictu",
        "version": __version__,
        "config_sha256": digest,
        "seed": seed,
    }


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
        "dropped": list(table.dropped),
        "boundary_risks": bool(table.boundary_risks.any()),
    }


def write_csv(path, header, rows, provenance: dict | None = None) -> None:
    """One CSV artifact: the provenance comment, the header, the rows.

    UTF-8; the comment line ends in ``\\n``, the csv rows in ``\\r\\n``,
    and a float cell is its ``repr``.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if provenance:
            fh.write(
                "# predictu %s config=%s seed=%s\n"
                % (provenance["version"], provenance["config_sha256"], provenance["seed"])
            )
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_xy_csv(path, xname, x, yname, y, provenance: dict | None = None) -> None:
    """Two-column plot-ready CSV (curve, ROC, Lorenz)."""
    rows = ((float(xi), float(yi)) for xi, yi in zip(np.asarray(x), np.asarray(y)))
    write_csv(path, (xname, yname), rows, provenance)


_EVAL_HEADER = (
    "model", "index", "true_value", "mean", "sd", "pct_bias", "pct_coverage", "n_replicates",
)


def write_eval_csv(path, reports, provenance: dict | None = None) -> None:
    """EvalReport rows, one per model and index, in ``to_dict`` order."""
    write_csv(path, _EVAL_HEADER, (rep.to_dict().values() for rep in reports), provenance)


def read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
