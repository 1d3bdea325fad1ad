"""Tests for subject/count parsing, provenance, and result writers."""

import csv
import io
import json
import tracemalloc

import numpy as np
import pytest

from predictu import ValidationError, fileio
from predictu.fileio import (
    ParseReport,
    curve_metadata,
    parse_counts_file,
    parse_subject_file,
    read_json,
    run_provenance,
    write_counts_csv,
    write_eval_csv,
    write_json,
    write_xy_csv,
)
from predictu.risk_model import CaseControlCounts, GenotypeId, build_risk_table
from predictu.simulate import EvalReport

from conftest import parse_subjects_row_by_row


@pytest.fixture(params=[1, 2, 3, 7, fileio._CHUNK_ROWS], ids=["1", "2", "3", "7", "default"])
def chunk_rows(request, monkeypatch):
    """Read files in chunks of this many rows, down to one row a chunk."""
    monkeypatch.setattr(fileio, "_CHUNK_ROWS", request.param)
    return request.param


def subjects(tmp_path, text, name="subjects.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_subjects_hand_example(tmp_path):
    path = subjects(
        tmp_path,
        "sample_id,status,snp1,snp2\n"
        "s1,1,0,1\n"
        "s2,1,0,1\n"
        "s3,0,0,1\n"
        "s4,0,1,1\n"
        "s5,1,2,0\n",
    )
    counts, report = parse_subject_file(path, rho=0.1)
    assert [str(g) for g in counts.genotypes] == ["0/1", "1/1", "2/0"]
    assert np.array_equal(counts.n_case, [2, 0, 1])
    assert np.array_equal(counts.n_control, [1, 1, 0])
    assert counts.rho == 0.1
    assert (report.n_rows, report.n_used, report.n_dropped) == (5, 5, 0)
    assert report.n_markers == 2
    assert report.warnings == ()


def test_parse_subjects_without_sample_id(tmp_path):
    path = subjects(tmp_path, "status,snp1\n1,0\n0,1\n0,0\n")
    counts, report = parse_subject_file(path, rho=0.2)
    assert report.n_markers == 1
    assert np.array_equal(counts.n_case, [1, 0])
    assert np.array_equal(counts.n_control, [1, 1])


def test_malformed_row_dropped_with_warning(tmp_path):
    rows = "\n".join(f"s{i},0,1" for i in range(9))
    path = subjects(tmp_path, f"sample_id,status,snp1\ns0,1,0\n{rows}\nbad,1\n")
    counts, report = parse_subject_file(path, rho=0.1, max_bad_rows=0.2)
    assert report.n_dropped == 1
    assert len(report.warnings) == 1
    assert "line 12" in report.warnings[0]
    assert counts.n_case.sum() + counts.n_control.sum() == 10


def test_bad_status_dropped_with_warning(tmp_path):
    path = subjects(tmp_path, "sample_id,status,snp1\ns1,1,0\ns2,2,1\ns3,0,1\n")
    counts, report = parse_subject_file(path, rho=0.1, max_bad_rows=0.5)
    assert report.n_dropped == 1
    assert "status" in report.warnings[0]
    assert counts.n_case.sum() + counts.n_control.sum() == 2


def test_too_many_bad_rows_fails(tmp_path):
    # default tolerance is 1 percent; one bad row in five is far above it
    path = subjects(tmp_path, "sample_id,status,snp1\ns1,1,0\ns2,1\ns3,0,1\ns4,0,1\ns5,0,2\n")
    with pytest.raises(ValidationError, match="max-bad-rows"):
        parse_subject_file(path, rho=0.1)


def test_missing_status_column(tmp_path):
    path = subjects(tmp_path, "sample_id,snp1\ns1,0\n")
    with pytest.raises(ValidationError, match="status"):
        parse_subject_file(path, rho=0.1)


def test_no_marker_columns(tmp_path):
    path = subjects(tmp_path, "sample_id,status\ns1,1\n")
    with pytest.raises(ValidationError, match="marker"):
        parse_subject_file(path, rho=0.1)


def test_empty_file(tmp_path):
    path = subjects(tmp_path, "\n\n")
    with pytest.raises(ValidationError, match="empty"):
        parse_subject_file(path, rho=0.1)


@pytest.mark.parametrize("sep", [",", "\t", ";"])
def test_delimiter_sniffing(tmp_path, sep):
    text = "\n".join(
        sep.join(cells)
        for cells in [
            ("sample_id", "status", "snp1"),
            ("s1", "1", "0"),
            ("s2", "1", "1"),
            ("s3", "0", "1"),
            ("s4", "0", "2"),
        ]
    )
    counts, _ = parse_subject_file(subjects(tmp_path, text + "\n"), rho=0.1)
    assert [str(g) for g in counts.genotypes] == ["0", "1", "2"]
    assert np.array_equal(counts.n_case, [1, 1, 0])
    assert np.array_equal(counts.n_control, [0, 1, 1])


def random_subject_text(rng) -> str:
    """A subject file with the quirks real exports have: quoted cells holding
    delimiters and quotes, padded cells and statuses, bad statuses, ragged
    rows, blank, whitespace and comment lines, rows of only blank cells,
    CRLF endings, any of the three delimiters, an optional sample_id and
    the status column anywhere."""
    sep = str(rng.choice([",", "\t", ";"]))
    n_markers = int(rng.integers(1, 4))
    columns = ["status"] + [f"m{k}" for k in range(n_markers)]
    if rng.random() < 0.7:
        columns.append("sample_id")
    columns = [columns[i] for i in rng.permutation(len(columns))]
    markers = ["0", "1", "2", " 1", "2 ", " 0 ", "a,b", "x;y", "t\tu", 'q"q', ""]
    statuses = ["0", "1", "0", "1", " 1 ", "0 ", "\t1", "2", "", "x", "1.0"]
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=sep, lineterminator="\n")
    writer.writerow(columns)
    for k in range(int(rng.integers(0, 40))):
        cells = []
        for name in columns:
            if name == "status":
                pool = statuses if rng.random() < 0.3 else statuses[:2]
            elif name == "sample_id":
                pool = [f"s{k}", f" s{k} "]
            else:
                pool = markers if rng.random() < 0.3 else markers[:3]
            cells.append(str(rng.choice(pool)))
        if rng.random() < 0.08:
            cells = cells[:-1] if rng.random() < 0.5 else cells + ["9"]
        if rng.random() < 0.05:
            cells = [""] * len(cells)
        writer.writerow(cells)
    lines = buf.getvalue().split("\n")[:-1]
    extras = ["", "   ", "# note", "  # indented, note", sep * 2, " " + sep + " "]
    for _ in range(int(rng.integers(0, 5))):
        lines.insert(int(rng.integers(0, len(lines) + 1)), str(rng.choice(extras)))
    end = "\r\n" if rng.random() < 0.3 else "\n"
    return end.join(lines) + end


def random_line_text_subjects(rng) -> str:
    """A subject file the line-text tally can take: no quotes, the
    sample_id first or absent, any delimiter, LF, CRLF or bare-CR line
    ends (mixed in some files) and a last line with or without its end.
    In half the files, rows that end the line-text path turn up now and
    then: a quoted cell, one spanning two lines with text on both sides
    of the break (which may straddle a chunk boundary, and which the
    label keeps), a ragged row, a bad or blank status (with the id, the
    row is kept) or a row of only blank cells."""
    sep = str(rng.choice([",", "\t", ";"]))
    columns = ["status"] + [f"m{k}" for k in range(int(rng.integers(1, 4)))]
    columns = [columns[i] for i in rng.permutation(len(columns))]
    if rng.random() < 0.6:
        columns.insert(0, "sample_id")
    status_col = columns.index("status")
    odd = float(rng.choice([0.0, 0.04]))
    lines = [sep.join(columns)]
    for k in range(int(rng.integers(0, 40))):
        cells = []
        for name in columns:
            if name == "status":
                cells.append(str(rng.choice(["0", "1", " 1 ", "0 "])))
            elif name == "sample_id":
                cells.append(f"s{k}")
            else:
                cells.append(str(rng.choice(["0", "1", "2", " 1", "2 ", ""])))
        if rng.random() < odd:
            kind = int(rng.integers(0, 5))
            if kind < 2:
                quoted = f'"a{sep}b"' if kind == 0 else '"a\nb"'
                cells[-1 if status_col != len(cells) - 1 else len(cells) - 2] = quoted
            elif kind == 2:
                cells = cells[:-1] if rng.random() < 0.5 else cells + ["9"]
            elif kind == 3:
                cells[status_col] = str(rng.choice(["2", "x", "", " "]))
            else:
                cells = [""] * len(cells)
        lines.append(sep.join(cells))
    for _ in range(int(rng.integers(0, 4))):
        extra = str(rng.choice(["", "   ", "# note", sep * 2]))
        lines.insert(int(rng.integers(0, len(lines) + 1)), extra)
    ends = ["\n", "\r\n", "\r"]
    if rng.random() < 0.2:
        text = "".join(line + str(rng.choice(ends)) for line in lines)
    else:
        end = str(rng.choice(ends))
        text = "".join(line + end for line in lines)
    return text.rstrip("\r\n") if rng.random() < 0.5 else text


def _matches_reference(path, max_bad) -> str:
    """Parse ``path`` and check it against the row-by-row reference;
    return how the parse ended: error, warned or clean."""
    try:
        expected = parse_subjects_row_by_row(path, 0.1, max_bad)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as caught:
            parse_subject_file(path, rho=0.1, max_bad_rows=max_bad)
        assert str(caught.value) == str(exc)
        return "error"
    counts, report = parse_subject_file(path, rho=0.1, max_bad_rows=max_bad)
    want, want_report = expected
    assert [(g.index, g.label) for g in counts.genotypes] == [
        (g.index, g.label) for g in want.genotypes
    ]
    for got, ref in ((counts.n_case, want.n_case), (counts.n_control, want.n_control)):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    assert report == want_report
    return "warned" if report.warnings else "clean"


@pytest.fixture
def tally_paths(monkeypatch):
    """How each parse split its rows: by line text only, by csv rows only,
    or by line text up to a chunk that was not clean, then csv rows."""
    paths = []
    real = fileio._tally_lines

    def spy(*args):
        n_rows, pending = real(*args)
        paths.append("switched" if n_rows and pending else "csv" if pending else "lines")
        return n_rows, pending

    monkeypatch.setattr(fileio, "_tally_lines", spy)
    return paths


def test_tally_matches_row_by_row_reference(tmp_path, chunk_rows):
    rng = np.random.default_rng(5)
    outcomes = set()
    for trial in range(300):
        path = tmp_path / f"s{trial}.csv"
        path.write_bytes(random_subject_text(rng).encode("utf-8"))
        max_bad = float(rng.choice([0.01, 0.5, 1.0]))
        outcomes.add(_matches_reference(path, max_bad))
    assert outcomes == {"error", "warned", "clean"}


def test_line_text_tally_matches_row_by_row_reference(tmp_path, chunk_rows, tally_paths):
    rng = np.random.default_rng(8)
    outcomes = set()
    for trial in range(300):
        path = tmp_path / f"s{trial}.csv"
        path.write_bytes(random_line_text_subjects(rng).encode("utf-8"))
        max_bad = float(rng.choice([0.01, 0.5, 1.0]))
        outcomes.add(_matches_reference(path, max_bad))
    assert outcomes == {"error", "warned", "clean"}
    # with a chunk smaller than a file, a row that is not clean can first
    # turn up past the first chunk
    paths = {"lines", "csv", "switched"} if chunk_rows < 40 else {"lines", "csv"}
    assert set(tally_paths) == paths


def test_lines_past_the_field_limit_take_the_csv_path(tmp_path, chunk_rows, tally_paths):
    limit = csv.field_size_limit(64)
    try:
        # line 5 is longer than the limit, each of its cells shorter
        rows = [f"s{k},{k % 2},{k % 3}" for k in range(8)]
        rows[3] = "s" + "x" * 40 + ",1," + " " * 40 + "2"
        path = subjects(tmp_path, "sample_id,status,m1\n" + "\n".join(rows) + "\n")
        assert _matches_reference(path, 0.01) == "clean"
        # a cell past the limit is invalid input naming its line, read as rows
        rows[5] = "s5,1," + "1" * 80
        path = subjects(tmp_path, "sample_id,status,m1\n" + "\n".join(rows) + "\n", "long.csv")
        with pytest.raises(ValidationError) as caught:
            parse_subject_file(path, rho=0.1)
    finally:
        csv.field_size_limit(limit)
    assert str(caught.value) == f"{path}: line 7: field larger than field limit (64)"
    assert set(tally_paths) == ({"switched"} if chunk_rows < 4 else {"csv"})


def test_a_nul_in_a_line_leaves_its_chunk_to_the_csv_module(tmp_path, chunk_rows, tally_paths,
                                                           monkeypatch):
    # the csv module rejects a NUL before Python 3.11 and keeps it since;
    # the id cell is never parsed on the line-text path, so a NUL there
    # must send its chunk to the csv rows to be read the same either way
    rows = [f"s{k},{k % 2},{k % 3}" for k in range(8)]
    rows[5] = "s\0,1,2"
    path = subjects(tmp_path, "sample_id,status,m1\n" + "\n".join(rows) + "\n")

    def parse():
        try:
            counts, report = parse_subject_file(path, rho=0.1)
        except ValidationError as exc:
            return str(exc)
        return [str(g) for g in counts.genotypes], counts.n_case.tolist(), report

    got = parse()
    assert set(tally_paths) == ({"switched"} if chunk_rows < 6 else {"csv"})
    monkeypatch.setattr(fileio, "_tally_lines", lambda lines, *args: (0, []))
    assert got == parse()


def test_header_below_more_skipped_lines_than_a_chunk(tmp_path, chunk_rows):
    # comment and blank lines never reach a chunk; rows of blank cells do,
    # so the header here sits past the first chunk for every small size
    text = "# note\n\n   \n" * 10 + ",,\n , \n" * 5 + "sample_id,status,snp1\ns1,1,0\ns2,0,1\n"
    path = subjects(tmp_path, text)
    counts, report = parse_subject_file(path, rho=0.1)
    want, want_report = parse_subjects_row_by_row(path, 0.1)
    assert [str(g) for g in counts.genotypes] == ["0", "1"]
    assert np.array_equal(counts.n_case, [1, 0])
    assert np.array_equal(counts.n_control, [0, 1])
    assert report == want_report
    assert [str(g) for g in want.genotypes] == ["0", "1"]


def test_warnings_keep_order_across_chunk_boundaries(tmp_path, chunk_rows):
    text = (
        "sample_id,status,snp1\n"
        "s1,1,0\n"
        "s2,1,0\n"
        "s3,1\n"
        "s4,2,0\n"
        ",,\n"
        "s5,0,1\n"
        "s6,x,1\n"
        "s7,0,1,9\n"
        "s8, 2 ,1\n"
        "s9,0,2\n"
        "s10,2,2\n"
    )
    path = subjects(tmp_path, text)
    counts, report = parse_subject_file(path, rho=0.1, max_bad_rows=1.0)
    assert report.warnings == (
        "line 4: expected 3 columns, got 2",
        "line 5: status '2' is not 0 or 1",
        "line 8: status 'x' is not 0 or 1",
        "line 9: expected 3 columns, got 4",
        "line 10: status '2' is not 0 or 1",
        "line 12: status '2' is not 0 or 1",
    )
    assert (report.n_rows, report.n_used, report.n_dropped) == (10, 4, 6)
    assert np.array_equal(counts.n_case, [2, 0, 0])
    assert np.array_equal(counts.n_control, [0, 1, 1])
    assert parse_subjects_row_by_row(path, 0.1, 1.0)[1] == report


@pytest.mark.parametrize(
    "row, message",
    [
        ("g3,1", "line 9: wrong column count"),
        ("g0,1,1", "line 9: duplicate genotype_id 'g0'"),
        ("g3,1.5,2", "line 9: counts must be integers"),
        ("g3,-1,2", "line 9: counts must be nonnegative"),
    ],
    ids=["ragged", "duplicate", "non-integer", "negative"],
)
def test_counts_errors_name_the_same_line_in_any_chunk(tmp_path, chunk_rows, row, message):
    # line numbers are file lines: the comments, blank line and blank-cell
    # row above the bad row are counted
    text = "# provenance\ngenotype_id,n_case,n_control\ng0,5,45\n\n,,\ng1,6,24\n# note\ng2,1,1\n"
    path = subjects(tmp_path, text + row + "\ng9,1,1\n", "c.csv")
    with pytest.raises(ValidationError) as caught:
        parse_counts_file(path, rho=0.2)
    assert str(caught.value) == f"{path}: {message}"


def test_warnings_name_file_lines(tmp_path, chunk_rows):
    # comment and blank lines are counted, and a row spanning lines is
    # named by the line it starts on
    text = (
        "# note\n"
        "\n"
        "sample_id,status,m1\n"
        "s1,1,0\n"
        "\n"
        "s2,0,1\n"
        "s3,2,1\n"
        "s4,0\n"
        's5,0,"a\nb"\n'
        's6,"x\ny",1\n'
        "s7,1,0\r"
        "s8,1\r\n"
    )
    path = subjects(tmp_path, text)
    _, report = parse_subject_file(path, rho=0.1, max_bad_rows=1.0)
    assert report.warnings == (
        "line 7: status '2' is not 0 or 1",
        "line 8: expected 3 columns, got 2",
        "line 11: status 'x\\ny' is not 0 or 1",
        "line 14: expected 3 columns, got 2",
    )
    assert (report.n_rows, report.n_dropped) == (8, 4)


@pytest.mark.parametrize(
    "parse, header",
    [
        (parse_subject_file, "sample_id,status,m1"),
        (parse_counts_file, "genotype_id,n_case,n_control"),
    ],
    ids=["subjects", "counts"],
)
def test_unclosed_quote_is_invalid_input_naming_its_line(tmp_path, chunk_rows, parse, header):
    # the open quote takes every later line into one cell, past the csv
    # module's field limit
    rows = "".join(f"g{k},0,1\n" for k in range(20000))
    path = subjects(tmp_path, f"# note\n\n{header}\ng0,1,1\ng1,1,\"0\n" + rows)
    with pytest.raises(ValidationError) as caught:
        parse(path, rho=0.1)
    assert str(caught.value) == (
        f"{path}: line 5: field larger than field limit ({csv.field_size_limit()})"
    )


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
@pytest.mark.parametrize("parse", [parse_subject_file, parse_counts_file])
def test_non_utf8_error_names_the_offset_in_the_file(tmp_path, bom, parse):
    # the bad byte lies far past the decoder's first read buffer
    head = bom + b"genotype_id,n_case,n_control\n"
    rows = b"".join(b"g%d,1,1\n" % k for k in range(20000))
    data = head + rows
    at = 140021
    data = data[:at] + b"\xff" + data[at:]
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(ValidationError) as caught:
        parse(path, rho=0.2)
    assert str(caught.value) == f"{path}: not UTF-8 text (byte {at})"


@pytest.mark.parametrize(
    "parse, body",
    [(parse_subject_file, b"g0,1,1\n"), (parse_counts_file, b"g0,1\n")],
    ids=["header", "row"],
)
def test_non_utf8_outranks_a_header_or_row_fault_in_any_chunk(tmp_path, chunk_rows, parse, body):
    # a counts header lacks 'status'; a ragged counts row is at line 2; the
    # bad byte lies past the decoder's first read buffer
    rows = b"".join(b"g%d,1,1\n" % k for k in range(1, 3000))
    data = b"genotype_id,n_case,n_control\n" + body + rows
    at = len(data) - 3
    path = tmp_path / "bad.csv"
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    with pytest.raises(ValidationError) as caught:
        parse(path, rho=0.2)
    assert str(caught.value) == f"{path}: not UTF-8 text (byte {at})"


@pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
def test_byte_order_mark_is_not_part_of_the_header(tmp_path, bom):
    path = subjects(tmp_path, bom + "sample_id,status,snp1\ns1,1,0\ns2,1,1\ns3,0,1\n")
    counts, report = parse_subject_file(path, rho=0.1)
    assert [str(g) for g in counts.genotypes] == ["0", "1"]
    assert np.array_equal(counts.n_case, [1, 1])
    assert np.array_equal(counts.n_control, [0, 1])
    assert report.n_markers == 1

    path = subjects(tmp_path, bom + "genotype_id,n_case,n_control\ng0,5,45\ng1,6,24\n", "c.csv")
    counts, _ = parse_counts_file(path, rho=0.2)
    assert [str(g) for g in counts.genotypes] == ["g0", "g1"]
    assert np.array_equal(counts.n_case, [5, 6])


def test_lines_split_only_at_line_ends(tmp_path):
    # \r, \n and \r\n end a line; \f, \v, \x1c-\x1e, \x85, U+2028 and
    # U+2029 are cell content, and a quoted cell may span lines
    inside = ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    rows = [f"s{k},1,a{ch}b" for k, ch in enumerate(inside)]
    text = "sample_id,status,snp1\r" + "\r\n".join(rows) + '\ns9,0,"c\nd"\rs10,0,e\n'
    counts, report = parse_subject_file(subjects(tmp_path, text), rho=0.1)
    assert [str(g) for g in counts.genotypes] == sorted(
        [f"a{ch}b" for ch in inside] + ["c\nd", "e"]
    )
    assert np.array_equal(counts.n_case, [1] * len(inside) + [0, 0])
    assert np.array_equal(counts.n_control, [0] * len(inside) + [1, 1])
    assert (report.n_rows, report.warnings) == (len(inside) + 2, ())

    # a separator that is not a line end no longer splits two rows
    path = subjects(tmp_path, "sample_id,status,snp1\ns1,1,0\u2028s2,0,1\ns3,0,1\ns4,1,0\n", "u.csv")
    _, report = parse_subject_file(path, rho=0.1, max_bad_rows=1.0)
    assert report.warnings == ("line 2: expected 3 columns, got 5",)


def _parse_peak_mib(path) -> float:
    tracemalloc.start()
    try:
        parse_subject_file(path, rho=0.1)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_parse_memory_does_not_grow_with_rows(tmp_path):
    # both files span several chunks and see the same 243 genotypes, so a
    # peak that tracks the file size shows as a gap between the two
    rng = np.random.default_rng(3)
    pool = [f"s,{k % 2}," + ",".join(str(k // 2 // 3**j % 3) for j in range(5)) for k in range(486)]
    peaks = []
    for n in (40_000, 160_000):
        path = tmp_path / f"s{n}.csv"
        rows = "\n".join(map(pool.__getitem__, rng.integers(0, len(pool), size=n)))
        path.write_text("sample_id,status,m1,m2,m3,m4,m5\n" + rows + "\n")
        del rows
        peaks.append(_parse_peak_mib(path))
    assert n > 2 * fileio._CHUNK_ROWS
    assert abs(peaks[1] - peaks[0]) < 1.0, peaks
    assert max(peaks) < 16.0, peaks


def test_counts_roundtrip_with_provenance(tmp_path):
    path = subjects(
        tmp_path,
        "sample_id,status,snp1\ns1,1,0\ns2,1,1\ns3,0,1\ns4,0,2\n",
    )
    counts, _ = parse_subject_file(path, rho=0.1)
    out = tmp_path / "counts.csv"
    write_counts_csv(out, counts, run_provenance({"rho": 0.1}, seed=1))
    assert out.read_text().startswith("# predictu ")
    again, report = parse_counts_file(out, rho=0.1)
    assert [str(g) for g in again.genotypes] == [str(g) for g in counts.genotypes]
    assert np.array_equal(again.n_case, counts.n_case)
    assert np.array_equal(again.n_control, counts.n_control)
    assert report.n_dropped == 0


def test_counts_file_hand_example(tmp_path):
    path = subjects(tmp_path, "genotype_id,n_case,n_control\ng0,5,45\ng1,6,24\ng2,10,10\n", "c.csv")
    counts, report = parse_counts_file(path, rho=0.21)
    assert np.array_equal(counts.n_case, [5, 6, 10])
    assert np.array_equal(counts.n_control, [45, 24, 10])
    assert report.n_rows == 3 and report.n_markers == 0


def test_counts_duplicate_id(tmp_path):
    path = subjects(tmp_path, "genotype_id,n_case,n_control\ng0,5,45\ng0,6,24\n", "c.csv")
    with pytest.raises(ValidationError, match="duplicate"):
        parse_counts_file(path, rho=0.2)


def test_counts_non_integer(tmp_path):
    path = subjects(tmp_path, "genotype_id,n_case,n_control\ng0,5.5,45\n", "c.csv")
    with pytest.raises(ValidationError, match="integers"):
        parse_counts_file(path, rho=0.2)


def test_counts_negative(tmp_path):
    path = subjects(tmp_path, "genotype_id,n_case,n_control\ng0,-5,45\n", "c.csv")
    with pytest.raises(ValidationError, match="nonnegative"):
        parse_counts_file(path, rho=0.2)


def test_counts_missing_columns(tmp_path):
    path = subjects(tmp_path, "genotype_id,n_case\ng0,5\n", "c.csv")
    with pytest.raises(ValidationError, match="n_control"):
        parse_counts_file(path, rho=0.2)


def test_counts_ragged_row(tmp_path):
    path = subjects(tmp_path, "genotype_id,n_case,n_control\ng0,5\n", "c.csv")
    with pytest.raises(ValidationError, match="column count"):
        parse_counts_file(path, rho=0.2)


def test_dropped_fraction_of_empty_report():
    report = ParseReport(path="x", n_rows=0, n_used=0, n_dropped=0, n_markers=1)
    assert report.dropped_fraction == 0.0


def test_provenance_hash_is_order_and_output_insensitive():
    base = run_provenance({"rho": 0.2, "indices": "u,r"}, seed=3)
    assert base["tool"] == "predictu"
    assert base["seed"] == 3
    same = run_provenance(
        {"indices": "u,r", "rho": 0.2, "out": "elsewhere", "band": None}, seed=3
    )
    assert same["config_sha256"] == base["config_sha256"]
    other = run_provenance({"rho": 0.3, "indices": "u,r"}, seed=3)
    assert other["config_sha256"] != base["config_sha256"]


def test_write_json_deterministic_layout(tmp_path):
    prov = run_provenance({"rho": 0.2}, seed=7)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_json(a, {"value": 0.25, "nested": {"x": 1}}, prov)
    write_json(b, {"value": 0.25, "nested": {"x": 1}}, prov)
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text.startswith('{\n  "provenance"')
    assert text.endswith("}\n")
    doc = read_json(a)
    assert doc["value"] == 0.25
    assert doc["provenance"]["seed"] == 7


def test_write_curve_csv_roundtrips_floats(tmp_path):
    path = tmp_path / "curve.csv"
    q = [0.1, 1.0 / 3.0, 1.0]
    r = [0.2, 2.0 / 3.0, 0.9]
    write_xy_csv(path, "q", q, "r", r, run_provenance({}, seed=None))
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# predictu ")
    assert lines[1] == "q,r"
    parsed = [tuple(float(c) for c in line.split(",")) for line in lines[2:]]
    # repr round-trip is exact for doubles
    assert parsed == list(zip(q, r))


def test_write_xy_csv_header(tmp_path):
    path = tmp_path / "roc.csv"
    write_xy_csv(path, "fpr", [0.0, 1.0], "tpr", [0.0, 1.0])
    assert path.read_text().splitlines()[0] == "fpr,tpr"


def test_write_eval_csv_layout(tmp_path):
    path = tmp_path / "eval.csv"
    report = EvalReport(
        model="m", index_name="U", true_value=0.1, mean=0.11, sd=0.01,
        pct_bias=float("nan"), pct_coverage=95.0, n_replicates=3,
    )
    write_eval_csv(path, [report])
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == [
        "model", "index", "true_value", "mean", "sd",
        "pct_bias", "pct_coverage", "n_replicates",
    ]
    cells = lines[1].split(",")
    assert cells[0] == "m" and cells[1] == "U"
    assert np.isnan(float(cells[5]))


# The CSV writers' exact bytes, line ends included: the provenance
# comment ends in "\n", every csv row in "\r\n", a float cell is its repr.
PROVENANCE = {"tool": "predictu", "version": "0.1.0", "config_sha256": "ab12", "seed": 7}


def test_xy_csv_bytes(tmp_path):
    path = tmp_path / "curve.csv"
    q = np.array([0.1 + 0.2, 1.0])
    write_xy_csv(path, "q", q, "r", np.array([1.0 / 3.0, 0.5]), PROVENANCE)
    assert path.read_bytes() == (
        b"# predictu 0.1.0 config=ab12 seed=7\n"
        b"q,r\r\n"
        b"0.30000000000000004,0.3333333333333333\r\n"
        b"1.0,0.5\r\n"
    )


def test_eval_csv_bytes(tmp_path):
    path = tmp_path / "eval.csv"
    header = b"model,index,true_value,mean,sd,pct_bias,pct_coverage,n_replicates\r\n"
    report = EvalReport(
        model="smoke", index_name="U_std", true_value=0.0, mean=1e-05, sd=0.25,
        pct_bias=float("nan"), pct_coverage=93.33333333333333, n_replicates=30,
    )
    write_eval_csv(path, [report], PROVENANCE)
    assert path.read_bytes() == (
        b"# predictu 0.1.0 config=ab12 seed=7\n"
        + header
        + b"smoke,U_std,0.0,1e-05,0.25,nan,93.33333333333333,30\r\n"
    )
    write_eval_csv(path, [])
    assert path.read_bytes() == header


def test_counts_csv_bytes(tmp_path):
    counts = CaseControlCounts(
        genotypes=(GenotypeId(0, "0/1"), GenotypeId(1, "2/2")),
        n_case=np.array([5, 0]), n_control=np.array([45, 12]), rho=0.2,
    )
    path = tmp_path / "counts.csv"
    write_counts_csv(path, counts)
    assert path.read_bytes() == b"genotype_id,n_case,n_control\r\n0/1,5,45\r\n2/2,0,12\r\n"
    write_counts_csv(path, counts, PROVENANCE)
    assert path.read_bytes() == (
        b"# predictu 0.1.0 config=ab12 seed=7\n"
        b"genotype_id,n_case,n_control\r\n0/1,5,45\r\n2/2,0,12\r\n"
    )


def test_curve_metadata_reports_boundary_and_drops():
    # second genotype never occurs in controls, so its risk is exactly 1
    table = build_risk_table([0.5, 0.5], [1.0, 0.0], rho=0.2)
    meta = curve_metadata(table)
    assert meta["rho"] == 0.2
    assert meta["n_genotypes"] == 2
    assert meta["boundary_risks"] is True
    assert meta["dropped"] == []


def test_read_json_rejects_garbage(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("not json")
    with pytest.raises(ValueError):
        read_json(path)
