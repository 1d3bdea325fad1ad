"""End-to-end tests of the command-line interface via main(argv)."""

import math
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

import predictu
from predictu import cli, fileio, parallel
from predictu.cli import main
from predictu.fileio import parse_subject_file, read_json, run_provenance, write_json
from predictu.risk_model import CaseControlCounts

from conftest import first_chunk_rows, group_sizes, write_counts_csv

COUNTS = "genotype_id,n_case,n_control\ng0,5,45\ng1,6,24\ng2,10,10\n"
SUBJECTS = (
    "sample_id,status,snp1\n"
    + "".join(f"c{i},1,0\n" for i in range(5))
    + "".join(f"c{i},1,1\n" for i in range(5, 11))
    + "".join(f"c{i},1,2\n" for i in range(11, 21))
    + "".join(f"u{i},0,0\n" for i in range(45))
    + "".join(f"u{i},0,1\n" for i in range(45, 69))
    + "".join(f"u{i},0,2\n" for i in range(69, 79))
)


@pytest.fixture
def counts_file(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(COUNTS)
    return str(path)


@pytest.fixture
def subject_file(tmp_path):
    path = tmp_path / "subjects.csv"
    path.write_text(SUBJECTS)
    return str(path)


def entropy(x):
    return -x * math.log(x) - (1 - x) * math.log(1 - x)


def test_missing_rho_names_the_flag(counts_file, capsys):
    assert main(["summarize", counts_file]) == 2
    assert "--rho" in capsys.readouterr().err


def test_unknown_index_token_rejected(counts_file, capsys):
    assert main(["summarize", counts_file, "--rho", "0.21", "--indices", "zzz"]) == 2
    assert "unknown indices" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, name, paths",
    [
        (["summarize", "{counts}", "--rho", "0.21"], "indices.json", [("indices",)]),
        (["validate", "--train", "{counts}", "--test", "{counts}", "--rho", "0.21", "--isotonic"],
         "validate.json", [("train", "indices"), ("test", "indices"), ("refit", "indices")]),
        (["simulate", "--preset", "smoke", "--replicates", "2", "--n-cases", "50",
          "--n-controls", "50", "--bootstrap", "5", "--format", "json"], "eval.json", [("reports",)]),
    ],
    ids=["summarize", "validate", "simulate"],
)
def test_repeated_index_tokens_are_written_once(argv, name, paths, counts_file, tmp_path):
    out = tmp_path / "run"
    argv = [a.format(counts=counts_file) for a in argv]
    assert main(argv + ["--indices", "u,U,ustd,u", "--out", str(out)]) == 0
    doc = read_json(out / name)
    for keys in paths:
        blocks = doc
        for key in keys:
            blocks = blocks[key]
        assert [b.get("name") or b["index"] for b in blocks] == ["U", "U_std"], keys


def test_curve_outputs(counts_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["curve", counts_file, "--rho", "0.21", "--out", str(out)]) == 0
    lines = (out / "curve.csv").read_text().splitlines()
    assert lines[1] == "q,r"
    assert len(lines) == 2 + 3  # one point per genotype
    meta = read_json(out / "curve.json")
    assert meta["rho"] == 0.21
    assert meta["n_genotypes"] == 3
    assert meta["parse"]["dropped"] == 0
    assert "curve: 3 genotypes" in capsys.readouterr().out


def test_curve_accepts_subject_file(subject_file, tmp_path):
    out = tmp_path / "run"
    assert main(["curve", subject_file, "--rho", "0.21", "--out", str(out)]) == 0
    meta = read_json(out / "curve.json")
    assert meta["parse"]["rows"] == 100
    assert meta["n_genotypes"] == 3


def test_curve_warns_on_dropped_rows(tmp_path, capsys):
    path = tmp_path / "subjects.csv"
    path.write_text(SUBJECTS + "oops,1\n")
    out = tmp_path / "run"
    code = main(["curve", str(path), "--rho", "0.21",
                 "--max-bad-rows", "0.5", "--out", str(out)])
    assert code == 0
    assert "warning:" in capsys.readouterr().err
    assert read_json(out / "curve.json")["parse"]["dropped"] == 1


@pytest.mark.parametrize("command", ["summarize", "links", "validate"])
def test_every_subcommand_warns_on_dropped_rows(command, subject_file, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(SUBJECTS + "oops,1\n")
    inputs = ["--train", subject_file, "--test", str(bad)] if command == "validate" else [str(bad)]
    code = main([command, *inputs, "--rho", "0.21", "--max-bad-rows", "0.5",
                 "--out", str(tmp_path / "run")])
    assert code == 0
    err = capsys.readouterr().err
    # the prefix names the file, so validate's two inputs can be told apart
    assert f"warning: {bad}:" in err
    assert subject_file not in err


@pytest.mark.parametrize(
    "name, content",
    [
        ("missing.csv", None),
        ("latin1_header.csv", "sample_id,status,snp\u00e9\ns1,1,0\n".encode("latin-1")),
        ("latin1_row.csv", (SUBJECTS + "\u00e91,0,1\n").encode("latin-1")),
        ("blank_cells.csv", b",,\n , ,\n# note\n,\n"),
        # a quote never closed swallows every later line into one cell
        ("open_quote_subjects.csv",
         b'sample_id,status,m1\ns0,1,"0\n' + b"".join(b"s%d,0,1\n" % k for k in range(20000))),
        ("open_quote_counts.csv",
         b'genotype_id,n_case,n_control\ng0,1,"1\n' + b"".join(b"g%d,0,1\n" % k for k in range(20000))),
    ],
    ids=["missing", "latin1-header", "latin1-row", "blank-cells",
         "open-quote-subjects", "open-quote-counts"],
)
def test_unreadable_input_is_invalid(name, content, tmp_path, capsys):
    path = tmp_path / name
    if content is not None:
        path.write_bytes(content)
    assert main(["curve", str(path), "--rho", "0.21", "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: ")


def test_counts_file_with_provenance_comment_is_detected(subject_file, tmp_path):
    counts, _ = parse_subject_file(subject_file, rho=0.21)
    plain, stamped = tmp_path / "plain.csv", tmp_path / "stamped.csv"
    write_counts_csv(plain, counts)
    write_counts_csv(stamped, counts, run_provenance({"rho": 0.21}, seed=None))
    assert stamped.read_text().startswith("# predictu ")
    rows = []
    for path in (plain, stamped):
        out = tmp_path / path.stem
        assert main(["curve", str(path), "--rho", "0.21", "--out", str(out)]) == 0
        rows.append((out / "curve.csv").read_text().splitlines()[1:])
    assert rows[0] == rows[1] and len(rows[0]) == 1 + 3


@pytest.mark.parametrize(
    "plain, text",
    [(COUNTS, ",,\n" + COUNTS), (SUBJECTS, SUBJECTS.replace("snp1", "genotype_id_rs1", 1))],
    ids=["counts-after-blank-cells", "subjects-with-genotype-id-marker"],
)
def test_layout_is_read_from_the_header_the_parsers_read(plain, text, tmp_path):
    curves = []
    for name, content in (("plain", plain), ("header", text)):
        path = tmp_path / f"{name}.csv"
        path.write_text(content)
        out = tmp_path / name
        assert main(["curve", str(path), "--rho", "0.21", "--out", str(out)]) == 0
        curves.append((out / "curve.csv").read_text().splitlines()[1:])
    assert curves[0] == curves[1] and len(curves[0]) == 1 + 3


@pytest.mark.parametrize("text", [SUBJECTS, COUNTS], ids=["subjects", "counts"])
def test_byte_order_mark_reads_like_plain_text(text, tmp_path, capsys):
    curves = []
    for name, prefix in (("plain", ""), ("bom", "\ufeff")):
        path = tmp_path / f"{name}.csv"
        path.write_text(prefix + text, encoding="utf-8")
        out = tmp_path / name
        assert main(["curve", str(path), "--rho", "0.21", "--out", str(out)]) == 0
        meta = read_json(out / "curve.json")
        assert (meta["n_genotypes"], meta["parse"]["dropped"]) == (3, 0)
        curves.append((out / "curve.csv").read_text().splitlines()[1:])
    assert curves[0] == curves[1]
    assert "warning" not in capsys.readouterr().err


def test_non_utf8_input_names_the_offset_in_the_file(tmp_path, capsys):
    header, body = SUBJECTS.split("\n", 1)
    data = ("\ufeff" + header + "\n" + body * 60).encode("utf-8")
    at = len(data) - 100
    path = tmp_path / "bad.csv"
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    assert main(["curve", str(path), "--rho", "0.21", "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: {path}: not UTF-8 text (byte {at})\n"


@pytest.mark.parametrize("command", ["curve", "summarize", "links"])
def test_format_is_not_accepted_where_it_would_be_ignored(command, counts_file, tmp_path):
    assert main([command, counts_file, "--rho", "0.21", "--format", "json",
                 "--out", str(tmp_path)]) == 2


def test_cli_import_leaves_scipy_stats_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(predictu.__file__)))
    code = "import sys, predictu.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "False"


def test_cli_import_and_curve_leave_scipy_special_unloaded(counts_file, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(predictu.__file__)))
    code = (
        "import sys, predictu.cli as cli\n"
        "loaded = ['scipy.special' in sys.modules]\n"
        "for command in ('curve', 'links'):\n"
        f"    assert cli.main([command, {counts_file!r}, '--rho', '0.21', '--out', {str(tmp_path)!r}]) == 0\n"
        "    loaded.append('scipy.special' in sys.modules)\n"
        "print(loaded)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.splitlines()[-1] == "[False, False, False]"


# yaml serves simulate, the pool modules more than one worker, statistics
# the asymptotic interval and _hashlib (OpenSSL's libcrypto) numpy.random's
# seeding; a subcommand that resamples nothing needs none of them, as the
# provenance digest is CPython's own SHA-256
_RESAMPLING_MODULES = {"yaml", "multiprocessing", "concurrent.futures", "statistics", "_hashlib"}


def _modules_loaded_by(argv):
    """The modules ``python -m predictu.cli *argv`` imports, from -X importtime."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(predictu.__file__)))
    res = subprocess.run([sys.executable, "-X", "importtime", "-m", "predictu.cli", *argv],
                         env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                         check=True)
    return {line.rsplit("|", 1)[1].strip() for line in res.stderr.splitlines()
            if line.startswith("import time:")}


def test_curve_leaves_the_modules_of_other_subcommands_unloaded(counts_file, tmp_path):
    # every layer module still loads with predictu.cli, where an in-process
    # tracer looks them up
    loaded = _modules_loaded_by(["curve", counts_file, "--rho", "0.21", "--out",
                                 str(tmp_path / "run")])
    assert {"numpy", "predictu.fileio"} <= loaded
    assert not loaded & _RESAMPLING_MODULES

    src = os.path.dirname(os.path.dirname(os.path.abspath(predictu.__file__)))
    layers = ["cli", "fileio", "risk_model", "summary_indices", "curve_links",
              "inference", "isotonic", "simulate"]
    code = ("import sys, predictu.cli\n"
            f"print([m for m in {layers!r} if 'predictu.' + m not in sys.modules])")
    res = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert res.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("command", ["version", "links", "validate", "report"])
def test_other_runs_without_resampling_leave_those_modules_unloaded(command, counts_file,
                                                                     tmp_path):
    out = str(tmp_path / command)
    argv = {
        "version": ["--version"],
        "links": ["links", counts_file, "--rho", "0.21", "--out", out],
        "validate": ["validate", "--train", counts_file, "--test", counts_file, "--rho", "0.21",
                     "--isotonic", "--out", out],
        "report": ["report", str(tmp_path / "plain" / "indices.json"),
                   str(tmp_path / "sim" / "eval.json"), "--out", out],
    }[command]
    if command == "report":
        assert main(["summarize", counts_file, "--rho", "0.21", "--out",
                     str(tmp_path / "plain")]) == 0
        assert main(["simulate", "--preset", "smoke", "--replicates", "2", "--n-cases", "50",
                     "--n-controls", "50", "--bootstrap", "10", "--format", "json",
                     "--out", str(tmp_path / "sim")]) == 0
    loaded = _modules_loaded_by(argv)
    assert {"numpy", "predictu.fileio"} <= loaded
    assert not loaded & _RESAMPLING_MODULES


def test_every_subcommand_runs_with_scipy_blocked(subject_file, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(predictu.__file__)))
    out = str(tmp_path)
    every = ",".join(["u", "ustd", "upartial", "upartialstd", "r", "rstd", "tg", "ae"])
    runs = [
        ["curve", subject_file, "--rho", "0.21", "--out", f"{out}/curve"],
        ["links", subject_file, "--rho", "0.21", "--out", f"{out}/links"],
        ["summarize", subject_file, "--rho", "0.21", "--indices", every,
         "--band", "0.5:1", "--out", f"{out}/plain"],
        ["summarize", subject_file, "--rho", "0.21", "--indices", every,
         "--band", "0.5:1", "--bootstrap", "50", "--out", f"{out}/boot"],
        ["validate", "--train", subject_file, "--test", subject_file, "--rho", "0.21",
         "--isotonic", "--out", f"{out}/validate"],
        ["simulate", "--preset", "smoke", "--isotonic", "--replicates", "3",
         "--n-cases", "100", "--n-controls", "100", "--bootstrap", "20",
         "--workers", "1", "--format", "json", "--out", f"{out}/simulate"],
        ["report", f"{out}/plain/indices.json", f"{out}/simulate/eval.json",
         "--out", f"{out}/report"],
    ]
    code = (
        "import sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'scipy':\n"
        "            raise ModuleNotFoundError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "import predictu.cli as cli\n"
        f"print([cli.main(argv) for argv in {runs!r}])\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.splitlines()[-1] == str([0] * len(runs)), res.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["summarize", "{counts}", "--rho", "0.1", "--band", "2:3"],
        ["validate", "--train", "{counts}", "--test", "{counts}", "--rho", "0.21",
         "--band", "0.9:0.1"],
        ["simulate", "--preset", "sim1_h005", "--replicates", "2", "--n-cases", "50",
         "--n-controls", "50", "--bootstrap", "5", "--band", "5:6"],
    ],
    ids=["summarize", "validate", "simulate"],
)
def test_invalid_band_is_rejected_without_partial_indices(argv, counts_file, tmp_path, capsys):
    out = tmp_path / "run"
    argv = [a.format(counts=counts_file) for a in argv]
    assert main(argv + ["--out", str(out)]) == 2
    assert "--band" in capsys.readouterr().err
    assert not out.exists()


UNUSED_BAND = "warning: --band changes no index without upartial or upartialstd in --indices"
BAND_RUNS = {
    "summarize": ["summarize", "{counts}", "--rho", "0.21"],
    "validate": ["validate", "--train", "{counts}", "--test", "{counts}", "--rho", "0.21"],
    "simulate": ["simulate", "--preset", "smoke", "--replicates", "2", "--n-cases", "50",
                 "--n-controls", "50", "--bootstrap", "5"],
}


@pytest.mark.parametrize(
    "command, artifact, also",
    [("summarize", "inference.json", " or --bootstrap"), ("validate", "validate.json", ""),
     ("simulate", "eval.csv", "")],
)
def test_a_band_that_moves_no_index_is_named_once(command, artifact, also, counts_file,
                                                  tmp_path, capsys):
    out = tmp_path / "run"
    argv = [a.format(counts=counts_file) for a in BAND_RUNS[command]]
    assert main(argv + ["--band", "0.5:1", "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [UNUSED_BAND + also]
    assert (out / artifact).exists()


@pytest.mark.parametrize(
    "command, extra",
    [("summarize", ["--bootstrap", "20"]), ("summarize", ["--indices", "u,upartial"]),
     ("validate", ["--indices", "u,upartialstd"]), ("simulate", ["--indices", "upartial"])],
    ids=["summarize-bootstrap", "summarize-partial", "validate", "simulate"],
)
def test_a_band_in_use_is_not_warned_about(command, extra, counts_file, tmp_path, capsys):
    argv = [a.format(counts=counts_file) for a in BAND_RUNS[command]]
    assert main(argv + extra + ["--band", "0.5:1", "--out", str(tmp_path)]) == 0
    assert "warning" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["summarize", "{counts}", "--rho", "0.21", "--bootstrap", "-5"], "--bootstrap"),
        (["summarize", "{counts}", "--rho", "0.21", "--permutation", "-3"], "--permutation"),
        (["simulate", "--preset", "smoke", "--replicates", "2", "--n-cases", "50",
          "--n-controls", "50", "--bootstrap", "5", "--workers", "0"], "--workers"),
        (["simulate", "--preset", "smoke", "--replicates", "2", "--n-cases", "50",
          "--n-controls", "50", "--bootstrap", "5", "--workers", "-2"], "--workers"),
        (["curve", "{subjects}", "--rho", "0.21", "--max-bad-rows", "-1"], "--max-bad-rows"),
        (["curve", "{subjects}", "--rho", "0.21", "--max-bad-rows", "1.5"], "--max-bad-rows"),
        (["summarize", "{counts}", "--rho", "0.21", "--bootstrap", "5", "--workers", "0"],
         "--workers"),
        (["summarize", "{counts}", "--rho", "0.21", "--bootstrap", "5", "--workers", "-2"],
         "--workers"),
        (["summarize", "{counts}", "--rho", "0.21", "--bootstrap", "10", "--seed", "-1"],
         "--seed"),
        (["summarize", "{counts}", "--rho", "0.21", "--permutation", "9", "--seed", "-1"],
         "--seed"),
        (["simulate", "--preset", "smoke", "--replicates", "2", "--n-cases", "50",
          "--n-controls", "50", "--bootstrap", "5", "--seed", "-1"], "--seed"),
    ],
    ids=["bootstrap", "permutation", "workers-zero", "workers-negative",
         "max-bad-rows-negative", "max-bad-rows-above-one", "summarize-workers-zero",
         "summarize-workers-negative", "summarize-bootstrap-seed-negative",
         "summarize-permutation-seed-negative", "simulate-seed-negative"],
)
def test_out_of_range_count_flags_are_rejected(argv, flag, counts_file, subject_file,
                                               tmp_path, capsys):
    out = tmp_path / "run"
    argv = [a.format(counts=counts_file, subjects=subject_file) for a in argv]
    assert main(argv + ["--out", str(out)]) == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["curve", "validate"])
def test_laplace_must_be_finite_and_nonnegative(command, value, counts_file, tmp_path, capsys):
    out = tmp_path / "run"
    inputs = [counts_file]
    if command == "validate":
        inputs = ["--train", counts_file, "--test", counts_file]
    code = main([command, *inputs, "--rho", "0.21", "--laplace", value, "--out", str(out)])
    assert code == 2
    assert "laplace smoothing constant must be finite and nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, name",
    [
        (["summarize", "{counts}", "--rho", "0.21", "--bootstrap", "5", "--permutation", "9"],
         "inference.json"),
        (["simulate", "--preset", "smoke", "--replicates", "2", "--n-cases", "50",
          "--n-controls", "50", "--bootstrap", "5"], "eval.csv"),
    ],
    ids=["summarize", "simulate"],
)
def test_thread_variable_is_ignored(argv, name, counts_file, monkeypatch, tmp_path):
    # the worker count comes from --workers alone
    argv = [a.format(counts=counts_file) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "plain")]) == 0
    monkeypatch.setenv("PREDICTU_THREADS", "0")
    assert main(argv + ["--out", str(tmp_path / "zero")]) == 0
    assert (tmp_path / "zero" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_summarize_bytes_do_not_depend_on_workers(tmp_path, monkeypatch):
    path = tmp_path / "counts.csv"
    rows = [f"g{i},{3 + (7 * i) % 11},{2 + (5 * i) % 13}" for i in range(30)]
    path.write_text("genotype_id,n_case,n_control\n" + "\n".join(rows) + "\n")
    # six groups of R(30) = 546 replicates, the last short: two a thread on three
    n = 2780
    assert len(list(group_sizes(n, 30))) == len(list(group_sizes(n - 1, 30))) == 6
    args = ["summarize", str(path), "--rho", "0.1", "--indices", "u,upartialstd", "--band", "0.8:1",
            "--bootstrap", str(n), "--permutation", str(n - 1), "--seed", "4"]
    names = ("indices.json", "inference.json", "curve.csv")

    def run(tag, *extra):
        out = tmp_path / tag
        assert main(args + list(extra) + ["--out", str(out)]) == 0
        return [(out / name).read_bytes() for name in names]

    # the worker count is capped at the available CPUs; allow three on any host
    monkeypatch.setattr(parallel, "available_cpus", lambda: 3)
    want = run("w1", "--workers", "1")
    assert run("w2", "--workers", "2") == want
    assert run("w3", "--workers", "3") == want
    assert run("default") == want


def test_workers_are_capped_at_the_available_cpus(monkeypatch):
    # every entry point splits its work through map_ranges, which caps the
    # ranges (one thread each) at the CPUs; only one pool thread starts here
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)

    def record(lo, hi):
        return lo, hi

    assert parallel.map_ranges(record, 100, 10**6) == [(0, 50), (50, 100)]
    assert parallel.map_ranges(record, 100, None) == [(0, 100)]
    assert parallel.map_ranges(record, 1, 10**6) == [(0, 1)]


# two groups of R(3) = 5,461 replicates each pass, so two workers start a thread
_SUMMARIZE = ["summarize", "{counts}", "--rho", "0.21", "--bootstrap", "6000", "--permutation", "5999"]
_SIMULATE = ["simulate", "--preset", "smoke", "--replicates", "6", "--n-cases", "60",
             "--n-controls", "60", "--bootstrap", "20", "--isotonic", "--workers", "2"]


@pytest.mark.parametrize(
    "argv",
    [_SUMMARIZE, _SUMMARIZE + ["--workers", "2"], _SIMULATE],
    ids=["default", "two-workers", "simulate-two-workers"],
)
def test_summarize_resamples_without_child_processes(argv, counts_file, monkeypatch, tmp_path):
    # summarize's resampling and the simulate harness share one thread pool
    def refuse(*args, **kwargs):
        raise AssertionError(f"{argv[0]} asked for a process context")

    monkeypatch.setattr(multiprocessing, "get_context", refuse)
    argv = [arg.format(counts=counts_file) for arg in argv]
    assert main(argv + ["--out", str(tmp_path / "run")]) == 0


def test_r_and_r_std_keep_distinct_names(counts_file, tmp_path, capsys):
    summary, check, merged = tmp_path / "s", tmp_path / "v", tmp_path / "m"
    assert main(["summarize", counts_file, "--rho", "0.21", "--indices", "r,rstd",
                 "--out", str(summary)]) == 0
    blocks = read_json(summary / "indices.json")["indices"]
    assert [b["name"] for b in blocks] == ["R", "R_std"]
    assert blocks[1]["value"] == pytest.approx(0.0229 / (0.21 * 0.79), rel=1e-12)

    capsys.readouterr()
    assert main(["validate", "--train", counts_file, "--test", counts_file, "--rho", "0.21",
                 "--indices", "rstd,r", "--isotonic", "--out", str(check)]) == 0
    doc = read_json(check / "validate.json")
    for section in ("train", "test", "refit"):
        assert [b["name"] for b in doc[section]["indices"]] == ["R_std", "R"]
    r_std = doc["train"]["indices"][0]["value"]
    assert capsys.readouterr().out.startswith(f"R_std: train={r_std:.6g}  test={r_std:.6g}")

    assert main(["report", str(summary / "indices.json"), "--out", str(merged)]) == 0
    rows = (merged / "report.csv").read_text().splitlines()[2:]
    assert [row.split(",")[2] for row in rows] == ["R", "R_std"]


def test_summarize_golden_values(counts_file, tmp_path):
    out = tmp_path / "run"
    code = main([
        "summarize", counts_file, "--rho", "0.21",
        "--indices", "u,ustd,upartial,r,tg,ae", "--band", "0.5:1",
        "--out", str(out),
    ])
    assert code == 0
    got = {b["name"]: b["value"] for b in read_json(out / "indices.json")["indices"]}
    assert got["U"] == pytest.approx(0.146, abs=1e-12)
    assert got["U_std"] == pytest.approx(0.146 / (2 * 0.21 * 0.79), rel=1e-12)
    assert got["U_partial"] == pytest.approx(0.036, abs=1e-12)
    assert got["R"] == pytest.approx(0.0229, abs=1e-12)
    assert got["TG"] == pytest.approx(0.116, abs=1e-12)
    ae = entropy(0.21) - (0.5 * entropy(0.1) + 0.3 * entropy(0.2) + 0.2 * entropy(0.5))
    assert got["AE"] == pytest.approx(ae, rel=1e-12)


def test_summarize_inference_and_determinism(counts_file, tmp_path, capsys):
    args = [
        "summarize", counts_file, "--rho", "0.21",
        "--band", "0.5:1", "--bootstrap", "150", "--permutation", "50",
        "--seed", "3",
    ]
    out1, out2, out3 = (tmp_path / d for d in ("a", "b", "c"))
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("indices.json", "inference.json", "curve.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    inference = read_json(out1 / "inference.json")
    assert inference["global"]["method"] == "bootstrap"
    ci = inference["global"]["ci"]
    assert ci["lower"] <= inference["global"]["u_hat"] <= ci["upper"]
    assert "partial" in inference
    assert 0.0 < inference["permutation_p"] <= 1.0
    assert "ci=[" in capsys.readouterr().out

    # a different seed moves the resampled quantities but not the indices
    assert main(args[:-1] + ["4", "--out", str(out3)]) == 0
    assert read_json(out1 / "indices.json")["indices"] == read_json(out3 / "indices.json")["indices"]
    assert read_json(out1 / "inference.json")["global"] != read_json(out3 / "inference.json")["global"]


def test_summarize_asymptotic_when_no_bootstrap(counts_file, tmp_path):
    out = tmp_path / "run"
    assert main(["summarize", counts_file, "--rho", "0.21", "--out", str(out)]) == 0
    doc = read_json(out / "inference.json")
    assert doc["global"]["method"] == "two_sample_asymptotic"


PACKAGED_COUNTS = os.path.join(os.path.dirname(predictu.__file__), "data", "three_genotype_counts.csv")
PACKAGED_SUBJECTS = os.path.join(
    os.path.dirname(predictu.__file__), "data", "three_genotype_subjects.csv"
)


@pytest.mark.parametrize("laplace", ["0", "0.5"])
def test_inference_intervals_what_indices_reports(laplace, tmp_path):
    out = tmp_path / "run"
    assert main(["summarize", PACKAGED_COUNTS, "--rho", "0.21", "--laplace", laplace,
                 "--bootstrap", "50", "--band", "0.5:1", "--indices", "u,upartialstd,rstd,ae",
                 "--out", str(out)]) == 0
    want = {b["name"]: b["value"] for b in read_json(out / "indices.json")["indices"]}
    doc = read_json(out / "inference.json")
    assert doc["laplace"] == float(laplace)
    assert doc["global"]["u_hat"] == pytest.approx(want["U"], rel=1e-14, abs=0)
    assert [b["name"] for b in doc["indices"]] == ["U", "U_partial_std", "R_std", "AE"]
    for block in doc["indices"]:
        assert block["u_hat"] == pytest.approx(want[block["name"]], rel=1e-14, abs=0)
        assert block["n_replicates"] == 50
    assert {k: v for k, v in doc["indices"][0].items() if k != "name"} == doc["global"]
    # the partial block stays the raw partial U
    assert doc["partial"]["u_hat"] != doc["indices"][1]["u_hat"]

    # without --bootstrap the asymptotic point is the smoothed U too
    assert main(["summarize", PACKAGED_COUNTS, "--rho", "0.21", "--laplace", laplace,
                 "--out", str(out / "asym")]) == 0
    doc = read_json(out / "asym" / "inference.json")
    assert doc["global"]["u_hat"] == pytest.approx(want["U"], rel=1e-14, abs=0)
    assert set(doc) == {"provenance", "global", "laplace"}


_CELLS = [str(2**31), str(2**53), str(2**63), "-1", "1.5", "1e3", ""]
_COUNTS_COMMANDS = {
    "curve": ["curve", "{path}"],
    "summarize": ["summarize", "{path}", "--bootstrap", "20", "--permutation", "19"],
    "links": ["links", "{path}"],
    "validate": ["validate", "--train", "{path}", "--test", "{path}"],
}


@pytest.mark.parametrize("command", list(_COUNTS_COMMANDS))
@pytest.mark.parametrize("edit", _CELLS + ["cut"], ids=[c or "empty" for c in _CELLS] + ["cut"])
@pytest.mark.filterwarnings("ignore:dropping")
def test_mutated_counts_exit_with_a_code_and_no_traceback(command, edit, tmp_path, capsys):
    # one cell of the packaged counts replaced, or its last line cut mid-row
    with open(PACKAGED_COUNTS, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if edit == "cut":
        text = "\n".join(lines)[:-3]
    else:
        cells = lines[2].split(",")
        cells[1] = edit
        text = "\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n"
    path = tmp_path / "counts.csv"
    path.write_text(text)
    argv = [a.format(path=path) for a in _COUNTS_COMMANDS[command]]
    code = main(argv + ["--rho", "0.21", "--out", str(tmp_path / "out")])
    assert code in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


def _probe_subjects(lines, probe) -> bytes:
    """The packaged subject file (``lines``, header first) under one probe."""
    header, rows = lines[0], lines[1:]
    if probe == "cut":
        return "\n".join(lines)[:-3].encode()
    if probe == "header-only":
        return (header + "\n").encode()
    if probe == "empty":
        return b""
    if probe == "latin-1":
        rows[0] = "s\u00e9" + rows[0][1:]
        return "\n".join([header, *rows]).encode("latin-1") + b"\n"
    if probe == "nul":
        rows[0] = "s\x00" + rows[0][1:]
    elif probe == "status-2":
        rows[0] = rows[0].replace(",1,", ",2,", 1)
    elif probe == "all-cases":
        rows = [row.replace(",0,", ",1,", 1) for row in rows]
    elif probe == "no-marker":
        header, rows = header.rsplit(",", 1)[0], [row.rsplit(",", 1)[0] for row in rows]
    elif probe == "quoted":
        rows[0] = '"s0\n' + rows[0][2:].replace(",", '",', 1)
    elif probe == "bom-semicolon":
        return ("\ufeff" + "\n".join([header, *rows]).replace(",", ";") + "\n").encode()
    elif probe == "chunk-cut":
        # a full first chunk of rows, then a row cut mid-way
        n_rows = first_chunk_rows([line + "\n" for line in lines], fileio._CHUNK_BYTES)
        rows = [rows[i % len(rows)] for i in range(n_rows)] + [rows[0][:5]]
    return ("\n".join([header, *rows]) + "\n").encode()


_SUBJECT_PROBES = {
    "cut": 0, "header-only": 2, "empty": 2, "nul": 0, "status-2": 0, "all-cases": 2,
    "no-marker": 2, "quoted": 0, "bom-semicolon": 0, "latin-1": 2, "chunk-cut": 0,
}


@pytest.mark.parametrize("command", ["curve", "summarize"])
@pytest.mark.parametrize("probe", list(_SUBJECT_PROBES))
def test_probed_subjects_exit_with_a_code_and_no_traceback(command, probe, tmp_path, capsys):
    with open(PACKAGED_SUBJECTS, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    path = tmp_path / "subjects.csv"
    path.write_bytes(_probe_subjects(lines, probe))
    argv = [a.format(path=path) for a in _COUNTS_COMMANDS[command]]
    code = main(argv + ["--rho", "0.21", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == _SUBJECT_PROBES[probe], err
    assert "Traceback" not in err
    if probe == "chunk-cut":
        # the header, the first chunk's rows, then the cut row
        n_rows = first_chunk_rows([line + "\n" for line in lines], fileio._CHUNK_BYTES)
        assert f"line {n_rows + 2}: expected 3 columns" in err


def test_summarize_partial_requires_band(counts_file, tmp_path, capsys):
    code = main(["summarize", counts_file, "--rho", "0.21",
                 "--indices", "upartial", "--out", str(tmp_path)])
    assert code == 2
    assert "--band" in capsys.readouterr().err


def test_failed_summarize_writes_nothing(tmp_path, capsys):
    path = tmp_path / "pair.csv"
    path.write_text("genotype_id,n_case,n_control\ng0,1,0\ng1,0,1\n")
    out = tmp_path / "run"
    assert main(["summarize", str(path), "--rho", "0.21", "--out", str(out)]) == 3
    assert "numeric error:" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "rows, message",
    [
        ("g1,9223372036854775808,3\n", "line 3: a count exceeds the limit 2**63 - 1"),
        ("g1,5000000000000000000,3\ng2,5000000000000000000,4\n",
         "line 4: an arm total exceeds the limit 2**63 - 1"),
    ],
    ids=["cell", "arm-total"],
)
def test_counts_past_int64_are_invalid_input(tmp_path, capsys, rows, message):
    path = tmp_path / "big.csv"
    path.write_text("genotype_id,n_case,n_control\ng0,1,5\n" + rows)
    out = tmp_path / "run"
    assert main(["curve", str(path), "--rho", "0.21", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: {message} = 9223372036854775807" in err
    assert "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "rows, extra, message",
    [
        ("g0,1000000000,3000000000\ng1,2000000000,2000000000\ng2,3000000000,1000000000\n", [],
         "must not exceed the limit 2**63 - 1 = 9223372036854775807"),
        ("g0,100000000,300000000\ng1,200000000,200000000\ng2,100000000,100000000\n",
         ["--permutation", "9"], "than the limit 10**9 = 1000000000"),
    ],
    ids=["contraction", "permutation"],
)
def test_totals_past_the_exact_arithmetic_are_invalid_input(tmp_path, capsys, rows, extra, message):
    path = tmp_path / "big.csv"
    path.write_text("genotype_id,n_case,n_control\n" + rows)
    out = tmp_path / "run"
    assert main(["summarize", str(path), "--rho", "0.05", *extra, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_degenerate_rho_is_a_numeric_error(counts_file, tmp_path, capsys):
    code = main(["summarize", counts_file, "--rho", "5e-13", "--out", str(tmp_path)])
    assert code == 3
    assert "numeric error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "message, shown",
    [("Unable to allocate 4.8 GiB for an array", "Unable to allocate 4.8 GiB for an array"),
     ("", "out of memory")],
)
def test_memory_error_is_a_numeric_error(
    counts_file, tmp_path, capsys, monkeypatch, message, shown
):
    def exhausted(args):
        raise MemoryError(message)

    monkeypatch.setitem(cli._COMMANDS, "summarize", exhausted)
    code = main(["summarize", counts_file, "--rho", "0.21", "--out", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err.splitlines() == [f"numeric error: {shown}"]


def test_links_identities_hold(counts_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["links", counts_file, "--rho", "0.21", "--out", str(out)]) == 0
    doc = read_json(out / "links.json")
    assert doc["roc_identity_residual"] < 1e-10
    assert doc["lorenz_identity_residual"] < 1e-10
    assert doc["auc_roc"] == pytest.approx(1194.5 / 1659, rel=1e-12)
    assert doc["auc_lorenz"] == pytest.approx(685.0 / 2100.0, rel=1e-12)
    assert (out / "roc.csv").read_text().splitlines()[1] == "fpr,tpr"
    assert (out / "lorenz.csv").read_text().splitlines()[1] == "q,h"
    assert "AUC" in capsys.readouterr().out
    # 1 - specificity under fpr, sensitivity under tpr: a risk-sorted
    # table's ROC never dips below the diagonal, and the first vertex past
    # (0, 0) calls the top genotype (10 of 79 controls, 10 of 21 cases)
    packaged = tmp_path / "packaged"
    assert main(["links", PACKAGED_COUNTS, "--rho", "0.21", "--out", str(packaged)]) == 0
    for run in (out, packaged):
        rows = np.loadtxt(run / "roc.csv", delimiter=",", skiprows=2, ndmin=2)
        assert (rows[:, 1] >= rows[:, 0]).all(), rows
        assert rows[1] == pytest.approx([10 / 79, 10 / 21], rel=1e-12)


# a step of mass 1e-17 at --rho 1e-11: adding it leaves the cumulative mass at 1
TINY_MASS = "genotype_id,n_case,n_control\ng0,500000,500000\ng1,499999,500000\ng2,1,0\n"


@pytest.mark.parametrize("command", ["curve", "summarize", "validate", "links"])
def test_a_step_too_small_to_move_q_is_valid(command, tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text(TINY_MASS)
    inputs = ["--train", str(path), "--test", str(path)] if command == "validate" else [str(path)]
    assert main([command, *inputs, "--rho", "1e-11", "--out", str(tmp_path / "run")]) == 0


@pytest.mark.filterwarnings("ignore:dropping")
def test_validate_test_rho_is_the_given_rho(tmp_path):
    # the test masses come straight from Bayes' rule, not from differences of q
    rng = np.random.default_rng(23)
    g = 5000
    control = rng.gamma(0.5, size=g)
    case = control * np.exp(rng.normal(0.0, 0.3, g))
    genotypes = tuple(f"g{i}" for i in range(g))
    paths = []
    for name in ("train", "test"):
        counts = CaseControlCounts(
            genotypes,
            rng.multinomial(100_000, case / case.sum()),
            rng.multinomial(100_000, control / control.sum()),
            0.05,
        )
        paths.append(tmp_path / f"{name}.csv")
        write_counts_csv(paths[-1], counts)
    out = tmp_path / "run"
    assert main(["validate", "--train", str(paths[0]), "--test", str(paths[1]),
                 "--rho", "0.05", "--out", str(out)]) == 0
    for block in read_json(out / "validate.json")["test"]["indices"]:
        assert abs(block["rho"] - 0.05) <= 1e-15


def test_validate_against_itself_reproduces_training(counts_file, tmp_path):
    out = tmp_path / "run"
    code = main([
        "validate", "--train", counts_file, "--test", counts_file,
        "--rho", "0.21", "--isotonic", "--out", str(out),
    ])
    assert code == 0
    doc = read_json(out / "validate.json")
    train = {b["name"]: b["value"] for b in doc["train"]["indices"]}
    test = {b["name"]: b["value"] for b in doc["test"]["indices"]}
    assert test == pytest.approx(train, rel=1e-12)
    assert doc["test"]["monotone"] is True
    assert doc["test"]["unseen"] == []
    refit = {b["name"]: b["value"] for b in doc["refit"]["indices"]}
    assert refit == pytest.approx(test, rel=1e-12)  # monotone already, refit is a no-op


def test_validate_disjoint_genotypes(counts_file, tmp_path, capsys):
    other = tmp_path / "other.csv"
    other.write_text("genotype_id,n_case,n_control\nh0,5,5\nh1,5,5\n")
    code = main([
        "validate", "--train", counts_file, "--test", str(other),
        "--rho", "0.21", "--out", str(tmp_path / "run"),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, text, arm",
    [
        ("subjects.csv", "sample_id,status,snp1\na,1,0\nb,1,1\n", "no control rows"),
        ("counts.csv", "genotype_id,n_case,n_control\ng0,0,5\ng1,0,7\n", "no case counts"),
    ],
    ids=["subjects-without-controls", "counts-without-cases"],
)
def test_empty_arm_names_its_file(counts_file, tmp_path, capsys, name, text, arm):
    test = tmp_path / name
    test.write_text(text)
    code = main([
        "validate", "--train", counts_file, "--test", str(test),
        "--rho", "0.21", "--out", str(tmp_path / "run"),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {test}: {arm}")


def test_simulate_unknown_preset(tmp_path, capsys):
    code = main(["simulate", "--preset", "nope", "--out", str(tmp_path)])
    assert code == 2
    assert "smoke" in capsys.readouterr().err


def test_simulate_smoke_replay(tmp_path, capsys):
    args = [
        "simulate", "--preset", "smoke", "--replicates", "20",
        "--n-cases", "200", "--n-controls", "200",
        "--bootstrap", "50", "--seed", "4", "--format", "json",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "eval.json").read_bytes() == (out2 / "eval.json").read_bytes()
    doc = read_json(out1 / "eval.json")
    assert [r["index"] for r in doc["reports"]] == ["U", "U_std", "R", "TG", "AE"]
    assert all(r["n_replicates"] == 20 for r in doc["reports"])
    assert "%bias" in capsys.readouterr().out


@pytest.mark.parametrize(
    "bad",
    [["--bootstrap", "-1"], ["--bootstrap", "0"], ["--n-cases", "0"], ["--n-controls", "-5"]],
)
def test_simulate_rejects_empty_samples(tmp_path, capsys, bad):
    out = tmp_path / "run"
    code = main([
        "simulate", "--preset", "smoke", "--replicates", "3",
        "--n-cases", "100", "--n-controls", "100", "--bootstrap", "20",
        *bad, "--out", str(out),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (out / "eval.csv").exists()


def test_simulate_from_model_yaml(tmp_path):
    model = tmp_path / "model.yaml"
    model.write_text(
        "target_rho: 0.05\n"
        "snps:\n"
        "  - {maf: 0.3, mode: additive, rr: 1.8}\n"
    )
    out = tmp_path / "run"
    code = main([
        "simulate", "--model", str(model), "--replicates", "5",
        "--n-cases", "100", "--n-controls", "100",
        "--indices", "u", "--bootstrap", "20", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "eval.csv").read_text().splitlines()
    assert lines[1].startswith("model,index,")
    assert lines[2].startswith("model,U,")


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "No such file"),
        ("snps: [maf: 0.3\n", "while parsing"),
        (
            "target_rho: 0.05\nsnps: [{maf: 0.3}, {maf: 0.2}]\n"
            "interactions: [{pair: [0], rr: 2}]\n",
            "malformed model specification",
        ),
        (
            "target_rho: 0.05\nsnps: [{maf: 0.3}, {maf: 0.2}]\n"
            "interactions: [{pair: [0, 5], rr: 2}]\n",
            "indexes a locus outside the 2-locus model",
        ),
        (
            "target_rho: 0.05\nsnps: [{maf: 0.3}, {maf: 0.2}]\n"
            "interactions: [{pair: [0, 1, 2], rr: 2}]\n",
            "interaction pair must be two integer locus indices",
        ),
        (
            "target_rho: 0.05\nsnps: [{maf: 0.3}, {maf: 0.2}]\n"
            "interactions: [{pair: [0.7, 1], rr: 2}]\n",
            "interaction pair must be two integer locus indices",
        ),
        (
            "target_rho: 0.05\nsnps: [{maf: 0.3}, {maf: 0.2}]\n"
            "interactions: [{pair: \"01\", rr: 2}]\n",
            "interaction pair must be two integer locus indices",
        ),
        ("target_rho: 0.05\nsnps: [{maf: 0.3, rr: .nan}]\n", "must be finite and positive"),
        ("target_rho: 0.05\nsnps: [{maf: 0.3, rr: .inf}]\n", "must be finite and positive"),
        (
            "target_rho: 0.05\nsnps: [{maf: 0.3}, {maf: 0.2}]\n"
            "interactions: [{pair: [0, 1], rr: .nan}]\n",
            "must be finite and positive",
        ),
        (
            "target_rho: 0.05\nsnps: [{maf: 0.3, rr: 2}]\ntarget_h2: .nan\n",
            "target heritability must be finite and nonnegative",
        ),
        (
            "target_rho: 0.05\nsnps: [{maf: 0.3, rr: 2}]\ntarget_h2: .inf\n",
            "target heritability must be finite and nonnegative",
        ),
        ("target_rho: .nan\nsnps: [{maf: 0.3, rr: 2}]\n", "target_rho must lie in (0, 1)"),
        (
            "target_rho: 0.05\nsnps: [{maf: 0.3, rr: 2}]\npopulation_size: 1000\n",
            "unknown key 'population_size' in model specification",
        ),
        (
            "target_rho: 0.05\nsnps: [{maf: 0.3, rr: 2}]\ntarget_H2: 0.05\n",
            "unknown key 'target_H2' in model specification",
        ),
        (
            "target_rho: 0.05\nsnps: [{maf: 0.3, rr: 2, extra: 1}]\n",
            "unknown key 'extra' in snps entry",
        ),
        (
            "target_rho: 0.05\nsnps: [{maf: 0.3}, {maf: 0.2}]\n"
            "interactions: [{pair: [0, 1], rr: 2, extra: 1}]\n",
            "unknown key 'extra' in interactions entry",
        ),
    ],
    ids=[
        "missing", "bad-yaml", "short-pair", "locus-out-of-range", "long-pair",
        "float-pair", "string-pair", "nan-rr", "inf-rr", "nan-interaction-rr",
        "nan-h2", "inf-h2", "nan-rho", "population-size", "misspelt-key", "unknown-snp-key", "unknown-interaction-key",
    ],
)
def test_simulate_rejects_bad_model_files(tmp_path, capsys, text, message):
    model = tmp_path / "model.yaml"
    if text is not None:
        model.write_text(text)
    out = tmp_path / "run"
    assert main(["simulate", "--model", str(model), "--replicates", "5",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"model file {model}" in err and message in err, err
    assert not out.exists()


def test_a_model_too_large_to_enumerate_exits_2(tmp_path, capsys, monkeypatch):
    from predictu import simulate

    monkeypatch.setattr(simulate, "_MAX_GENOTYPES", 9)
    model = tmp_path / "model.yaml"
    model.write_text("target_rho: 0.05\nsnps: [{maf: 0.3}, {maf: 0.2}]\n")
    assert main(["simulate", "--model", str(model), "--replicates", "2", "--n-cases", "20",
                 "--n-controls", "20", "--bootstrap", "10", "--out", str(tmp_path / "ok")]) == 0
    capsys.readouterr()

    def enumerated(n_loci):
        raise AssertionError(f"a {n_loci}-locus grid was built")

    monkeypatch.setattr(simulate, "genotype_matrix", enumerated)
    model.write_text("target_rho: 0.05\nsnps: [{maf: 0.3}, {maf: 0.2}, {maf: 0.1}]\n")
    out = tmp_path / "run"
    assert main(["simulate", "--model", str(model), "--replicates", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: model file {model}: 3 loci give 3**3 = 27 genotypes, more than the 9 "
        "a model may enumerate\n"
    )
    assert not out.exists()


def test_report_merges_and_reruns_identically(counts_file, tmp_path):
    idx = tmp_path / "idx"
    sim = tmp_path / "sim"
    assert main(["summarize", counts_file, "--rho", "0.21", "--out", str(idx)]) == 0
    assert main([
        "simulate", "--preset", "smoke", "--replicates", "5",
        "--n-cases", "100", "--n-controls", "100", "--indices", "u",
        "--bootstrap", "20", "--format", "json", "--out", str(sim),
    ]) == 0

    inputs = [str(idx / "indices.json"), str(sim / "eval.json")]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["report", *inputs, "--out", str(out1)]) == 0
    assert main(["report", *inputs, "--out", str(out2)]) == 0
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()

    lines = (out1 / "report.csv").read_text().splitlines()
    assert lines[1].split(",")[:3] == ["source", "model", "index"]
    # 5 summary indices from the first input, then 1 harness row from the second
    assert len(lines) == 2 + 5 + 1
    assert lines[2].startswith("indices.json,")
    assert lines[-1].startswith("eval.json,")

    out3 = tmp_path / "r3"
    assert main(["report", *inputs, "--format", "json", "--out", str(out3)]) == 0
    assert len(read_json(out3 / "report.json")["rows"]) == 6


def test_report_csv_bytes(tmp_path, monkeypatch):
    # relative input paths keep the configuration hash fixed
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "indices.json", {"indices": [{"name": "U", "value": 0.1 + 0.2}]})
    write_json(tmp_path / "eval.json", {"reports": [{
        "model": "smoke", "index": "U_std", "true_value": 0.0, "mean": 1e-05,
        "pct_bias": float("nan"), "pct_coverage": 93.33333333333333,
    }]})
    assert main(["report", "indices.json", "eval.json", "--out", "out"]) == 0
    assert (tmp_path / "out" / "report.csv").read_bytes() == (
        b"# predictu 0.1.0 config=a918ef6bbc5bcd15c2ef46ee39f92d53643cf00af2cf387c21f645189b70efc4"
        b" seed=None\n"
        b"source,model,index,value,true_value,pct_bias,pct_coverage\r\n"
        b"indices.json,,U,0.30000000000000004,,,\r\n"
        b"eval.json,smoke,U_std,1e-05,0.0,nan,93.33333333333333\r\n"
    )


def test_report_without_inputs(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path)]) == 2
    assert "at least one" in capsys.readouterr().err


def test_report_rejects_non_json_input(counts_file, tmp_path, capsys):
    assert main(["report", counts_file, "--out", str(tmp_path)]) == 2
    assert "not a readable JSON" in capsys.readouterr().err
    # JSON that is not a result document
    for name, text, message in (
        ("list.json", "[1, 2]", "not a result document"),
        ("index.json", '{"indices": [{"value": 1}]}', "a result block lacks the key 'name'"),
        ("eval.json", '{"reports": [{"model": "m"}]}', "a result block lacks the key 'index'"),
    ):
        path = tmp_path / name
        path.write_text(text)
        assert main(["report", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"{path}: {message}" in capsys.readouterr().err
