"""Tests of the benchmark itself: generator, oracle, output check, guard, trace.

Run from the repository root:  python -m pytest bench/tests -q
"""

import ast
import json
import os
import shutil
import signal
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from guard import run_guarded  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FIXTURES = os.path.join(ROOT, "src", "predictu", "data")
SMALL = gen.LocusModel(mafs=(0.2, 0.3, 0.4), rrs=(1.5, 1.3, 1.2), base=0.05)


def _py(code: str) -> list[str]:
    return [sys.executable, "-c", code]


def _guard(tmp_path, argv, timeout_s=30.0, **kw):
    return run_guarded("op", argv, cwd=str(tmp_path), env=dict(os.environ),
                       timeout_s=timeout_s, log_path=str(tmp_path / "op.err"), **kw)


# ---------------------------------------------------------------------------
# generator


def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("writer", [gen.write_subject_file, gen.write_counts_file])
def test_generator_is_deterministic_per_seed(tmp_path, writer):
    paths = [tmp_path / f"{k}.csv" for k in range(3)]
    for path, seed in zip(paths, (7, 7, 8)):
        writer(path, np.random.default_rng(seed), SMALL, 300, 200)
    assert _read(paths[0]) == _read(paths[1])
    assert _read(paths[0]) != _read(paths[2])


def test_generator_records_genotypes_and_arms(tmp_path):
    stats = gen.write_subject_file(tmp_path / "s.csv", np.random.default_rng(1), SMALL, 300, 200)
    counts = oracle.read_subjects(tmp_path / "s.csv")
    assert (stats.n_case, stats.n_control) == (counts.n_case.sum(), counts.n_control.sum()) == (300, 200)
    assert stats.genotypes == len(counts.labels)

    stats = gen.write_counts_file(tmp_path / "c.csv", np.random.default_rng(1), SMALL, 300, 200)
    counts = oracle.read_counts(tmp_path / "c.csv")
    assert stats.genotypes == len(counts.labels) == len(set(counts.labels))
    assert (counts.n_case.sum(), counts.n_control.sum()) == (300, 200)


def test_generator_and_oracle_do_not_import_the_package():
    for name in ("gen.py", "oracle.py"):
        with open(os.path.join(BENCH, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert not any(m.split(".")[0] == "predictu" for m in imported), name


# ---------------------------------------------------------------------------
# oracle


def test_oracle_matches_the_golden_fixture():
    # README: U = 0.146, U_std = 0.440, partial U over (0.5, 1] = 0.036
    counts = oracle.read_counts(os.path.join(FIXTURES, "three_genotype_counts.csv"))
    table = oracle.risk_sorted(oracle.plugin(counts, 0.21))
    np.testing.assert_allclose(table.p, [0.5, 0.3, 0.2])
    np.testing.assert_allclose(table.r, [0.1, 0.2, 0.5])
    got = oracle.indices(table, ("u", "ustd", "upartial"), (0.5, 1.0))
    assert round(got["U"], 3) == 0.146
    assert round(got["U_std"], 3) == 0.440
    assert round(got["U_partial"], 3) == 0.036
    links = oracle.links(table)
    assert links["roc_identity_residual"] < 1e-15
    assert links["lorenz_identity_residual"] < 1e-15


def test_oracle_subject_aggregation_matches_the_counts_fixture():
    subjects = oracle.read_subjects(os.path.join(FIXTURES, "three_genotype_subjects.csv"))
    counts = oracle.read_counts(os.path.join(FIXTURES, "three_genotype_counts.csv"))
    assert subjects.labels == counts.labels
    np.testing.assert_array_equal(subjects.n_case, counts.n_case)
    np.testing.assert_array_equal(subjects.n_control, counts.n_control)


def test_oracle_pava_is_monotone_and_keeps_the_weighted_mean():
    rng = np.random.default_rng(3)
    y, w = rng.random(50), rng.random(50) + 0.1
    fit = oracle.pava(y, w)
    assert np.all(np.diff(fit) >= 0)
    assert abs(fit @ w - y @ w) < 1e-12
    np.testing.assert_allclose(oracle.pava([0.3, 0.1, 0.2], [1, 1, 1]), [0.2, 0.2, 0.2])


# ---------------------------------------------------------------------------
# output check against real artifacts


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


@pytest.fixture(scope="module")
def small_cohort(tmp_path_factory):
    """A small per-subject file, its oracle table and the CLI's artifacts."""
    tmp = tmp_path_factory.mktemp("cohort")
    subjects = tmp / "subjects.csv"
    gen.write_subject_file(subjects, np.random.default_rng(5), SMALL, 400, 600)
    table = oracle.risk_sorted(oracle.plugin(oracle.read_subjects(subjects), 0.05))
    out = tmp / "out"
    for args in (["links"], ["summarize", "--indices", "u,ustd,upartial,upartialstd,r,tg,ae",
                             "--band", "0.9:1", "--bootstrap", "50", "--permutation", "49"]):
        argv = [sys.executable, "-m", "predictu.cli", args[0], str(subjects), "--rho", "0.05",
                "--out", str(out), *args[1:]]
        res = run_guarded(args[0], argv, cwd=str(tmp), env=_cli_env(), timeout_s=120,
                          log_path=str(tmp / "err"))
        assert res.ok, res.reason
    return table, out


def _summarize_check(table, out):
    return oracle.check_summarize(str(out), table, ("u", "ustd", "upartial", "upartialstd", "r", "tg", "ae"),
                                  (0.9, 1.0), 50, 49)


def test_check_accepts_the_real_artifacts(small_cohort):
    table, out = small_cohort
    assert oracle.check_links(str(out), table) == []
    assert _summarize_check(table, out) == []


def _corrupt(src, dst, edit):
    shutil.copytree(src, dst)
    path = dst / edit[0]
    doc = json.loads(path.read_text())
    edit[1](doc)
    path.write_text(json.dumps(doc))
    return dst


@pytest.mark.parametrize("edit", [
    ("indices.json", lambda d: d["indices"][0].update(value=d["indices"][0]["value"] * 1.001)),
    ("indices.json", lambda d: d["indices"].pop()),
    ("inference.json", lambda d: d["global"]["ci"].update(lower=1.0, upper=0.0)),
    ("inference.json", lambda d: d.update(permutation_p=0.0)),
    ("inference.json", lambda d: d["partial"].update(variance=float("nan"))),
])
def test_check_rejects_a_corrupted_summary(small_cohort, tmp_path, edit):
    table, out = small_cohort
    assert _summarize_check(table, _corrupt(out, tmp_path / "bad", edit)) != []


def test_check_rejects_corrupted_links_and_curve(small_cohort, tmp_path):
    table, out = small_cohort
    bad = _corrupt(out, tmp_path / "bad", ("links.json", lambda d: d.update(auc_roc=d["auc_roc"] + 1e-6)))
    assert oracle.check_links(str(bad), table) != []
    lines = (bad / "curve.csv").read_text().splitlines()
    q, r = lines[-1].split(",")
    lines[-1] = f"{q},{float(r) * 0.99!r}"
    (bad / "curve.csv").write_text("\n".join(lines) + "\n")
    assert oracle.compare_curve_csv(str(bad / "curve.csv"), table) != []


def test_check_rejects_a_corrupted_eval(tmp_path):
    rows = ["# provenance", "model,index,true_value,mean,sd,pct_bias,pct_coverage,n_replicates",
            "m,U,0.1,0.1,0.01,1.0,95.0,10", "m,R,0.2,0.2,0.01,1.0,93.0,10"]
    (tmp_path / "eval.csv").write_text("\n".join(rows) + "\n")
    assert oracle.check_eval(str(tmp_path), 2, 10) == []
    assert oracle.check_eval(str(tmp_path), 3, 10) != []
    (tmp_path / "eval.csv").write_text("\n".join(rows[:-1] + ["m,R,nan,0.2,0.01,1.0,101.0,10"]) + "\n")
    assert len(oracle.check_eval(str(tmp_path), 2, 10)) == 2


# ---------------------------------------------------------------------------
# guard


def test_guard_records_success_and_peak_rss(tmp_path):
    res = _guard(tmp_path, _py("x = bytearray(64 << 20)"))
    assert res.ok and res.exit_code == 0 and res.signal is None
    assert res.peak_rss_mb >= 64
    assert res.wall_s > 0


def test_guard_classifies_a_nonzero_exit(tmp_path):
    res = _guard(tmp_path, _py("import sys; sys.stderr.write('bad input'); sys.exit(2)"))
    assert not res.ok and res.exit_code == 2 and res.signal is None
    assert res.reason == "exit 2: bad input"


def test_guard_classifies_a_killed_child(tmp_path):
    res = _guard(tmp_path, _py("import os, signal; os.kill(os.getpid(), signal.SIGKILL)"))
    assert not res.ok and res.exit_code is None and res.signal == signal.SIGKILL
    assert res.reason == "killed by SIGKILL"


def test_guard_times_out_a_hung_child(tmp_path):
    res = _guard(tmp_path, _py("import time; time.sleep(60)"), timeout_s=0.5)
    assert not res.ok and res.timed_out and res.signal == signal.SIGKILL
    assert res.wall_s < 30
    assert res.reason.startswith("timeout")


def test_guard_caps_the_address_space_of_the_child_only(tmp_path):
    res = _guard(tmp_path, _py("x = bytearray(1 << 30)"), cap_bytes=512 << 20)
    assert not res.ok and res.exit_code == 1 and "MemoryError" in res.reason
    assert _guard(tmp_path, _py("x = bytearray(1 << 30)")).ok


# ---------------------------------------------------------------------------
# workloads and per-layer accounting


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_op_has_an_output_check(tmp_path, name):
    workload = WORKLOADS[name]
    workload.generate(str(tmp_path), 1)
    names = [op for op, _ in workload.ops(str(tmp_path), 1)]
    assert len(names) == len(set(names))
    assert set(names) == set(workload.checks(str(tmp_path), 1))


def _spans():
    # two ops; the second nests simulate -> isotonic twice
    return [
        [0, -1, "cli.simulate", 0.0, 2.0, 0],
        [1, 0, "simulate.run_bias_coverage", 0.5, 1.5, 0],
        [2, -1, "cli.simulate_iso", 2.0, 6.0, 0],
        [3, 2, "simulate.run_bias_coverage", 2.5, 5.5, 0],
        [4, 3, "isotonic.pava", 3.0, 3.5, 0],
        [5, 3, "isotonic.pava", 4.0, 4.25, 0],
        [6, 2, "fileio.write_eval_csv", 5.5, 5.75, 0],
    ]


def test_layer_self_times_add_up_to_the_traced_total():
    timing = {"import_s": 1.0, "spans": _spans(),
              "counts": {"fileio.rows": 0, "risk_model.genotypes": 81, "inference.replicates": 0}}
    memory = {"spans": [[0, -1, "fileio.write_eval_csv", 0.0, 1.0, 3 << 20]]}
    m = run.layer_metrics(timing, memory, {"simulate": 3.0, "simulate_iso": 5.0}, 8.0, 1.0)
    assert m["trace.total_s"] == 6.0
    assert sum(m[f"{layer}.self_s"] for layer in run.LAYERS) == pytest.approx(6.0)
    assert m["simulate.self_s"] == pytest.approx(1.0 + 2.25)
    assert m["isotonic.pava_s"] == 0.75 and m["isotonic.rows"] == 2
    assert m["isotonic.refit_extra_s"] == 2.0 and m["simulate.bias_coverage_s"] == 1.0
    assert m["fileio.peak_alloc_mb"] == 3.0
    assert m["trace.overhead_s"] == pytest.approx(6.0 - (8.0 - 2 * 1.0))


def test_benchmark_json_names_exactly_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    timing = {"import_s": 1.0, "spans": _spans(),
              "counts": {"fileio.rows": 0, "risk_model.genotypes": 81, "inference.replicates": 0}}
    m = run.layer_metrics(timing, {"spans": []}, {}, 8.0, 1.0)
    assert set(m) == {x["name"] for x in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


def test_validate_check_replays_the_trained_order(tmp_path):
    rho = 0.05
    paths = {}
    for k, name in enumerate(("train.csv", "test.csv")):
        paths[name] = tmp_path / name
        gen.write_counts_file(paths[name], np.random.default_rng([9, k]), SMALL, 150, 150)
    train, test = oracle.read_counts(paths["train.csv"]), oracle.read_counts(paths["test.csv"])
    curve, unseen = oracle.trained_test_curve(train, test, rho)
    argv = [sys.executable, "-m", "predictu.cli", "validate", "--train", str(paths["train.csv"]),
            "--test", str(paths["test.csv"]), "--rho", str(rho), "--isotonic", "--out", str(tmp_path / "out")]
    res = run_guarded("validate", argv, cwd=str(tmp_path), env=_cli_env(), timeout_s=120,
                      log_path=str(tmp_path / "err"))
    assert res.ok, res.reason
    tokens = ("u", "ustd", "r", "tg", "ae")

    def check(out):
        table = oracle.risk_sorted(oracle.plugin(train, rho))
        return oracle.check_validate(str(out), table, curve, unseen, tokens, None)

    assert check(tmp_path / "out") == []
    bad = _corrupt(tmp_path / "out", tmp_path / "bad",
                   ("validate.json", lambda d: d["refit"]["indices"][0].update(value=0.0)))
    assert check(bad) != []
