"""The benchmark's workloads: inputs, command-line ops and output checks.

Each workload is a fixed sequence of ``python -m predictu.cli`` ops run
one at a time by one client (a closed loop).  ``generate`` writes the
inputs for a seed, ``ops`` lists the ops with their arguments (the
runner appends ``--out``), and ``checks`` maps each op to the oracle
check of its artifacts.  The traced run replays the same ``ops``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import gen
import oracle

RHO = "0.05"
BAND = (0.9, 1.0)
ALL_INDICES = ("u", "ustd", "upartial", "upartialstd", "r", "tg", "ae")
# the CLI default for --indices
DEFAULT_INDICES = ("u", "ustd", "r", "tg", "ae")

# 7 loci: 2,187 possible genotypes, about 1,960 observed in 2 x 10^5 subjects.
COHORT_MODEL = gen.LocusModel(mafs=(0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.5),
                              rrs=(1.3, 1.25, 1.2, 1.15, 1.1, 1.3, 1.2), base=0.01)
# 8 loci: 6,561 possible genotypes, about 5,150 observed per file.
HOLDOUT_MODEL = gen.LocusModel(mafs=(0.15, 0.2, 0.25, 0.3, 0.35, 0.35, 0.4, 0.5),
                               rrs=(1.3, 1.25, 1.2, 1.15, 1.1, 1.3, 1.2, 1.1), base=0.005)
N_PER_ARM = 100_000

N_BOOTSTRAP = 2000
N_PERMUTATION = 999
SIM_REPLICATES = 150
SIM_ARGS = ("--replicates", str(SIM_REPLICATES), "--n-cases", "600", "--n-controls", "300",
            "--bootstrap", "400", "--workers", "1")


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[str, int], dict]
    ops: Callable[[str, int], list]
    checks: Callable[[str, int], dict]


def _band_arg() -> str:
    return f"{BAND[0]:g}:{BAND[1]:g}"


# ---------------------------------------------------------------------------
# cohort: one per-subject file, 10^5 cases and 10^5 controls over 7 markers.
# Subject-file parsing and inference (bootstrap, partial-band bootstrap and
# permutation over G of about 1,960) do most of the work.  An O(G) kernel
# contraction and a vectorised subject aggregation should show here.


def _cohort_generate(indir: str, seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    stats = gen.write_subject_file(os.path.join(indir, "subjects.csv"), rng, COHORT_MODEL,
                                   N_PER_ARM, N_PER_ARM)
    return {"subjects.csv": stats.to_dict()}


def _cohort_ops(indir: str, seed: int) -> list:
    subjects = os.path.join(indir, "subjects.csv")
    return [
        ("curve", ["curve", subjects, "--rho", RHO]),
        ("links", ["links", subjects, "--rho", RHO]),
        ("summarize", ["summarize", subjects, "--rho", RHO, "--indices", ",".join(ALL_INDICES),
                       "--band", _band_arg(), "--bootstrap", str(N_BOOTSTRAP),
                       "--permutation", str(N_PERMUTATION), "--seed", str(seed)]),
    ]


def _cohort_checks(indir: str, seed: int) -> dict:
    counts = oracle.read_subjects(os.path.join(indir, "subjects.csv"))
    table = oracle.risk_sorted(oracle.plugin(counts, float(RHO)))
    n_rows = int(counts.n_case.sum() + counts.n_control.sum())
    return {
        "curve": lambda out: oracle.check_curve(out, table, n_rows),
        "links": lambda out: oracle.check_links(out, table),
        "summarize": lambda out: oracle.check_summarize(out, table, ALL_INDICES, BAND,
                                                        N_BOOTSTRAP, N_PERMUTATION),
    }


# ---------------------------------------------------------------------------
# holdout: a train and a test counts file, each 10^5 + 10^5 subjects over 8
# markers (G of about 5,150 rows).  risk_model dominates (estimate_risk_table
# and apply_model_to_test, both quadratic in G today, plus the list-based
# duplicate check in parse_counts_file); no inference runs, so a change to
# inference should leave this workload unchanged.  Its pre-aggregated format
# sits beside cohort's per-subject format, so a parsing change that helps one
# and costs the other shows.


def _holdout_generate(indir: str, seed: int) -> dict:
    stats = {}
    for k, name in enumerate(("train.csv", "test.csv")):
        rng = np.random.default_rng([seed, 2, k])
        stats[name] = gen.write_counts_file(os.path.join(indir, name), rng, HOLDOUT_MODEL,
                                            N_PER_ARM, N_PER_ARM).to_dict()
    return stats


def _holdout_ops(indir: str, seed: int) -> list:
    train, test = os.path.join(indir, "train.csv"), os.path.join(indir, "test.csv")
    return [
        ("curve", ["curve", test, "--rho", RHO]),
        ("validate", ["validate", "--train", train, "--test", test, "--rho", RHO,
                      "--isotonic", "--band", _band_arg()]),
    ]


def _holdout_checks(indir: str, seed: int) -> dict:
    rho = float(RHO)
    train = oracle.read_counts(os.path.join(indir, "train.csv"))
    test = oracle.read_counts(os.path.join(indir, "test.csv"))
    test_table = oracle.risk_sorted(oracle.plugin(test, rho))
    train_table = oracle.risk_sorted(oracle.plugin(train, rho))
    test_curve, unseen = oracle.trained_test_curve(train, test, rho)
    n_rows = len(test.labels)
    return {
        "curve": lambda out: oracle.check_curve(out, test_table, n_rows),
        "validate": lambda out: oracle.check_validate(out, train_table, test_curve, unseen,
                                                      DEFAULT_INDICES, BAND),
    }


# ---------------------------------------------------------------------------
# simcov: the bias/coverage harness on bundled 81-genotype populations, with
# no file parsing and no inference.  simulate and isotonic do all the work.
# The plain op is the no-refit baseline that isolates the cost of the
# isotonic refit (batched PAVA should show here; kernel and genotype-index
# changes should not).  --workers 1 is pinned so that a change to the
# --workers default cannot silently change the workload.


def _simcov_generate(indir: str, seed: int) -> dict:
    # no files: the harness draws from bundled presets with the run's seed
    arms = {"n_case": 600, "n_control": 300, "replicates": SIM_REPLICATES}
    return {"sim1_h005": arms, "sim2_rr6": arms}


def _simcov_ops(indir: str, seed: int) -> list:
    common = SIM_ARGS + ("--seed", str(seed))
    return [
        ("simulate", ["simulate", "--preset", "sim1_h005", *common]),
        ("simulate_iso", ["simulate", "--preset", "sim1_h005", *common, "--isotonic"]),
        ("simulate_iso_partial", ["simulate", "--preset", "sim2_rr6", *common, "--isotonic",
                                  "--indices", ",".join(ALL_INDICES), "--band", _band_arg()]),
    ]


def _simcov_checks(indir: str, seed: int) -> dict:
    plain = len(DEFAULT_INDICES)
    return {
        "simulate": lambda out: oracle.check_eval(out, plain, SIM_REPLICATES),
        "simulate_iso": lambda out: oracle.check_eval(out, plain, SIM_REPLICATES),
        "simulate_iso_partial": lambda out: oracle.check_eval(out, len(ALL_INDICES), SIM_REPLICATES),
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cohort", _cohort_generate, _cohort_ops, _cohort_checks),
        Workload("holdout", _holdout_generate, _holdout_ops, _holdout_checks),
        Workload("simcov", _simcov_generate, _simcov_ops, _simcov_checks),
    )
}
