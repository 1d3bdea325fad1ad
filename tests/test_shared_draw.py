"""One stratified bootstrap draw for the global and the partial U.

``old_bootstrap_ci`` and ``old_partial_u_variance`` are the earlier pair
of routines, kept here as the oracle: each drew the same replicate
counts on its own.  The shared routine must reproduce both
estimates exactly, draw once per ``summarize``, and peak no higher than
the partial routine alone did.
"""

import tracemalloc

import numpy as np
import pytest

from predictu import cli, inference
from predictu.errors import NumericError
from predictu.fileio import parse_counts_file, read_json
from predictu.inference import (
    _GROUP,
    Method,
    ResamplePlan,
    UEstimate,
    _align_counts,
    _bootstrap_group,
    _contract,
    _percentile_ci,
    bootstrap_ci,
    bootstrap_estimates,
    partial_u_variance,
)
from predictu.risk_model import CaseControlCounts, GenotypeId, _plugin_rows, estimate_risk_table
from predictu.summary_indices import clipped_band_masses, partial_u_statistic

from conftest import bootstrap_counts_reference, random_case, same


def old_bootstrap_ci(counts, order, plan, level=0.95):
    case, control = _align_counts(counts, order)
    rho = counts.rho
    scale = 2.0 * rho * (1.0 - rho) / (counts.n_cases * counts.n_controls)
    point = scale * int(_contract(case, control))
    boot_case, boot_control = bootstrap_counts_reference(counts, order, plan)
    values = scale * _contract(boot_case, boot_control)
    variance = float(np.var(values, ddof=1)) if plan.n_replicates > 1 else 0.0
    return UEstimate(point, variance, Method.BOOTSTRAP, _percentile_ci(values, level),
                     plan.n_replicates, plan.seed, plan.n_replicates)


def old_partial_u_variance(counts, order, band, plan, level=0.95, standardized=False):
    q0, q1 = band
    case, control = _align_counts(counts, order)
    rho = counts.rho
    boot_case, boot_control = bootstrap_counts_reference(counts, order, plan)
    boot_case = boot_case.astype(float)
    boot_control = boot_control.astype(float)

    def stat(case_rows, control_rows):
        p, r = _plugin_rows(case_rows, control_rows, rho)
        value = np.atleast_1d(partial_u_statistic(p, r, q0, q1))
        if standardized:
            rho_pt = (clipped_band_masses(p, q0, q1) * r).sum(axis=-1)
            denom = 2.0 * rho_pt * (1.0 - rho_pt)
            value = np.divide(value, denom, out=np.full_like(value, np.nan), where=denom > 0)
        return value

    point = float(stat(case[None, :].astype(float), control[None, :].astype(float))[0])
    del case, control
    values = stat(boot_case, boot_control)
    values = values[np.isfinite(values)]
    if values.size == 0:
        raise NumericError("no finite bootstrap replicate for the partial U")
    variance = float(np.var(values, ddof=1)) if values.size > 1 else 0.0
    return UEstimate(point, variance, Method.BOOTSTRAP, _percentile_ci(values, level),
                     plan.n_replicates, plan.seed, int(values.size))


def test_wrappers_equal_the_two_draw_reference():
    rng = np.random.default_rng(31)
    exact = nan_points = 0
    for trial in range(150):
        counts, order = random_case(rng)
        plan = ResamplePlan(int(rng.integers(1, 60)), seed=trial)
        level = float(rng.choice([0.8, 0.95]))
        assert bootstrap_ci(counts, order, plan, level) == old_bootstrap_ci(
            counts, order, plan, level
        )
        q0 = float(rng.uniform(0.0, 0.8))
        for band in ((0.0, 1.0), (q0, float(rng.uniform(q0 + 0.05, 1.0)))):
            for standardized in (False, True):
                try:
                    want = old_partial_u_variance(counts, order, band, plan, level, standardized)
                except NumericError:
                    with pytest.raises(NumericError):
                        partial_u_variance(counts, order, band, plan, level, standardized)
                    continue
                got = partial_u_variance(counts, order, band, plan, level, standardized)
                assert same(got, want)
                exact += got == want
                nan_points += got != want
                total, partial = bootstrap_estimates(
                    counts, order, plan, level, band, standardized
                )
                assert total == old_bootstrap_ci(counts, order, plan, level)
                assert same(partial, want)
    assert exact > 10 * nan_points


def test_summarize_draws_once(monkeypatch, tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("genotype_id,n_case,n_control\ng0,5,45\ng1,6,24\ng2,10,10\n")
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])  # the stream
        return _bootstrap_group(*args, **kwargs)

    monkeypatch.setattr(inference, "_bootstrap_group", counted)
    out = tmp_path / "run"
    code = cli.main(["summarize", str(path), "--rho", "0.21", "--bootstrap", "50",
                     "--band", "0.5:1", "--seed", "3", "--out", str(out)])
    assert code == 0
    # each replicate group is drawn once, for the global and the partial U
    assert calls == [[3, 101, g] for g in range(-(-50 // _GROUP))]
    doc = read_json(out / "inference.json")
    counts, _ = parse_counts_file(path, rho=0.21)
    order = estimate_risk_table(counts).genotypes
    plan = ResamplePlan(50, seed=3)
    assert doc["global"] == old_bootstrap_ci(counts, order, plan).to_dict()
    assert doc["partial"] == old_partial_u_variance(counts, order, (0.5, 1.0), plan).to_dict()


def test_shared_peak_stays_within_the_partial_routine_alone():
    rng = np.random.default_rng(7)
    g = 1000
    counts = CaseControlCounts(
        genotypes=tuple(GenotypeId(i, f"g{i}") for i in range(g)),
        n_case=rng.integers(1, 60, g),
        n_control=rng.integers(1, 60, g),
        rho=0.05,
    )
    order = counts.genotypes[::-1]
    plan = ResamplePlan(400, seed=5)
    peaks = []
    for run in (
        lambda: old_partial_u_variance(counts, order, (0.9, 1.0), plan),
        lambda: bootstrap_estimates(counts, order, plan, band=(0.9, 1.0)),
    ):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    old, shared = peaks
    assert shared <= old, f"shared {shared / 2**20:.1f} MiB > partial alone {old / 2**20:.1f} MiB"
