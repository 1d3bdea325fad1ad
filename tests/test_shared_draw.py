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
    Method,
    ResamplePlan,
    UEstimate,
    _align_counts,
    _bootstrap_group,
    _contract,
    _replicate_values,
    bootstrap_ci,
    bootstrap_estimates,
)
from predictu.risk_model import (
    CaseControlCounts,
    _bayes,
    _plugin_rows,
    estimate_risk_table,
)
from predictu.summary_indices import (
    INDEX_TOKENS,
    _index_rows,
    clipped_band_masses,
    u_statistic,
)

from conftest import bootstrap_counts_reference, group_sizes, percentile_ci, random_case, same


def old_bootstrap_ci(counts, order, plan, level=0.95):
    case, control = _align_counts(counts, order)
    rho = counts.rho
    scale = 2.0 * rho * (1.0 - rho) / (counts.n_cases * counts.n_controls)
    point = scale * int(_contract(case, control))
    boot_case, boot_control = bootstrap_counts_reference(counts, order, plan)
    values = scale * _contract(boot_case, boot_control)
    variance = float(np.var(values, ddof=1)) if plan.n_replicates > 1 else 0.0
    return UEstimate(point, variance, Method.BOOTSTRAP, percentile_ci(values, level),
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
        clipped = clipped_band_masses(p, q0, q1)
        value = np.atleast_1d(u_statistic(clipped, r))
        if standardized:
            rho_pt = (clipped * r).sum(axis=-1)
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
    return UEstimate(point, variance, Method.BOOTSTRAP, percentile_ci(values, level),
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
                token = "upartialstd" if standardized else "upartial"
                try:
                    want = old_partial_u_variance(counts, order, band, plan, level, standardized)
                except NumericError:
                    with pytest.raises(NumericError):
                        bootstrap_estimates(counts, order, plan, (token,), band, level)
                    continue
                got = bootstrap_estimates(counts, order, plan, (token,), band, level)[token]
                assert same(got, want)
                exact += got == want
                nan_points += got != want
                found = bootstrap_estimates(counts, order, plan, ("u", token), band, level)
                assert found["u"] == old_bootstrap_ci(counts, order, plan, level)
                assert same(found[token], want)
    assert exact > 10 * nan_points


def test_summarize_draws_once(monkeypatch, tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("genotype_id,n_case,n_control\ng0,5,45\ng1,6,24\ng2,10,10\n")
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2].bit_generator.seed_seq.entropy)  # the stream
        return _bootstrap_group(*args, **kwargs)

    monkeypatch.setattr(inference, "_bootstrap_group", counted)
    out = tmp_path / "run"
    code = cli.main(["summarize", str(path), "--rho", "0.21", "--bootstrap", "50",
                     "--band", "0.5:1", "--seed", "3", "--out", str(out)])
    assert code == 0
    # each replicate group is drawn once, for the global and the partial U
    # (groups on different threads may record their streams in any order)
    assert sorted(calls) == [[3, 101, g] for g, _ in group_sizes(50, 3)]
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
        genotypes=tuple(f"g{i}" for i in range(g)),
        n_case=rng.integers(1, 60, g),
        n_control=rng.integers(1, 60, g),
        rho=0.05,
    )
    order = counts.genotypes[::-1]
    plan = ResamplePlan(400, seed=5)
    peaks = []
    for run in (
        lambda: old_partial_u_variance(counts, order, (0.9, 1.0), plan),
        lambda: bootstrap_estimates(counts, order, plan, ("u", "upartial"), (0.9, 1.0)),
    ):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    old, shared = peaks
    assert shared <= old, f"shared {shared / 2**20:.1f} MiB > partial alone {old / 2**20:.1f} MiB"


def _tied_case(rng):
    """Genotypes in tied pairs (equal counts, so equal risks), one of them
    unobserved, with an order that keeps it."""
    half = rng.integers(1, 20, (2, 4)) * (rng.random((2, 4)) < 0.8)
    half[:, 0] = [3, 5]
    n_case, n_control = np.repeat(half, 2, axis=1)
    n_case[-2:] = n_control[-2:] = 0
    genotypes = tuple(f"g{i}" for i in range(8))
    counts = CaseControlCounts(genotypes, n_case, n_control, float(rng.uniform(0.05, 0.5)))
    return counts, genotypes[::-1]


@pytest.mark.parametrize("laplace", [0.0, 0.5])
def test_every_token_is_the_index_of_the_drawn_smoothed_rows(laplace):
    # random, tied and zero-cell rows: every replicate value is the index of
    # the plug-in curve of the same drawn rows, smoothed by laplace
    rng = np.random.default_rng(57)
    band = (0.3, 0.9)
    for trial in range(90):
        counts, order = _tied_case(rng) if trial % 3 == 0 else random_case(rng)
        plan = ResamplePlan(int(rng.integers(1, 30)), seed=trial)
        rho = counts.rho
        passes = []

        def recorded(*args):
            passes.append(list(_replicate_values(*args)))
            return iter(passes[-1])

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(inference, "_replicate_values", recorded)
            try:
                bootstrap_estimates(counts, order, plan, INDEX_TOKENS, band, laplace=laplace)
            except NumericError:
                pass  # a token with no finite replicate; its values were recorded
        # every row but the first, which is the point
        parts = [part for rows in passes for part in rows]
        got = {token: np.concatenate([part[token] for part in parts])[1:] for token in INDEX_TOKENS}

        boot_case, boot_control = bootstrap_counts_reference(counts, order, plan)
        g = len(order)
        a = (boot_case + laplace) / (boot_case.sum(axis=-1, keepdims=True) + laplace * g)
        b = (boot_control + laplace) / (boot_control.sum(axis=-1, keepdims=True) + laplace * g)
        p, r = _bayes(a, b, rho)
        want = _index_rows(p, r, rho, INDEX_TOKENS, band)
        for token in INDEX_TOKENS:
            if token in ("u", "ustd"):
                # the identity on the exact contraction against the float U
                # (near U = 0 only the bound of 1e-12 of U's range can hold)
                scale = 1.0 if token == "ustd" else 2.0 * rho * (1.0 - rho)
                np.testing.assert_allclose(got[token], want[token], rtol=1e-12, atol=1e-12 * scale)
            else:
                np.testing.assert_array_equal(got[token], want[token])
