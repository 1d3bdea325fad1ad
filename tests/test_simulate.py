"""Tests for population models, sampling, and the bias/coverage harness."""

import functools
import itertools
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest

import conftest
from predictu import NumericError, ValidationError
from predictu import inference, parallel
from predictu import simulate as sim
from predictu.risk_model import (
    apply_model_to_test,
    build_risk_table,
    estimate_risk_table,
)
from predictu.summary_indices import (
    _DEFAULT_TOKENS,
    _EDGE,
    INDEX_TOKENS,
    INDICES,
    average_entropy,
    partial_u,
    predictiveness_u,
    predictiveness_u_std,
    r_square,
    total_gain,
    u_statistic,
)

from conftest import (
    calibrated_penetrance_reference,
    penetrance_model_reference,
    recentred_reference,
    refit_rows_one_by_one,
    replicate_chunk_blocks_reference,
    replicate_chunk_reference,
    replicate_rows_reference,
)

# every shipped preset, read from the package's presets directory
PRESET_NAMES = sorted(
    ref.name[:-5]
    for ref in resources.files("predictu").joinpath("presets").iterdir()
    if ref.name.endswith(".yaml")
)


def hand_model(name=None):
    """One locus at maf 0.5 with penetrances (0.1, 0.2, 0.3)."""
    return sim.DiseaseModel(
        snps=(sim.SnpSpec(maf=0.5),),
        interactions=(),
        penetrance=np.array([0.1, 0.2, 0.3]),
        target_rho=0.2,
        name=name,
    )


def test_hwe_probabilities_single_locus():
    probs = sim.genotype_probabilities([sim.SnpSpec(maf=0.5)])
    assert np.allclose(probs, [0.25, 0.5, 0.25])
    probs = sim.genotype_probabilities([sim.SnpSpec(maf=0.2)])
    assert np.allclose(probs, [0.64, 0.32, 0.04])


def test_hwe_probabilities_factorize_over_loci():
    # canonical order: first locus slowest, so probs = outer(a, b).ravel()
    a = np.array([0.64, 0.32, 0.04])  # maf 0.2
    b = np.array([0.36, 0.48, 0.16])  # maf 0.4
    probs = sim.genotype_probabilities(
        [sim.SnpSpec(maf=0.2), sim.SnpSpec(maf=0.4)]
    )
    assert np.allclose(probs, np.outer(a, b).ravel())
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_hand_population_table():
    pop = sim.build_population(hand_model())
    assert pop.rho == pytest.approx(0.2, abs=1e-12)
    assert np.allclose(pop.table.p, [0.25, 0.5, 0.25])
    assert np.allclose(pop.table.r, [0.1, 0.2, 0.3])
    # sampling laws follow from Bayes
    assert np.allclose(pop.cond_case, [0.125, 0.5, 0.375])
    assert np.allclose(pop.cond_control, [0.28125, 0.5, 0.21875])


@pytest.mark.parametrize(
    "name",
    ["sim1_h002", "sim1_h005", "sim1_h010", "sim1_h020", "sim2_rr3", "sim2_rr6", "sim2_rr10",
     "smoke"],
)
def test_preset_population_is_the_exact_genotype_law(name):
    # the masses are the HWE probabilities themselves
    model = sim.preset(name)
    masses = sim.genotype_probabilities(model.snps)
    pen = model.penetrance
    rho = float(masses @ pen)
    want = build_risk_table(
        masses * pen / rho,
        masses * (1.0 - pen) / (1.0 - rho),
        rho,
        genotypes=model.genotype_labels,
    )
    got = sim.build_population(sim.preset(name)).table
    assert got.rho == want.rho
    assert got.p.tobytes() == want.p.tobytes()
    assert got.r.tobytes() == want.r.tobytes()
    assert [str(g) for g in got.genotypes] == [str(g) for g in want.genotypes]


def test_flat_penetrance_is_uninformative():
    model = sim.DiseaseModel(
        snps=(sim.SnpSpec(maf=0.3),),
        interactions=(),
        penetrance=np.full(3, 0.1),
        target_rho=0.1,
    )
    pop = sim.build_population(model)
    assert u_statistic(pop.table.p, pop.table.r) == pytest.approx(0.0, abs=1e-15)


def test_four_loci_grid_size():
    snps = tuple(sim.SnpSpec(maf=0.1 + 0.05 * k) for k in range(4))
    model = sim.penetrance_model(snps, target_rho=0.05)
    assert model.n_genotypes == 81
    assert sim.genotype_matrix(4).shape == (81, 4)
    assert len(model.genotype_labels) == 81
    assert model.genotype_labels[0] == "0/0/0/0"


@pytest.mark.parametrize("n_loci", range(1, 9))
def test_genotype_matrix_is_the_product_order(n_loci):
    grid = sim.genotype_matrix(n_loci)
    want = np.array(list(itertools.product((0, 1, 2), repeat=n_loci)), dtype=np.int64)
    assert grid.dtype == want.dtype and grid.flags.c_contiguous
    assert np.array_equal(grid, want)


def test_penetrance_model_hits_prevalence():
    snps = [sim.SnpSpec(maf=0.2, rr=1.8), sim.SnpSpec(maf=0.3, mode=sim.Mode.DOMINANT, rr=1.4)]
    model = sim.penetrance_model(snps, target_rho=0.05)
    probs = sim.genotype_probabilities(snps)
    assert float(probs @ model.penetrance) == pytest.approx(0.05, abs=1e-12)


def test_penetrance_model_hits_prevalence_under_clipping():
    # huge rr forces clipping at 1; bisection still lands on the target
    snps = [sim.SnpSpec(maf=0.3, rr=50.0)]
    model = sim.penetrance_model(snps, target_rho=0.3)
    probs = sim.genotype_probabilities(snps)
    assert np.max(model.penetrance) == 1.0
    assert float(probs @ model.penetrance) == pytest.approx(0.3, abs=1e-9)


def test_interaction_multiplies_penetrance():
    snps = [sim.SnpSpec(maf=0.3, rr=1.3), sim.SnpSpec(maf=0.2, rr=1.4)]
    base = sim.penetrance_model(snps, target_rho=0.01)
    inter = sim.penetrance_model(
        snps, target_rho=0.01, interactions=[sim.Interaction(a=0, b=1, rr=1.5)]
    )
    # away from clipping the ratio is 1.5 ** (x_a x_b) up to one global factor
    grid = sim.genotype_matrix(2).astype(float)
    ratio = inter.penetrance / base.penetrance / 1.5 ** (grid[:, 0] * grid[:, 1])
    assert np.allclose(ratio, ratio[0])


def test_calibrate_heritability_hits_target():
    model = sim.penetrance_model([sim.SnpSpec(maf=0.3, rr=2.0)], target_rho=0.2)
    scaled = sim.calibrate_heritability(model, 0.05)
    assert sim.heritability(scaled) == pytest.approx(0.05, abs=1e-6)
    # prevalence pinned while the spread moves
    probs = sim.genotype_probabilities(scaled.snps)
    assert float(probs @ scaled.penetrance) == pytest.approx(0.2, abs=1e-9)
    assert scaled.target_h2 == 0.05


def test_calibrate_identity_target():
    model = sim.penetrance_model([sim.SnpSpec(maf=0.3, rr=2.0)], target_rho=0.2)
    h2 = sim.heritability(model)
    scaled = sim.calibrate_heritability(model, h2)
    assert np.allclose(scaled.penetrance, model.penetrance, atol=1e-8)


def test_calibrate_unreachable_target_raises():
    model = sim.penetrance_model([sim.SnpSpec(maf=0.3, rr=2.0)], target_rho=0.2)
    with pytest.raises(NumericError):
        sim.calibrate_heritability(model, 0.999)


def test_calibrate_flat_model_raises():
    model = sim.DiseaseModel(
        snps=(sim.SnpSpec(maf=0.3),),
        interactions=(),
        penetrance=np.full(3, 0.2),
        target_rho=0.2,
    )
    with pytest.raises(NumericError):
        sim.calibrate_heritability(model, 0.05)


def test_spec_validation():
    with pytest.raises(ValidationError):
        sim.SnpSpec(maf=0.0)
    for rr in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            sim.SnpSpec(maf=0.2, rr=rr)
        with pytest.raises(ValidationError):
            sim.Interaction(a=0, b=1, rr=rr)
    with pytest.raises(ValidationError):
        sim.Interaction(a=1, b=1, rr=1.5)
    with pytest.raises(ValidationError):
        sim.DiseaseModel(
            snps=(sim.SnpSpec(maf=0.5),),
            interactions=(),
            penetrance=np.array([0.1, float("nan"), 0.3]),
            target_rho=0.2,
        )
    for target_h2 in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            sim.calibrate_heritability(hand_model(), target_h2)
    with pytest.raises(ValidationError):
        sim.DiseaseModel(
            snps=(sim.SnpSpec(maf=0.5),),
            interactions=(),
            penetrance=np.array([0.1, 0.2]),  # wrong grid length
            target_rho=0.2,
        )


def test_sampling_rejects_empty_arm():
    pop = sim.build_population(hand_model())
    with pytest.raises(ValidationError):
        sim.sample_case_control(pop, 0, 10, seed=1)
    with pytest.raises(ValidationError):
        sim.sample_case_control(pop, 10, 0, seed=1)


def test_sampling_determinism():
    pop = sim.build_population(hand_model())
    one = sim.sample_case_control(pop, 500, 500, seed=11)
    two = sim.sample_case_control(pop, 500, 500, seed=11)
    assert np.array_equal(one.n_case, two.n_case)
    assert np.array_equal(one.n_control, two.n_control)
    assert one.n_case.sum() == 500 and one.n_control.sum() == 500


def test_sampling_matches_conditional_laws():
    # law of large numbers: empirical arm frequencies near P(g | D), P(g | not D)
    pop = sim.build_population(hand_model())
    counts = sim.sample_case_control(pop, 100_000, 100_000, seed=7)
    assert np.max(np.abs(counts.n_case / 100_000 - pop.cond_case)) < 0.02
    assert np.max(np.abs(counts.n_control / 100_000 - pop.cond_control)) < 0.02


def test_presets_load_and_hit_targets():
    models = [sim.preset(name) for name in PRESET_NAMES]
    names = [s.name for s in models]
    for required in (
        "sim1_h002",
        "sim1_h005",
        "sim1_h010",
        "sim1_h020",
        "sim2_rr3",
        "sim2_rr6",
        "sim2_rr10",
        "smoke",
    ):
        assert required in names
    targets = {"sim1_h002": 0.02, "sim1_h005": 0.05, "sim1_h010": 0.1, "sim1_h020": 0.2}
    for model in models:
        probs = sim.genotype_probabilities(model.snps)
        rho = float(probs @ model.penetrance)
        assert rho == pytest.approx(model.target_rho, abs=1e-9)
        if model.name in targets:
            assert sim.heritability(model) == pytest.approx(targets[model.name], abs=1e-6)
        if model.name.startswith("sim"):
            assert model.target_rho == pytest.approx(0.016, abs=1e-12)
            assert model.n_genotypes == 81


def test_presets_match_the_200_step_bisections():
    for model in map(sim.preset, PRESET_NAMES):
        want = penetrance_model_reference(model.snps, model.target_rho, model.interactions)
        want = want.penetrance if model.target_h2 is None else (
            calibrated_penetrance_reference(want, model.target_h2)
        )
        assert model.penetrance.tobytes() == want.tobytes(), model.name


def test_bisections_match_the_200_step_versions_on_random_models():
    rng = np.random.default_rng(17)
    modes = list(sim.Mode)
    clipped = calibrated = recentred_clipped = 0
    for trial in range(30):
        n_loci = int(rng.integers(1, 4))
        snps = [
            sim.SnpSpec(
                maf=float(rng.uniform(0.01, 0.5)),
                mode=modes[int(rng.integers(len(modes)))],
                rr=float(np.exp(rng.uniform(0.0, 4.0))),
            )
            for _ in range(n_loci)
        ]
        interactions = (
            [sim.Interaction(a=0, b=1, rr=float(rng.uniform(0.5, 3.0)))]
            if n_loci > 1 and rng.random() < 0.5
            else []
        )
        target_rho = float(rng.uniform(0.005, 0.5))
        model = sim.penetrance_model(snps, target_rho, interactions)
        want = penetrance_model_reference(snps, target_rho, interactions)
        assert model.penetrance.tobytes() == want.penetrance.tobytes()
        clipped += bool(np.max(model.penetrance) == 1.0)

        probs = sim.genotype_probabilities(model.snps)
        for scale in (0.0, 1e-300, 1e-9, float(rng.uniform(0.0, 3.0)), 1.0, 7.5, 50.0):
            got = sim._recentred(model.penetrance, probs, target_rho, scale)
            want = recentred_reference(model.penetrance, probs, target_rho, scale)
            assert got.tobytes() == want.tobytes(), (snps, target_rho, scale)
            recentred_clipped += bool(np.any(got == 0.0) or np.any(got == 1.0))

        # the 200-step calibration is slow: one target per model, a third
        # of the models, the targets near 0 among them
        if trial % 3:
            continue
        h2 = sim.heritability(model)
        target_h2 = (0.0, 1e-300, 1e-12, 0.5 * h2, 1.5 * h2)[trial // 3 % 5]
        try:
            got = sim.calibrate_heritability(model, target_h2).penetrance
        except NumericError:
            with pytest.raises(NumericError):
                calibrated_penetrance_reference(model, target_h2)
            continue
        want = calibrated_penetrance_reference(model, target_h2)
        assert got.tobytes() == want.tobytes(), (snps, target_rho, target_h2)
        calibrated += 1
    # clipping binds in some models and recentrings, and most targets are
    # reachable
    assert 0 < clipped < 30
    assert recentred_clipped >= 30
    assert calibrated >= 8


def test_clip_shift_solves_the_clipped_mean():
    rng = np.random.default_rng(23)
    for _ in range(200):
        g = int(rng.integers(1, 40))
        probs = rng.dirichlet(np.ones(g))
        # spreads from none to far past [0, 1], so clipping binds at both ends
        base = rng.uniform(-1.0, 1.0) + rng.uniform(0.0, 5.0) * rng.normal(size=g)
        target = float(rng.uniform(0.001, 0.999))
        shift = sim._clip_shift(base, probs, target)
        assert float(probs @ np.clip(base + shift, 0.0, 1.0)) == pytest.approx(target, abs=1e-12)


def test_preset_calibration_takes_few_recentring_evaluations(monkeypatch):
    # the nested bisection clipped 4,175 penetrance vectors per sim1_h005 load
    calls = []
    clip = np.clip
    monkeypatch.setattr(np, "clip", lambda *a, **k: calls.append(1) or clip(*a, **k))
    sim.preset("sim1_h005")
    assert len(calls) < 1_000


def test_a_preset_is_a_named_disease_model():
    model = sim.preset("sim1_h005")
    assert isinstance(model, sim.DiseaseModel) and model.name == "sim1_h005"
    assert sim.heritability(model) == pytest.approx(0.05, abs=1e-6)
    assert sim.build_population(model).name == "sim1_h005"
    assert sim.build_population(hand_model()).name == "population"


def test_model_file_with_a_version_key_loads(tmp_path):
    path = tmp_path / "two_locus.yaml"
    path.write_text(
        "version: 1\ntarget_rho: 0.05\nsnps:\n"
        "  - {maf: 0.20, mode: additive, rr: 1.6}\n"
        "  - {maf: 0.25, mode: dominant, rr: 1.8}\n"
    )
    model = sim.load_model_spec(path)
    assert model.name == "two_locus" and not hasattr(model, "version")
    smoke = sim.preset("smoke")
    assert model.snps == smoke.snps
    assert model.penetrance.tobytes() == smoke.penetrance.tobytes()


def test_unknown_preset_lists_available():
    with pytest.raises(ValidationError, match="smoke"):
        sim.preset("nope")


def test_truth_matches_direct_indices():
    pop = sim.build_population(hand_model(name="hand"))
    band = (0.3, 0.9)
    reports = sim.run_bias_coverage(
        [pop],
        indices=INDEX_TOKENS,
        band=band,
        n_replicates=1,
        n_cases=50,
        n_controls=50,
        seed=0,
        n_bootstrap=2,
    )
    table = pop.table
    want = {
        "U": predictiveness_u(table).value,
        "U_std": predictiveness_u_std(table).value,
        "U_partial": partial_u(table, *band).value,
        "U_partial_std": partial_u(table, *band, standardized=True).value,
        "R": r_square(table).value,
        "R_std": r_square(table, standardized=True).value,
        "TG": total_gain(table).value,
        "AE": average_entropy(table).value,
    }
    assert [report.index_name for report in reports] == list(want)
    for report in reports:
        assert report.model == "hand"
        assert report.true_value == pytest.approx(want[report.index_name], abs=1e-12)


def test_null_model_pct_bias_is_nan():
    # every rr 1: the Bayes round trip of the flat penetrances leaves
    # truths of order 1e-17 and below, rounding noise rather than a scale
    model = sim.penetrance_model((sim.SnpSpec(maf=0.3), sim.SnpSpec(maf=0.2)), target_rho=0.1)
    reports = sim.run_bias_coverage(
        [model], n_replicates=2, n_cases=100, n_controls=100, seed=0, n_bootstrap=5
    )
    assert [report.index_name for report in reports] == [INDICES[t].name for t in _DEFAULT_TOKENS]
    for report in reports:
        assert 0 < abs(report.true_value) <= _EDGE, report.index_name
        assert np.isnan(report.pct_bias), report.index_name


def test_bias_shrinks_with_sample_size():
    pop = sim.build_population(sim.preset("sim1_h005"))
    true_u = float(u_statistic(pop.table.p, pop.table.r))
    gaps = []
    for n in (500, 2000, 8000):
        reports = sim.run_bias_coverage(
            [pop],
            indices=("u",),
            n_replicates=200,
            n_cases=n,
            n_controls=n,
            seed=29,
            n_bootstrap=2,
        )
        gaps.append(abs(reports[0].mean - true_u))
    assert gaps[0] > gaps[1] > gaps[2]


def test_harness_deterministic_replay():
    model = hand_model(name="hand")
    kwargs = dict(
        indices=("ustd", "r"),
        n_replicates=40,
        n_cases=300,
        n_controls=300,
        n_bootstrap=50,
    )
    one = sim.run_bias_coverage([model], seed=5, **kwargs)
    two = sim.run_bias_coverage([model], seed=5, **kwargs)
    other = sim.run_bias_coverage([model], seed=6, **kwargs)
    for a, b in zip(one, two):
        assert a == b
    assert any(a.mean != c.mean for a, c in zip(one, other))


# (indices, band, isotonic settings, worker count); the second input takes
# every index, the band and the refit
_WORKER_INPUTS = [(("ustd",), None, (False, True), 3), (INDEX_TOKENS, (0.8, 1.0), (True,), 2)]


def _check_worker_independence(workers=None):
    model = hand_model(name="hand")
    for indices, band, isotonics, pooled in _WORKER_INPUTS:
        kwargs = dict(
            indices=indices,
            band=band,
            n_replicates=30,
            n_cases=200,
            n_controls=200,
            seed=9,
            n_bootstrap=50,
        )
        for isotonic in isotonics:
            serial = sim.run_bias_coverage([model], workers=1, isotonic=isotonic, **kwargs)
            many = sim.run_bias_coverage([model], workers=workers or pooled, isotonic=isotonic, **kwargs)
            assert repr(serial) == repr(many)  # NaN bias (a zero truth) compares equal


def test_harness_worker_independence():
    # replicate streams keyed by (seed, population, replicate), not worker
    _check_worker_independence()


def test_harness_holds_on_eight_threads_under_forced_switches(monkeypatch):
    # more threads than cores, switching as often as the interpreter
    # allows, and no process pool to fall back on
    def refuse(*args, **kwargs):
        raise AssertionError("the harness asked for a process context")

    monkeypatch.setattr(multiprocessing, "get_context", refuse)
    # the worker count is capped at the available CPUs; allow eight on any host
    monkeypatch.setattr(parallel, "available_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _check_worker_independence(workers=8)
    finally:
        sys.setswitchinterval(interval)


def test_threaded_harness_runs_from_a_script_on_stdin():
    # no __main__ guard and no pickling: the script is read from stdin
    script = (
        "from predictu import simulate as sim\n"
        "reports = sim.run_bias_coverage([sim.preset('smoke')], indices=('u', 'ustd', 'r'),\n"
        "    n_replicates=7, n_cases=80, n_controls=80, isotonic=True, seed=4, n_bootstrap=30,\n"
        "    workers=2)\n"
        "print(repr(reports))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(sim.__file__)))
    res = subprocess.run([sys.executable, "-"], input=script, env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    serial = sim.run_bias_coverage([sim.preset("smoke")], indices=("u", "ustd", "r"), n_replicates=7,
                                   n_cases=80, n_controls=80, isotonic=True, seed=4, n_bootstrap=30,
                                   workers=1)
    assert res.stdout.strip() == repr(serial)


def test_harness_rejects_bad_requests():
    model = hand_model()
    with pytest.raises(ValidationError):
        sim.run_bias_coverage([model], indices=("nope",), n_replicates=2)
    with pytest.raises(ValidationError):
        sim.run_bias_coverage([model], indices=("upartial",), n_replicates=2)
    with pytest.raises(ValidationError):
        sim.run_bias_coverage([model], n_replicates=0)
    for bad in (
        dict(n_cases=0),
        dict(n_controls=-1),
        dict(n_bootstrap=0),
        dict(n_bootstrap=-1),
        dict(level=0.0),
        dict(level=1.0),
        dict(level=float("nan")),
        dict(workers=0),
        dict(workers=-2),
        dict(seed=-1),
    ):
        with pytest.raises(ValidationError):
            sim.run_bias_coverage([model], n_replicates=2, **bad)


@pytest.mark.parametrize(
    "indices, band",
    [(("u", "ustd", "r", "tg", "ae"), None), (INDEX_TOKENS, (0.8, 1.0))],
)
def test_isotonic_harness_matches_row_by_row_refit(monkeypatch, indices, band):
    kwargs = dict(
        indices=indices,
        band=band,
        n_replicates=12,
        n_cases=300,
        n_controls=150,
        seed=17,
        n_bootstrap=60,
        isotonic=True,
        workers=1,
    )
    populations = [sim.preset("sim1_h005"), sim.preset("sim2_rr6")]
    batched = sim.run_bias_coverage(populations, **kwargs)

    def one_by_one(risks, weights):
        risks[...] = refit_rows_one_by_one(weights, risks)
        return risks

    monkeypatch.setattr(sim, "pava_rows", one_by_one)
    assert batched == sim.run_bias_coverage(populations, **kwargs)


def _group_rows(patch, rows):
    """Replicate groups of ``rows`` rows in the harness and the references
    alike; None keeps the default R(G_e)."""
    if rows is not None:
        for module, size, cells in ((inference, "_GROUP", "_GROUP_CELLS"),
                                    (conftest, "GROUP_ROWS", "GROUP_CELLS")):
            patch.setattr(module, size, rows)
            patch.setattr(module, cells, 1)


def _assert_same_reports(got, want, isotonic):
    """Equal reports, but without a refit the harness takes U and U_std from
    the integer kernel and the references from the float index rows, so
    their mean, sd and bias agree to rounding."""
    for a, b in zip(got, want, strict=True):
        if isotonic or a.index_name not in ("U", "U_std"):
            assert repr(a) == repr(b)  # NaN fields compare equal
            continue
        assert replace(a, mean=b.mean, sd=b.sd, pct_bias=b.pct_bias) == b
        np.testing.assert_allclose([a.mean, a.sd], [b.mean, b.sd], rtol=1e-12)
        np.testing.assert_allclose(a.pct_bias, b.pct_bias, rtol=1e-9)


def _recorded_replicates(monkeypatch, populations, kwargs):
    """Reports of one harness run; per replicate, the count rows, plug-in
    curves and refit it evaluated, row 0 its test curve and rows 1.. its
    bootstrap replicates; and the rows of every bootstrap group drawn."""
    plugin, refit, draw = inference._plugin_rows, sim.pava_rows, inference._bootstrap_group
    rows = {name: [] for name in ("case", "control", "p", "r", "fit")}
    groups = []

    def record_plugin(case, control, rho, laplace):
        p, r = plugin(case, control, rho, laplace)
        for name, block in (("case", case), ("control", control), ("p", p), ("r", r)):
            rows[name].extend(block.copy())
        return p, r

    def record_refit(risks, weights):
        rows["fit"].extend(refit(risks, weights).copy())
        return risks

    def record_draw(case, control, rng, n_rows, lead):
        groups.append(n_rows)
        return draw(case, control, rng, n_rows, lead)

    with monkeypatch.context() as patch:
        patch.setattr(inference, "_plugin_rows", record_plugin)
        patch.setattr(inference, "_bootstrap_group", record_draw)
        patch.setattr(sim, "pava_rows", record_refit)
        reports = sim.run_bias_coverage(populations, **kwargs)
    n = kwargs["n_bootstrap"] + 1
    joined = [
        {name: np.array(kind[i:i + n]) for name, kind in rows.items() if kind}
        for i in range(0, len(rows["case"]), n)
    ]
    return reports, joined, groups


def test_harness_matches_the_parent_replicate_draws(monkeypatch):
    # a replicate keeps the order positions its test sample observed and
    # the last one; the reference keeps the whole grid, whose dropped
    # columns are 0 in every row, so only the index sums regroup; groups
    # of one row, of seven and the default draw the reference's rows
    populations = [sim.preset("sim1_h005"), sim.preset("sim2_rr6")]
    base = dict(n_replicates=10, n_cases=300, n_controls=150, seed=23, n_bootstrap=40, workers=1)
    runs = [
        (size, dict(base, **extra))
        for size in (1, 7, None)
        for extra in (
            dict(), dict(isotonic=True), dict(indices=INDEX_TOKENS, band=(0.8, 1.0), isotonic=True)
        )
    ]
    for size, kwargs in runs:
        isotonic = kwargs.get("isotonic", False)
        with monkeypatch.context() as patch:
            _group_rows(patch, size)
            reports, rows, groups = _recorded_replicates(monkeypatch, populations, kwargs)
            refs = [
                replicate_rows_reference(sim.build_population(pop), 300, 150, isotonic, 40, 23, m, k)
                for m, pop in enumerate(populations)
                for k in range(10)
            ]
            sizes = []
            for ref in refs:
                keep = ref[0][0] + ref[1][0] > 0
                keep[-1] = True
                sizes += [n for _, n in conftest.group_sizes(40, int(keep.sum()))]
        assert groups == sizes
        assert len(rows) == len(refs)
        for got, (case_b, ctrl_b, p, r, fit) in zip(rows, refs):
            keep = case_b[0] + ctrl_b[0] > 0
            keep[-1] = True
            assert keep.sum() < keep.size
            for name, full in (("case", case_b), ("control", ctrl_b), ("p", p), ("r", r), ("fit", fit)):
                if full is None:
                    assert name not in got
                    continue
                assert np.array_equal(got[name], full[:, keep])
                assert not full[:, ~keep].any()

        with monkeypatch.context() as patch:
            _group_rows(patch, size)
            patch.setattr(sim, "_replicate_chunk", replicate_chunk_reference)
            want = sim.run_bias_coverage(populations, **kwargs)
        for a, b in zip(reports, want, strict=True):
            assert (a.model, a.index_name, a.true_value, a.pct_coverage, a.n_replicates) == (
                b.model, b.index_name, b.true_value, b.pct_coverage, b.n_replicates
            )
            np.testing.assert_allclose([a.mean, a.sd, a.pct_bias], [b.mean, b.sd, b.pct_bias], rtol=1e-12)


_HARNESS_INPUTS = pytest.mark.parametrize(
    "kwargs",
    [dict(), dict(isotonic=True), dict(indices=INDEX_TOKENS, band=(0.8, 1.0), isotonic=True)],
    ids=["plain", "isotonic", "band"],
)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("size", [1, 7, None], ids=["1-row", "7-row", "default"])
@_HARNESS_INPUTS
def test_block_wise_harness_equals_the_one_stack_harness(monkeypatch, kwargs, size, workers):
    # the harness evaluates a replicate group by group; the reference draws
    # the same groups and evaluates the whole stack at once
    populations = [sim.preset("sim1_h005"), sim.preset("sim2_rr6")]
    kwargs = dict(kwargs, n_replicates=6, n_cases=300, n_controls=150, seed=29, n_bootstrap=40)
    _group_rows(monkeypatch, size)
    with monkeypatch.context() as patch:
        one_stack = functools.partial(replicate_chunk_reference, observed=True)
        patch.setattr(sim, "_replicate_chunk", one_stack)
        want = sim.run_bias_coverage(populations, workers=1, **kwargs)
    got = sim.run_bias_coverage(populations, workers=workers, **kwargs)
    _assert_same_reports(got, want, kwargs.get("isotonic", False))


@pytest.mark.parametrize("block_cells", [1, 7 * 81, 1 << 16], ids=["1-row", "7-row", "one"])
@_HARNESS_INPUTS
def test_harness_equals_the_former_block_loop_on_its_group_stream(kwargs, block_cells):
    # B = 40 bootstrap rows of at most 81 genotypes fit one group, whose
    # stream the former block loop draws its case rows, then its control
    # rows, from; at any block size it must give the harness's values and
    # coverage bits, U and U_std to rounding where the harness takes them
    # from the integer kernel
    tokens = kwargs.get("indices", _DEFAULT_TOKENS)
    band, isotonic = kwargs.get("band"), kwargs.get("isotonic", False)
    for m, name in enumerate(("sim1_h005", "sim2_rr6")):
        population = sim.build_population(sim.preset(name))
        args = (population, tokens, band, 300, 150, isotonic, 40, 0.95,
                sim._true_values(population, tokens, band), 31, m, 0, 12)
        values, covered = sim._replicate_chunk(*args)
        want_values, want_covered = replicate_chunk_blocks_reference(
            *args, stream=lambda seed, m, k: [seed, m, k, 2, 0], block_cells=block_cells
        )
        assert np.array_equal(covered, want_covered)
        for t, token in enumerate(tokens):
            if isotonic or token not in ("u", "ustd"):
                assert np.array_equal(values[:, t], want_values[:, t]), token
            else:
                np.testing.assert_allclose(values[:, t], want_values[:, t], rtol=1e-13)


@pytest.mark.parametrize(
    "seed, finite_counts, coverage",
    [(301, [14, 20, 16, 20, 0], 60.0), (3, [19, 11, 15, 15, 17], 100.0)],
)
def test_row_wise_coverage_equals_the_per_token_intervals_with_non_finite_replicates(
    monkeypatch, seed, finite_counts, coverage
):
    # a band of the top 1% of mass on 20 + 20 subjects: many bootstrap
    # curves have no mass there, so U_partial_std is NaN; the finite
    # replicates alone give the interval, and a replicate with none is
    # not covered
    kwargs = dict(indices=("u", "upartialstd"), band=(0.99, 1.0), n_replicates=5, n_cases=20,
                  n_controls=20, n_bootstrap=20, seed=seed)
    with monkeypatch.context() as patch:
        patch.setattr(sim, "_replicate_chunk", functools.partial(replicate_chunk_reference,
                                                                 observed=True))
        want = sim.run_bias_coverage([sim.preset("smoke")], **kwargs)
    finite = []
    bounds = sim._coverage_bounds

    def recorded(reps, level):
        finite.extend(np.isfinite(reps).sum(axis=1).tolist())
        return bounds(reps, level)

    monkeypatch.setattr(sim, "_coverage_bounds", recorded)
    got = sim.run_bias_coverage([sim.preset("smoke")], **kwargs)
    _assert_same_reports(got, want, isotonic=False)
    # replicate by replicate, the finite bootstrap values of U and U_partial_std
    assert finite == [n for count in finite_counts for n in (20, count)]
    assert got[1].pct_coverage == coverage
    assert np.isnan(got[1].mean) == (seed == 301)


def _harness_peak_bytes(population, n_bootstrap) -> int:
    tracemalloc.start()
    try:
        sim.run_bias_coverage(
            [population], n_replicates=1, n_cases=2000, n_controls=2000, isotonic=True,
            n_bootstrap=n_bootstrap, seed=5, workers=1,
        )
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_harness_memory_is_flat_in_the_bootstrap_count():
    # nine additive loci, 19,683 genotypes: a 4,000-subject test sample
    # observes thousands, so a replicate draws 8-row groups, and its peak
    # must not grow with B; drawing all B case rows at once, as the block
    # loop did, would add 1,200 rows of G_e cells, 8 bytes each: 20 MiB
    mafs = (0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.5, 0.35, 0.45)
    rrs = (1.3, 1.25, 1.2, 1.15, 1.1, 1.3, 1.2, 1.3, 1.1)
    snps = [sim.SnpSpec(maf, rr=rr) for maf, rr in zip(mafs, rrs)]
    population = sim.build_population(sim.penetrance_model(snps, target_rho=0.05))
    rng = np.random.default_rng([5, 0, 0, 1])
    observed = np.count_nonzero(
        rng.multinomial(2000, population.cond_case) + rng.multinomial(2000, population.cond_control)
    )
    assert inference._GROUP_CELLS // observed <= inference._GROUP
    _harness_peak_bytes(population, 2)  # first-call set-up stays out of the comparison
    small, large = (_harness_peak_bytes(population, b) for b in (400, 1600))
    assert abs(large - small) <= 2**20, (small, large, observed)


def test_zero_categories_before_the_last_consume_no_multinomial_draw():
    # the harness drops zero-mass order positions before drawing its
    # bootstrap rows and keeps the last position, zero or not
    gen = np.random.default_rng(2026)
    for case in range(300):
        n_cats = int(gen.integers(2, 30))
        counts = gen.integers(0, 6, n_cats) * (gen.random(n_cats) < 0.5)
        counts[n_cats - int(gen.integers(0, 4)):] = 0
        counts[int(gen.integers(0, n_cats))] += 1
        keep = counts > 0
        keep[-1] = True
        kept = counts[keep]
        full_rng = np.random.default_rng([case, 2])
        kept_rng = np.random.default_rng([case, 2])
        full = full_rng.multinomial(counts.sum(), counts / counts.sum(), size=5)
        drawn = kept_rng.multinomial(kept.sum(), kept / kept.sum(), size=5)
        assert np.array_equal(drawn, full[:, keep])
        assert not full[:, ~keep].any()
        assert kept_rng.bit_generator.state == full_rng.bit_generator.state


@pytest.mark.filterwarnings("ignore:dropping")
def test_trained_order_shrinks_on_fresh_data():
    """Test-sample curves in the trained order score below the train curve.

    Training data overstates its own ordering; scoring an independent
    sample in that fixed order gives up the optimistic part.
    """
    pop = sim.build_population(sim.preset("smoke"))
    rng = np.random.default_rng([2026, 61])
    train_u, test_u = [], []
    for _ in range(200):
        train = sim.sample_case_control(pop, 300, 300, rng)
        test = sim.sample_case_control(pop, 300, 300, rng)
        table = estimate_risk_table(train)
        curve = apply_model_to_test(table.genotypes, test)
        train_u.append(float(u_statistic(table.p, table.r)))
        test_u.append(float(u_statistic(curve.p, curve.r)))
    assert np.mean(test_u) < np.mean(train_u)


def test_eval_report_serialization():
    report = sim.EvalReport(
        model="m", index_name="U", true_value=0.1, mean=0.11, sd=0.01,
        pct_bias=10.0, pct_coverage=95.0, n_replicates=3,
    )
    doc = report.to_dict()
    assert doc["index"] == "U"
    assert doc["model"] == "m"
    assert set(doc) == {
        "model", "index", "true_value", "mean", "sd",
        "pct_bias", "pct_coverage", "n_replicates",
    }
