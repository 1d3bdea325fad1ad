"""Tests for population models, sampling, and the bias/coverage harness."""

import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from predictu import NumericError, ValidationError
from predictu import inference, parallel
from predictu import simulate as sim
from predictu.risk_model import (
    GenotypeId,
    apply_model_to_test,
    build_risk_table,
    estimate_risk_table,
)
from predictu.summary_indices import (
    INDEX_TOKENS,
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
    replicate_chunk_reference,
    replicate_rows_reference,
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
        genotypes=tuple(GenotypeId(i, g) for i, g in enumerate(model.genotype_labels)),
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
    models = sim.simulation_presets()
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
    for model in sim.simulation_presets():
        want = penetrance_model_reference(model.snps, model.target_rho, model.interactions)
        want = want.penetrance if model.target_h2 is None else (
            calibrated_penetrance_reference(want, model.target_h2)
        )
        assert model.penetrance.tobytes() == want.tobytes(), model.name


def test_bisections_match_the_200_step_versions_on_random_models():
    rng = np.random.default_rng(17)
    modes = list(sim.Mode)
    clipped = calibrated = 0
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
        for scale in (0.0, 1e-300, 1e-9, float(rng.uniform(0.0, 3.0)), 50.0):
            got = sim._recentred(model.penetrance, probs, target_rho, scale)
            want = recentred_reference(model.penetrance, probs, target_rho, scale)
            assert got.tobytes() == want.tobytes(), (snps, target_rho, scale)

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
    # clipping binds in some models, and most targets are reachable
    assert 0 < clipped < 30
    assert calibrated >= 8


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


def _recorded_replicates(monkeypatch, populations, kwargs):
    """Reports of one harness run and, per replicate, the bootstrap rows,
    plug-in curves and refit it worked on."""
    group, plugin, refit = inference._bootstrap_group, sim._plugin_rows, sim.pava_rows
    rows = []

    def record_group(*args):
        out = group(*args)
        rows.append({"boot": out})
        return out

    def record_plugin(case, control, rho):
        p, r = plugin(case, control, rho)
        if np.ndim(case) == 2:
            rows[-1].update(p=p.copy(), r=r.copy())
        return p, r

    def record_refit(risks, weights):
        rows[-1]["fit"] = refit(risks, weights).copy()
        return risks

    with monkeypatch.context() as patch:
        patch.setattr(inference, "_bootstrap_group", record_group)
        patch.setattr(sim, "_plugin_rows", record_plugin)
        patch.setattr(sim, "pava_rows", record_refit)
        reports = sim.run_bias_coverage(populations, **kwargs)
    return reports, rows


def test_harness_matches_the_parent_replicate_draws(monkeypatch):
    # a replicate keeps the order positions its test sample observed and
    # the last one; the reference keeps the whole grid, whose dropped
    # columns are 0 in every row, so only the index sums regroup
    populations = [sim.preset("sim1_h005"), sim.preset("sim2_rr6")]
    base = dict(n_replicates=10, n_cases=300, n_controls=150, seed=23, n_bootstrap=40, workers=1)
    runs = [
        dict(base),
        dict(base, isotonic=True),
        dict(base, indices=INDEX_TOKENS, band=(0.8, 1.0), isotonic=True),
    ]
    for kwargs in runs:
        reports, rows = _recorded_replicates(monkeypatch, populations, kwargs)
        refs = [
            replicate_rows_reference(
                sim.build_population(pop), 300, 150, kwargs.get("isotonic", False), 40, 23, m, k
            )
            for m, pop in enumerate(populations)
            for k in range(10)
        ]
        assert len(rows) == len(refs)
        for got, (case_b, ctrl_b, p, r, fit) in zip(rows, refs):
            keep = case_b[0] + ctrl_b[0] > 0
            keep[-1] = True
            assert keep.sum() < keep.size
            for drawn, full in zip(got["boot"], (case_b[1:], ctrl_b[1:])):
                assert np.array_equal(drawn, full[:, keep])
                assert not full[:, ~keep].any()
            for name, full in (("p", p), ("r", r), ("fit", fit)):
                if full is None:
                    assert name not in got
                    continue
                assert np.array_equal(got[name], full[:, keep])
                assert not full[:, ~keep].any()

        with monkeypatch.context() as patch:
            patch.setattr(sim, "_replicate_chunk", replicate_chunk_reference)
            want = sim.run_bias_coverage(populations, **kwargs)
        for a, b in zip(reports, want, strict=True):
            assert (a.model, a.index_name, a.true_value, a.pct_coverage, a.n_replicates) == (
                b.model, b.index_name, b.true_value, b.pct_coverage, b.n_replicates
            )
            np.testing.assert_allclose([a.mean, a.sd, a.pct_bias], [b.mean, b.sd, b.pct_bias], rtol=1e-12)


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
