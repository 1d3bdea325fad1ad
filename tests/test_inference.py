import warnings

import numpy as np
import pytest

from predictu import simulate as sim
from predictu.errors import NumericError, ValidationError
from predictu.inference import (
    Method,
    ResamplePlan,
    UEstimate,
    asymptotic_ci,
    asymptotic_variance_u,
    bootstrap_ci,
    bootstrap_estimates,
    permutation_test,
    two_sample_u,
)
from predictu.risk_model import CaseControlCounts, build_risk_table, estimate_risk_table

from conftest import brute_force_u, pair_kernel


def random_counts(rng, max_genotypes=8, n_low=20, n_high=120):
    g = int(rng.integers(2, max_genotypes + 1))
    while True:
        n_case = rng.multinomial(int(rng.integers(n_low, n_high)), rng.dirichlet(np.ones(g)))
        n_control = rng.multinomial(int(rng.integers(n_low, n_high)), rng.dirichlet(np.ones(g)))
        if n_case.sum() >= 1 and n_control.sum() >= 1:
            return CaseControlCounts(
                genotypes=tuple(f"g{i}" for i in range(g)),
                n_case=n_case,
                n_control=n_control,
                rho=float(rng.uniform(0.05, 0.4)),
            )


def brute_projection_variance(counts, order):
    """O(n^2) per-subject variance oracle.

    Expands counts into individual subjects, averages the pair kernel
    over the opposite arm for each subject, and plugs the deviations
    around the two-sample mean into the projection formula.
    """
    pos = {g: k for k, g in enumerate(order)}
    case_pos = np.repeat([pos[g] for g in counts.genotypes], counts.n_case)
    ctrl_pos = np.repeat([pos[g] for g in counts.genotypes], counts.n_control)
    n_d, n_db = len(case_pos), len(ctrl_pos)
    phi = np.sign(case_pos[:, None] - ctrl_pos[None, :]).astype(float)
    theta = phi.mean()
    m_case = phi.mean(axis=1)
    m_ctrl = phi.mean(axis=0)
    rho = counts.rho
    scale = 4.0 * rho * rho * (1 - rho) * (1 - rho)
    return scale * (
        np.sum((m_case - theta) ** 2) / (n_d * (n_d - 1))
        + np.sum((m_ctrl - theta) ** 2) / (n_db * (n_db - 1))
    )


def test_pair_kernel_antisymmetric():
    phi = pair_kernel(5)
    np.testing.assert_array_equal(phi, -phi.T)
    np.testing.assert_array_equal(np.diag(phi), 0)


def test_two_sample_u_identical_distributions_is_zero():
    counts = CaseControlCounts(
        genotypes=tuple(f"g{i}" for i in range(3)),
        n_case=np.array([6, 3, 1]),
        n_control=np.array([12, 6, 2]),
        rho=0.2,
    )
    est = two_sample_u(counts, counts.genotypes)
    assert est.u_hat == pytest.approx(0.0, abs=1e-15)


def test_two_sample_u_hand_example(two_genotype_counts):
    # contraction: 2*0.1*0.9*(8*8 - 2*2)/100 = 0.108, order g2 < g1
    order = ("g2", "g1")
    est = two_sample_u(two_genotype_counts, order)
    assert est.u_hat == pytest.approx(0.108, abs=1e-12)
    table = estimate_risk_table(two_genotype_counts)
    plug_in = 2 * table.p[0] * table.p[1] * (table.r[1] - table.r[0])
    assert est.u_hat == pytest.approx(plug_in, abs=1e-12)


def test_two_sample_u_negates_under_order_reversal(two_genotype_counts):
    order = ("g2", "g1")
    forward = two_sample_u(two_genotype_counts, order).u_hat
    backward = two_sample_u(two_genotype_counts, order[::-1]).u_hat
    assert backward == pytest.approx(-forward, abs=1e-15)


def test_two_sample_u_matches_plug_in_pairwise_form():
    rng = np.random.default_rng(501)
    for _ in range(300):
        counts = random_counts(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            table = estimate_risk_table(counts)
        est = two_sample_u(counts, table.genotypes)
        assert est.u_hat == pytest.approx(brute_force_u(table.p, table.r), abs=1e-12)


def test_asymptotic_variance_zero_when_concentrated():
    counts = CaseControlCounts(
        genotypes=("g", "h"),
        n_case=np.array([10, 0]),
        n_control=np.array([10, 0]),
        rho=0.2,
    )
    assert asymptotic_variance_u(counts, counts.genotypes) == pytest.approx(0.0, abs=1e-15)


def test_asymptotic_variance_matches_subject_level_brute_force(two_genotype_counts):
    order = ("g2", "g1")
    fast = asymptotic_variance_u(two_genotype_counts, order)
    assert fast == pytest.approx(brute_projection_variance(two_genotype_counts, order), abs=1e-15)
    rng = np.random.default_rng(502)
    for _ in range(100):
        counts = random_counts(rng, max_genotypes=5, n_low=5, n_high=30)
        order = counts.genotypes
        assert asymptotic_variance_u(counts, order) == pytest.approx(
            brute_projection_variance(counts, order), abs=1e-12
        )


def test_asymptotic_variance_scales_inversely_with_n(two_genotype_counts):
    order = ("g2", "g1")
    var_1 = asymptotic_variance_u(two_genotype_counts, order)
    doubled = CaseControlCounts(
        genotypes=two_genotype_counts.genotypes,
        n_case=two_genotype_counts.n_case * 2,
        n_control=two_genotype_counts.n_control * 2,
        rho=two_genotype_counts.rho,
    )
    var_2 = asymptotic_variance_u(doubled, order)
    assert 0.4 <= var_2 / var_1 <= 0.6


def test_bootstrap_single_replicate_collapses():
    counts = CaseControlCounts(
        genotypes=tuple(f"g{i}" for i in range(2)),
        n_case=np.array([8, 2]),
        n_control=np.array([2, 8]),
        rho=0.1,
    )
    est = bootstrap_ci(counts, counts.genotypes, ResamplePlan(1, seed=9))
    assert est.ci.lower == pytest.approx(est.ci.upper, abs=1e-15)


def test_bootstrap_deterministic_replay(two_genotype_counts):
    order = two_genotype_counts.genotypes
    one = bootstrap_ci(two_genotype_counts, order, ResamplePlan(200, seed=42))
    two = bootstrap_ci(two_genotype_counts, order, ResamplePlan(200, seed=42))
    assert (one.ci.lower, one.ci.upper, one.variance) == (two.ci.lower, two.ci.upper, two.variance)
    other = bootstrap_ci(two_genotype_counts, order, ResamplePlan(200, seed=43))
    assert one.variance != other.variance


def test_partial_variance_full_band_matches_global_bootstrap(three_genotype_counts):
    table = estimate_risk_table(three_genotype_counts)
    plan = ResamplePlan(300, seed=11)
    full = bootstrap_estimates(
        three_genotype_counts, table.genotypes, plan, ("upartial",), (0.0, 1.0)
    )["upartial"]
    whole = bootstrap_ci(three_genotype_counts, table.genotypes, plan)
    assert full.ci.lower == pytest.approx(whole.ci.lower, abs=1e-12)
    assert full.ci.upper == pytest.approx(whole.ci.upper, abs=1e-12)
    assert full.variance == pytest.approx(whole.variance, abs=1e-12)


def test_bootstrap_coverage_on_two_genotype_model():
    # draws from the (0.8, 0.2) / (0.2, 0.8) population at rho = 0.1;
    # percentile intervals should cover population U about 95% of the time
    ref = build_risk_table([0.8, 0.2], [0.2, 0.8], rho=0.1)
    true_u = 2 * ref.p[0] * ref.p[1] * (ref.r[1] - ref.r[0])
    order = ("g1", "g0")
    rng = np.random.default_rng([2026, 5, 32])
    covered = 0
    for k in range(500):
        n_case = rng.multinomial(200, [0.8, 0.2])
        n_control = rng.multinomial(200, [0.2, 0.8])
        counts = CaseControlCounts(
            genotypes=tuple(f"g{i}" for i in range(2)),
            n_case=n_case, n_control=n_control, rho=0.1,
        )
        est = bootstrap_ci(counts, order, ResamplePlan(2000, seed=7000 + k))
        covered += est.ci.lower <= true_u <= est.ci.upper
    assert 0.91 <= covered / 500 <= 0.98


def test_bootstrap_and_asymptotic_half_widths_agree_at_large_n():
    population = sim.build_population(sim.preset("sim1_h005"))
    counts = sim.sample_case_control(
        population, 5000, 5000, np.random.default_rng([2026, 5, 99])
    )
    order = population.table.genotypes
    boot = bootstrap_ci(counts, order, ResamplePlan(2000, seed=3))
    asym = asymptotic_ci(two_sample_u(counts, order))
    half_boot = (boot.ci.upper - boot.ci.lower) / 2
    half_asym = (asym.ci.upper - asym.ci.lower) / 2
    assert abs(half_boot - half_asym) / half_asym <= 0.10


def test_asymptotic_ci_trivials(two_genotype_counts):
    order = ("g2", "g1")
    est = two_sample_u(two_genotype_counts, order)
    point = asymptotic_ci(est, level=0.0)
    assert point.ci.lower == point.ci.upper == est.u_hat
    degenerate = asymptotic_ci(
        two_sample_u(
            CaseControlCounts(
                genotypes=("g", "h"),
                n_case=np.array([10, 0]),
                n_control=np.array([10, 0]),
                rho=0.2,
            ),
            ("g", "h"),
        )
    )
    assert degenerate.ci.lower == degenerate.ci.upper
    with pytest.raises(ValidationError):
        asymptotic_ci(est, level=1.0)


def test_resample_plan_rejects_a_negative_seed():
    with pytest.raises(ValidationError, match="seed must be nonnegative, got -1"):
        ResamplePlan(10, seed=-1)


@pytest.mark.parametrize(
    "level, quantile",
    [
        (0.8, 1.2815515655446004),
        (0.9, 1.6448536269514722),
        (0.95, 1.959963984540054),
        (0.99, 2.5758293035489004),
    ],
)
def test_asymptotic_ci_quantile_stays_within_2_ulp(level, quantile):
    # the normal quantiles as scipy's ndtri(0.5 + level / 2) gave them
    est = UEstimate(u_hat=0.0, variance=1.0, method=Method.TWO_SAMPLE_ASYMPTOTIC)
    ci = asymptotic_ci(est, level).ci
    assert ci.lower == -ci.upper
    assert abs(ci.upper - quantile) <= 2 * np.spacing(quantile)


def test_permutation_separated_data_hits_minimum_p():
    counts = CaseControlCounts(
        genotypes=("lo", "hi"),
        n_case=np.array([0, 25]),
        n_control=np.array([25, 0]),
        rho=0.2,
    )
    plan = ResamplePlan(99, seed=5)
    p = permutation_test(counts, counts.genotypes, plan)
    assert p == pytest.approx(1.0 / 100.0, abs=1e-15)


def test_permutation_deterministic_replay(two_genotype_counts):
    plan = ResamplePlan(99, seed=6)
    p1 = permutation_test(two_genotype_counts, two_genotype_counts.genotypes, plan)
    p2 = permutation_test(two_genotype_counts, two_genotype_counts.genotypes, plan)
    assert p1 == p2


def test_estimate_serialization_round_trip(two_genotype_counts):
    est = bootstrap_ci(
        two_genotype_counts, two_genotype_counts.genotypes, ResamplePlan(50, seed=1)
    )
    block = est.to_dict()
    assert set(block) == {"u_hat", "variance", "ci", "method", "n_replicates", "n_finite", "seed"}
    assert block["ci"]["level"] == 0.95
    assert block["method"] == "bootstrap"
    assert block["n_replicates"] == block["n_finite"] == 50


def test_partial_counts_its_finite_replicates():
    # the band lies in g1, whose single case a replicate often leaves out:
    # then rho_pt = 0 and the standardised partial U is undefined
    counts = CaseControlCounts(
        genotypes=("g0", "g1"),
        n_case=np.array([30, 1]),
        n_control=np.array([30, 10]),
        rho=0.1,
    )
    plan = ResamplePlan(200, seed=4)
    est = bootstrap_estimates(counts, counts.genotypes, plan, ("upartialstd",), (0.9, 1.0))[
        "upartialstd"
    ]
    assert est.n_replicates == 200
    assert 0 < est.n_finite < 200
    assert est.to_dict()["n_finite"] == est.n_finite
    whole = bootstrap_ci(counts, counts.genotypes, plan)
    assert whole.n_finite == whole.n_replicates == 200
