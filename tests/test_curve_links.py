import numpy as np
import pytest

from predictu.curve_links import (
    check_lorenz_identity,
    check_roc_identity,
    implied_conditionals,
    lorenz_from_table,
    roc_from_table,
)
from predictu.errors import NumericError
from predictu.risk_model import CaseControlCounts, apply_model_to_test, build_risk_table
from predictu.summary_indices import predictiveness_u

from conftest import random_sorted_table


def rank_auc_oracle(a, b):
    """Tie-corrected two-sample AUC: P(case ranked above control) + 0.5 ties.

    Genotypes are ranked by table position (ascending risk); a and b are
    the genotype distributions among cases and controls.
    """
    total = 0.0
    for i in range(len(a)):
        for j in range(len(b)):
            if i > j:
                total += a[i] * b[j]
            elif i == j:
                total += 0.5 * a[i] * b[j]
    return total


def test_uninformative_table_gives_diagonal_curves():
    cond = np.array([0.5, 0.3, 0.2])
    table = build_risk_table(cond, cond, rho=0.2)
    assert roc_from_table(table).auc == pytest.approx(0.5, abs=1e-12)
    assert lorenz_from_table(table).auc == pytest.approx(0.5, abs=1e-12)
    check = check_roc_identity(table)
    assert check.u == pytest.approx(0.0, abs=1e-14)
    assert check.residual <= 1e-14


def test_perfect_predictor_auc_extremes():
    table = build_risk_table([0.0, 1.0], [1.0, 0.0], rho=0.5)
    assert roc_from_table(table).auc == pytest.approx(1.0, abs=1e-12)
    # h(q) = 0 on [0, 0.5], then linear up to 1: area 0.25
    assert lorenz_from_table(table).auc == pytest.approx(0.25, abs=1e-12)


def test_three_genotype_roc_matches_rank_form(three_genotype_table):
    roc = roc_from_table(three_genotype_table)
    a, b, _ = implied_conditionals(three_genotype_table)
    assert roc.auc == pytest.approx(rank_auc_oracle(a, b), abs=1e-12)
    assert roc.auc == pytest.approx(1194.5 / 1659, abs=1e-12)


def test_three_genotype_lorenz_piecewise_oracle(three_genotype_table):
    # h accumulates p*r/rho: heights (50/210, 110/210, 210/210) at
    # q = (0.5, 0.8, 1.0); trapezoid area = 685/2100
    lorenz = lorenz_from_table(three_genotype_table)
    np.testing.assert_allclose(lorenz.h[-1], 1.0, atol=1e-12)
    assert lorenz.auc == pytest.approx(685 / 2100, abs=1e-12)
    chained = (1 - 0.21) * (1 - 1194.5 / 1659) + 0.21 / 2
    assert lorenz.auc == pytest.approx(chained, abs=1e-12)


def test_identities_on_random_tables():
    rng = np.random.default_rng(301)
    for _ in range(200):
        table = random_sorted_table(rng)
        assert check_roc_identity(table).residual <= 1e-10
        assert check_lorenz_identity(table).residual <= 1e-10
        # dual form: U = 4 rho (1-rho) dAUC_R = 4 rho dAUC_L
        u = predictiveness_u(table).value
        rho = table.rho
        d_roc = roc_from_table(table).auc - 0.5
        d_lorenz = 0.5 - lorenz_from_table(table).auc
        assert u == pytest.approx(4 * rho * (1 - rho) * d_roc, abs=1e-10)
        assert u == pytest.approx(4 * rho * d_lorenz, abs=1e-10)


def test_chained_auc_identity_on_random_tables():
    rng = np.random.default_rng(302)
    for _ in range(200):
        table = random_sorted_table(rng)
        auc_r = roc_from_table(table).auc
        auc_l = lorenz_from_table(table).auc
        assert auc_l == pytest.approx((1 - table.rho) * (1 - auc_r) + table.rho / 2, abs=1e-10)


def test_roc_points_are_valid_curve():
    rng = np.random.default_rng(303)
    for _ in range(50):
        table = random_sorted_table(rng)
        roc = roc_from_table(table)
        assert roc.t[0] == 0.0 and roc.f[0] == 0.0
        assert roc.t[-1] == pytest.approx(1.0, abs=1e-12)
        assert roc.f[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(roc.t) >= -1e-12)
        assert np.all(np.diff(roc.f) >= -1e-12)


def test_lorenz_convex_for_sorted_tables():
    rng = np.random.default_rng(304)
    for _ in range(50):
        table = random_sorted_table(rng)
        lorenz = lorenz_from_table(table)
        slopes = np.diff(lorenz.h) / np.diff(lorenz.q)
        assert np.all(np.diff(slopes) >= -1e-9)
        assert lorenz.h[-1] == pytest.approx(1.0, abs=1e-9)


def test_nonmonotone_curve_reports_instead_of_raising():
    order = tuple(f"g{i}" for i in range(3))
    counts = CaseControlCounts(
        genotypes=order,
        n_case=np.array([2, 12, 6]),
        n_control=np.array([38, 20, 22]),
        rho=0.25,
    )
    curve = apply_model_to_test(order, counts)
    assert not curve.monotone
    check = check_roc_identity(curve)
    assert not check.monotone
    assert np.isfinite(check.residual)


def test_implied_conditionals_are_distributions(three_genotype_table):
    a, b, _ = implied_conditionals(three_genotype_table)
    assert a.sum() == pytest.approx(1.0, abs=1e-12)
    assert b.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(
        a, three_genotype_table.p * three_genotype_table.r / 0.21, atol=1e-12
    )


def test_implied_conditionals_reject_degenerate_prevalence():
    table = build_risk_table([0.3, 0.7], [0.6, 0.4], rho=5e-13)
    with pytest.raises(NumericError):
        implied_conditionals(table)
