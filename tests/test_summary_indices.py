import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from predictu.errors import NumericError, ValidationError
from predictu.risk_model import RiskTable, build_risk_table
from predictu.summary_indices import (
    INDEX_TOKENS,
    _index_results,
    _xlogx,
    average_entropy,
    binary_entropy,
    clipped_band_masses,
    partial_u,
    predictiveness_u,
    predictiveness_u_std,
    r_square,
    total_gain,
    u_statistic,
)

from conftest import brute_force_u, index_results_reference, random_sorted_table


def constant_risk_table(rho=0.3):
    cond = np.array([0.6, 0.4])
    return build_risk_table(cond, cond, rho=rho)


def perfect_predictor_table(rho=0.21):
    # cases all in one genotype, controls all in the other
    return build_risk_table([0.0, 1.0], [1.0, 0.0], rho=rho)


def binary_entropy_oracle(x):
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log(x) - (1 - x) * math.log(1 - x)


def test_u_constant_risk_is_zero():
    assert predictiveness_u(constant_risk_table()).value == pytest.approx(0.0, abs=1e-15)


def test_u_perfect_predictor_hits_maximum():
    rho = 0.21
    result = predictiveness_u(perfect_predictor_table(rho))
    assert result.value == pytest.approx(2 * rho * (1 - rho), abs=1e-12)


def test_u_hand_example(three_genotype_table):
    # 2(0.3*0.5*0.1 + 0.2*0.5*0.4 + 0.2*0.3*0.3) = 0.146
    result = predictiveness_u(three_genotype_table)
    assert result.value == pytest.approx(0.146, abs=1e-12)
    assert result.name == "U"
    assert not result.standardized


def test_u_std_trivials_and_hand_example(three_genotype_table):
    assert predictiveness_u_std(perfect_predictor_table()).value == pytest.approx(1.0, abs=1e-12)
    assert predictiveness_u_std(constant_risk_table()).value == pytest.approx(0.0, abs=1e-15)
    result = predictiveness_u_std(three_genotype_table)
    assert result.value == pytest.approx(0.146 / (2 * 0.21 * 0.79), abs=1e-12)
    assert result.value == pytest.approx(0.4400, abs=5e-5)


def test_u_std_rejects_degenerate_prevalence():
    table = build_risk_table([0.3, 0.7], [0.6, 0.4], rho=5e-13)
    with pytest.raises(NumericError):
        predictiveness_u_std(table)


def test_partial_full_band_equals_global():
    rng = np.random.default_rng(201)
    for _ in range(100):
        table = random_sorted_table(rng)
        full = partial_u(table, 0.0, 1.0)
        assert full.value == pytest.approx(predictiveness_u(table).value, abs=1e-12)


def test_partial_band_inside_one_genotype_is_zero(three_genotype_table):
    # (0.9, 1.0) lies inside the third genotype's step: constant risk 0.5
    result = partial_u(three_genotype_table, 0.9, 1.0)
    assert result.value == pytest.approx(0.0, abs=1e-15)
    assert result.rho_pt == pytest.approx(0.1 * 0.5, abs=1e-12)


def test_partial_matches_clipped_mass_brute_force():
    rng = np.random.default_rng(202)
    for _ in range(200):
        table = random_sorted_table(rng, max_genotypes=8)
        q0 = float(rng.uniform(0.0, 0.9))
        q1 = float(rng.uniform(q0 + 0.05, 1.0))
        masses = clipped_band_masses(table.p, q0, q1)
        expected = brute_force_u(masses, table.r)
        assert partial_u(table, q0, q1).value == pytest.approx(expected, abs=1e-12)


def test_partial_reports_both_rho_conventions(three_genotype_table):
    by_mass = partial_u(three_genotype_table, 0.5, 1.0)
    # band (0.5, 1.0): masses (0.3, 0.2), risks (0.2, 0.5)
    assert by_mass.rho_pt == pytest.approx(0.3 * 0.2 + 0.2 * 0.5, abs=1e-12)
    assert any("rho_pt[mean]" in note for note in by_mass.notes)
    (mean,) = [n.split("=")[1] for n in by_mass.notes if n.startswith("rho_pt[mean]=")]
    assert float(mean) == pytest.approx((0.3 * 0.2 + 0.2 * 0.5) / 0.5, abs=1e-12)


def test_partial_rejects_bad_band(three_genotype_table):
    with pytest.raises(ValidationError):
        partial_u(three_genotype_table, 0.8, 0.2)
    with pytest.raises(ValidationError):
        partial_u(three_genotype_table, -0.1, 0.5)


def test_r_square_trivials_and_hand_example(three_genotype_table):
    assert r_square(constant_risk_table()).value == pytest.approx(0.0, abs=1e-15)
    rho = 0.21
    assert r_square(perfect_predictor_table(rho)).value == pytest.approx(rho * (1 - rho), abs=1e-12)
    # 0.5*0.11^2 + 0.3*0.01^2 + 0.2*0.29^2 = 0.022900
    assert r_square(three_genotype_table).value == pytest.approx(0.0229, abs=1e-12)
    standardized = r_square(three_genotype_table, standardized=True)
    assert standardized.value == pytest.approx(0.0229 / (0.21 * 0.79), abs=1e-12)


def test_total_gain_trivials_and_hand_example(three_genotype_table):
    assert total_gain(constant_risk_table()).value == pytest.approx(0.0, abs=1e-15)
    rho = 0.21
    assert total_gain(perfect_predictor_table(rho)).value == pytest.approx(2 * rho * (1 - rho), abs=1e-12)
    # 0.5*0.11 + 0.3*0.01 + 0.2*0.29 = 0.116
    assert total_gain(three_genotype_table).value == pytest.approx(0.116, abs=1e-12)


def test_binary_entropy_matches_math_log_within_2_ulp():
    rng = np.random.default_rng(23)
    x = np.concatenate([
        rng.random(20_000),
        rng.random(200) * 1e-300,
        1.0 - rng.random(200) * 1e-12,
        [0.5, 5e-324, 1e-320],
    ])
    got = binary_entropy(x)
    want = np.array([binary_entropy_oracle(float(v)) for v in x])
    assert np.all(np.abs(got - want) <= 2 * np.spacing(want))


def test_binary_entropy_edges_are_exact_and_silent():
    with np.errstate(all="raise"):
        assert binary_entropy(0.0) == 0.0 and binary_entropy(1.0) == 0.0
        assert np.array_equal(binary_entropy(np.array([[0.0, 1.0], [1.0, 0.0]])), np.zeros((2, 2)))
        # NaN in, NaN out, and a negative x ln x is NaN too
        for bad in (np.nan, -0.5, 1.5):
            assert math.isnan(binary_entropy(bad))
        out = binary_entropy(np.array([0.2, np.nan, -1.0, 0.7]))
    assert np.array_equal(np.isnan(out), [False, True, True, False])
    assert out[0] == binary_entropy(0.2) and out[3] == binary_entropy(0.7)


def xlogx_masked_reference(x):
    """Former ``_xlogx``: the log taken only where x != 0, into zeros."""
    with np.errstate(invalid="ignore"):
        out = np.log(x, out=np.zeros_like(x), where=x != 0)
    out *= x
    return out


def test_xlogx_equals_the_masked_log_bit_for_bit():
    # ln 1 = 0 in place of the mask: the same bits, signed zeros and NaN too
    rng = np.random.default_rng(24)
    x = rng.random((201, 64))
    x[rng.random(x.shape) < 0.3] = 0.0
    x[0, :10] = [-0.0, 1.0, -0.5, np.nan, np.inf, 5e-324, 1e-300, 1.0 - 1e-16, 2.0, -np.inf]
    for values in (x, x[:, ::3], x.T, x[5, 7], 0.0, -0.0):
        values = np.asarray(values)
        got, want = _xlogx(values), xlogx_masked_reference(values)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_binary_entropy_holds_three_stacks_at_once():
    # the (B + 1, G) harness stacks: three float stacks and one mask are
    # live at the peak
    x = np.random.default_rng(4).random((201, 2000))
    binary_entropy(x[:2])
    tracemalloc.start()
    try:
        binary_entropy(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * x.nbytes, peak / x.nbytes


def test_average_entropy_trivials_and_hand_example(three_genotype_table):
    assert average_entropy(constant_risk_table()).value == pytest.approx(0.0, abs=1e-15)
    rho = 0.21
    assert average_entropy(perfect_predictor_table(rho)).value == pytest.approx(
        binary_entropy_oracle(rho), abs=1e-12
    )
    expected = binary_entropy_oracle(0.21) - (
        0.5 * binary_entropy_oracle(0.1)
        + 0.3 * binary_entropy_oracle(0.2)
        + 0.2 * binary_entropy_oracle(0.5)
    )
    assert average_entropy(three_genotype_table).value == pytest.approx(expected, abs=1e-12)


def test_indices_invariant_under_mass_splitting():
    rng = np.random.default_rng(203)
    for _ in range(100):
        table = random_sorted_table(rng, max_genotypes=6)
        k = int(rng.integers(0, table.n_genotypes))
        frac = float(rng.uniform(0.2, 0.8))
        p = np.concatenate([table.p[:k], [table.p[k] * frac, table.p[k] * (1 - frac)], table.p[k + 1:]])
        r = np.concatenate([table.r[:k], [table.r[k], table.r[k]], table.r[k + 1:]])
        split = build_risk_table(p * r / table.rho, p * (1 - r) / (1 - table.rho), table.rho)
        for index in (predictiveness_u, r_square, total_gain, average_entropy):
            assert index(split).value == pytest.approx(index(table).value, abs=1e-12)


def test_u_antisymmetric_under_order_reversal():
    rng = np.random.default_rng(204)
    for _ in range(100):
        table = random_sorted_table(rng, max_genotypes=8)
        forward = float(u_statistic(table.p, table.r))
        backward = float(u_statistic(table.p[::-1], table.r[::-1]))
        assert backward == pytest.approx(-forward, abs=1e-14)


def test_u_range_bounds_on_monotone_curves():
    rng = np.random.default_rng(205)
    for _ in range(200):
        table = random_sorted_table(rng)
        bound = 2 * table.rho * (1 - table.rho)
        u = predictiveness_u(table).value
        assert -bound - 1e-12 <= u <= bound + 1e-12
        u_std = predictiveness_u_std(table).value
        assert -1e-12 <= u_std <= 1.0 + 1e-12


def test_prefix_sum_matches_pairwise_brute_force():
    rng = np.random.default_rng(206)
    for _ in range(300):
        table = random_sorted_table(rng, max_genotypes=6)
        assert float(u_statistic(table.p, table.r)) == pytest.approx(
            brute_force_u(table.p, table.r), abs=1e-12
        )


def test_indices_accept_curve_points(three_genotype_table):
    # the rows in descending risk: U reads the stored order, TG does not
    t = three_genotype_table
    curve = RiskTable(genotypes=t.genotypes[::-1], p=t.p[::-1], r=t.r[::-1], rho=t.rho)
    assert not curve.monotone
    assert predictiveness_u(curve).value == pytest.approx(-0.146, abs=1e-12)
    assert total_gain(curve).value == pytest.approx(0.116, abs=1e-12)


def test_index_result_serialization(three_genotype_table):
    block = partial_u(three_genotype_table, 0.5, 1.0, standardized=True).to_dict()
    assert block["name"] == "U_partial_std"
    assert block["standardized"] is True
    assert block["band"] == [0.5, 1.0]
    assert set(block) == {"name", "value", "standardized", "band", "rho", "rho_pt", "notes"}


def _outcome(evaluate, x, tokens, band):
    try:
        return evaluate(x, tokens, band)
    except (NumericError, ValidationError) as exc:
        return type(exc), str(exc)


def _assert_matches_reference(got, want):
    """Field for field, but for two intended changes: a standardised R is
    named R_std, and U_partial_std is standardised by the row reduction
    of rho_pt, which may move its value in the last digits."""
    if isinstance(want, tuple):
        assert got == want
        return
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w.name == "R" and w.standardized:
            w = replace(w, name="R_std")
        if w.name == "U_partial_std":
            assert g.value == pytest.approx(w.value, rel=1e-14, abs=0.0)
            assert g.rho_pt == pytest.approx(w.rho_pt, rel=1e-14, abs=0.0)
            w = replace(w, value=g.value, rho_pt=g.rho_pt)
        assert g == w
        assert repr(g) == repr(w)  # float types and signed zeros too


def _shuffled(rng, tokens):
    return tuple(tokens[i] for i in rng.permutation(len(tokens)))


def _bands(rng, masses):
    """The full band, a random band and a band inside one step."""
    q0 = float(rng.uniform(0.0, 0.9))
    upper = np.cumsum(masses)
    k = int(rng.integers(masses.size))
    lower = upper[k] - masses[k]
    return [
        (0.0, 1.0),
        (q0, float(rng.uniform(q0 + 0.01, 1.0))),
        (float(lower + 0.25 * masses[k]), float(lower + 0.75 * masses[k])),
    ]


def test_one_evaluator_matches_the_scalar_reference():
    rng = np.random.default_rng(208)
    for _ in range(300):
        table = random_sorted_table(rng)
        perm = rng.permutation(table.n_genotypes)
        shuffled = RiskTable(
            genotypes=tuple(table.genotypes[i] for i in perm),
            p=table.p[perm], r=table.r[perm], rho=table.rho,
        )
        for x in (table, shuffled):
            for band in _bands(rng, x.p):
                tokens = _shuffled(rng, INDEX_TOKENS)
                want = index_results_reference(x, tokens, band)
                _assert_matches_reference(_index_results(x, tokens, band), want)


@pytest.mark.parametrize(
    "case, band",
    [
        ("degenerate_rho", (0.2, 0.6)),
        ("degenerate_rho_pt", (0.1, 0.3)),
        ("empty_band", (0.5, 0.5 + 1e-13)),
        ("missing_band", None),
        ("bad_band", (0.8, 0.2)),
        ("bad_band", (-0.1, 0.5)),
    ],
)
def test_one_evaluator_raises_as_the_scalar_reference(case, band):
    table = {
        "degenerate_rho": build_risk_table([0.3, 0.7], [0.6, 0.4], rho=5e-13),
        # the lowest genotype has risk 0 and mass 0.4
        "degenerate_rho_pt": build_risk_table([0.0, 0.5, 0.5], [0.5, 0.25, 0.25], rho=0.2),
    }.get(case, build_risk_table([0.2, 0.3, 0.5], [0.5, 0.3, 0.2], rho=0.2))
    rng = np.random.default_rng(209)
    orders = [(t,) for t in INDEX_TOKENS] + [_shuffled(rng, INDEX_TOKENS) for _ in range(20)]
    raised = 0
    for tokens in orders:
        want = _outcome(index_results_reference, table, tokens, band)
        _assert_matches_reference(_outcome(_index_results, table, tokens, band), want)
        raised += isinstance(want, tuple)
    assert raised > 0
