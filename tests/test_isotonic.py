import itertools

import numpy as np
import pytest

from predictu import isotonic
from predictu.errors import ValidationError
from predictu.isotonic import pava, pava_rows
from predictu.risk_model import build_risk_table
from predictu.summary_indices import u_statistic

from conftest import pava_rows_2d_reference, pava_stack, refit_rows_one_by_one


def brute_force_isotonic(y, w):
    """Minimize sum w (y - f)^2 over nondecreasing f by enumerating all
    contiguous block partitions; the optimum is blockwise weighted means
    with nondecreasing values."""
    n = len(y)
    best = None
    best_sse = np.inf
    for cuts in itertools.product([0, 1], repeat=n - 1):
        bounds = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [n]
        fit = np.empty(n)
        means = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            mean = np.average(y[lo:hi], weights=w[lo:hi])
            means.append(mean)
            fit[lo:hi] = mean
        if any(b < a - 1e-12 for a, b in zip(means, means[1:])):
            continue
        sse = float(np.sum(w * (y - fit) ** 2))
        if sse < best_sse - 1e-15:
            best_sse = sse
            best = fit
    return best


def runs(fitted):
    """The runs of equal values in ``fitted``, as slices: PAVA's pooled blocks."""
    starts = [0, *(np.flatnonzero(np.diff(fitted) != 0) + 1), fitted.size]
    return [slice(int(a), int(b)) for a, b in zip(starts, starts[1:])]


def test_monotone_input_returned_unchanged():
    y = np.array([0.1, 0.2, 0.2, 0.7])
    w = np.array([1.0, 2.0, 1.0, 0.5])
    np.testing.assert_allclose(pava(y, w).fitted, y, atol=1e-15)


def test_symmetric_pair_pools_to_mean():
    w = np.array([1.0, 1.0])
    fit = pava(np.array([3.0, 1.0]), w)
    np.testing.assert_allclose(fit.fitted, [2.0, 2.0], atol=1e-15)
    (run,) = runs(fit.fitted)
    assert w[run].sum() == pytest.approx(2.0)


def test_four_point_hand_example():
    y = np.array([0.1, 0.5, 0.3, 0.9])
    w = np.full(4, 0.25)
    fit = pava(y, w)
    np.testing.assert_allclose(fit.fitted, [0.1, 0.4, 0.4, 0.9], atol=1e-12)
    np.testing.assert_allclose(brute_force_isotonic(y, w), fit.fitted, atol=1e-12)


def test_matches_partition_brute_force():
    rng = np.random.default_rng(401)
    for _ in range(300):
        n = int(rng.integers(2, 7))
        y = rng.uniform(0, 1, n)
        w = rng.uniform(0.1, 2.0, n)
        fit = pava(y, w).fitted
        np.testing.assert_allclose(fit, brute_force_isotonic(y, w), atol=1e-12)


def test_idempotent_and_mean_preserving():
    rng = np.random.default_rng(402)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        y = rng.uniform(0, 1, n)
        w = rng.uniform(0.1, 2.0, n)
        fit = pava(y, w)
        again = pava(fit.fitted, w)
        np.testing.assert_allclose(again.fitted, fit.fitted, atol=1e-14)
        assert float(w @ fit.fitted) == pytest.approx(float(w @ y), abs=1e-12)


def test_block_characterization():
    rng = np.random.default_rng(403)
    for _ in range(100):
        n = int(rng.integers(2, 10))
        y = rng.uniform(0, 1, n)
        w = rng.uniform(0.1, 2.0, n)
        fit = pava(y, w)
        values = [fit.fitted[run.start] for run in runs(fit.fitted)]
        assert all(b > a for a, b in zip(values, values[1:]))
        for run, value in zip(runs(fit.fitted), values):
            mean = np.average(y[run], weights=w[run])
            assert value == pytest.approx(mean, abs=1e-12)


def test_refit_u_equals_merged_table_u():
    # pooling genotypes by run and recomputing U must agree with
    # evaluating U on the refit risks at the original resolution
    rng = np.random.default_rng(404)
    for _ in range(50):
        g = int(rng.integers(3, 8))
        case = rng.dirichlet(np.ones(g))
        control = rng.dirichlet(np.ones(g))
        table = build_risk_table(case, control, rho=0.3)
        noisy = np.clip(table.r + rng.normal(0, 0.1, g), 0, 1)
        fit = pava(noisy, table.p)
        u_refit = float(u_statistic(table.p, fit.fitted))
        merged_p = np.array([table.p[run].sum() for run in runs(fit.fitted)])
        merged_r = np.array([fit.fitted[run.start] for run in runs(fit.fitted)])
        u_merged = float(u_statistic(merged_p, merged_r))
        assert u_refit == pytest.approx(u_merged, abs=1e-12)


def test_rejects_nonpositive_weights():
    with pytest.raises(ValidationError):
        pava(np.array([0.1, 0.2]), np.array([1.0, 0.0]))
    with pytest.raises(ValidationError):
        pava(np.array([0.1, 0.2]), np.array([1.0]))
    # a non-finite weight or risk would pool to NaN or infinity
    for weights in ([np.inf, 1.0], [np.nan, 1.0]):
        with pytest.raises(ValidationError, match="weights must be finite"):
            pava([0.2, 0.1], weights)
    for risks in ([np.inf, 0.1], [0.2, -np.inf], [np.nan, 0.1]):
        with pytest.raises(ValidationError, match="risks must be finite"):
            pava(risks, [1.0, 1.0])


def random_stack(rng):
    """(B, G) risks and weights mixing the layouts the harness meets."""
    n_rows = 1 if rng.random() < 0.2 else int(rng.integers(2, 40))
    n_cols = int(rng.integers(1, 30))
    risks = rng.uniform(0, 1, (n_rows, n_cols))
    if rng.random() < 0.3:
        risks = np.round(risks, 1)  # tied risks
    weights = rng.uniform(0.01, 2.0, (n_rows, n_cols))
    weights *= rng.random((n_rows, n_cols)) < rng.uniform(0.1, 1.0)  # zero-weight cells
    for i in range(n_rows):
        kind = rng.integers(0, 8)
        if kind == 0:
            weights[i] = 0.0
        elif kind == 1:
            weights[i] = 0.0
            weights[i, rng.integers(n_cols)] = 1.0
        elif kind == 2:
            risks[i] = np.sort(risks[i])
        elif kind == 3:
            risks[i] = risks[i, 0]
    return risks, weights


def adversarial_stack(rng):
    """Rows ``[0, 1, ..., n - 2, low]``, which merge one block per round,
    with n past ``_ROUNDS``, mixed with the ordinary rows of ``random_stack``.
    ``low`` is -1e9, which pools the whole row, or a drop that pools a tail."""
    risks, weights = random_stack(rng)
    n_cols = isotonic._ROUNDS + int(rng.integers(2, 40))
    risks = np.pad(risks, ((0, 0), (0, n_cols - risks.shape[1])), mode="wrap")
    weights = np.pad(weights, ((0, 0), (0, n_cols - weights.shape[1])), mode="wrap")
    for i in rng.choice(risks.shape[0], int(rng.integers(1, risks.shape[0] + 1)), replace=False):
        low = -1e9 if rng.random() < 0.5 else -rng.uniform(0, 0.25) * n_cols**2
        risks[i] = np.r_[np.arange(n_cols - 1.0), low]
        weights[i] = 1.0 if rng.random() < 0.5 else rng.uniform(0.01, 2.0, n_cols)
    return risks, weights


def stacks(seed, n):
    """``n`` ordinary and ``n`` adversarial stacks, interleaved."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield random_stack(rng)
        yield adversarial_stack(rng)


def test_row_fit_matches_the_stack_oracle():
    # random, tied, zero-weight, all-zero, single-cell, sorted and
    # constant rows, and adversarial rows that the stack finisher ends
    for risks, weights in stacks(408, 300):
        expected = refit_rows_one_by_one(weights, risks, fit=pava_stack)
        np.testing.assert_allclose(pava_rows(risks, weights), expected, rtol=1e-14)


@pytest.mark.parametrize("rounds", ["above G", 1])
def test_round_limit_leaves_the_fit(monkeypatch, rounds):
    # rounds alone, or the stack finisher on nearly every row, fit as the
    # default mix of the two does
    for risks, weights in stacks(409, 100):
        expected = pava_rows(risks.copy(), weights)
        monkeypatch.setattr(isotonic, "_ROUNDS", risks.shape[1] + 1 if rounds == "above G" else rounds)
        fitted = pava_rows(risks.copy(), weights)
        monkeypatch.undo()
        np.testing.assert_allclose(fitted, expected, rtol=1e-14)
        for f, r, w in zip(fitted, risks, weights):
            mask = w > 0
            if mask.any():
                assert np.all(np.diff(f[mask]) >= 0)
                mean = np.average(r[mask], weights=w[mask])
                assert np.average(f[mask], weights=w[mask]) == pytest.approx(mean, rel=1e-12, abs=1e-12)


def test_row_fit_equals_pava_row_by_row():
    rng = np.random.default_rng(405)
    for _ in range(600):
        risks, weights = random_stack(rng)
        expected = refit_rows_one_by_one(weights, risks)
        refit = risks.copy()
        assert pava_rows(refit, weights) is refit
        assert np.array_equal(refit, expected)


def test_row_fit_on_harness_sized_stacks():
    # 401 rows of 81 genotypes with counts-based masses, as one replicate
    # of the simulation harness refits them
    rng = np.random.default_rng(406)
    for _ in range(5):
        case = rng.multinomial(600, rng.dirichlet(np.full(81, 0.3)), size=401)
        control = rng.multinomial(300, rng.dirichlet(np.full(81, 0.3)), size=401)
        weights = 0.05 * case / 600 + 0.95 * control / 300
        risks = np.divide(0.05 * case / 600, weights, out=np.zeros_like(weights),
                          where=weights > 0)
        expected = refit_rows_one_by_one(weights, risks)
        assert np.array_equal(pava_rows(risks, weights), expected)


def test_row_fit_keeps_skipped_cells_and_rows():
    risks = np.array([[0.5, 0.9, 0.1, 0.3], [0.7, 0.2, 0.4, 0.6], [0.8, 0.1, 0.3, 0.2]])
    weights = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]])
    fitted = pava_rows(risks.copy(), weights)
    np.testing.assert_array_equal(fitted[0], [0.3, 0.9, 0.3, 0.3])
    np.testing.assert_array_equal(fitted[1:], risks[1:])


def test_row_fit_rejects_bad_input():
    with pytest.raises(ValidationError):
        pava_rows(np.zeros((2, 3)), np.ones((2, 4)))
    with pytest.raises(ValidationError):
        pava_rows(np.zeros(3), np.ones(3))
    with pytest.raises(ValidationError):
        pava_rows(np.zeros((2, 3)), np.array([[1.0, -1.0, 1.0], [1.0, 1.0, 1.0]]))
    with pytest.raises(ValidationError):
        pava_rows(np.zeros((2, 3), dtype=int), np.ones((2, 3)))
    with pytest.raises(ValidationError, match="risks must be finite"):
        pava_rows(np.array([[0.3, np.nan, 0.1]]), np.ones((1, 3)))
    with pytest.raises(ValidationError, match="risks must be finite"):
        pava_rows(np.array([[0.3, 0.2, 0.1], [0.1, np.inf, 0.2]]), np.ones((2, 3)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="weights must be finite"):
            pava_rows(np.array([[0.3, 0.2, 0.1]]), np.array([[1.0, bad, 1.0]]))
    with pytest.raises(ValidationError, match="weights must be nonnegative"):
        pava_rows(np.array([[0.3, 0.2, 0.1]]), np.array([[1.0, -1.0, 1.0]]))


def test_flat_rounds_equal_the_two_index_rounds():
    # the former body on (row, column) pairs: same sums in the same order
    for risks, weights in stacks(410, 200):
        expected = pava_rows_2d_reference(risks.copy(), weights)
        assert np.array_equal(pava_rows(risks.copy(), weights), expected)


def test_row_fit_in_place_on_any_layout():
    # a Fortran-ordered stack and a strided column view refit in place to
    # the bits of a C-ordered copy; the cells a view skips stay as they are
    for risks, weights in stacks(411, 50):
        expected = pava_rows(risks.copy(), weights)
        fortran = np.array(risks, order="F")
        assert pava_rows(fortran, weights) is fortran
        assert np.array_equal(fortran, expected)
        big = np.repeat(risks, 2, axis=1)
        view = big[:, ::2]
        assert not view.flags.c_contiguous
        assert pava_rows(view, weights) is view
        assert np.array_equal(big[:, ::2], expected)
        assert np.array_equal(big[:, 1::2], risks)
