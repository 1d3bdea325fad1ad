"""The prefix-sum contraction against the dense pair-kernel reference.

``dense_reference`` is the earlier production path, kept here as the
oracle: counts arranged along the order by a per-column loop, then
contracted through the G x G matrix phi = pair_kernel(G).  The O(G)
path must reproduce it exactly, not to a tolerance.  On float masses the
same kernel gives the index U, checked against the former two-cumsum
formula and the exact rational U.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from predictu import inference, summary_indices
from predictu.errors import ValidationError
from predictu.inference import (
    ResamplePlan,
    _align_counts,
    _contract,
    asymptotic_variance_u,
    bootstrap_ci,
    permutation_test,
    two_sample_u,
)
from predictu.risk_model import CaseControlCounts
from predictu.summary_indices import _placements, clipped_band_masses, u_statistic

from conftest import (
    bootstrap_counts_reference,
    pair_kernel,
    permutation_draws_reference,
    random_case,
    u_statistic_two_cumsum,
)


def _arrange(mat, counts, order):
    slot = {g: i for i, g in enumerate(counts.genotypes)}
    out = np.zeros(mat.shape[:-1] + (len(order),), dtype=float)
    for j, g in enumerate(order):
        i = slot.get(g)
        if i is not None:
            out[..., j] = mat[..., i]
    return out


def dense_reference(counts, order, boot_plan, perm_plan):
    """Kernel sum, U, asymptotic variance, bootstrap replicate sums and
    permutation p-value, all through phi."""
    case = _arrange(counts.n_case, counts, order)
    control = _arrange(counts.n_control, counts, order)
    phi = pair_kernel(len(order))
    n_d, n_dbar, rho = counts.n_cases, counts.n_controls, counts.rho
    kernel_sum = float(case @ phi @ control)
    u_hat = 2.0 * rho * (1.0 - rho) * kernel_sum / (n_d * n_dbar)

    theta = kernel_sum / (n_d * n_dbar)
    mean_case = (phi @ control) / n_dbar
    mean_control = (case @ phi) / n_d
    s_case = float(case.astype(np.int64) @ (mean_case - theta) ** 2)
    s_control = float(control.astype(np.int64) @ (mean_control - theta) ** 2)
    variance = 4.0 * rho**2 * (1.0 - rho) ** 2 * (
        s_case / (n_d * (n_d - 1)) + s_control / (n_dbar * (n_dbar - 1))
    )

    boot_case, boot_control = bootstrap_counts_reference(counts, order, boot_plan)
    boot_sums = np.einsum("bg,bg->b", boot_case @ phi, boot_control)

    pooled = (case + control).astype(np.int64)
    perm_case = permutation_draws_reference(counts, order, perm_plan)
    perm_control = pooled[None, :] - perm_case
    stats = np.abs(np.einsum("bg,bg->b", perm_case @ phi, perm_control.astype(float)))
    hits = int(np.count_nonzero(stats >= abs(kernel_sum)))
    p_value = (1 + hits) / (1 + perm_plan.n_replicates)
    return kernel_sum, u_hat, variance, boot_sums, p_value


def test_contraction_equals_dense_reference_exactly():
    rng = np.random.default_rng(2027)
    for trial in range(150):
        counts, order = random_case(rng)
        boot_plan = ResamplePlan(25, seed=trial)
        perm_plan = ResamplePlan(25, seed=trial)
        kernel_sum, u_hat, variance, boot_sums, p_value = dense_reference(
            counts, order, boot_plan, perm_plan
        )

        assert two_sample_u(counts, order).u_hat == u_hat
        assert asymptotic_variance_u(counts, order) == variance
        assert permutation_test(counts, order, perm_plan) == p_value

        case, control = _align_counts(counts, order)
        assert case.dtype == control.dtype == np.int64
        np.testing.assert_array_equal(case, _arrange(counts.n_case, counts, order))
        np.testing.assert_array_equal(control, _arrange(counts.n_control, counts, order))
        boot_case, boot_control = bootstrap_counts_reference(counts, order, boot_plan)
        sums = _contract(boot_case, boot_control)
        assert sums.dtype == np.int64
        np.testing.assert_array_equal(sums, boot_sums.astype(np.int64))
        np.testing.assert_array_equal(sums.astype(float), boot_sums)

        scale = 2.0 * counts.rho * (1.0 - counts.rho) / (counts.n_cases * counts.n_controls)
        est = bootstrap_ci(counts, order, boot_plan)
        values = scale * boot_sums
        assert est.u_hat == scale * kernel_sum
        assert est.variance == float(np.var(values, ddof=1))
        tail = 100.0 * (1.0 - 0.95) / 2.0
        lower, upper = np.percentile(values, [tail, 100.0 - tail])
        assert (est.ci.lower, est.ci.upper) == (float(lower), float(upper))


def test_memory_stays_linear_in_genotypes():
    # the dense kernel alone would need 6,000^2 * 8 bytes = 275 MiB
    g = 6000
    rng = np.random.default_rng(11)
    counts = CaseControlCounts(
        genotypes=tuple(f"g{i}" for i in range(g)),
        n_case=rng.integers(0, 40, g),
        n_control=rng.integers(0, 40, g),
        rho=0.1,
    )
    order = counts.genotypes[::-1]
    tracemalloc.start()
    try:
        two_sample_u(counts, order)
        bootstrap_ci(counts, order, ResamplePlan(20, seed=1))
        permutation_test(counts, order, ResamplePlan(20, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("repeat", [True, False])
def test_align_rejects_repeats_and_unordered_counts(repeat):
    counts = CaseControlCounts(
        genotypes=("a", "b"),
        n_case=np.array([3, 1]),
        n_control=np.array([2, 2]),
        rho=0.2,
    )
    order = ("a", "a") if repeat else ("a",)
    with pytest.raises(ValidationError, match="repeat" if repeat else "no order position"):
        two_sample_u(counts, order)


def _contract_in_python_ints(case, control):
    return sum(c * (sum(control[:i]) - sum(control[i + 1:])) for i, c in enumerate(case))


# n_cases * n_controls bounds the contraction's sum, 2 * max(n_cases,
# n_controls) the doubled prefix sum; each case sits one step from a limit
@pytest.mark.parametrize(
    "case, control, exact",
    [
        ([10**9, 10**9, 1_037_000_500], [1_037_000_499, 10**9, 10**9], True),
        ([10**9, 10**9, 1_037_000_500], [1_037_000_500, 10**9, 10**9], False),
        ([2**61, 2**61 - 1], [0, 1], True),
        ([2**61, 2**61], [0, 1], False),
    ],
    ids=["product-below", "product-past", "prefix-below", "prefix-past"],
)
def test_the_exact_contraction_has_a_stated_limit(case, control, exact):
    counts = CaseControlCounts(
        genotypes=tuple(f"g{i}" for i in range(len(case))),
        n_case=np.array(case),
        n_control=np.array(control),
        rho=0.05,
    )
    order = counts.genotypes[::-1]
    if not exact:
        for entry in (two_sample_u, lambda c, o: bootstrap_ci(c, o, ResamplePlan(1, seed=1))):
            with pytest.raises(ValidationError, match=r"the limit 2\*\*63 - 1 = 9223372036854775807"):
                entry(counts, order)
        return
    total = _contract_in_python_ints(case[::-1], control[::-1])
    aligned = _align_counts(counts, order)
    assert int(_contract(*aligned)) == total
    # the placements of integer counts stay int64 and exact at the limit
    for arm in aligned:
        placed = _placements(arm)
        assert placed.dtype == np.int64
        arm = [int(c) for c in arm]
        assert placed.tolist() == [sum(arm[:i]) - sum(arm[i + 1:]) for i in range(len(arm))]
    n_d, n_dbar = sum(case), sum(control)
    assert two_sample_u(counts, order).u_hat == 2.0 * 0.05 * 0.95 * total / (n_d * n_dbar)


def test_the_permutation_test_has_a_stated_limit():
    counts = CaseControlCounts(
        genotypes=("a", "b"),
        n_case=np.array([3 * 10**8, 2 * 10**8]),
        n_control=np.array([10**8, 4 * 10**8 - 1]),
        rho=0.05,
    )
    assert 0 <= permutation_test(counts, counts.genotypes, ResamplePlan(1, seed=1)) <= 1
    bigger = CaseControlCounts(counts.genotypes, counts.n_case, counts.n_control + [0, 1], 0.05)
    with pytest.raises(ValidationError, match=r"than the limit 10\*\*9 = 1000000000, got 1000000000"):
        permutation_test(bigger, bigger.genotypes, ResamplePlan(1, seed=1))


def test_one_kernel_serves_every_u():
    assert inference._contract is summary_indices._contract
    assert inference._placements is summary_indices._placements


def _unit(p, r):
    """The tolerance unit, 2 sum_i |p_i r_i| per row."""
    return 2.0 * np.abs(p * r).sum(axis=-1)


def _exact_u(p, r):
    p = [Fraction(float(x)) for x in p]
    r = [Fraction(float(x)) for x in r]
    pairs = sum(p[i] * p[j] * (r[i] - r[j]) for i in range(len(p)) for j in range(i))
    return 2 * pairs


def _curve_rows(rng, rows, g):
    """Masses and risks of random curves: risk-sorted or shuffled rows,
    some cells of zero mass."""
    p = rng.dirichlet(np.ones(g), size=rows)
    p[rng.random((rows, g)) < 0.2] = 0.0
    r = np.sort(rng.random((rows, g)), axis=-1)
    for row in range(0, rows, 2):
        rng.shuffle(r[row])
    return p, r


@pytest.mark.parametrize("g", [1, 2, 5, 40, 3000])
def test_u_statistic_matches_the_two_cumsum_formula(g):
    rng = np.random.default_rng(g)
    p, r = _curve_rows(rng, 16, g)
    q0, q1 = np.sort(rng.random(2))
    cases = [
        (p, r),  # sorted and shuffled rows, zero-mass cells
        (clipped_band_masses(p, q0, q1), r),  # band-clipped masses
        (p, r[0]),  # a (B, G) stack of masses sharing one risk row
        (p[0], r),  # one mass row under a (B, G) stack of risks
    ]
    for masses, risks in cases:
        got = u_statistic(masses, risks)
        want = u_statistic_two_cumsum(masses, risks)
        assert got.shape == want.shape == (16,)
        assert np.all(np.abs(got - want) <= 1e-14 * _unit(masses, risks))
    for row in range(3):
        got = u_statistic(p[row], r[row])
        assert isinstance(got, float)
        assert abs(got - u_statistic_two_cumsum(p[row], r[row])) <= 1e-14 * _unit(p[row], r[row])


def test_u_statistic_matches_the_exact_rational_u():
    rng = np.random.default_rng(31)
    for trial in range(40):
        g = int(rng.integers(1, 13))
        p, r = _curve_rows(rng, 1, g)
        if trial % 3 == 0:
            p = clipped_band_masses(p, 0.25, 0.8)
        exact = _exact_u(p[0], r[0])
        tol = 1e-14 * _unit(p[0], r[0])
        assert abs(u_statistic(p[0], r[0]) - float(exact)) <= tol
        assert abs(u_statistic_two_cumsum(p[0], r[0]) - float(exact)) <= tol
