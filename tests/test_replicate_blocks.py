"""Replicate groups, drawn in fixed-size row blocks, against the
one-call-per-group draws.

The references in conftest draw all rows of an arm of each replicate
group in one call.  The group routines must reproduce their draws,
estimates and p-values exactly at any block size and any worker count,
and their memory must not grow with B.
"""

import tracemalloc

import numpy as np
import pytest

from predictu import inference
from predictu.errors import NumericError
from predictu.inference import (
    _GROUP,
    ResamplePlan,
    _align_counts,
    _bootstrap_estimates,
    _bootstrap_group,
    bootstrap_ci,
    partial_u_variance,
    permutation_test,
)
from predictu.risk_model import CaseControlCounts, GenotypeId

from conftest import (
    bootstrap_counts_reference,
    bootstrap_estimates_reference,
    permutation_draws_reference,
    permutation_test_reference,
    random_case,
    same,
)

REPLICATES = (1, 2, 3, 7, 50, 70)


@pytest.fixture(params=["three_rows", "one_row"])
def block_rows(request, monkeypatch):
    """Sets the block budget for a given width; returns the rows per block."""

    def set_budget(width):
        if request.param == "three_rows":
            monkeypatch.setattr(inference, "_BLOCK_BYTES", 3 * 8 * width)
            return 3
        # a budget below one row of any width: the one-row floor
        monkeypatch.setattr(inference, "_BLOCK_BYTES", 8 * width - 1)
        return 1

    return set_budget


def _group_draws(counts, order, plan):
    """Every group's blocks from ``_bootstrap_group``, concatenated."""
    case, control = _align_counts(counts, order)
    got_case, got_control = [], []
    for k, start in enumerate(range(0, plan.n_replicates, _GROUP)):
        n_rows = min(_GROUP, plan.n_replicates - start)
        blocks = list(_bootstrap_group(case, control, plan.seed, k, n_rows))
        assert [b[0] for b in blocks] == inference._blocks(n_rows, len(order))
        got_case += [b[1] for b in blocks]
        got_control += [b[2] for b in blocks]
    return np.concatenate(got_case), np.concatenate(got_control)


def _check_case(counts, order, set_budget, rng, seed):
    rows = set_budget(len(order))
    for n_replicates in REPLICATES:
        n_rows = min(n_replicates, _GROUP)
        spans = [s.stop - s.start for s in inference._blocks(n_rows, len(order))]
        assert sum(spans) == n_rows and max(spans) == min(rows, n_rows)

        plan = ResamplePlan(n_replicates, seed=seed)
        want_case, want_control = bootstrap_counts_reference(counts, order, plan)
        got_case, got_control = _group_draws(counts, order, plan)
        assert got_case.dtype == np.min_scalar_type(-counts.n_cases - 1)
        np.testing.assert_array_equal(got_case, want_case)
        np.testing.assert_array_equal(got_control, want_control)

        assert _bootstrap_estimates(counts, order, plan) == bootstrap_estimates_reference(
            counts, order, plan
        )
        q0 = float(rng.uniform(0.0, 0.8))
        for band in ((0.0, 1.0), (q0, float(rng.uniform(q0 + 0.05, 1.0)))):
            for standardized in (False, True):
                try:
                    want = bootstrap_estimates_reference(
                        counts, order, plan, 0.9, band, standardized
                    )
                except NumericError:
                    with pytest.raises(NumericError):
                        _bootstrap_estimates(counts, order, plan, 0.9, band, standardized)
                    continue
                got = _bootstrap_estimates(counts, order, plan, 0.9, band, standardized)
                assert got[0] == want[0]
                assert same(got[1], want[1])

        assert permutation_test(counts, order, plan) == permutation_test_reference(
            counts, order, plan
        )
        # a group's hypergeometric rows, drawn block by block, are its one-call draw
        case, control = _align_counts(counts, order)
        whole = permutation_draws_reference(counts, order, plan)[:n_rows]
        stream = np.random.default_rng([seed, inference._TAG_PERMUTATION, 0])
        parts = [
            stream.multivariate_hypergeometric(case + control, counts.n_cases,
                                               size=s.stop - s.start)
            for s in inference._blocks(n_rows, len(order))
        ]
        np.testing.assert_array_equal(np.concatenate(parts), whole)


def test_blocks_equal_the_one_call_draws(block_rows):
    rng = np.random.default_rng(83)
    for trial in range(40):
        counts, order = random_case(rng)
        _check_case(counts, order, block_rows, rng, seed=trial)


@pytest.mark.parametrize("n_cases", [127, 128])
@pytest.mark.parametrize("spread", [False, True])
def test_held_case_dtype_boundary(block_rows, n_cases, spread):
    # all cases in one genotype puts n_D itself in every held row
    rng = np.random.default_rng(n_cases)
    g = 5
    n_case = np.zeros(g, dtype=np.int64)
    n_case[0] = n_cases
    if spread:
        n_case = rng.multinomial(n_cases, np.full(g, 1 / g))
    counts = CaseControlCounts(
        genotypes=tuple(GenotypeId(i, f"g{i}") for i in range(g)),
        n_case=n_case,
        n_control=np.array([40, 30, 20, 10, 5]),
        rho=0.2,
    )
    order = counts.genotypes[::-1]
    assert np.min_scalar_type(-n_cases - 1) == (np.int8 if n_cases == 127 else np.int16)
    _check_case(counts, order, block_rows, rng, seed=n_cases)


def _peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_resampling_memory_is_flat_in_replicates():
    rng = np.random.default_rng(19)
    g = 3000
    counts = CaseControlCounts(
        genotypes=tuple(GenotypeId(i, f"g{i}") for i in range(g)),
        n_case=rng.integers(1, 60, g),
        n_control=rng.integers(1, 60, g),
        rho=0.05,
    )
    order = counts.genotypes[::-1]
    small, large = 200, 2000

    def bootstrap(n):
        plan = ResamplePlan(n, seed=5)
        return lambda: _bootstrap_estimates(counts, order, plan, band=(0.9, 1.0))

    def permutation(n):
        plan = ResamplePlan(n, seed=5)
        return lambda: permutation_test(counts, order, plan)

    bootstrap(2)()  # first-call set-up stays out of the comparison
    # the case rows held while a group's control rows are drawn included
    boot = {n: _peak(bootstrap(n)) for n in (small, large)}
    perm = {n: _peak(permutation(n)) for n in (small, large)}
    mib = 2**20
    assert abs(boot[large] - boot[small]) <= mib, {n: v / mib for n, v in boot.items()}
    assert abs(perm[large] - perm[small]) <= mib, {n: v / mib for n, v in perm.items()}


def _invariance_case():
    rng = np.random.default_rng(29)
    g = 40
    counts = CaseControlCounts(
        genotypes=tuple(GenotypeId(i, f"g{i}") for i in range(g)),
        n_case=rng.integers(0, 30, g),
        n_control=rng.integers(0, 30, g),
        rho=0.1,
    )
    return counts, counts.genotypes[::-1], ResamplePlan(4 * _GROUP + 5, seed=8)


def _results(counts, order, plan, workers):
    band = (0.8, 1.0)
    return (
        _bootstrap_estimates(counts, order, plan, 0.9, band, True, workers=workers),
        bootstrap_ci(counts, order, plan, workers=workers),
        partial_u_variance(counts, order, band, plan, workers=workers),
        permutation_test(counts, order, plan, workers=workers),
    )


def test_results_do_not_depend_on_the_worker_count():
    counts, order, plan = _invariance_case()
    serial = _results(counts, order, plan, 1)
    assert same(serial[0], bootstrap_estimates_reference(counts, order, plan, 0.9, (0.8, 1.0), True))
    for workers in (2, 3):
        assert repr(_results(counts, order, plan, workers)) == repr(serial)


def test_results_do_not_depend_on_the_block_size(monkeypatch):
    counts, order, plan = _invariance_case()
    want = _results(counts, order, plan, 1)
    for budget in (8 * len(order) - 1, 5 * 8 * len(order)):
        monkeypatch.setattr(inference, "_BLOCK_BYTES", budget)
        assert repr(_results(counts, order, plan, 1)) == repr(want)
