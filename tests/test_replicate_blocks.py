"""Replicate groups against the one-call-per-group draws.

The references in conftest draw all rows of an arm of each replicate
group in one call.  The group routines must reproduce their draws,
estimates and p-values exactly, over any range of groups, at the
default group size R(G) and at groups of one and three rows, and at any
worker count; their memory must neither grow with B nor exceed a fixed
bound at large G.
"""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import conftest
import predictu
from predictu import inference, parallel
from predictu.errors import NumericError, ValidationError
from predictu.inference import (
    _GROUP,
    _GROUP_CELLS,
    _TAG_BOOTSTRAP,
    ResamplePlan,
    _align_counts,
    _bootstrap_group,
    _bootstrap_values,
    _contract,
    bootstrap_ci,
    bootstrap_estimates,
    permutation_test,
)
from predictu.risk_model import CaseControlCounts, GenotypeId

from conftest import (
    bootstrap_counts_reference,
    bootstrap_estimates_reference,
    group_sizes,
    permutation_draws_reference,
    permutation_test_reference,
    random_case,
    same,
)

REPLICATES = (1, 2, 3, 7, 8, 9, 50, 70)


@pytest.fixture(params=["three_rows", "one_row"])
def group_rows(request, monkeypatch):
    """Sets the group size of the routines and the references alike.

    Groups of three rows leave a short last group for most B in
    REPLICATES; groups of one row make every replicate its own stream.
    """
    rows = 3 if request.param == "three_rows" else 1
    for module, size, cells in ((inference, "_GROUP", "_GROUP_CELLS"),
                                (conftest, "GROUP_ROWS", "GROUP_CELLS")):
        monkeypatch.setattr(module, size, rows)
        monkeypatch.setattr(module, cells, 1)
    return rows


def _group_draws(counts, order, plan):
    """Every group's rows from ``_bootstrap_group``, concatenated."""
    case, control = _align_counts(counts, order)
    got_case, got_control = [], []
    for k, n_rows in group_sizes(plan.n_replicates, len(order)):
        rng = np.random.default_rng([plan.seed, _TAG_BOOTSTRAP, k])
        boot_case, boot_control = _bootstrap_group(case, control, rng, n_rows)
        assert boot_case.shape == boot_control.shape == (n_rows, len(order))
        got_case.append(boot_case)
        got_control.append(boot_control)
    return np.concatenate(got_case), np.concatenate(got_control)


def _check_case(counts, order, rng, seed):
    case, control = _align_counts(counts, order)
    rho = counts.rho
    scale = 2.0 * rho * (1.0 - rho) / (counts.n_cases * counts.n_controls)
    observed = abs(int(_contract(case, control)))
    group = max(inference._GROUP, inference._GROUP_CELLS // len(order))
    for n_replicates in REPLICATES:
        plan = ResamplePlan(n_replicates, seed=seed)
        want_case, want_control = bootstrap_counts_reference(counts, order, plan)
        got_case, got_control = _group_draws(counts, order, plan)
        np.testing.assert_array_equal(got_case, want_case)
        np.testing.assert_array_equal(got_control, want_control)

        assert bootstrap_estimates(counts, order, plan, ("u",)) == {
            "u": bootstrap_estimates_reference(counts, order, plan)[0]
        }
        q0 = float(rng.uniform(0.0, 0.8))
        for band in ((0.0, 1.0), (q0, float(rng.uniform(q0 + 0.05, 1.0)))):
            for standardized in (False, True):
                tokens = ("u", "upartialstd" if standardized else "upartial")
                try:
                    want = bootstrap_estimates_reference(
                        counts, order, plan, 0.9, band, standardized
                    )
                except NumericError:
                    with pytest.raises(NumericError):
                        bootstrap_estimates(counts, order, plan, tokens, band, 0.9)
                    continue
                got = bootstrap_estimates(counts, order, plan, tokens, band, 0.9)
                assert got[tokens[0]] == want[0]
                assert same(got[tokens[1]], want[1])

        assert permutation_test(counts, order, plan) == permutation_test_reference(
            counts, order, plan
        )

        # a worker's range of groups covers exactly the reference rows of
        # those groups, whichever groups it starts and ends at, led by the
        # point when it starts at group 0
        n_groups = -(-n_replicates // group)
        perm_case = permutation_draws_reference(counts, order, plan)
        perm_stats = np.abs(_contract(perm_case, (case + control)[None, :] - perm_case))
        boot_values = scale * _contract(want_case, want_control)
        lo = int(rng.integers(0, n_groups))
        hi = int(rng.integers(lo + 1, n_groups + 1))
        rows = slice(lo * group, min(hi * group, n_replicates))
        ran = []

        def one_range(fn, n_items, workers):
            # the pool runs only groups lo..hi-1 and records their result
            assert n_items == n_groups
            ran.append(fn(lo, hi))
            return ran[-1:]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(parallel, "map_ranges", one_range)
            permutation_test(counts, order, plan)
            values = _bootstrap_values(case, control, (seed, _TAG_BOOTSTRAP), n_replicates, rho,
                                       ("u",), None)
        hits, parts = ran
        assert hits == int(np.count_nonzero(perm_stats[rows] >= observed))
        assert all(list(part) == ["u"] for part in parts)
        point = [scale * int(_contract(case, control))] if lo == 0 else []
        np.testing.assert_array_equal(values["u"], np.concatenate([point, boot_values[rows]]))


def _boundary_case(n_cases, spread):
    """n_D = n_cases, all cases in one genotype (g0) or spread over five."""
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
    return counts, counts.genotypes[::-1]


def _check_random_cases(rng):
    for trial in range(40):
        counts, order = random_case(rng)
        _check_case(counts, order, rng, seed=trial)


def test_groups_equal_the_one_call_draws():
    rng = np.random.default_rng(83)
    _check_random_cases(rng)
    for n_cases in (127, 128):
        for spread in (False, True):
            counts, order = _boundary_case(n_cases, spread)
            _check_case(counts, order, rng, seed=n_cases)


def test_blocks_equal_the_one_call_draws(group_rows):
    _check_random_cases(np.random.default_rng(83))


@pytest.mark.parametrize("n_cases", [127, 128])
@pytest.mark.parametrize("spread", [False, True])
def test_held_case_dtype_boundary(group_rows, n_cases, spread):
    # n_D = 127 fits int8 and 128 does not; all cases in one genotype puts
    # n_D itself in every bootstrap case row, which must hold it unwrapped
    counts, order = _boundary_case(n_cases, spread)
    assert np.min_scalar_type(-n_cases - 1) == (np.int8 if n_cases == 127 else np.int16)
    case, control = _align_counts(counts, order)
    for k in range(3):
        rng = np.random.default_rng([n_cases, _TAG_BOOTSTRAP, k])
        boot_case, _ = _bootstrap_group(case, control, rng, group_rows)
        np.testing.assert_array_equal(boot_case.sum(axis=1), n_cases)
        if not spread:
            np.testing.assert_array_equal(boot_case[:, -1], n_cases)
    _check_case(counts, order, np.random.default_rng(n_cases), seed=n_cases)


def _peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _wide_counts(g, seed):
    rng = np.random.default_rng(seed)
    counts = CaseControlCounts(
        genotypes=tuple(GenotypeId(i, f"g{i}") for i in range(g)),
        n_case=rng.integers(1, 60, g),
        n_control=rng.integers(1, 60, g),
        rho=0.05,
    )
    return counts, counts.genotypes[::-1]


def test_resampling_memory_is_flat_in_replicates():
    counts, order = _wide_counts(3000, seed=19)
    small, large = 200, 2000

    def bootstrap(n):
        plan = ResamplePlan(n, seed=5)
        return lambda: bootstrap_estimates(counts, order, plan, ("u", "upartial"), (0.9, 1.0))

    def permutation(n):
        plan = ResamplePlan(n, seed=5)
        return lambda: permutation_test(counts, order, plan)

    bootstrap(2)()  # first-call set-up stays out of the comparison
    boot = {n: _peak(bootstrap(n)) for n in (small, large)}
    perm = {n: _peak(permutation(n)) for n in (small, large)}
    mib = 2**20
    assert abs(boot[large] - boot[small]) <= mib, {n: v / mib for n, v in boot.items()}
    assert abs(perm[large] - perm[small]) <= mib, {n: v / mib for n, v in perm.items()}


def test_resampling_memory_is_bounded_at_large_g():
    # a group's working set is a few (_GROUP, G) arrays: about 11.5 MiB
    # here with 8-row groups, about 45 MiB with 32-row groups
    counts, order = _wide_counts(20_000, seed=23)
    plan = ResamplePlan(64, seed=5)
    tokens, band = ("u", "upartial"), (0.9, 1.0)
    bootstrap_estimates(counts, order, ResamplePlan(2, seed=5), tokens, band)  # set-up
    peak = _peak(lambda: bootstrap_estimates(counts, order, plan, tokens, band))
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    # each thread holds one group's working set and no more
    peak = _peak(lambda: bootstrap_estimates(counts, order, plan, tokens, band, workers=2))
    assert peak < 2 * 16 * 2**20, f"peak {peak / 2**20:.1f} MiB on two threads"


# at G = 40 a group holds R(40) = 409 replicates; 16 groups give each of
# up to eight threads two groups, and the last group is short
INVARIANCE_GROUPS = 16
INVARIANCE_REPLICATES = (INVARIANCE_GROUPS - 1) * max(_GROUP, _GROUP_CELLS // 40) + 5


def _invariance_case():
    rng = np.random.default_rng(29)
    g = 40
    counts = CaseControlCounts(
        genotypes=tuple(GenotypeId(i, f"g{i}") for i in range(g)),
        n_case=rng.integers(0, 30, g),
        n_control=rng.integers(0, 30, g),
        rho=0.1,
    )
    plan = ResamplePlan(INVARIANCE_REPLICATES, seed=8)
    assert len(list(group_sizes(plan.n_replicates, g))) == INVARIANCE_GROUPS
    return counts, counts.genotypes[::-1], plan


def _results(counts, order, plan, workers):
    band = (0.8, 1.0)
    return (
        bootstrap_estimates(counts, order, plan, ("u", "upartialstd"), band, 0.9, workers=workers),
        bootstrap_ci(counts, order, plan, workers=workers),
        bootstrap_estimates(counts, order, plan, ("upartial",), band, workers=workers),
        permutation_test(counts, order, plan, workers=workers),
    )


def test_results_do_not_depend_on_the_worker_count(monkeypatch):
    counts, order, plan = _invariance_case()
    serial = _results(counts, order, plan, 1)
    want = bootstrap_estimates_reference(counts, order, plan, 0.9, (0.8, 1.0), True)
    assert same(tuple(serial[0].values()), want)
    # the worker count is capped at the available CPUs; allow three on any host
    monkeypatch.setattr(parallel, "available_cpus", lambda: 3)
    for workers in (2, 3):
        assert repr(_results(counts, order, plan, workers)) == repr(serial)


@pytest.mark.parametrize("workers", [0, -2])
@pytest.mark.parametrize("entry", [bootstrap_estimates, permutation_test])
def test_a_worker_count_below_one_is_rejected(entry, workers):
    counts, order, plan = _invariance_case()
    tokens = (("u",),) if entry is bootstrap_estimates else ()
    with pytest.raises(ValidationError, match=f"workers must be at least 1, got {workers}"):
        entry(counts, order, plan, *tokens, workers=workers)


def test_threaded_resampling_runs_from_a_script_on_stdin():
    # no __main__ guard and no pickling: the script is read from stdin
    script = (
        "import numpy as np\n"
        "from predictu.inference import ResamplePlan, bootstrap_ci\n"
        "from predictu.risk_model import CaseControlCounts, GenotypeId\n"
        "rng = np.random.default_rng(29)\n"
        "counts = CaseControlCounts(\n"
        "    genotypes=tuple(GenotypeId(i, f'g{i}') for i in range(40)),\n"
        "    n_case=rng.integers(0, 30, 40), n_control=rng.integers(0, 30, 40), rho=0.1)\n"
        f"plan = ResamplePlan({INVARIANCE_REPLICATES}, seed=8)\n"
        "print(repr(bootstrap_ci(counts, counts.genotypes[::-1], plan, workers=2)))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(predictu.__file__)))
    res = subprocess.run([sys.executable, "-"], input=script, env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    counts, order, plan = _invariance_case()
    assert res.stdout.strip() == repr(bootstrap_ci(counts, order, plan, workers=1))


def test_results_hold_under_forced_thread_switches(monkeypatch):
    # more threads than cores, switching as often as the interpreter allows
    counts, order, plan = _invariance_case()
    serial = _results(counts, order, plan, 1)
    monkeypatch.setattr(parallel, "available_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = _results(counts, order, plan, 8)
    finally:
        sys.setswitchinterval(interval)
    assert repr(threaded) == repr(serial)
