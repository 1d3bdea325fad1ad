"""Estimation and uncertainty for the predictiveness U statistic.

U admits a two-sample U-statistic representation: with cases s and
controls t,

    U_hat = 2 rho (1 - rho) * (1 / (n_D n_Dbar)) * sum_s sum_t phi(g_s, g_t)

where phi is the antisymmetric sign of the genotype order positions.
Every routine here contracts over genotype classes rather than subject
pairs, and along the order the kernel reduces to a prefix sum,

    case' phi control = sum_i case_i (C_{<i} - C_{>i}),

with C_{<i} and C_{>i} the controls ordered below and above position i
(the DeLong placement values).  One int64 cumulative sum serves the
point estimate, the asymptotic variance and every resampling replicate
in O(G) per row, exactly while n_D n_Dbar and 2 max(n_D, n_Dbar) fit in
int64 (larger arm totals raise ``ValidationError``); the dense
``pair_kernel`` and the per-subject form exist only as test references.

Resampling is stratified within arms (bootstrap) or redraws the case
counts from the pooled genotype totals by multivariate hypergeometric
sampling (permutation, equivalent to permuting labels).  The unit of
resampling is a fixed group of ``_GROUP`` (8) replicates: group k draws
from its own stream ``[seed, tag, k]``, all its case rows in one call
and then all its control rows in one call, and is evaluated at once, so
a group's draw depends on nothing but the plan and its index.  Groups
run on ``workers`` threads of the calling process (default 1; the
draws release the interpreter lock) and return only their replicate
values (or permutation hits), joined in group order.  Memory per thread
is a few (8, G) arrays beyond the B-length results, flat in the
replicate count, and no result depends on the thread count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from . import parallel
from .errors import NumericError, ValidationError
from .risk_model import _COUNT_LIMIT, CaseControlCounts, _plugin_rows, _positions
from .summary_indices import _check_band, _index_rows

__all__ = [
    "Method",
    "ResamplePlan",
    "ConfidenceInterval",
    "UEstimate",
    "two_sample_u",
    "asymptotic_variance_u",
    "asymptotic_ci",
    "bootstrap_estimates",
    "bootstrap_ci",
    "permutation_test",
    "partial_u_variance",
]

# stream tags keep bootstrap and permutation draws decoupled per seed
_TAG_BOOTSTRAP = 101
_TAG_PERMUTATION = 211
# replicates per group, the unit of resampling: a fixed constant, so the
# streams depend on neither G nor the worker count, and a group's working
# set is a few (_GROUP, G) arrays
_GROUP = 8


class Method(enum.Enum):
    TWO_SAMPLE_ASYMPTOTIC = "two_sample_asymptotic"
    BOOTSTRAP = "bootstrap"


@dataclass(frozen=True)
class ResamplePlan:
    """Replicate count and master seed."""

    n_replicates: int
    seed: int

    def __post_init__(self) -> None:
        if self.n_replicates < 1:
            raise ValidationError("need at least one replicate")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class ConfidenceInterval:
    lower: float
    upper: float
    level: float


@dataclass(frozen=True)
class UEstimate:
    """A U estimate with its uncertainty assessment.

    A bootstrap estimate records the requested ``n_replicates`` and, in
    ``n_finite``, how many of them gave a finite value and entered the
    variance and interval (a partial U replicate whose band holds no
    case mass is undefined when standardised).
    """

    u_hat: float
    variance: float
    method: Method
    ci: ConfidenceInterval | None = None
    n_replicates: int | None = None
    seed: int | None = None
    n_finite: int | None = None

    def to_dict(self) -> dict:
        return {
            "u_hat": self.u_hat,
            "variance": self.variance,
            "ci": None
            if self.ci is None
            else {"lower": self.ci.lower, "upper": self.ci.upper, "level": self.ci.level},
            "method": self.method.value,
            "n_replicates": self.n_replicates,
            "n_finite": self.n_finite,
            "seed": self.seed,
        }


def _align_counts(counts: CaseControlCounts, order) -> tuple[np.ndarray, np.ndarray]:
    """Case and control counts (int64) along ``order``; every counted
    genotype must have a position in it, and n_D n_Dbar (``_contract``'s
    sum) and 2 max(n_D, n_Dbar) (``_placements``) must fit in int64."""
    n_d, n_dbar = counts.n_cases, counts.n_controls
    if n_d * n_dbar > _COUNT_LIMIT or 2 * max(n_d, n_dbar) > _COUNT_LIMIT:
        raise ValidationError(
            f"{n_d} cases and {n_dbar} controls: n_cases * n_controls and 2 * max(n_cases, "
            f"n_controls) must not exceed the limit 2**63 - 1 = {_COUNT_LIMIT}"
        )
    pos = _positions(order, counts.genotypes)
    seen = pos >= 0
    stray = (counts.n_case > 0) | (counts.n_control > 0)
    stray[pos[seen]] = False
    if stray.any():
        raise ValidationError(f"genotype {counts.genotypes[stray.argmax()]} has counts but no order position")
    return np.where(seen, counts.n_case[pos], 0), np.where(seen, counts.n_control[pos], 0)


def _placements(control: np.ndarray) -> np.ndarray:
    """(phi control)_i = C_{<i} - C_{>i} = 2 C_{<=i} - c_i - C, last axis, int64."""
    out = np.cumsum(control, axis=-1, dtype=np.int64)
    out *= 2
    out -= control
    out -= control.sum(axis=-1, keepdims=True)
    return out


def _contract(case: np.ndarray, control: np.ndarray) -> np.ndarray:
    """case' phi control per row (1-d or (B, G)), exact in int64, one temporary."""
    weighted = _placements(control)
    weighted *= case
    return weighted.sum(axis=-1)


def two_sample_u(counts: CaseControlCounts, order) -> UEstimate:
    """Estimate U from case-control counts along a fixed genotype order.

    Contracts the pair kernel over genotype classes with one prefix sum:
    U_hat = 2 rho (1 - rho) * (case' phi control) / (n_D n_Dbar), where
    (phi control)_i counts the controls ordered below i minus those above.
    The result is algebraically identical to the pairwise-mass form
    2 sum_{i>j} p_hat_i p_hat_j (r_hat_i - r_hat_j) evaluated in the
    same order.  The attached variance is the asymptotic one when both
    arms hold at least two subjects, else NaN.

    Parameters
    ----------
    counts : CaseControlCounts
    order : sequence of GenotypeId
        Evaluation order, lowest risk first.  Typically the sorted
        order of a training table.

    Returns
    -------
    UEstimate
    """
    order = tuple(order)
    case, control = _align_counts(counts, order)
    rho = counts.rho
    n_d = counts.n_cases
    n_dbar = counts.n_controls
    u_hat = 2.0 * rho * (1.0 - rho) * int(_contract(case, control)) / (n_d * n_dbar)
    if n_d >= 2 and n_dbar >= 2:
        variance = asymptotic_variance_u(counts, order)
    else:
        variance = float("nan")
    return UEstimate(u_hat=u_hat, variance=variance, method=Method.TWO_SAMPLE_ASYMPTOTIC)


def asymptotic_variance_u(counts: CaseControlCounts, order) -> float:
    """Projection-based large-sample variance of the two-sample U estimate.

    Empirical variance of the per-subject conditional means of phi (the
    DeLong placement values), computed per genotype class:

        var = 4 rho^2 (1-rho)^2 [ S_case / (n_D (n_D - 1))
                                  + S_control / (n_Dbar (n_Dbar - 1)) ]

    where S_case = sum_s (mean_t phi(g_s, g_t) - theta)^2 over cases,
    S_control symmetrically, and theta = U_hat / (2 rho (1 - rho)) is
    the kernel-scale estimate, so the deviations are centred on the
    same scale they are measured on.
    """
    case, control = _align_counts(counts, order)
    n_d = counts.n_cases
    n_dbar = counts.n_controls
    if n_d < 2 or n_dbar < 2:
        raise ValidationError("asymptotic variance needs at least two subjects per arm")
    rho = counts.rho
    theta = int(_contract(case, control)) / (n_d * n_dbar)
    # conditional mean of phi for a case in class i / a control in class j:
    # the placement values, (phi control)_i and (case' phi)_j = -(phi case)_j
    mean_case = _placements(control) / n_dbar
    mean_control = -_placements(case) / n_d
    s_case = float(case @ (mean_case - theta) ** 2)
    s_control = float(control @ (mean_control - theta) ** 2)
    scale = 4.0 * rho**2 * (1.0 - rho) ** 2
    return scale * (
        s_case / (n_d * (n_d - 1)) + s_control / (n_dbar * (n_dbar - 1))
    )


def asymptotic_ci(estimate: UEstimate, level: float = 0.95) -> UEstimate:
    """Attach a normal confidence interval built from ``estimate.variance``."""
    if not 0.0 <= level < 1.0:
        raise ValidationError(f"confidence level must lie in [0, 1), got {level}")
    if not np.isfinite(estimate.variance) or estimate.variance < 0:
        raise NumericError(f"cannot build an interval from variance {estimate.variance}")
    from statistics import NormalDist

    # the lower tail: 1 - level is exact, 0.5 + level / 2 rounds
    half = -NormalDist().inv_cdf((1.0 - level) / 2.0) * np.sqrt(estimate.variance)
    ci = ConfidenceInterval(estimate.u_hat - half, estimate.u_hat + half, level)
    return replace(estimate, ci=ci)


def _n_groups(n_replicates: int) -> int:
    return -(-n_replicates // _GROUP)


def _group_size(n_replicates: int, group: int) -> int:
    return min(_GROUP, n_replicates - group * _GROUP)


def _bootstrap_group(
    case: np.ndarray, control: np.ndarray, stream, n_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stratified bootstrap count rows of one replicate group.

    Resampling subjects with replacement within an arm is equivalent to
    a multinomial draw over that arm's genotype frequencies, here taken
    along the order.  A generator seeded with the entropy ``stream``
    draws the ``n_rows`` case rows in one call, then the control rows.
    ``summarize`` passes ``[seed, _TAG_BOOTSTRAP, group]``; the
    simulation harness passes ``[seed, population, replicate, 2]``.
    """
    rng = np.random.default_rng(stream)
    boot_case = rng.multinomial(case.sum(), case / case.sum(), size=n_rows)
    return boot_case, rng.multinomial(control.sum(), control / control.sum(), size=n_rows)


def _bootstrap_values(
    case: np.ndarray,
    control: np.ndarray,
    rho: float,
    scale: float,
    band: tuple[float, float] | None,
    token: str,
    seed: int,
    n_replicates: int,
    lo: int,
    hi: int,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Global and (given a band) partial replicate values of groups lo..hi-1.

    Each group's global values are ``scale`` times the int64 contraction
    of its rows; given a band, its partial values rebuild the plug-in
    curve of the same rows in float.  Only the value vectors outlive a
    group.
    """
    values, partial = [], []
    for group in range(lo, hi):
        n_rows = _group_size(n_replicates, group)
        stream = [seed, _TAG_BOOTSTRAP, group]
        boot_case, boot_control = _bootstrap_group(case, control, stream, n_rows)
        values.append(scale * _contract(boot_case, boot_control))
        if band is not None:
            p, r = _plugin_rows(boot_case, boot_control, rho)
            del boot_case, boot_control  # out of the band statistic's peak
            partial.append(_index_rows(p, r, rho, (token,), band)[token])
    return np.concatenate(values), np.concatenate(partial) if partial else None


def _permutation_hits(
    pooled: np.ndarray, n_d: int, observed: int, seed: int, n_replicates: int, lo: int, hi: int
) -> int:
    """Permuted replicates of groups lo..hi-1 with |case' phi control| >= observed.

    Group k draws its case rows from the stream ``[seed,
    _TAG_PERMUTATION, k]`` in one call and counts them.
    """
    hits = 0
    for group in range(lo, hi):
        rng = np.random.default_rng([seed, _TAG_PERMUTATION, group])
        n_rows = _group_size(n_replicates, group)
        perm_case = rng.multivariate_hypergeometric(pooled, n_d, size=n_rows)
        stats = np.abs(_contract(perm_case, pooled[None, :] - perm_case))
        hits += int(np.count_nonzero(stats >= observed))
    return hits


def _percentile_ci(values: np.ndarray, level: float) -> ConfidenceInterval:
    tail = 100.0 * (1.0 - level) / 2.0
    lower, upper = np.percentile(values, [tail, 100.0 - tail])
    return ConfidenceInterval(float(lower), float(upper), level)


def _replicate_estimate(
    point: float, values: np.ndarray, plan: ResamplePlan, level: float
) -> UEstimate:
    """Point estimate with the variance and percentile interval of its
    (finite) replicate values."""
    variance = float(np.var(values, ddof=1)) if values.size > 1 else 0.0
    return UEstimate(
        u_hat=point,
        variance=variance,
        method=Method.BOOTSTRAP,
        ci=_percentile_ci(values, level),
        n_replicates=plan.n_replicates,
        seed=plan.seed,
        n_finite=int(values.size),
    )


def bootstrap_ci(
    counts: CaseControlCounts,
    order,
    plan: ResamplePlan,
    level: float = 0.95,
    workers: int | None = None,
) -> UEstimate:
    """Percentile bootstrap interval for U along a fixed genotype order.

    The order is held fixed across replicates (it encodes the trained
    model); only the counts are resampled, stratified within cases and
    controls.  Deterministic given the plan seed, whatever ``workers``
    (thread count; default 1).

    Returns
    -------
    UEstimate
        ``u_hat`` is the point estimate on the original counts,
        ``variance`` the replicate variance, ``ci`` the percentile
        interval.
    """
    return bootstrap_estimates(counts, order, plan, level, workers=workers)[0]


def permutation_test(
    counts: CaseControlCounts, order, plan: ResamplePlan, workers: int | None = None
) -> float:
    """Two-sided permutation p-value for H0: U = 0 (labels exchangeable).

    Redraws the case counts from the pooled genotype totals by
    multivariate hypergeometric sampling, which is exactly a uniform
    permutation of case/control labels at fixed genotypes.  The
    comparison |U*| >= |U| runs on the int64 kernel contraction, so it
    is exact at any sample size.  The replicates are drawn in groups,
    each from its own stream, on ``workers`` threads (default 1), and
    counted as they go, so memory is one group's working set per thread
    whatever the replicate count and the p-value is the same for any
    thread count.  numpy draws them only for fewer than 10**9 subjects
    in total; a larger pooled total raises ``ValidationError``.

    The ``order`` must come from outside the data being tested (a
    trained model, an external ranking, or a fixed convention).  An
    order chosen by sorting these same counts makes |U| large by
    construction and the test anti-conservative.

    Returns
    -------
    float
        p = (1 + #{|U*| >= |U|}) / (1 + n_replicates).
    """
    pooled = counts.n_cases + counts.n_controls
    if pooled >= 10**9:  # numpy's multivariate hypergeometric draw takes no more
        raise ValidationError(
            f"the permutation test needs fewer cases and controls in total than the limit "
            f"10**9 = 1000000000, got {pooled}"
        )
    case, control = _align_counts(counts, order)
    observed = abs(int(_contract(case, control)))
    args = (case + control, counts.n_cases, observed, plan.seed, plan.n_replicates)
    n_groups = _n_groups(plan.n_replicates)
    hits = parallel.map_ranges(_permutation_hits, n_groups, workers, *args)
    return (1 + sum(hits)) / (1 + plan.n_replicates)


def partial_u_variance(
    counts: CaseControlCounts,
    order,
    band: tuple[float, float],
    plan: ResamplePlan,
    level: float = 0.95,
    standardized: bool = False,
    workers: int | None = None,
) -> UEstimate:
    """Bootstrap variance and percentile interval for the partial U.

    Each replicate resamples the counts (stratified, same stream as
    ``bootstrap_ci`` for the same plan), rebuilds the plug-in curve in
    the fixed order and evaluates the band-clipped statistic; with the
    full band (0, 1) the replicate values coincide with the global
    bootstrap to rounding.  It and ``bootstrap_ci`` are views of
    ``bootstrap_estimates``, which ``summarize`` calls once to get the
    global and the partial interval from a single draw.  Replicates that
    are not finite are left out of the variance and interval and counted
    in ``n_finite``.

    Parameters
    ----------
    standardized : bool
        If True, divide each replicate by 2 rho_pt (1 - rho_pt) with
        rho_pt the band mass integral of that replicate's curve.
    workers : int, optional
        Thread count; defaults to 1.
    """
    return bootstrap_estimates(counts, order, plan, level, band, standardized, workers)[1]


def bootstrap_estimates(
    counts: CaseControlCounts,
    order,
    plan: ResamplePlan,
    level: float = 0.95,
    band: tuple[float, float] | None = None,
    standardized: bool = False,
    workers: int | None = None,
) -> tuple[UEstimate, UEstimate | None]:
    """Global and (given a band) partial bootstrap estimates from one draw.

    The stratified replicates are drawn once, group by group
    (``_bootstrap_group``), on ``workers`` threads (default 1); each
    group returns only its global and partial replicate values, so
    memory is a few (8, G) arrays per thread whatever B is.  ``bootstrap_ci`` and ``partial_u_variance``
    are the two halves of the result.  Non-finite partial replicates
    are dropped at the end, in draw order.  ``summarize --band`` calls
    it with ``standardized=False``, so the ``partial`` block of its
    ``inference.json`` is the raw partial U whatever ``--indices`` asks
    for, ``upartialstd`` and no partial token at all included.

    Returns
    -------
    (UEstimate, UEstimate or None)
        The global U estimate, and the partial U estimate (standardised
        if ``standardized``) when a band is given.
    """
    if band is not None:
        _check_band(*band)
    if not 0.0 <= level < 1.0:
        raise ValidationError(f"confidence level must lie in [0, 1), got {level}")
    case, control = _align_counts(counts, order)
    rho = counts.rho
    scale = 2.0 * rho * (1.0 - rho) / (counts.n_cases * counts.n_controls)
    token = "upartialstd" if standardized else "upartial"

    args = (case, control, rho, scale, band, token, plan.seed, plan.n_replicates)
    n_groups = _n_groups(plan.n_replicates)
    parts = parallel.map_ranges(_bootstrap_values, n_groups, workers, *args)
    values = np.concatenate([part[0] for part in parts])
    total = _replicate_estimate(scale * int(_contract(case, control)), values, plan, level)
    if band is None:
        return total, None

    p, r = _plugin_rows(case[None, :].astype(float), control[None, :].astype(float), rho)
    point = float(_index_rows(p, r, rho, (token,), band)[token][0])
    partial = np.concatenate([part[1] for part in parts])
    partial = partial[np.isfinite(partial)]
    if partial.size == 0:
        raise NumericError("no finite bootstrap replicate for the partial U")
    return total, _replicate_estimate(point, partial, plan, level)
