"""Estimation and uncertainty for the predictiveness U statistic.

U admits a two-sample U-statistic representation: with cases s and
controls t,

    U_hat = 2 rho (1 - rho) * (1 / (n_D n_Dbar)) * sum_s sum_t phi(g_s, g_t)

where phi is the antisymmetric sign of the genotype order positions.
Every routine here contracts over genotype classes rather than subject
pairs, and along the order the kernel reduces to a prefix sum,

    case' phi control = sum_i case_i (C_{<i} - C_{>i}),

with C_{<i} and C_{>i} the controls ordered below and above position i
(the DeLong placement values): ``summary_indices._contract``, the one
kernel of every U, exact on the int64 counts of the point estimate, the
asymptotic variance and every resampling replicate, O(G) per row, while
n_D n_Dbar and 2 max(n_D, n_Dbar) fit in int64 (larger arm totals raise
``ValidationError``); the dense ``pair_kernel`` and the per-subject form
exist only as test references.

Resampling is stratified within arms (bootstrap) or redraws the case
counts from the pooled genotype totals by multivariate hypergeometric
sampling (permutation, equivalent to permuting labels).  The unit of
resampling is a fixed group of ``_GROUP`` (8) replicates: group k draws
from its own stream ``[seed, tag, k]``, all its case rows in one call
and then all its control rows in one call, and is evaluated at once, so
a group's draw depends on nothing but the plan and its index.  One
group loop, ``_over_groups``, serves both passes: it splits the groups
into contiguous ranges on ``workers`` threads of the calling process
(default 1; the draws release the interpreter lock) and hands each
range's pass one generator per group.  A pass returns only its
replicate values (or permutation hits), joined in group order.  Memory
per thread is a few (8, G) arrays beyond the B-length results, flat in
the replicate count, and no result depends on the thread count.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from . import parallel
from .errors import NumericError, ValidationError
from .risk_model import _COUNT_LIMIT, CaseControlCounts, _check_laplace, _plugin_rows, _positions
from .summary_indices import INDICES, _check_request, _contract, _index_rows, _placements, _u_scale

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


def two_sample_u(counts: CaseControlCounts, order, laplace: float = 0.0) -> UEstimate:
    """Estimate U from case-control counts along a fixed genotype order.

    Contracts the pair kernel over genotype classes with one prefix sum:
    U_hat = 2 rho (1 - rho) * (case' phi control) / (n_D n_Dbar), where
    (phi control)_i counts the controls ordered below i minus those above.
    The result is algebraically identical to the pairwise-mass form
    2 sum_{i>j} p_hat_i p_hat_j (r_hat_i - r_hat_j) evaluated in the
    same order, each count along it smoothed by ``laplace`` (default 0;
    ``_smoothed_kernel``).  The attached variance is the asymptotic one
    of the raw placements, unsmoothed, when both arms hold at least two
    subjects, else NaN.

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
    kernel, pairs = _smoothed_kernel(case, control, _check_laplace(laplace))
    u_hat = float(_u_scale(rho) * kernel / pairs)
    if counts.n_cases >= 2 and counts.n_controls >= 2:
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


def _over_groups(plan: ResamplePlan, tag: int, workers, run) -> list:
    """``run`` over the plan's replicate groups, one call per worker range.

    Group k holds ``min(_GROUP, B - k _GROUP)`` replicates drawn from the
    stream ``[seed, tag, k]``.  Each worker's contiguous range of groups
    is one ``run(groups)`` call, ``groups`` yielding one ``(rng, rows)``
    pair per group; the results come back in group order.
    """
    n = plan.n_replicates

    def over_range(lo: int, hi: int):
        return run(
            (np.random.default_rng([plan.seed, tag, k]), min(_GROUP, n - k * _GROUP))
            for k in range(lo, hi)
        )

    return parallel.map_ranges(over_range, -(-n // _GROUP), workers)


def _bootstrap_group(
    case: np.ndarray, control: np.ndarray, rng: np.random.Generator, n_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stratified bootstrap count rows of one replicate group.

    Resampling subjects with replacement within an arm is equivalent to
    a multinomial draw over that arm's genotype frequencies, here taken
    along the order.  ``rng`` draws the ``n_rows`` case rows in one call,
    then the control rows; ``bootstrap_estimates`` passes each group's
    generator from ``_over_groups``.
    """
    boot_case = rng.multinomial(case.sum(), case / case.sum(), size=n_rows)
    return boot_case, rng.multinomial(control.sum(), control / control.sum(), size=n_rows)


def _smoothed_kernel(case: np.ndarray, control: np.ndarray, laplace: float):
    """(c + l)' phi (d + l) and (n_D + l G)(n_Dbar + l G) per row, l = ``laplace``.

    Exact int64 at l = 0; for l > 0 the identity (c + l)' phi (d + l) =
    c' phi d + l (sum_i (phi d)_i - sum_j (phi c)_j) adds one float term.
    """
    n_d, n_dbar = case.sum(axis=-1), control.sum(axis=-1)
    kernel = _contract(case, control)
    if laplace:
        kernel = kernel + laplace * _placements(control - case).sum(axis=-1)
        n_d, n_dbar = n_d + laplace * case.shape[-1], n_dbar + laplace * case.shape[-1]
    return kernel, n_d * n_dbar


def _replicate_values(stacks, rho: float, tokens, band, laplace: float):
    """Each requested index of each row, for each (case, control) pair of
    (B, G) count stacks along the order: one dict per pair.

    ``u`` and ``ustd`` = U / (2 rho (1 - rho)) come from the exact
    ``_smoothed_kernel``; any other token is ``_index_rows`` on the rows'
    plug-in curve from ``laplace``-smoothed frequencies.  A generator, so a
    pair's arrays live until the next pair's are built: freed sooner, they
    let the heap be trimmed and re-faulted every group (45,000 minor
    faults, not 300, at B = 2,000 and G = 1,953).
    """
    for case, control in stacks:
        out = {}
        if "u" in tokens or "ustd" in tokens:
            kernel, pairs = _smoothed_kernel(case, control, laplace)
            out["u"] = _u_scale(rho) / pairs * kernel
            out["ustd"] = out["u"] / _u_scale(rho)
        rest = [t for t in tokens if t not in out]
        if rest:
            p, r = _plugin_rows(case, control, rho, laplace)
            out.update(_index_rows(p, r, rho, rest, band))
        yield {t: out[t] for t in tokens}


def _percentiles(values: np.ndarray, level: float) -> np.ndarray:
    """Lower and upper equal-tailed ``level`` percentiles of ``values``
    along its last axis: one row-wise call serves a whole stack of rows."""
    tail = 100.0 * (1.0 - level) / 2.0
    return np.percentile(values, [tail, 100.0 - tail], axis=-1)


def _replicate_estimate(
    point: float, values: np.ndarray, plan: ResamplePlan, level: float
) -> UEstimate:
    """Point estimate with the variance and percentile interval of its
    (finite) replicate values."""
    variance = float(np.var(values, ddof=1)) if values.size > 1 else 0.0
    lower, upper = _percentiles(values, level)
    return UEstimate(
        u_hat=point,
        variance=variance,
        method=Method.BOOTSTRAP,
        ci=ConfidenceInterval(float(lower), float(upper), level),
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
    controls.  The ``u`` estimate of ``bootstrap_estimates``, the same
    for a plan seed whatever ``workers`` (thread count; default 1).
    """
    return bootstrap_estimates(counts, order, plan, ("u",), level=level, workers=workers)["u"]


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
    totals = case + control

    def hits(groups) -> int:
        # permuted replicates with |case' phi control| >= observed, in int64
        found = 0
        for rng, rows in groups:
            perm_case = rng.multivariate_hypergeometric(totals, counts.n_cases, size=rows)
            stats = np.abs(_contract(perm_case, totals[None, :] - perm_case))
            found += int(np.count_nonzero(stats >= observed))
        return found

    return (1 + sum(_over_groups(plan, _TAG_PERMUTATION, workers, hits))) / (1 + plan.n_replicates)


def bootstrap_estimates(
    counts: CaseControlCounts,
    order,
    plan: ResamplePlan,
    tokens,
    band: tuple[float, float] | None = None,
    level: float = 0.95,
    laplace: float = 0.0,
    workers: int | None = None,
) -> dict[str, UEstimate]:
    """Bootstrap estimates of the requested indices from one draw.

    The stratified replicates are drawn once, group by group, on
    ``workers`` threads (default 1).  Each group's rows, and the original
    counts as a one-row stack for the point value, go through
    ``_replicate_values``, every count along the order smoothed by
    ``laplace`` as in ``estimate_risk_table``, so each point value is the
    index ``summarize`` writes to ``indices.json``.  Non-finite
    replicates are dropped and counted in ``n_finite``.

    Returns
    -------
    dict
        One ``UEstimate`` per token, in order of first mention.
    """
    tokens = tuple(dict.fromkeys(tokens))
    _check_request(tokens, band)
    if not 0.0 <= level < 1.0:
        raise ValidationError(f"confidence level must lie in [0, 1), got {level}")
    laplace = _check_laplace(laplace)
    case, control = _align_counts(counts, order)

    def replicates(groups) -> list[dict]:
        stacks = (_bootstrap_group(case, control, rng, rows) for rng, rows in groups)
        return list(_replicate_values(stacks, counts.rho, tokens, band, laplace))

    parts = sum(_over_groups(plan, _TAG_BOOTSTRAP, workers, replicates), [])
    (point,) = _replicate_values([(case[None], control[None])], counts.rho, tokens, band, laplace)
    estimates = {}
    for token in tokens:
        values = np.concatenate([part[token] for part in parts])
        values = values[np.isfinite(values)]
        if values.size == 0:
            raise NumericError(f"no finite bootstrap replicate for {INDICES[token].name}")
        estimates[token] = _replicate_estimate(float(point[token][0]), values, plan, level)
    return estimates
