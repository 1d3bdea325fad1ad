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
in O(G) per row, exactly; the dense ``pair_kernel`` and the per-subject
form exist only as test references.

Resampling is stratified within arms (bootstrap) or redraws the case
counts from the pooled genotype totals by multivariate hypergeometric
sampling (permutation, equivalent to permuting labels).  All streams
derive from the plan seed plus fixed stream tags, so results are
reproducible and independent of any parallel execution.  Replicates
are drawn and evaluated in row blocks of a fixed byte size whose
concatenation is the one-call draw, so memory stays flat in the
replicate count (beyond the B-length results and, for the bootstrap,
one narrow-integer case stack) and no result depends on the blocks.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

from .errors import NumericError, ValidationError
from .risk_model import CaseControlCounts, _plugin_rows
from .summary_indices import _check_band, _index_rows, u_statistic

__all__ = [
    "Method",
    "Scheme",
    "ResamplePlan",
    "ConfidenceInterval",
    "UEstimate",
    "pair_kernel",
    "two_sample_u",
    "asymptotic_variance_u",
    "asymptotic_ci",
    "population_variance_u",
    "bootstrap_ci",
    "permutation_test",
    "partial_u_variance",
]

# stream tags keep bootstrap and permutation draws decoupled per seed
_TAG_BOOTSTRAP = 101
_TAG_PERMUTATION = 211
# replicate rows per block: one (rows, G) float64 array of a block stays
# within this many bytes, so resampling memory does not grow with B
_BLOCK_BYTES = 1 << 20


class Method(enum.Enum):
    TWO_SAMPLE_ASYMPTOTIC = "two_sample_asymptotic"
    BOOTSTRAP = "bootstrap"


class Scheme(enum.Enum):
    STRATIFIED_BOOTSTRAP = "stratified_bootstrap"
    LABEL_PERMUTATION = "label_permutation"


@dataclass(frozen=True)
class ResamplePlan:
    """Replicate count, master seed and resampling scheme."""

    n_replicates: int
    seed: int
    scheme: Scheme = Scheme.STRATIFIED_BOOTSTRAP

    def __post_init__(self) -> None:
        if self.n_replicates < 1:
            raise ValidationError("need at least one replicate")


@dataclass(frozen=True)
class ConfidenceInterval:
    lower: float
    upper: float
    level: float


@dataclass(frozen=True)
class UEstimate:
    """A U estimate with its uncertainty assessment."""

    u_hat: float
    variance: float
    method: Method
    ci: ConfidenceInterval | None = None
    n_replicates: int | None = None
    seed: int | None = None

    def to_dict(self) -> dict:
        return {
            "u_hat": self.u_hat,
            "variance": self.variance,
            "ci": None
            if self.ci is None
            else {"lower": self.ci.lower, "upper": self.ci.upper, "level": self.ci.level},
            "method": self.method.value,
            "n_replicates": self.n_replicates,
            "seed": self.seed,
        }


def pair_kernel(n: int) -> np.ndarray:
    """phi[i, j] = sign(i - j) for order positions 0..n-1 (dense reference)."""
    pos = np.arange(n)
    return np.sign(pos[:, None] - pos[None, :]).astype(float)


def _align_counts(
    counts: CaseControlCounts, order
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Case and control counts along the given genotype order, and the
    gather index ``pos`` that arranges any count matrix the same way.

    Every genotype with a nonzero count must appear in the order;
    ordered genotypes absent from the counts (``pos`` -1) contribute
    zero columns.
    """
    keys = [g.key for g in order]
    slot = {k: i for i, k in enumerate(keys)}
    if len(slot) != len(keys):
        raise ValidationError("order must not repeat genotypes")
    pos = np.full(len(keys), -1, dtype=np.intp)
    for j, (g, nc, nn) in enumerate(zip(counts.genotypes, counts.n_case, counts.n_control)):
        i = slot.get(g.key)
        if i is not None:
            pos[i] = j
        elif nc > 0 or nn > 0:
            raise ValidationError(f"genotype {g} has counts but no order position")
    return _take(counts.n_case, pos), _take(counts.n_control, pos), pos


def _take(values: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Columns of ``values`` (counts order, last axis) arranged by ``pos``."""
    out = np.take(values, pos, axis=-1)
    out[..., pos < 0] = 0
    return out


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
    case, control, _ = _align_counts(counts, order)
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
    case, control, _ = _align_counts(counts, order)
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
    # the lower tail: 1 - level is exact, 0.5 + level / 2 rounds
    half = -NormalDist().inv_cdf((1.0 - level) / 2.0) * np.sqrt(estimate.variance)
    ci = ConfidenceInterval(estimate.u_hat - half, estimate.u_hat + half, level)
    return replace(estimate, ci=ci)


def population_variance_u(table, n_population: int) -> float:
    """Sampling variance of U for one cohort of given size from a known table.

    Realises the table as integer genotype counts by largest-remainder
    rounding, then applies the leading Hoeffding projection term

        var = (4 / N) sum_i w_i (g_i - U)^2

    with w_i = N_i / N and g_i the conditional mean of the pair kernel
    given one subject of class i (order-aware, so the weighted mean of
    g equals U).

    Parameters
    ----------
    table : RiskTable
        Population truth.
    n_population : int
        Cohort size N >= 2.

    Returns
    -------
    float
    """
    if n_population < 2:
        raise ValidationError("population variance needs N >= 2")
    p = table.p
    r = table.r
    n_i = _largest_remainder(p, n_population)
    w = n_i / n_population
    u = u_statistic(w, r)
    below_mass = np.cumsum(w) - w
    below_wr = np.cumsum(w * r) - w * r
    above_mass = 1.0 - np.cumsum(w)
    above_wr = (w * r).sum() - np.cumsum(w * r)
    # g_i = sum_{j<i} w_j (r_i - r_j) + sum_{j>i} w_j (r_j - r_i)
    g = (r * below_mass - below_wr) + (above_wr - r * above_mass)
    return float(4.0 / n_population * (w @ (g - u) ** 2))


def _largest_remainder(p: np.ndarray, n: int) -> np.ndarray:
    """Integer counts n_i with sum n, proportional to p, largest remainder."""
    raw = p * n
    base = np.floor(raw).astype(np.int64)
    deficit = int(n - base.sum())
    if deficit > 0:
        # stable argsort on negated remainders: ties go to lower index
        order = np.argsort(-(raw - base), kind="stable")
        base[order[:deficit]] += 1
    return base


def _blocks(n_rows: int, width: int) -> list[slice]:
    """Consecutive row slices covering ``n_rows`` replicates, each block
    small enough that a (rows, width) float64 array stays within
    ``_BLOCK_BYTES`` (at least one row per block)."""
    step = max(1, _BLOCK_BYTES // (8 * max(width, 1)))
    return [slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def _bootstrap_blocks(
    counts: CaseControlCounts, plan: ResamplePlan, pos: np.ndarray
) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """Stratified bootstrap count rows aligned by ``pos``, in replicate blocks.

    Resampling subjects with replacement within an arm is equivalent to
    a multinomial draw over that arm's genotype frequencies.  The stream
    draws all case rows, then all control rows, so the case rows are
    drawn first, block by block, into one held stack of the narrowest
    signed integer that holds ``n_D``; the control rows are then drawn a
    block at a time.  Yields ``(rows, case, control)`` per block, in
    replicate order; together the blocks equal one full-size draw.
    """
    if plan.scheme is not Scheme.STRATIFIED_BOOTSTRAP:
        raise ValidationError(f"bootstrap requires STRATIFIED_BOOTSTRAP, got {plan.scheme}")
    rng = np.random.default_rng([plan.seed, _TAG_BOOTSTRAP])
    n_d = counts.n_cases
    n_dbar = counts.n_controls
    blocks = _blocks(plan.n_replicates, max(counts.n_case.size, pos.size))
    held = np.empty((plan.n_replicates, pos.size), dtype=np.min_scalar_type(-n_d - 1))
    freq = counts.n_case / n_d
    for rows in blocks:
        held[rows] = _take(rng.multinomial(n_d, freq, size=rows.stop - rows.start), pos)
    freq = counts.n_control / n_dbar
    for rows in blocks:
        control = _take(rng.multinomial(n_dbar, freq, size=rows.stop - rows.start), pos)
        yield rows, held[rows], control


def _percentile_ci(values: np.ndarray, level: float) -> ConfidenceInterval:
    tail = 100.0 * (1.0 - level) / 2.0
    lower, upper = np.percentile(values, [tail, 100.0 - tail])
    return ConfidenceInterval(float(lower), float(upper), level)


def _replicate_estimate(
    point: float, values: np.ndarray, plan: ResamplePlan, level: float
) -> UEstimate:
    """Point estimate with the variance and percentile interval of its replicates."""
    variance = float(np.var(values, ddof=1)) if values.size > 1 else 0.0
    return UEstimate(
        u_hat=point,
        variance=variance,
        method=Method.BOOTSTRAP,
        ci=_percentile_ci(values, level),
        n_replicates=plan.n_replicates,
        seed=plan.seed,
    )


def bootstrap_ci(
    counts: CaseControlCounts, order, plan: ResamplePlan, level: float = 0.95
) -> UEstimate:
    """Percentile bootstrap interval for U along a fixed genotype order.

    The order is held fixed across replicates (it encodes the trained
    model); only the counts are resampled, stratified within cases and
    controls.  Deterministic given the plan seed.

    Returns
    -------
    UEstimate
        ``u_hat`` is the point estimate on the original counts,
        ``variance`` the replicate variance, ``ci`` the percentile
        interval.
    """
    return _bootstrap_estimates(counts, order, plan, level)[0]


def permutation_test(counts: CaseControlCounts, order, plan: ResamplePlan) -> float:
    """Two-sided permutation p-value for H0: U = 0 (labels exchangeable).

    Redraws the case counts from the pooled genotype totals by
    multivariate hypergeometric sampling, which is exactly a uniform
    permutation of case/control labels at fixed genotypes.  The
    comparison |U*| >= |U| runs on the int64 kernel contraction, so it
    is exact at any sample size.  The replicates are drawn from the one
    stream a block at a time and counted as they go, so memory is one
    block's working set whatever the replicate count.

    The ``order`` must come from outside the data being tested (a
    trained model, an external ranking, or a fixed convention).  An
    order chosen by sorting these same counts makes |U| large by
    construction and the test anti-conservative.

    Returns
    -------
    float
        p = (1 + #{|U*| >= |U|}) / (1 + n_replicates).
    """
    if plan.scheme is not Scheme.LABEL_PERMUTATION:
        raise ValidationError(f"permutation requires LABEL_PERMUTATION, got {plan.scheme}")
    case, control, _ = _align_counts(counts, order)
    observed = abs(int(_contract(case, control)))

    pooled = case + control
    n_d = counts.n_cases
    rng = np.random.default_rng([plan.seed, _TAG_PERMUTATION])
    hits = 0
    for rows in _blocks(plan.n_replicates, pooled.size):
        perm_case = rng.multivariate_hypergeometric(pooled, n_d, size=rows.stop - rows.start)
        stats = np.abs(_contract(perm_case, pooled[None, :] - perm_case))
        hits += int(np.count_nonzero(stats >= observed))
    return (1 + hits) / (1 + plan.n_replicates)


def partial_u_variance(
    counts: CaseControlCounts,
    order,
    band: tuple[float, float],
    plan: ResamplePlan,
    level: float = 0.95,
    standardized: bool = False,
) -> UEstimate:
    """Bootstrap variance and percentile interval for the partial U.

    Each replicate resamples the counts (stratified, same stream as
    ``bootstrap_ci`` for the same plan), rebuilds the plug-in curve in
    the fixed order and evaluates the band-clipped statistic; with the
    full band (0, 1) the replicate values coincide with the global
    bootstrap to rounding.  The draw is the one ``bootstrap_ci`` makes:
    both go through one routine, which ``summarize`` calls once to get
    the global and the partial interval from a single draw.

    Parameters
    ----------
    standardized : bool
        If True, divide each replicate by 2 rho_pt (1 - rho_pt) with
        rho_pt the band mass integral of that replicate's curve.
    """
    return _bootstrap_estimates(counts, order, plan, level, band, standardized)[1]


def _bootstrap_estimates(
    counts: CaseControlCounts,
    order,
    plan: ResamplePlan,
    level: float = 0.95,
    band: tuple[float, float] | None = None,
    standardized: bool = False,
) -> tuple[UEstimate, UEstimate | None]:
    """Global and (given a band) partial bootstrap estimates from one draw.

    The stratified replicates are drawn once, in fixed-size row blocks
    (``_bootstrap_blocks``).  Each block's global replicates are the
    int64 contraction of its rows, and given a band its partial
    replicates rebuild the plug-in curve of the same rows in float;
    only the B-length value vectors outlive a block.  Memory is the
    held case stack (B x G narrow integers) plus one block's working
    set, whatever B is.  Non-finite partial replicates are dropped at
    the end, in draw order.
    """
    if band is not None:
        _check_band(*band)
    if not 0.0 <= level < 1.0:
        raise ValidationError(f"confidence level must lie in [0, 1), got {level}")
    case, control, pos = _align_counts(counts, order)
    rho = counts.rho
    scale = 2.0 * rho * (1.0 - rho) / (counts.n_cases * counts.n_controls)
    token = "upartialstd" if standardized else "upartial"

    values = np.empty(plan.n_replicates)
    partial = np.empty(plan.n_replicates)
    for rows, boot_case, boot_control in _bootstrap_blocks(counts, plan, pos):
        values[rows] = scale * _contract(boot_case, boot_control)
        if band is not None:
            p, r = _plugin_rows(boot_case.astype(float), boot_control.astype(float), rho)
            partial[rows] = _index_rows(p, r, rho, (token,), band)[token]
    total = _replicate_estimate(scale * int(_contract(case, control)), values, plan, level)
    if band is None:
        return total, None

    p, r = _plugin_rows(case[None, :].astype(float), control[None, :].astype(float), rho)
    point = float(_index_rows(p, r, rho, (token,), band)[token][0])
    partial = partial[np.isfinite(partial)]
    if partial.size == 0:
        raise NumericError("no finite bootstrap replicate for the partial U")
    return total, _replicate_estimate(point, partial, plan, level)
