"""Estimation and uncertainty for the predictiveness U statistic.

U admits a two-sample U-statistic representation: with cases s and
controls t,

    U_hat = 2 rho (1 - rho) * (1 / (n_D n_Dbar)) * sum_s sum_t phi(g_s, g_t)

where phi is the antisymmetric sign of the genotype order positions.
Every routine here contracts over genotype classes rather than subject
pairs, so costs scale with the number of distinct genotypes G, not with
n^2; the per-subject form exists only as a test oracle.

Resampling is stratified within arms (bootstrap) or redraws the case
counts from the pooled genotype totals by multivariate hypergeometric
sampling (permutation, equivalent to permuting labels).  All streams
derive from the plan seed plus fixed stream tags, so results are
reproducible and independent of any parallel execution.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np
from scipy.stats import norm

from .errors import NumericError, ValidationError
from .risk_model import CaseControlCounts, CurvePoints, GenotypeId, _plugin_rows
from .summary_indices import clipped_band_masses, partial_u_statistic, u_statistic

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


class Method(enum.Enum):
    POPULATION_HOEFFDING = "population_hoeffding"
    TWO_SAMPLE_ASYMPTOTIC = "two_sample_asymptotic"
    BOOTSTRAP = "bootstrap"
    PERMUTATION = "permutation"


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
    """phi[i, j] = sign(i - j) for order positions 0..n-1."""
    pos = np.arange(n)
    return np.sign(pos[:, None] - pos[None, :]).astype(float)


def _align_counts(
    counts: CaseControlCounts, order
) -> tuple[np.ndarray, np.ndarray, tuple[GenotypeId, ...]]:
    """Count vectors arranged along the given genotype order.

    Every genotype with a nonzero count must appear in the order;
    ordered genotypes absent from the counts contribute zero rows.
    """
    order = tuple(order)
    keys = [g.key for g in order]
    if len(set(keys)) != len(keys):
        raise ValidationError("order must not repeat genotypes")
    slot = {k: i for i, k in enumerate(keys)}
    case = np.zeros(len(order), dtype=np.int64)
    control = np.zeros(len(order), dtype=np.int64)
    for g, nc, nn in zip(counts.genotypes, counts.n_case, counts.n_control):
        i = slot.get(g.key)
        if i is None:
            if nc > 0 or nn > 0:
                raise ValidationError(f"genotype {g} has counts but no order position")
            continue
        case[i] = nc
        control[i] = nn
    return case, control, order


def _contract(case: np.ndarray, phi: np.ndarray, control: np.ndarray) -> float:
    """sum_i sum_j case_i control_j phi[i, j]; exact in int-valued floats."""
    return float(case.astype(float) @ phi @ control.astype(float))


def two_sample_u(counts: CaseControlCounts, order) -> UEstimate:
    """Estimate U from case-control counts along a fixed genotype order.

    Contracts the pair kernel over genotype classes:
    U_hat = 2 rho (1 - rho) * (case' phi control) / (n_D n_Dbar).
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
    case, control, order = _align_counts(counts, order)
    rho = counts.rho
    phi = pair_kernel(len(order))
    n_d = counts.n_cases
    n_dbar = counts.n_controls
    u_hat = 2.0 * rho * (1.0 - rho) * _contract(case, phi, control) / (n_d * n_dbar)
    if n_d >= 2 and n_dbar >= 2:
        variance = asymptotic_variance_u(counts, order)
    else:
        variance = float("nan")
    return UEstimate(u_hat=u_hat, variance=variance, method=Method.TWO_SAMPLE_ASYMPTOTIC)


def asymptotic_variance_u(counts: CaseControlCounts, order) -> float:
    """Projection-based large-sample variance of the two-sample U estimate.

    Empirical variance of the per-subject conditional means of phi,
    computed per genotype class:

        var = 4 rho^2 (1-rho)^2 [ S_case / (n_D (n_D - 1))
                                  + S_control / (n_Dbar (n_Dbar - 1)) ]

    where S_case = sum_s (mean_t phi(g_s, g_t) - theta)^2 over cases,
    S_control symmetrically, and theta = U_hat / (2 rho (1 - rho)) is
    the kernel-scale estimate, so the deviations are centred on the
    same scale they are measured on.
    """
    case, control, order = _align_counts(counts, order)
    n_d = counts.n_cases
    n_dbar = counts.n_controls
    if n_d < 2 or n_dbar < 2:
        raise ValidationError("asymptotic variance needs at least two subjects per arm")
    rho = counts.rho
    phi = pair_kernel(len(order))
    theta = _contract(case, phi, control) / (n_d * n_dbar)
    # conditional mean of phi for a case in class i / a control in class j
    mean_case = (phi @ control.astype(float)) / n_dbar
    mean_control = (case.astype(float) @ phi) / n_d
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
    half = float(norm.ppf(0.5 + level / 2.0)) * np.sqrt(estimate.variance)
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


def _bootstrap_counts(
    counts: CaseControlCounts, plan: ResamplePlan
) -> tuple[np.ndarray, np.ndarray]:
    """Stratified bootstrap count matrices, one replicate per row.

    Resampling subjects with replacement within an arm is equivalent to
    a multinomial draw over that arm's genotype frequencies.
    """
    if plan.scheme is not Scheme.STRATIFIED_BOOTSTRAP:
        raise ValidationError(f"bootstrap requires STRATIFIED_BOOTSTRAP, got {plan.scheme}")
    rng = np.random.default_rng([plan.seed, _TAG_BOOTSTRAP])
    n_d = counts.n_cases
    n_dbar = counts.n_controls
    case = rng.multinomial(n_d, counts.n_case / n_d, size=plan.n_replicates)
    control = rng.multinomial(n_dbar, counts.n_control / n_dbar, size=plan.n_replicates)
    return case, control


def _percentile_ci(values: np.ndarray, level: float) -> ConfidenceInterval:
    tail = 100.0 * (1.0 - level) / 2.0
    lower, upper = np.percentile(values, [tail, 100.0 - tail])
    return ConfidenceInterval(float(lower), float(upper), level)


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
    if not 0.0 <= level < 1.0:
        raise ValidationError(f"confidence level must lie in [0, 1), got {level}")
    case, control, order = _align_counts(counts, order)
    rho = counts.rho
    phi = pair_kernel(len(order))
    n_d = counts.n_cases
    n_dbar = counts.n_controls
    scale = 2.0 * rho * (1.0 - rho) / (n_d * n_dbar)
    point = scale * _contract(case, phi, control)

    boot_case, boot_control = _bootstrap_counts(counts, plan)
    boot_case = _reorder_matrix(boot_case, counts, order)
    boot_control = _reorder_matrix(boot_control, counts, order)
    values = scale * np.einsum("bg,bg->b", boot_case @ phi, boot_control)
    variance = float(np.var(values, ddof=1)) if plan.n_replicates > 1 else 0.0
    return UEstimate(
        u_hat=point,
        variance=variance,
        method=Method.BOOTSTRAP,
        ci=_percentile_ci(values, level),
        n_replicates=plan.n_replicates,
        seed=plan.seed,
    )


def _reorder_matrix(
    mat: np.ndarray, counts: CaseControlCounts, order: tuple[GenotypeId, ...]
) -> np.ndarray:
    """Columns of ``mat`` (in counts order) arranged along ``order``."""
    slot = {g.key: i for i, g in enumerate(counts.genotypes)}
    out = np.zeros((mat.shape[0], len(order)), dtype=float)
    for j, g in enumerate(order):
        i = slot.get(g.key)
        if i is not None:
            out[:, j] = mat[:, i]
    return out


def permutation_test(counts: CaseControlCounts, order, plan: ResamplePlan) -> float:
    """Two-sided permutation p-value for H0: U = 0 (labels exchangeable).

    Redraws the case counts from the pooled genotype totals by
    multivariate hypergeometric sampling, which is exactly a uniform
    permutation of case/control labels at fixed genotypes.  The
    comparison |U*| >= |U| runs on the integer kernel contraction, so
    no floating-point fuzz enters the count.

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
    case, control, order = _align_counts(counts, order)
    phi = pair_kernel(len(order))
    observed = abs(_contract(case, phi, control))

    pooled = case + control
    n_d = counts.n_cases
    rng = np.random.default_rng([plan.seed, _TAG_PERMUTATION])
    perm_case = rng.multivariate_hypergeometric(pooled, n_d, size=plan.n_replicates)
    perm_control = pooled[None, :] - perm_case
    stats = np.abs(np.einsum("bg,bg->b", perm_case @ phi, perm_control.astype(float)))
    hits = int(np.count_nonzero(stats >= observed))
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
    bootstrap to rounding.

    Parameters
    ----------
    standardized : bool
        If True, divide each replicate by 2 rho_pt (1 - rho_pt) with
        rho_pt the band mass integral of that replicate's curve.
    """
    q0, q1 = band
    if not (0.0 <= q0 < q1 <= 1.0):
        raise ValidationError(f"band must satisfy 0 <= q0 < q1 <= 1, got {band}")
    if not 0.0 <= level < 1.0:
        raise ValidationError(f"confidence level must lie in [0, 1), got {level}")
    case, control, order = _align_counts(counts, order)
    rho = counts.rho

    boot_case, boot_control = _bootstrap_counts(counts, plan)
    boot_case = _reorder_matrix(boot_case, counts, order)
    boot_control = _reorder_matrix(boot_control, counts, order)

    def stat(case_rows: np.ndarray, control_rows: np.ndarray) -> np.ndarray:
        p, r = _plugin_rows(case_rows, control_rows, rho)
        value = np.atleast_1d(partial_u_statistic(p, r, q0, q1))
        if standardized:
            rho_pt = (clipped_band_masses(p, q0, q1) * r).sum(axis=-1)
            denom = 2.0 * rho_pt * (1.0 - rho_pt)
            value = np.divide(value, denom, out=np.full_like(value, np.nan), where=denom > 0)
        return value

    point = float(stat(case[None, :].astype(float), control[None, :].astype(float))[0])
    values = stat(boot_case, boot_control)
    values = values[np.isfinite(values)]
    if values.size == 0:
        raise NumericError("no finite bootstrap replicate for the partial U")
    variance = float(np.var(values, ddof=1)) if values.size > 1 else 0.0
    return UEstimate(
        u_hat=point,
        variance=variance,
        method=Method.BOOTSTRAP,
        ci=_percentile_ci(values, level),
        n_replicates=plan.n_replicates,
        seed=plan.seed,
    )
