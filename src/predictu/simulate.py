"""Population simulation and the bias/coverage evaluation harness.

Populations are built from independent biallelic loci in Hardy-Weinberg
equilibrium.  Penetrance is multiplicative in per-locus effects
(additive, dominant or recessive exposure codings) with optional
pairwise interaction multipliers, clipped to [0, 1]; the baseline is
calibrated so the implied prevalence hits ``target_rho`` exactly, and
an optional second calibration rescales the penetrance spread around
rho until the heritability

    h2 = Var(penetrance) / (rho (1 - rho))

matches a target.

The harness mimics external validation: each replicate draws a training
case-control sample (which fixes the genotype ordering), then an
independent test sample evaluated in that order.  This is what makes
the competitor indices interesting: the test curve is non-monotone, a
plug-in R or AE inflates under noise, while the pairwise structure of U
absorbs most of it.  Replicates run on threads (``parallel.map_ranges``)
and work only on the genotypes their test sample observed, not all 3^L.
A replicate's test curve and bootstrap replicates are those of
``summarize``: ``inference._bootstrap_values`` draws and evaluates them
in groups of about ``inference._GROUP_CELLS`` cells, so a thread holds
one group whatever B is.  Index values wait in a stack of at most as
many values until one row-wise percentile call takes the intervals of
all its replicates.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass, replace
from importlib import resources
from itertools import count

import numpy as np

from . import inference, parallel
from .errors import NumericError, ValidationError
from .isotonic import pava_rows
from .risk_model import (
    CaseControlCounts,
    RiskTable,
    _fields_equal,
    _plugin_rows,
    _trained_order,
    build_risk_table,
)
from .summary_indices import _DEFAULT_TOKENS, _EDGE, INDICES, _check_request, _index_rows

__all__ = [
    "Mode",
    "SnpSpec",
    "Interaction",
    "DiseaseModel",
    "Population",
    "EvalReport",
    "genotype_matrix",
    "genotype_probabilities",
    "penetrance_model",
    "heritability",
    "calibrate_heritability",
    "build_population",
    "sample_case_control",
    "run_bias_coverage",
    "load_model_spec",
    "preset",
]


class Mode(enum.Enum):
    """Exposure coding of minor-allele count c in {0, 1, 2}."""

    ADDITIVE = "additive"  # x = c
    DOMINANT = "dominant"  # x = 1 if c >= 1
    RECESSIVE = "recessive"  # x = 1 if c == 2


@dataclass(frozen=True)
class SnpSpec:
    """One locus: minor-allele frequency, exposure mode, relative risk."""

    maf: float
    mode: Mode = Mode.ADDITIVE
    rr: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.maf < 1.0:
            raise ValidationError(f"maf must lie in (0, 1), got {self.maf}")
        if not 0.0 < self.rr < np.inf:
            raise ValidationError(f"relative risk must be finite and positive, got {self.rr}")


@dataclass(frozen=True)
class Interaction:
    """Pairwise interaction multiplier rr ** (x_a * x_b)."""

    a: int
    b: int
    rr: float

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValidationError("interaction must involve two distinct loci")
        if not 0.0 < self.rr < np.inf:
            raise ValidationError(f"relative risk must be finite and positive, got {self.rr}")


@dataclass(frozen=True)
class DiseaseModel:
    """Penetrance over the full multi-locus genotype grid.

    ``penetrance[g]`` is P(D | g) for genotype g in canonical order
    (itertools.product over loci, last locus fastest).  ``name`` labels
    the model in evaluation reports.
    """

    snps: tuple[SnpSpec, ...]
    interactions: tuple[Interaction, ...]
    penetrance: np.ndarray
    target_rho: float
    target_h2: float | None = None
    name: str | None = None

    __eq__ = _fields_equal

    def __post_init__(self) -> None:
        pen = np.array(self.penetrance, dtype=float)
        pen.setflags(write=False)
        object.__setattr__(self, "penetrance", pen)
        if not self.snps:
            raise ValidationError("model needs at least one locus")
        if not 0.0 < self.target_rho < 1.0:
            raise ValidationError(f"target_rho must lie in (0, 1), got {self.target_rho}")
        if pen.shape != (3 ** len(self.snps),):
            raise ValidationError("penetrance length must be 3 ** n_loci")
        if not np.all((pen >= 0) & (pen <= 1)):  # NaN fails both
            raise ValidationError("penetrance values must lie in [0, 1]")
        _check_loci(self.interactions, len(self.snps))

    @property
    def n_genotypes(self) -> int:
        return self.penetrance.size

    @property
    def genotype_labels(self) -> tuple[str, ...]:
        grid = genotype_matrix(len(self.snps))
        return tuple("/".join(str(c) for c in row) for row in grid)


# the most genotypes a model may enumerate: building a model and its
# population holds about 470 bytes a genotype (236 MiB at 12 loci), so
# 13 loci take about 0.7 GiB and 14 would take about 2 GiB
_MAX_GENOTYPES = 3**13


def _check_grid(n_loci: int) -> None:
    """Too many loci to enumerate their 3**n_loci genotypes is invalid
    input, named before any grid is built."""
    if 3**n_loci > _MAX_GENOTYPES:
        raise ValidationError(
            f"{n_loci} loci give 3**{n_loci} = {3**n_loci} genotypes, more than "
            f"the {_MAX_GENOTYPES} a model may enumerate"
        )


def _check_loci(interactions, n_loci: int) -> None:
    for inter in interactions:
        if not (0 <= inter.a < n_loci and 0 <= inter.b < n_loci):
            raise ValidationError(
                f"interaction ({inter.a}, {inter.b}) indexes a locus outside the "
                f"{n_loci}-locus model"
            )


def genotype_matrix(n_loci: int) -> np.ndarray:
    """All 3**m minor-allele-count vectors, canonical order, shape (G, m)."""
    grid = np.indices((3,) * n_loci, dtype=np.int64).reshape(n_loci, -1)
    return np.ascontiguousarray(grid.T)


def genotype_probabilities(snps) -> np.ndarray:
    """Multi-locus genotype probabilities under HWE and independent loci."""
    snps = tuple(snps)
    grid = genotype_matrix(len(snps))
    probs = np.ones(grid.shape[0])
    for k, snp in enumerate(snps):
        f = snp.maf
        per_count = np.array([(1 - f) ** 2, 2 * f * (1 - f), f**2])
        probs *= per_count[grid[:, k]]
    return probs


def _exposures(snps, grid: np.ndarray) -> np.ndarray:
    x = np.zeros_like(grid, dtype=float)
    for k, snp in enumerate(snps):
        c = grid[:, k]
        if snp.mode is Mode.ADDITIVE:
            x[:, k] = c
        elif snp.mode is Mode.DOMINANT:
            x[:, k] = (c >= 1).astype(float)
        else:
            x[:, k] = (c == 2).astype(float)
    return x


def _bisect(below, lo: float, hi: float) -> tuple[float, float]:
    """Shrink the bracket [lo, hi] of a monotone crossing by halving.

    ``below(x)`` is True left of the crossing.  200 halvings at most; the
    loop stops early once the midpoint equals an end, as the bracket can
    then no longer shrink and the remaining steps would leave it as is.
    """
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def penetrance_model(
    snps, target_rho: float, interactions=(),
) -> DiseaseModel:
    """Build a multiplicative penetrance model calibrated to a prevalence.

    The relative risk score of genotype g is
    prod_k rr_k ** x_k(g) * prod_(a,b) rr_ab ** (x_a x_b); penetrance is
    baseline * score clipped to [0, 1], with the baseline solved (by
    bisection when clipping binds) so that the implied prevalence equals
    ``target_rho``.

    Returns
    -------
    DiseaseModel
    """
    snps = tuple(snps if isinstance(snps, (list, tuple)) else [snps])
    interactions = tuple(interactions)
    _check_grid(len(snps))
    _check_loci(interactions, len(snps))
    grid = genotype_matrix(len(snps))
    x = _exposures(snps, grid)
    log_score = x @ np.log([snp.rr for snp in snps])
    for inter in interactions:
        log_score = log_score + np.log(inter.rr) * x[:, inter.a] * x[:, inter.b]
    score = np.exp(log_score)
    probs = genotype_probabilities(snps)

    mean_score = float(probs @ score)
    baseline = target_rho / mean_score
    if np.max(baseline * score) > 1.0:
        # clipping binds: prevalence is monotone in the baseline, bisect
        def below_rho(b: float) -> bool:
            return float(probs @ np.clip(b * score, 0.0, 1.0)) < target_rho

        hi = baseline
        while below_rho(hi):
            hi *= 2.0
        _, baseline = _bisect(below_rho, 0.0, hi)
    pen = np.clip(baseline * score, 0.0, 1.0)
    return DiseaseModel(
        snps=snps,
        interactions=interactions,
        penetrance=pen,
        target_rho=float(target_rho),
    )


def _h2(probs: np.ndarray, pen: np.ndarray) -> float:
    """Var(pen) / (rho (1 - rho)), rho the mean of ``pen`` under ``probs``."""
    rho = float(probs @ pen)
    return float(probs @ (pen - rho) ** 2) / (rho * (1.0 - rho))


def heritability(model: DiseaseModel) -> float:
    """Var(penetrance) / (rho (1 - rho)) over the genotype distribution."""
    return _h2(genotype_probabilities(model.snps), model.penetrance)


def _clip_shift(base: np.ndarray, probs: np.ndarray, target: float) -> float:
    """The shift d with sum(probs clip(base + d, 0, 1)) = target, up to rounding.

    The sum is nondecreasing and piecewise linear in d, with a knot where
    an entry leaves 0 (d = -base) and where it reaches 1 (d = 1 - base):
    one sweep over the sorted knots finds the piece that crosses the target.
    """
    knots = np.concatenate([-base, 1.0 - base])
    order = np.argsort(knots, kind="stable")
    t = knots[order]
    slope = np.cumsum(np.concatenate([probs, -probs])[order])
    at_knots = np.concatenate([[0.0], np.cumsum(slope[:-1] * np.diff(t))])
    j = min(max(int(np.searchsorted(at_knots, target)) - 1, 0), t.size - 2)
    return float(t[j] + (target - at_knots[j]) / slope[j]) if slope[j] > 0 else float(t[j])


def _recentred(pen0: np.ndarray, probs: np.ndarray, rho: float, s: float) -> np.ndarray:
    """Penetrance spread scaled by s around rho, clipped, mean pinned to rho.

    The shift is the bisection's on [-1 - |s|, 1 + |s|], to the bit, with
    few evaluations.  ``below`` is monotone, so once ``below(a)`` and not
    ``below(b)`` hold, every step outside (a, b) is known.  [a, b] starts
    one ulp of the sweep's shift plus one of rho (the scale of the rounding
    of the mean) either side of it and widens 16-fold until it holds; a
    shift outside the bracket, or not finite, starts it at 0.
    """
    base = rho + s * (pen0 - rho)

    def below(delta: float) -> bool:
        return float(probs @ np.clip(base + delta, 0.0, 1.0)) < rho

    lo, hi = -1.0 - abs(s), 1.0 + abs(s)
    guess = _clip_shift(base, probs, rho)
    if not lo < guess < hi:
        guess = 0.0
    unit = math.ulp(guess) + math.ulp(rho)
    a = next(x for x in (guess - unit * 16.0**k for k in count()) if x <= lo or below(x))
    b = next(x for x in (guess + unit * 16.0**k for k in count()) if x >= hi or not below(x))
    lo, hi = _bisect(lambda delta: delta <= a or (delta < b and below(delta)), lo, hi)
    return np.clip(base + 0.5 * (lo + hi), 0.0, 1.0)


def calibrate_heritability(model: DiseaseModel, target_h2: float) -> DiseaseModel:
    """Rescale the penetrance spread until the heritability hits a target.

    Applies pen -> clip(rho + s (pen - rho)) with a recentring shift
    that keeps the implied prevalence at rho, and bisects on s.  The
    shape of the risk surface is preserved; only its amplitude moves.

    Raises
    ------
    NumericError
        If the target exceeds what clipping at [0, 1] allows.
    """
    if not 0.0 <= target_h2 < np.inf:
        raise ValidationError(
            f"target heritability must be finite and nonnegative, got {target_h2}"
        )
    probs = genotype_probabilities(model.snps)
    rho = model.target_rho
    pen0 = model.penetrance
    if float(probs @ (pen0 - rho) ** 2) == 0.0 and target_h2 > 0:
        raise NumericError("flat penetrance cannot reach a positive heritability")

    def h2_at(s: float) -> float:
        return _h2(probs, _recentred(pen0, probs, rho, s))

    hi, h2_hi = 1.0, h2_at(1.0)
    while h2_hi < target_h2:
        h2_next = h2_at(2.0 * hi)
        if h2_next - h2_hi < 1e-12:
            raise NumericError(
                f"heritability target {target_h2} unreachable; "
                f"clipping saturates near {h2_hi:.6g}"
            )
        hi, h2_hi = 2.0 * hi, h2_next
    lo, hi = _bisect(lambda s: h2_at(s) < target_h2, 0.0, hi)
    s = 0.5 * (lo + hi)
    return replace(model, penetrance=_recentred(pen0, probs, rho, s), target_h2=float(target_h2))


@dataclass(frozen=True)
class Population:
    """A population with its true risk table and sampling laws.

    ``cond_case`` and ``cond_control`` are P(g | D) and P(g | not D) in
    table order, the laws case-control sampling draws from.
    """

    model: DiseaseModel
    table: RiskTable
    cond_case: np.ndarray
    cond_control: np.ndarray

    __eq__ = _fields_equal

    @property
    def rho(self) -> float:
        return self.table.rho

    @property
    def name(self) -> str:
        return self.model.name or "population"


def build_population(model: DiseaseModel) -> Population:
    """The exact genotype law of ``model`` and its true (sorted) risk table.

    The masses are the HWE genotype probabilities and the risks the
    model's penetrances, so the table is deterministic.
    """
    masses = genotype_probabilities(model.snps)
    pen = model.penetrance
    rho = float(masses @ pen)
    if not 0.0 < rho < 1.0:
        raise NumericError(f"population prevalence {rho} is degenerate")
    table = build_risk_table(
        masses * pen / rho,
        masses * (1.0 - pen) / (1.0 - rho),
        rho,
        genotypes=model.genotype_labels,
    )
    return Population(
        model=model,
        table=table,
        cond_case=table.p * table.r / rho,
        cond_control=table.p * (1.0 - table.r) / (1.0 - rho),
    )


def _draw_arms(population: Population, n_cases: int, n_controls: int, seed):
    """Case then control counts of one study, from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    case = rng.multinomial(n_cases, population.cond_case)
    return case, rng.multinomial(n_controls, population.cond_control)


def sample_case_control(
    population: Population, n_cases: int, n_controls: int, seed=None
) -> CaseControlCounts:
    """Draw genotype counts for a case-control study from the population.

    Cases are multinomial over P(g | D), controls over P(g | not D),
    independently.  ``seed`` may be an int or a numpy Generator.
    """
    if n_cases < 1 or n_controls < 1:
        raise ValidationError("need at least one case and one control")
    case, control = _draw_arms(population, n_cases, n_controls, seed)
    return CaseControlCounts(
        genotypes=population.table.genotypes,
        n_case=case,
        n_control=control,
        rho=population.rho,
    )


@dataclass(frozen=True)
class EvalReport:
    """Bias and coverage of one index on one population.

    ``mean`` and ``sd`` are taken over every replicate's point value, so
    one non-finite point value makes both NaN (``U_partial_std`` is NaN
    on a test curve whose band standardiser is not positive).  Each
    replicate's percentile interval is taken over its finite bootstrap
    values alone, and a replicate with no finite bootstrap value counts
    as not covered in ``pct_coverage``.  ``pct_bias`` is NaN when the
    true value lies within ``summary_indices._EDGE`` of 0, as every index
    of a null model does.
    """

    model: str
    index_name: str
    true_value: float
    mean: float
    sd: float
    pct_bias: float
    pct_coverage: float
    n_replicates: int

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "index": self.index_name,
            "true_value": self.true_value,
            "mean": self.mean,
            "sd": self.sd,
            "pct_bias": self.pct_bias,
            "pct_coverage": self.pct_coverage,
            "n_replicates": self.n_replicates,
        }


def _true_values(population: Population, tokens, band) -> dict[str, float]:
    p, r = population.table.p, population.table.r
    values = _index_rows(p, r, population.rho, tokens, band)
    return {token: float(v[0]) for token, v in values.items()}


def _replicate_chunk(
    population,
    tokens,
    band,
    n_cases,
    n_controls,
    isotonic,
    n_bootstrap,
    level,
    truth,
    seed,
    model_idx,
    rep_lo,
    rep_hi,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a contiguous block of replicates; values and coverage bits."""
    rho = population.rho
    n_tokens = len(tokens)
    values = np.empty((rep_hi - rep_lo, n_tokens))
    covered = np.empty((rep_hi - rep_lo, n_tokens), dtype=bool)
    target = np.array([truth[token] for token in tokens])
    # the bootstrap values of up to ``group`` replicates, token by row: one
    # percentile call takes a whole group's intervals, and a group holds
    # at most inference._GROUP_CELLS values
    group = max(1, inference._GROUP_CELLS // (n_tokens * n_bootstrap))
    stack = np.empty((group, n_tokens, n_bootstrap))
    refit = pava_rows if isotonic else None
    hold = []  # a replicate's first bootstrap group, alive until the next one's is built

    for row, k in enumerate(range(rep_lo, rep_hi)):
        slot = row % group
        case_t, ctrl_t = _draw_arms(population, n_cases, n_controls, [seed, model_idx, k, 0])
        case_s, ctrl_s = _draw_arms(population, n_cases, n_controls, [seed, model_idx, k, 1])

        # train-observed genotypes by train risk, then the rest by test risk
        _, r_train = _plugin_rows(case_t, ctrl_t, rho)
        _, r_test = _plugin_rows(case_s, ctrl_s, rho)
        seen = np.flatnonzero(case_t + ctrl_t)
        order = _trained_order(seen[np.argsort(r_train[seen], kind="stable")], r_test)

        # only positions with test mass carry mass in any row; a zero-mass
        # category draws nothing unless it is last, so every draw is kept
        keep = (case_s + ctrl_s)[order] > 0
        keep[-1] = True
        # the test curve, then its bootstrap replicates, as summarize draws them
        case_e, ctrl_e = case_s[order[keep]], ctrl_s[order[keep]]
        boot = inference._bootstrap_values(case_e, ctrl_e, (seed, model_idx, k, 2), n_bootstrap,
                                           rho, tokens, band, refit=refit, hold=hold)
        for t, token in enumerate(tokens):
            values[row, t] = boot[token][0]
            stack[slot, t] = boot[token][1:]
        if slot == group - 1 or k == rep_hi - 1:
            bounds = _coverage_bounds(stack[:slot + 1].reshape(-1, n_bootstrap), level)
            lower, upper = bounds.reshape(2, slot + 1, n_tokens)
            covered[row - slot:row + 1] = (lower <= target) & (target <= upper)
    return values, covered


def _coverage_bounds(reps: np.ndarray, level: float) -> np.ndarray:
    """Percentile interval of each row's finite replicates, (2, rows).

    One row-wise call covers the rows with no non-finite replicate; each
    other row is filtered on its own, and one with no finite replicate
    gets NaN bounds, which cover nothing.
    """
    finite = np.isfinite(reps)
    whole = finite.all(axis=1)
    if whole.all():
        return inference._percentiles(reps, level)
    bounds = np.full((2, reps.shape[0]), np.nan)
    bounds[:, whole] = inference._percentiles(reps[whole], level)
    for i in np.flatnonzero(~whole & finite.any(axis=1)):
        bounds[:, i] = inference._percentiles(reps[i, finite[i]], level)
    return bounds


def run_bias_coverage(
    populations,
    indices=_DEFAULT_TOKENS,
    n_replicates: int = 300,
    n_cases: int = 1000,
    n_controls: int = 1000,
    isotonic: bool = False,
    seed: int = 0,
    band: tuple[float, float] | None = None,
    n_bootstrap: int = 400,
    level: float = 0.95,
    workers: int | None = None,
) -> list[EvalReport]:
    """Percent bias and CI coverage of summary indices across populations.

    Each replicate draws an independent training sample (fixing the
    genotype evaluation order) and test sample, evaluates the requested
    indices on the test curve in the trained order (optionally after an
    isotonic refit), and checks whether a percentile bootstrap interval
    covers the population truth.

    Replicate streams are derived from (seed, population index,
    replicate index), so results do not depend on ``workers``.

    Parameters
    ----------
    populations : sequence of Population or DiseaseModel
    indices : sequence of str
        Tokens of ``summary_indices.INDICES``: u, ustd, upartial,
        upartialstd, r, rstd, tg, ae.  Defaults to u, ustd, r, tg, ae.
    band : (float, float), required with partial tokens
    workers : int, optional
        Thread count; defaults to 1.

    Returns
    -------
    list of EvalReport, one per (population, index).
    """
    tokens = tuple(indices)
    _check_request(tokens, band)
    if n_replicates < 1:
        raise ValidationError("need at least one replicate")
    if min(n_cases, n_controls) < 1:
        raise ValidationError("need at least one case and one control in each sample")
    if n_bootstrap < 1:
        raise ValidationError("need at least one bootstrap replicate")
    if not 0.0 < level < 1.0:
        raise ValidationError(f"level must lie in (0, 1), got {level}")
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")

    reports: list[EvalReport] = []
    for model_idx, pop in enumerate(populations):
        population = build_population(pop) if isinstance(pop, DiseaseModel) else pop
        truth = _true_values(population, tokens, band)
        args = (population, tokens, band, n_cases, n_controls, isotonic, n_bootstrap, level,
                truth, seed, model_idx)
        parts = parallel.map_ranges(
            lambda lo, hi: _replicate_chunk(*args, lo, hi), n_replicates, workers
        )
        values = np.concatenate([part[0] for part in parts], axis=0)
        covered = np.concatenate([part[1] for part in parts], axis=0)

        for t, token in enumerate(tokens):
            col = values[:, t]
            mean = float(col.mean())
            sd = float(col.std(ddof=1)) if n_replicates > 1 else 0.0
            true = truth[token]
            # a truth within _EDGE of 0 is rounding noise of a null model
            bias = 100.0 * abs(mean - true) / abs(true) if abs(true) > _EDGE else float("nan")
            reports.append(
                EvalReport(
                    model=population.name,
                    index_name=INDICES[token].name,
                    true_value=true,
                    mean=mean,
                    sd=sd,
                    pct_bias=bias,
                    pct_coverage=100.0 * float(covered[:, t].mean()),
                    n_replicates=n_replicates,
                )
            )
    return reports


def _locus_pair(pair) -> tuple[int, int]:
    """The two locus indices of an interaction entry; integers only."""
    if not (isinstance(pair, list) and len(pair) == 2 and all(type(i) is int for i in pair)):
        raise ValidationError(f"interaction pair must be two integer locus indices, got {pair!r}")
    return pair[0], pair[1]


_MODEL_KEYS = ("name", "version", "target_rho", "target_h2", "snps", "interactions")
_SNP_KEYS = ("maf", "mode", "rr")
_INTERACTION_KEYS = ("pair", "rr")


def _check_keys(entries, allowed: tuple[str, ...], where: str) -> None:
    """Each of ``entries`` must be a mapping with no key outside ``allowed``."""
    for entry in entries:
        if not isinstance(entry, dict):
            raise ValidationError(f"{where} must be a mapping, got {entry!r}")
        unknown = [key for key in entry if key not in allowed]
        if unknown:
            raise ValidationError(
                f"unknown key {unknown[0]!r} in {where}; allowed: {', '.join(allowed)}"
            )


def _model_from_mapping(doc: dict, name: str) -> DiseaseModel:
    try:
        _check_keys([doc], _MODEL_KEYS, "model specification")
        _check_keys(doc["snps"], _SNP_KEYS, "snps entry")
        _check_keys(doc.get("interactions", []), _INTERACTION_KEYS, "interactions entry")
        snps = tuple(
            SnpSpec(maf=float(s["maf"]), mode=Mode(s.get("mode", "additive")), rr=float(s.get("rr", 1.0)))
            for s in doc["snps"]
        )
        interactions = tuple(
            Interaction(*_locus_pair(i["pair"]), rr=float(i["rr"]))
            for i in doc.get("interactions", [])
        )
        target_rho = float(doc["target_rho"])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed model specification: {exc}") from exc
    model = penetrance_model(snps, target_rho, interactions)
    target_h2 = doc.get("target_h2")
    if target_h2 is not None:
        model = calibrate_heritability(model, float(target_h2))
    return replace(model, name=doc.get("name", name))


def load_model_spec(path) -> DiseaseModel:
    """Read a disease model from a YAML model file.

    Expected keys: ``snps`` (list of {maf, mode, rr}), optional
    ``interactions`` (list of {pair: [a, b], rr}), ``target_rho``,
    optional ``target_h2`` and ``name`` (default: the file stem).  A
    ``version`` key is accepted and not stored; any other key, at any
    level, is an error.  Any unreadable, malformed or invalid file
    raises ``ValidationError`` naming the path.
    """
    import yaml

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
        if not isinstance(doc, dict):
            raise ValidationError("does not contain a mapping")
        return _model_from_mapping(doc, name=os.path.splitext(os.path.basename(str(path)))[0])
    # a ValidationError is a ValueError; float() of a huge integer overflows
    except (OSError, ValueError, OverflowError, yaml.YAMLError) as exc:
        raise ValidationError(f"model file {path}: {exc}") from exc


def _preset_dir():
    return resources.files("predictu").joinpath("presets")


def preset(name: str) -> DiseaseModel:
    """Load one shipped preset model by name."""
    ref = _preset_dir().joinpath(f"{name}.yaml")
    if not ref.is_file():
        available = ", ".join(sorted(p.name[:-5] for p in _preset_dir().iterdir()))
        raise ValidationError(f"unknown preset {name!r}; available: {available}")
    return load_model_spec(ref)
