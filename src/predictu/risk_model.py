"""Discrete predictiveness curves for multi-locus genotype risk models.

A risk model over a finite set of genotypes is held as a table of
(genotype, population mass, predicted risk) rows.  The predictiveness
curve is the step function that plots risk against cumulative population
quantile: genotype i occupies the interval (q_{i-1}, q_i] with
q_i = sum_{j<=i} p_j.  The curve is intrinsically discrete; no
interpolation or smoothing is applied anywhere.

Tables built here satisfy two exact identities: masses sum to one and
the mass-weighted mean risk equals the disease prevalence rho.  Curves
produced by carrying a trained genotype ordering onto an independent
dataset may be non-monotone; they are represented as CurvePoints and are
first-class inputs to every summary index.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ValidationError

__all__ = [
    "GenotypeId",
    "RiskTable",
    "CurvePoints",
    "CaseControlCounts",
    "build_risk_table",
    "estimate_risk_table",
    "curve_points",
    "apply_model_to_test",
]

# Tolerance for "sums to one" style mass checks.
MASS_TOL = 1e-9


@dataclass(frozen=True, order=True)
class GenotypeId:
    """Identifier for one multi-locus genotype.

    ``index`` is a small integer assigned at table construction;
    ``label`` carries the genotype spelling (e.g. ``"0/1/2/0"``) when one
    is known.  Matching across datasets uses ``key``: the label when
    present, otherwise the index.
    """

    index: int
    label: str | None = field(default=None, compare=False)

    @property
    def key(self) -> str | int:
        return self.label if self.label is not None else self.index

    def __str__(self) -> str:
        return self.label if self.label is not None else f"g{self.index}"


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _check_rho(rho: float) -> float:
    rho = float(rho)
    if not 0.0 < rho < 1.0:
        raise ValidationError(f"rho must lie strictly inside (0, 1), got {rho}")
    return rho


@dataclass(frozen=True)
class RiskTable:
    """Risk model rows sorted by predicted risk, ascending.

    Parameters
    ----------
    genotypes : tuple of GenotypeId
        One id per row, in sorted (risk-ascending) order.
    p : ndarray
        Population mass per genotype.  Nonnegative, sums to one.
    r : ndarray
        Predicted risk per genotype, nondecreasing, in [0, 1].
    rho : float
        Disease prevalence in (0, 1).  The mass-weighted mean risk of a
        consistently built table equals rho; a mismatch beyond tolerance
        raises a warning, not an error, so hand-built tables remain
        usable.
    ordering : tuple of int
        For each sorted row, the position it held in the construction
        input.  Ties in risk preserve input order (stable sort).
    dropped : tuple of GenotypeId
        Genotypes removed because they carried zero mass.
    """

    genotypes: tuple[GenotypeId, ...]
    p: np.ndarray
    r: np.ndarray
    rho: float
    ordering: tuple[int, ...]
    dropped: tuple[GenotypeId, ...] = ()

    def __post_init__(self) -> None:
        p = _frozen_array(self.p)
        r = _frozen_array(self.r)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "rho", _check_rho(self.rho))
        if p.ndim != 1 or r.shape != p.shape:
            raise ValidationError("p and r must be one-dimensional and equal length")
        if len(self.genotypes) != p.size or len(self.ordering) != p.size:
            raise ValidationError("genotypes, ordering, p and r must align")
        if p.size == 0:
            raise ValidationError("risk table must contain at least one genotype")
        if np.any(p < 0):
            raise ValidationError("genotype masses must be nonnegative")
        if abs(p.sum() - 1.0) > MASS_TOL:
            raise ValidationError(f"genotype masses must sum to 1, got {p.sum()!r}")
        if np.any(r < -MASS_TOL) or np.any(r > 1 + MASS_TOL):
            raise ValidationError("risks must lie in [0, 1]")
        if np.any(np.diff(r) < 0):
            raise ValidationError("risks must be nondecreasing; sort before constructing")
        if abs(float(p @ r) - self.rho) > MASS_TOL:
            warnings.warn(
                f"mass-weighted mean risk {float(p @ r):.6g} differs from rho "
                f"{self.rho:.6g}; table is not prevalence-consistent",
                stacklevel=3,
            )

    @property
    def n_genotypes(self) -> int:
        return self.p.size

    @property
    def mean_risk(self) -> float:
        """Mass-weighted mean risk; equals rho for consistent tables."""
        return float(self.p @ self.r)

    @property
    def quantiles(self) -> np.ndarray:
        """Upper quantile boundary q_i of each genotype's step."""
        return np.cumsum(self.p)

    @property
    def boundary_risks(self) -> np.ndarray:
        """Boolean mask of rows with risk exactly 0 or 1."""
        return (self.r == 0.0) | (self.r == 1.0)


@dataclass(frozen=True)
class CurvePoints:
    """A predictiveness curve in evaluation order, possibly non-monotone.

    ``q`` holds the strictly increasing upper quantile boundaries (the
    last equals 1); ``r`` holds the risk on each step (q_{i-1}, q_i].
    """

    q: np.ndarray
    r: np.ndarray
    rho: float
    genotypes: tuple[GenotypeId, ...] | None = None
    unseen: tuple[GenotypeId, ...] = ()

    def __post_init__(self) -> None:
        q = _frozen_array(self.q)
        r = _frozen_array(self.r)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "rho", _check_rho(self.rho))
        if q.ndim != 1 or r.shape != q.shape or q.size == 0:
            raise ValidationError("q and r must be one-dimensional, equal length, nonempty")
        if np.any(np.diff(q) <= 0) or q[0] <= 0:
            raise ValidationError("quantile boundaries must be strictly increasing")
        if abs(q[-1] - 1.0) > MASS_TOL:
            raise ValidationError("final quantile boundary must equal 1")
        if np.any(r < -MASS_TOL) or np.any(r > 1 + MASS_TOL):
            raise ValidationError("risks must lie in [0, 1]")

    @property
    def masses(self) -> np.ndarray:
        return np.diff(self.q, prepend=0.0)

    @property
    def monotone(self) -> bool:
        return bool(np.all(np.diff(self.r) >= 0))

    @property
    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.q.tolist(), self.r.tolist()))


@dataclass(frozen=True)
class CaseControlCounts:
    """Per-genotype case and control counts with an external prevalence.

    Case-control sampling does not identify the prevalence, so rho must
    be supplied from outside the data.
    """

    genotypes: tuple[GenotypeId, ...]
    n_case: np.ndarray
    n_control: np.ndarray
    rho: float

    def __post_init__(self) -> None:
        n_case = _frozen_array(self.n_case, dtype=np.int64)
        n_control = _frozen_array(self.n_control, dtype=np.int64)
        object.__setattr__(self, "n_case", n_case)
        object.__setattr__(self, "n_control", n_control)
        object.__setattr__(self, "rho", _check_rho(self.rho))
        if n_case.ndim != 1 or n_case.shape != n_control.shape:
            raise ValidationError("count vectors must be one-dimensional and equal length")
        if len(self.genotypes) != n_case.size:
            raise ValidationError("genotypes and counts must align")
        if n_case.size == 0:
            raise ValidationError("counts must contain at least one genotype")
        if np.any(n_case < 0) or np.any(n_control < 0):
            raise ValidationError("counts must be nonnegative")
        if n_case.sum() < 1 or n_control.sum() < 1:
            raise ValidationError("need at least one case and one control")
        keys = [g.key for g in self.genotypes]
        if len(set(keys)) != len(keys):
            raise ValidationError("genotype identities must be unique")

    @property
    def n_cases(self) -> int:
        return int(self.n_case.sum())

    @property
    def n_controls(self) -> int:
        return int(self.n_control.sum())


def _default_genotypes(n: int) -> tuple[GenotypeId, ...]:
    return tuple(GenotypeId(i) for i in range(n))


def build_risk_table(
    conditional_case,
    conditional_control,
    rho: float,
    genotypes: tuple[GenotypeId, ...] | None = None,
) -> RiskTable:
    """Build a risk table from genotype distributions among cases and controls.

    Applies Bayes' rule row by row:

        p_i = P(g_i | D) rho + P(g_i | not D) (1 - rho)
        r_i = P(g_i | D) rho / p_i

    so that sum(p) = 1 and sum(p r) = rho hold exactly.  Rows with zero
    total mass are dropped with a warning.  Rows are sorted by risk,
    ascending, ties keeping input order.

    Parameters
    ----------
    conditional_case, conditional_control : array_like
        P(g | D) and P(g | not D); equal length, each summing to one.
    rho : float
        Disease prevalence, strictly inside (0, 1).
    genotypes : tuple of GenotypeId, optional
        Identities for the input rows.  Defaults to indices 0..G-1.

    Returns
    -------
    RiskTable
    """
    a = np.asarray(conditional_case, dtype=float)
    b = np.asarray(conditional_control, dtype=float)
    rho = _check_rho(rho)
    if a.ndim != 1 or a.shape != b.shape or a.size == 0:
        raise ValidationError("conditional distributions must be equal-length 1-d arrays")
    if np.any(a < 0) or np.any(b < 0):
        raise ValidationError("conditional probabilities must be nonnegative")
    if abs(a.sum() - 1.0) > MASS_TOL or abs(b.sum() - 1.0) > MASS_TOL:
        raise ValidationError("conditional distributions must each sum to 1")
    if genotypes is None:
        genotypes = _default_genotypes(a.size)
    elif len(genotypes) != a.size:
        raise ValidationError("genotypes must match the number of rows")

    p = a * rho + b * (1.0 - rho)
    keep = p > 0
    dropped = tuple(g for g, k in zip(genotypes, keep) if not k)
    if dropped:
        warnings.warn(
            f"dropping {len(dropped)} zero-mass genotype(s): "
            + ", ".join(str(g) for g in dropped),
            stacklevel=2,
        )
    p = p[keep]
    r = (a[keep] * rho) / p
    kept = tuple(g for g, k in zip(genotypes, keep) if k)
    if p.size == 0:
        raise ValidationError("all genotypes carry zero mass")

    order = np.argsort(r, kind="stable")
    return RiskTable(
        genotypes=tuple(kept[i] for i in order),
        p=p[order],
        r=r[order],
        rho=rho,
        ordering=tuple(int(i) for i in order),
        dropped=dropped,
    )


def _plugin_rows(case, control, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise plug-in masses and risks from count arrays; zero-count cells keep zero mass."""
    case = np.asarray(case, dtype=float)
    control = np.asarray(control, dtype=float)
    a = case / case.sum(axis=-1, keepdims=True)
    b = control / control.sum(axis=-1, keepdims=True)
    p = a * rho + b * (1.0 - rho)
    r = np.divide(a * rho, p, out=np.zeros_like(p), where=p > 0)
    return p, r


def _plugin_conditionals(
    counts: CaseControlCounts, laplace: float = 0.0
) -> tuple[tuple[GenotypeId, ...], np.ndarray, np.ndarray, np.ndarray]:
    """Kept genotypes, their ``seen`` mask over ``counts.genotypes``, and the
    plug-in P(g|D), P(g|not D) after removing genotypes unseen in both arms."""
    if laplace < 0:
        raise ValidationError("laplace smoothing constant must be nonnegative")
    seen = (counts.n_case + counts.n_control) > 0
    kept = tuple(g for g, k in zip(counts.genotypes, seen) if k)
    if not kept:
        raise ValidationError("no genotype was observed in either arm")
    n_case = counts.n_case[seen].astype(float)
    n_control = counts.n_control[seen].astype(float)
    g = n_case.size
    a = (n_case + laplace) / (counts.n_cases + laplace * g)
    b = (n_control + laplace) / (counts.n_controls + laplace * g)
    return kept, seen, a, b


def estimate_risk_table(counts: CaseControlCounts, laplace: float = 0.0) -> RiskTable:
    """Estimate a risk table from case-control counts by plug-in frequencies.

    Genotypes with zero count in both arms are removed (they carry no
    empirical mass).  Genotypes observed in only one arm produce
    boundary risks of exactly 0 or 1; these are kept unshrunk and can be
    inspected through ``RiskTable.boundary_risks``.  Setting
    ``laplace > 0`` adds that count to every retained cell in both arms
    before normalising, which pulls boundary risks off 0 and 1.

    Parameters
    ----------
    counts : CaseControlCounts
    laplace : float
        Additive smoothing constant, default 0 (plain plug-in).

    Returns
    -------
    RiskTable
    """
    kept, seen, a, b = _plugin_conditionals(counts, laplace)
    dropped = tuple(g for g, k in zip(counts.genotypes, seen) if not k)
    if dropped:
        warnings.warn(
            f"dropping {len(dropped)} genotype(s) unseen in both arms: "
            + ", ".join(str(g) for g in dropped),
            stacklevel=2,
        )
    with warnings.catch_warnings():
        # zero-mass drops cannot occur after the seen-filter above
        warnings.simplefilter("ignore")
        table = build_risk_table(a, b, counts.rho, genotypes=kept)
    return replace(table, dropped=dropped)


def curve_points(table: RiskTable) -> CurvePoints:
    """Predictiveness curve of a risk table as explicit step points."""
    return CurvePoints(
        q=np.cumsum(table.p),
        r=table.r,
        rho=table.rho,
        genotypes=table.genotypes,
    )


def apply_model_to_test(
    train_order, test_counts: CaseControlCounts, laplace: float = 0.0
) -> CurvePoints:
    """Evaluate a trained genotype ordering on an independent dataset.

    Risks and masses are re-estimated from ``test_counts`` but arranged
    in the order learned elsewhere, so the resulting curve may be
    non-monotone; that non-monotonicity is data, not an error.  Test
    genotypes absent from the training order are appended after it,
    sorted by their own estimated risk, and reported in ``unseen``.
    Trained genotypes unseen in the test data carry no mass and drop
    out.

    Parameters
    ----------
    train_order : sequence of GenotypeId
        Genotype ordering from the training data, lowest risk first.
    test_counts : CaseControlCounts
    laplace : float
        Smoothing constant passed to the plug-in estimates.

    Returns
    -------
    CurvePoints
    """
    train_keys = [g.key for g in train_order]
    trained = set(train_keys)
    if len(trained) != len(train_keys):
        raise ValidationError("training order must not repeat genotypes")
    kept, _, a, b = _plugin_conditionals(test_counts, laplace)
    rho = test_counts.rho
    p = a * rho + b * (1.0 - rho)
    r = (a * rho) / p
    by_key = {g.key: i for i, g in enumerate(kept)}

    matched = [by_key[k] for k in train_keys if k in by_key]
    if not matched:
        raise ValidationError("training order shares no genotype with the test data")
    extra = np.array([i for i, g in enumerate(kept) if g.key not in trained], dtype=int)
    extra = extra[np.argsort(r[extra], kind="stable")]
    idx = np.concatenate([np.array(matched, dtype=int), extra])
    return CurvePoints(
        q=np.cumsum(p[idx]),
        r=r[idx],
        rho=rho,
        genotypes=tuple(kept[i] for i in idx),
        unseen=tuple(kept[i] for i in extra),
    )
