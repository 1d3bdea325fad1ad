"""Discrete predictiveness curves for multi-locus genotype risk models.

A risk model over a finite set of genotypes is held as a table of
(genotype, population mass, predicted risk) rows.  The predictiveness
curve is the step function that plots risk against cumulative population
quantile: genotype i occupies the interval (q_{i-1}, q_i] with
q_i = sum_{j<=i} p_j.  The curve is intrinsically discrete; no
interpolation or smoothing is applied anywhere.

Tables built here satisfy two exact identities: masses sum to one and
the mass-weighted mean risk equals the disease prevalence rho.  A table
holds its rows in any order: ``build_risk_table`` and
``estimate_risk_table`` sort them by risk, while carrying a trained
genotype ordering onto an independent dataset keeps that order, so the
curve may be non-monotone.  Every summary index reads the stored order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError

__all__ = [
    "GenotypeId",
    "RiskTable",
    "CaseControlCounts",
    "build_risk_table",
    "estimate_risk_table",
    "apply_model_to_test",
]

# Tolerance for "sums to one" style mass checks.
MASS_TOL = 1e-9
# counts are int64: the largest count, arm total or exact product of them
_COUNT_LIMIT = 2**63 - 1


@dataclass(frozen=True)
class GenotypeId:
    """Identifier for one multi-locus genotype.

    ``index`` is a small integer assigned at table construction;
    ``label`` carries the genotype spelling (e.g. ``"0/1/2/0"``) when one
    is known.  Matching across datasets, equality and hashing use
    ``key``: the label when present, otherwise the index.
    """

    index: int
    label: str | None = None

    @property
    def key(self) -> str | int:
        return self.label if self.label is not None else self.index

    def __eq__(self, other) -> bool:
        if not isinstance(other, GenotypeId):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __str__(self) -> str:
        return self.label if self.label is not None else f"g{self.index}"


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _fields_equal(self, other) -> bool:
    """Value equality for a frozen dataclass with array fields.

    Set as the class's ``__eq__``: array fields compare by
    ``np.array_equal``, the others by ``==``; another type gives
    ``NotImplemented``.
    """
    if other.__class__ is not self.__class__:
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
    return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)


def _check_rho(rho: float) -> float:
    rho = float(rho)
    if not 0.0 < rho < 1.0:
        raise ValidationError(f"rho must lie strictly inside (0, 1), got {rho}")
    return rho


@dataclass(frozen=True)
class RiskTable:
    """A predictiveness curve: risk model rows in evaluation order.

    Genotype i occupies the quantile step (q_{i-1}, q_i].  The rows may
    come in any order; ``monotone`` says whether the risks ascend.

    Parameters
    ----------
    genotypes : tuple of GenotypeId
        One id per row, in evaluation order.
    p : ndarray
        Population mass per genotype.  Nonnegative, sums to one.
    r : ndarray
        Predicted risk per genotype, in [0, 1].
    rho : float
        Disease prevalence in (0, 1).  The mass-weighted mean risk of a
        consistently built table equals rho; a mismatch beyond tolerance
        raises a warning, not an error, so hand-built tables remain
        usable.
    dropped : tuple of GenotypeId
        Genotypes removed because they carried zero mass.
    unseen : tuple of GenotypeId
        Rows placed after a trained order they were absent from.
    """

    genotypes: tuple[GenotypeId, ...]
    p: np.ndarray
    r: np.ndarray
    rho: float
    dropped: tuple[GenotypeId, ...] = ()
    unseen: tuple[GenotypeId, ...] = ()

    __eq__ = _fields_equal

    def __post_init__(self) -> None:
        p = _frozen_array(self.p)
        r = _frozen_array(self.r)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "rho", _check_rho(self.rho))
        if p.ndim != 1 or r.shape != p.shape:
            raise ValidationError("p and r must be one-dimensional and equal length")
        if len(self.genotypes) != p.size:
            raise ValidationError("genotypes, p and r must align")
        if p.size == 0:
            raise ValidationError("risk table must contain at least one genotype")
        if np.any(p < 0):
            raise ValidationError("genotype masses must be nonnegative")
        if abs(p.sum() - 1.0) > MASS_TOL:
            raise ValidationError(f"genotype masses must sum to 1, got {p.sum()!r}")
        if np.any(r < -MASS_TOL) or np.any(r > 1 + MASS_TOL):
            raise ValidationError("risks must lie in [0, 1]")
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
    def q(self) -> np.ndarray:
        """Upper quantile boundary of each step, the cumulative mass."""
        return np.cumsum(self.p)

    @property
    def monotone(self) -> bool:
        return bool(np.all(np.diff(self.r) >= 0))

    @property
    def boundary_risks(self) -> np.ndarray:
        """Boolean mask of rows with risk exactly 0 or 1."""
        return (self.r == 0.0) | (self.r == 1.0)


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

    __eq__ = _fields_equal

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

    p, r = _bayes(a, b, rho)
    keep = p > 0
    dropped = tuple(g for g, k in zip(genotypes, keep) if not k)
    _warn_dropped(dropped, "zero-mass genotype(s)")
    kept = tuple(g for g, k in zip(genotypes, keep) if k)
    if not kept:
        raise ValidationError("all genotypes carry zero mass")
    return _sorted_table(kept, p[keep], r[keep], rho, dropped)


def _warn_dropped(dropped, what: str) -> None:
    """Warn the caller's caller of the ``dropped`` genotypes: their count and the first 5 names."""
    if dropped:
        names = ", ".join(str(g) for g in dropped[:5]) + (", ..." if len(dropped) > 5 else "")
        warnings.warn(f"dropping {len(dropped)} {what}: {names}", stacklevel=3)


def _sorted_table(genotypes, p, r, rho: float, dropped) -> RiskTable:
    """The rows sorted by risk, ties keeping input order (a stable sort)."""
    order = np.argsort(r, kind="stable")
    return RiskTable(
        genotypes=tuple(genotypes[i] for i in order),
        p=p[order],
        r=r[order],
        rho=rho,
        dropped=dropped,
    )


def _bayes(a, b, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Bayes' rule per cell: p = a rho + b (1 - rho), r = a rho / p (0 where p = 0)."""
    case = a * rho
    p = case + b * (1.0 - rho)
    r = np.divide(case, p, out=np.zeros_like(p), where=p > 0)
    return p, r


def _frequencies(counts, laplace: float = 0.0) -> np.ndarray:
    """(n + laplace) / (N + laplace G) along the last axis, N the row total.

    ``laplace`` is added only when nonzero, so a plain replicate stack
    gets no extra (B, G) temporary.
    """
    counts = np.asarray(counts, dtype=float)
    total = counts.sum(axis=-1, keepdims=True) + laplace * counts.shape[-1]
    return (counts + laplace if laplace else counts) / total


def _plugin_rows(case, control, rho: float, laplace: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise plug-in masses and risks of count arrays smoothed by ``laplace`` (``_frequencies``)."""
    return _bayes(_frequencies(case, laplace), _frequencies(control, laplace), rho)


def _check_laplace(laplace: float) -> float:
    if not (math.isfinite(laplace) and laplace >= 0):
        raise ValidationError(
            f"laplace smoothing constant must be finite and nonnegative, got {laplace}"
        )
    return laplace


def _plugin_conditionals(
    counts: CaseControlCounts, laplace: float = 0.0
) -> tuple[tuple[GenotypeId, ...], np.ndarray, np.ndarray, np.ndarray]:
    """Kept genotypes, their ``seen`` mask over ``counts.genotypes``, and the
    plug-in P(g|D), P(g|not D) after removing genotypes unseen in both arms."""
    _check_laplace(laplace)
    seen = (counts.n_case + counts.n_control) > 0
    kept = tuple(g for g, k in zip(counts.genotypes, seen) if k)
    if not kept:
        raise ValidationError("no genotype was observed in either arm")
    a = _frequencies(counts.n_case[seen], laplace)
    b = _frequencies(counts.n_control[seen], laplace)
    return kept, seen, a, b


def estimate_risk_table(counts: CaseControlCounts, laplace: float = 0.0) -> RiskTable:
    """Estimate a risk table from case-control counts by plug-in frequencies.

    Rows are sorted by risk, ascending, ties keeping input order.
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
    _warn_dropped(dropped, "genotype(s) unseen in both arms")
    # every kept genotype was seen in an arm, so its mass is positive
    p, r = _bayes(a, b, counts.rho)
    return _sorted_table(kept, p, r, counts.rho, dropped)


def _positions(order, genotypes) -> np.ndarray:
    """Index in ``genotypes`` of each genotype of ``order``, matched by key; -1 where absent."""
    keys = [g.key for g in order]
    if len(set(keys)) != len(keys):
        raise ValidationError("order must not repeat genotypes")
    index = {g.key: j for j, g in enumerate(genotypes)}
    return np.array([index.get(k, -1) for k in keys], dtype=np.intp)


def _trained_order(first, r) -> np.ndarray:
    """The indices ``first``, then every other index of ``r`` by ascending ``r``
    (a stable sort, so ties keep index order)."""
    rest = np.ones(r.size, dtype=bool)
    rest[first] = False
    rest = np.flatnonzero(rest)
    return np.concatenate([first, rest[np.argsort(r[rest], kind="stable")]])


def apply_model_to_test(
    train_order, test_counts: CaseControlCounts, laplace: float = 0.0
) -> RiskTable:
    """Evaluate a trained genotype ordering on an independent dataset.

    Risks and masses are re-estimated from ``test_counts`` but arranged
    in the order learned elsewhere, so the resulting table may be
    non-monotone; that non-monotonicity is data, not an error.  Test
    genotypes absent from ``train_order`` (lowest risk first) follow it
    by their own risk and are reported in ``unseen``; trained genotypes
    the test data lacks drop out.
    """
    kept, _, a, b = _plugin_conditionals(test_counts, laplace)
    rho = test_counts.rho
    p, r = _bayes(a, b, rho)
    pos = _positions(train_order, kept)
    matched = pos[pos >= 0]
    if not matched.size:
        raise ValidationError("training order shares no genotype with the test data")
    idx = _trained_order(matched, r)
    return RiskTable(
        genotypes=tuple(kept[i] for i in idx),
        p=p[idx],
        r=r[idx],
        rho=rho,
        unseen=tuple(kept[i] for i in idx[matched.size:]),
    )
