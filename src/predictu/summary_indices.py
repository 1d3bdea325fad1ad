"""Summary indices of a predictiveness curve.

The headline index is the predictiveness U statistic

    U = 2 sum_{i>j} p_i p_j (r_i - r_j)

computed over the curve's stored order, which makes it well defined for
the non-monotone curves that arise when a trained genotype ordering is
carried onto independent data.  Its maximum over curves with mean risk
rho is 2 rho (1 - rho), giving the standardised form
U_std = U / (2 rho (1 - rho)).

A partial variant restricts the double sum to a quantile band
(q0, q1], clipping the mass of any genotype step that straddles a band
edge.  Competitor indices R (variance of risk), TG (total gain) and AE
(average entropy, natural log) are provided for side-by-side
evaluation; unlike U they do not depend on the stored order.

Array-level functions (``u_statistic`` and friends) accept stacked
curves with genotypes on the last axis, which the resampling engines
use to evaluate thousands of bootstrap replicates in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .errors import NumericError, ValidationError
from .risk_model import CurvePoints, RiskTable

__all__ = [
    "IndexResult",
    "u_statistic",
    "partial_u_statistic",
    "clipped_band_masses",
    "r_square_statistic",
    "total_gain_statistic",
    "average_entropy_statistic",
    "binary_entropy",
    "predictiveness_u",
    "predictiveness_u_std",
    "partial_u",
    "r_square",
    "total_gain",
    "average_entropy",
]

# rho or rho_pt closer than this to 0 or 1 makes standardisation undefined
_EDGE = 1e-12


@dataclass(frozen=True)
class IndexResult:
    """One computed summary index.

    ``rho_used`` is the mass-weighted mean risk of the evaluated curve;
    ``rho_pt`` is the band mass integral of risk for partial indices.
    ``notes`` carries auxiliary values such as the alternative band
    centring convention.
    """

    name: str
    value: float
    standardized: bool
    rho_used: float
    band: tuple[float, float] | None = None
    rho_pt: float | None = None
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "standardized": self.standardized,
            "band": list(self.band) if self.band is not None else None,
            "rho": self.rho_used,
            "rho_pt": self.rho_pt,
            "notes": list(self.notes),
        }


def _masses_risks(table_or_curve) -> tuple[np.ndarray, np.ndarray]:
    """Masses and risks of a table or curve, in stored order."""
    if isinstance(table_or_curve, RiskTable):
        return table_or_curve.p, table_or_curve.r
    if isinstance(table_or_curve, CurvePoints):
        return table_or_curve.masses, table_or_curve.r
    raise ValidationError(
        f"expected RiskTable or CurvePoints, got {type(table_or_curve).__name__}"
    )


def _check_band(q0: float, q1: float) -> None:
    if not (0.0 <= q0 < q1 <= 1.0):
        raise ValidationError(f"band must satisfy 0 <= q0 < q1 <= 1, got ({q0}, {q1})")


def u_statistic(p, r) -> np.ndarray | float:
    """U = 2 sum_{i>j} p_i p_j (r_i - r_j) over the last axis.

    Uses the prefix-sum contraction, O(G) per curve:
    U = 2 [sum_i p_i r_i P_{i-1} - sum_i p_i S_{i-1}] with P and S the
    cumulative mass and cumulative mass-risk below i.  ``p`` and ``r``
    broadcast, so a matrix of bootstrap masses can share one risk row.

    Parameters
    ----------
    p : array_like
        Step masses, genotypes on the last axis.  Need not sum to one
        (partial-band clipped masses are valid input).
    r : array_like
        Step risks.

    Returns
    -------
    float or ndarray
        Scalar for 1-d input, else one value per leading row.
    """
    p, r = np.broadcast_arrays(np.asarray(p, float), np.asarray(r, float))
    pr = p * r
    below_mass = np.cumsum(p, axis=-1) - p
    below_pr = np.cumsum(pr, axis=-1) - pr
    out = 2.0 * ((pr * below_mass).sum(axis=-1) - (p * below_pr).sum(axis=-1))
    return float(out) if out.ndim == 0 else out


def clipped_band_masses(p, q0: float, q1: float) -> np.ndarray:
    """Mass of each step inside the quantile band (q0, q1].

    Step i spans (Q_{i-1}, Q_i] with Q the cumulative mass; the clipped
    mass is max(0, min(Q_i, q1) - max(Q_{i-1}, q0)).
    """
    p = np.asarray(p, float)
    upper = np.cumsum(p, axis=-1)
    lower = upper - p
    return np.clip(np.minimum(upper, q1) - np.maximum(lower, q0), 0.0, None)


def partial_u_statistic(p, r, q0: float, q1: float) -> np.ndarray | float:
    """U restricted to the band (q0, q1], via clipped step masses."""
    return u_statistic(clipped_band_masses(p, q0, q1), r)


def r_square_statistic(p, r, rho=None) -> np.ndarray | float:
    """R = sum_i p_i (r_i - rho)^2, with rho = sum p r unless given."""
    p, r = np.broadcast_arrays(np.asarray(p, float), np.asarray(r, float))
    if rho is None:
        rho = (p * r).sum(axis=-1, keepdims=True)
    out = (p * (r - rho) ** 2).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def total_gain_statistic(p, r, rho=None) -> np.ndarray | float:
    """TG = sum_i p_i |r_i - rho|, with rho = sum p r unless given."""
    p, r = np.broadcast_arrays(np.asarray(p, float), np.asarray(r, float))
    if rho is None:
        rho = (p * r).sum(axis=-1, keepdims=True)
    out = (p * np.abs(r - rho)).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def binary_entropy(x) -> np.ndarray | float:
    """H(x) = -(x ln x + (1-x) ln(1-x)) with H(0) = H(1) = 0."""
    x = np.asarray(x, float)
    out = -(xlogy(x, x) + xlogy(1.0 - x, 1.0 - x))
    return float(out) if out.ndim == 0 else out


def average_entropy_statistic(p, r, rho=None) -> np.ndarray | float:
    """AE = H(rho) - sum_i p_i H(r_i): the expected entropy reduction.

    Positive whenever the risks separate at all; zero for a flat curve.
    Natural logarithm throughout.
    """
    p, r = np.broadcast_arrays(np.asarray(p, float), np.asarray(r, float))
    if rho is None:
        rho = (p * r).sum(axis=-1)
    out = binary_entropy(rho) - (p * binary_entropy(r)).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def _eval_rho(p: np.ndarray, r: np.ndarray) -> float:
    return float(p @ r)


def predictiveness_u(table_or_curve) -> IndexResult:
    """Predictiveness U of a table or curve, over its stored order.

    Returns
    -------
    IndexResult
        ``value`` in [-2 rho (1-rho), 2 rho (1-rho)]; negative values
        can only arise from non-monotone curves.
    """
    p, r = _masses_risks(table_or_curve)
    return IndexResult(
        name="U",
        value=u_statistic(p, r),
        standardized=False,
        rho_used=_eval_rho(p, r),
    )


def predictiveness_u_std(table_or_curve) -> IndexResult:
    """U standardised by its maximum 2 rho (1 - rho).

    rho is the mass-weighted mean risk of the evaluated curve.  Raises
    NumericError when rho is 0 or 1, where the maximum degenerates.
    """
    p, r = _masses_risks(table_or_curve)
    rho = _eval_rho(p, r)
    if rho < _EDGE or rho > 1.0 - _EDGE:
        raise NumericError(f"standardised U undefined at rho={rho}")
    return IndexResult(
        name="U_std",
        value=u_statistic(p, r) / (2.0 * rho * (1.0 - rho)),
        standardized=True,
        rho_used=rho,
    )


def partial_u(
    table_or_curve,
    q0: float,
    q1: float,
    standardized: bool = False,
    band_rho: str = "mass",
) -> IndexResult:
    """Partial predictiveness U over the quantile band (q0, q1].

    The raw value restricts the pairwise sum to clipped in-band masses;
    with ``q0=0, q1=1`` it reproduces the global U exactly.  The
    standardised form divides by 2 rho_pt (1 - rho_pt) where rho_pt
    follows the ``band_rho`` convention:

    - ``"mass"`` (default): rho_pt = sum_i m_i r_i, the band integral of
      risk with clipped masses m_i.  Over the full band this is rho, so
      the standardised partial U degrades gracefully to U_std.
    - ``"mean"``: rho_pt = sum_i m_i r_i / sum_i m_i, the mean risk
      within the band.

    Both rho_pt values are always reported; the unused convention lands
    in ``notes``.

    Parameters
    ----------
    table_or_curve : RiskTable or CurvePoints
    q0, q1 : float
        Band edges with 0 <= q0 < q1 <= 1.
    standardized : bool
    band_rho : {"mass", "mean"}

    Returns
    -------
    IndexResult
    """
    if band_rho not in ("mass", "mean"):
        raise ValidationError(f"band_rho must be 'mass' or 'mean', got {band_rho!r}")
    _check_band(q0, q1)
    p, r = _masses_risks(table_or_curve)
    m = clipped_band_masses(p, q0, q1)
    width = float(m.sum())
    if width <= _EDGE:
        raise ValidationError("band contains no curve mass")
    value = u_statistic(m, r)
    rho_mass = float(m @ r)
    rho_mean = rho_mass / width
    rho_pt = rho_mass if band_rho == "mass" else rho_mean
    other = "mean" if band_rho == "mass" else "mass"
    other_value = rho_mean if band_rho == "mass" else rho_mass
    notes = (f"rho_pt[{other}]={other_value:.12g}",)
    if standardized:
        if rho_pt < _EDGE or rho_pt > 1.0 - _EDGE:
            raise NumericError(f"standardised partial U undefined at rho_pt={rho_pt}")
        value = value / (2.0 * rho_pt * (1.0 - rho_pt))
    return IndexResult(
        name="U_partial_std" if standardized else "U_partial",
        value=value,
        standardized=standardized,
        rho_used=_eval_rho(p, r),
        band=(float(q0), float(q1)),
        rho_pt=rho_pt,
        notes=notes,
    )


def r_square(table_or_curve, standardized: bool = False) -> IndexResult:
    """Variance of predicted risk around its mean, optionally / rho(1-rho)."""
    p, r = _masses_risks(table_or_curve)
    rho = _eval_rho(p, r)
    value = r_square_statistic(p, r)
    if standardized:
        if rho < _EDGE or rho > 1.0 - _EDGE:
            raise NumericError(f"standardised R undefined at rho={rho}")
        value = value / (rho * (1.0 - rho))
    return IndexResult(name="R", value=value, standardized=standardized, rho_used=rho)


def total_gain(table_or_curve) -> IndexResult:
    """Mean absolute deviation of risk from its mean."""
    p, r = _masses_risks(table_or_curve)
    return IndexResult(
        name="TG",
        value=total_gain_statistic(p, r),
        standardized=False,
        rho_used=_eval_rho(p, r),
    )


def average_entropy(table_or_curve) -> IndexResult:
    """Entropy reduction H(rho) - sum p H(r), natural log."""
    p, r = _masses_risks(table_or_curve)
    return IndexResult(
        name="AE",
        value=average_entropy_statistic(p, r),
        standardized=False,
        rho_used=_eval_rho(p, r),
    )
