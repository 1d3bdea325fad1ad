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
use to evaluate thousands of bootstrap replicates in one call.  One
row-wise evaluator computes and standardises every index of the
``INDICES`` table; the ``IndexResult`` functions call it with the curve
as a one-row stack, so the CLI, the harness and the bootstrap compute
each index the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericError, ValidationError
from .risk_model import RiskTable

__all__ = [
    "IndexResult",
    "IndexSpec",
    "INDICES",
    "INDEX_TOKENS",
    "u_statistic",
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
    ``notes`` carries auxiliary values such as the mean band risk.
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


def _masses_risks(table) -> tuple[np.ndarray, np.ndarray]:
    """Masses and risks of a risk table, in stored order."""
    if not isinstance(table, RiskTable):
        raise ValidationError(f"expected a RiskTable, got {type(table).__name__}")
    return table.p, table.r


def _check_band(q0: float, q1: float) -> None:
    if not (0.0 <= q0 < q1 <= 1.0):
        raise ValidationError(f"band must satisfy 0 <= q0 < q1 <= 1, got ({q0}, {q1})")


def _placements(x: np.ndarray) -> np.ndarray:
    """(phi x)_i = X_{<i} - X_{>i} = 2 X_{<=i} - x_i - X over the last axis;
    int64 for integer input (exact while 2 X fits in int64), else float."""
    out = np.cumsum(x, axis=-1, dtype=np.int64 if x.dtype.kind in "iu" else float)
    out *= 2
    out -= x
    out -= x.sum(axis=-1, keepdims=True)
    return out


def _contract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a' phi b per row (1-d or (B, G)), one temporary: the kernel of every U."""
    weighted = _placements(b)
    weighted *= a
    return weighted.sum(axis=-1)


def u_statistic(p, r) -> np.ndarray | float:
    """U = 2 sum_{i>j} p_i p_j (r_i - r_j) over the last axis.

    Equals 2 (p r)' phi p, (phi p)_i the mass ordered below i minus that
    above it: one prefix sum, O(G) per curve (``_contract``).  ``p`` and
    ``r`` broadcast, so a matrix of bootstrap masses can share one risk row.

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
    out = 2.0 * _contract(p * r, p)
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


def r_square_statistic(p, r) -> np.ndarray | float:
    """R = sum_i p_i (r_i - rho)^2, with rho = sum p r."""
    p, r = np.broadcast_arrays(np.asarray(p, float), np.asarray(r, float))
    rho = (p * r).sum(axis=-1, keepdims=True)
    out = (p * (r - rho) ** 2).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def total_gain_statistic(p, r) -> np.ndarray | float:
    """TG = sum_i p_i |r_i - rho|, with rho = sum p r."""
    p, r = np.broadcast_arrays(np.asarray(p, float), np.asarray(r, float))
    rho = (p * r).sum(axis=-1, keepdims=True)
    out = (p * np.abs(r - rho)).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def _xlogx(x: np.ndarray) -> np.ndarray:
    """x ln x, exactly 0 at x = 0 and NaN for NaN or negative x."""
    # ln 1 = 0 stands in at x = 0; an unmasked log runs several times
    # faster than one with ``where``.  The log of a negative cell is NaN;
    # no other cell can warn
    out = np.where(x != 0, x, 1.0)
    with np.errstate(invalid="ignore"):
        np.log(out, out=out)
    out *= x
    return out


def binary_entropy(x) -> np.ndarray | float:
    """H(x) = -(x ln x + (1-x) ln(1-x)) with H(0) = H(1) = 0."""
    x = np.asarray(x, float)
    out = _xlogx(x)
    out += _xlogx(1.0 - x)
    np.negative(out, out=out)
    return float(out) if out.ndim == 0 else out


def average_entropy_statistic(p, r) -> np.ndarray | float:
    """AE = H(rho) - sum_i p_i H(r_i), with rho = sum p r: the expected
    entropy reduction.

    Positive whenever the risks separate at all; zero for a flat curve.
    Natural logarithm throughout.
    """
    p, r = np.broadcast_arrays(np.asarray(p, float), np.asarray(r, float))
    rho = (p * r).sum(axis=-1)
    out = binary_entropy(rho) - (p * binary_entropy(r)).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def _u_scale(rho):
    return 2.0 * rho * (1.0 - rho)


def _r_scale(rho):
    return rho * (1.0 - rho)


@dataclass(frozen=True)
class IndexSpec:
    """One summary index: how to compute it from masses and risks.

    ``statistic(w, r)`` is the row-wise raw value, with ``w`` the step
    masses, or the band-clipped masses when ``needs_band`` is set.  A
    standardised index divides the raw value by ``scale(rho)``, where
    rho is the mean risk for a global index and the band mass integral
    of risk rho_pt = sum_i m_i r_i for a band index.
    """

    name: str
    statistic: Callable
    scale: Callable | None = None
    needs_band: bool = False


# The one table of indices: the CLI's ``--indices`` tokens, the
# harness and the bootstrap all dispatch through it.
INDICES = {
    "u": IndexSpec("U", u_statistic),
    "ustd": IndexSpec("U_std", u_statistic, _u_scale),
    "upartial": IndexSpec("U_partial", u_statistic, needs_band=True),
    "upartialstd": IndexSpec("U_partial_std", u_statistic, _u_scale, needs_band=True),
    "r": IndexSpec("R", r_square_statistic),
    "rstd": IndexSpec("R_std", r_square_statistic, _r_scale),
    "tg": IndexSpec("TG", total_gain_statistic),
    "ae": IndexSpec("AE", average_entropy_statistic),
}
INDEX_TOKENS = tuple(INDICES)
# the indices a run reports when none are named: U first, as in the paper
_DEFAULT_TOKENS = ("u", "ustd", "r", "tg", "ae")


def _check_request(tokens, band) -> None:
    """Reject unknown tokens, a malformed band, and band indices without one."""
    for token in tokens:
        if token not in INDICES:
            raise ValidationError(f"unknown index token {token!r}")
    if band is not None:
        _check_band(*band)
    elif any(INDICES[t].needs_band for t in tokens):
        raise ValidationError("partial U indices need a band: --band q0:q1")


def _index_rows(p, r, rho: float, tokens, band=None) -> dict[str, np.ndarray]:
    """Each requested index evaluated row-wise on stacked curves.

    The one place an index is computed and standardised.  Standardised
    global indices divide by the scale at the given ``rho``; band
    indices by the scale at each row's rho_pt = sum_i m_i r_i, NaN where
    that scale is not positive.  Each statistic runs once per stack for
    its plain and standardised tokens.
    """
    out: dict[str, np.ndarray] = {}
    raw: dict = {}
    masses = None
    for token in tokens:
        spec = INDICES[token]
        if spec.needs_band and masses is None:
            masses = clipped_band_masses(p, *band)
        w = masses if spec.needs_band else p
        key = (spec.statistic, spec.needs_band)
        if key not in raw:
            raw[key] = np.atleast_1d(spec.statistic(w, r))
        value = raw[key]
        if spec.scale is not None and spec.needs_band:
            d = spec.scale((masses * r).sum(axis=-1))
            value = np.divide(value, d, out=np.full_like(value, np.nan), where=d > 0)
        elif spec.scale is not None:
            value = value / spec.scale(rho)
        out[token] = value
    return out


def _index_results(table, tokens, band=None) -> list[IndexResult]:
    """The requested indices of a risk table, in token order.

    The values are one ``_index_rows`` call on the table as a one-row
    stack, with rho = p . r.  Checked first, in token order: a band
    index needs curve mass in the band, and a standardised index raises
    NumericError where its rho (rho_pt = m . r for a band index) is
    within ``_EDGE`` of 0 or 1.  Band results report that rho_pt (the
    row path sums the same products for its standardiser, equal within
    rounding) and, in ``notes``, the mean band risk rho_pt / sum_i m_i.
    """
    _check_request(tokens, band)
    p, r = _masses_risks(table)
    rho = float(p @ r)
    in_band: dict = {}
    for token in tokens:
        spec = INDICES[token]
        if spec.needs_band and not in_band:
            m = clipped_band_masses(p, *band)
            width = float(m.sum())
            if width <= _EDGE:
                raise ValidationError("band contains no curve mass")
            rho_pt = float(m @ r)
            in_band = dict(
                band=(float(band[0]), float(band[1])),
                rho_pt=rho_pt,
                notes=(f"rho_pt[mean]={rho_pt / width:.12g}",),
            )
        at, label = (in_band["rho_pt"], "rho_pt") if spec.needs_band else (rho, "rho")
        if spec.scale is not None and (at < _EDGE or at > 1.0 - _EDGE):
            raise NumericError(f"{spec.name} undefined at {label}={at}")
    rows = _index_rows(p[None], r[None], rho, tokens, band)
    results = []
    for token in tokens:
        spec = INDICES[token]
        extra = in_band if spec.needs_band else {}
        value = float(rows[token][0])
        results.append(IndexResult(spec.name, value, spec.scale is not None, rho, **extra))
    return results


def predictiveness_u(table) -> IndexResult:
    """Predictiveness U of a risk table, over its stored order.

    Returns
    -------
    IndexResult
        ``value`` in [-2 rho (1-rho), 2 rho (1-rho)]; negative values
        can only arise from non-monotone curves.
    """
    return _index_results(table, ("u",))[0]


def predictiveness_u_std(table) -> IndexResult:
    """U standardised by its maximum 2 rho (1 - rho).

    rho is the mass-weighted mean risk of the evaluated curve.  Raises
    NumericError when rho is 0 or 1, where the maximum degenerates.
    """
    return _index_results(table, ("ustd",))[0]


def partial_u(table, q0: float, q1: float, standardized: bool = False) -> IndexResult:
    """Partial predictiveness U over the quantile band (q0, q1].

    The raw value restricts the pairwise sum to clipped in-band masses;
    with ``q0=0, q1=1`` it reproduces the global U exactly.  The
    standardised form divides by 2 rho_pt (1 - rho_pt), where
    rho_pt = sum_i m_i r_i is the band integral of risk with clipped
    masses m_i.  Over the full band rho_pt is rho, so the standardised
    partial U degrades gracefully to U_std.  The mean risk within the
    band, rho_pt / sum_i m_i, is reported in ``notes``.

    Parameters
    ----------
    table : RiskTable
    q0, q1 : float
        Band edges with 0 <= q0 < q1 <= 1.
    standardized : bool

    Returns
    -------
    IndexResult
    """
    token = "upartialstd" if standardized else "upartial"
    return _index_results(table, (token,), (q0, q1))[0]


def r_square(table, standardized: bool = False) -> IndexResult:
    """Variance of predicted risk around its mean, optionally / rho(1-rho)."""
    return _index_results(table, ("rstd" if standardized else "r",))[0]


def total_gain(table) -> IndexResult:
    """Mean absolute deviation of risk from its mean."""
    return _index_results(table, ("tg",))[0]


def average_entropy(table) -> IndexResult:
    """Entropy reduction H(rho) - sum p H(r), natural log."""
    return _index_results(table, ("ae",))[0]
