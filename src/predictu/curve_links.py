"""Exact conversions between the predictiveness curve, ROC and Lorenz views.

A risk table determines the genotype distributions among cases and
controls by Bayes inversion, and therefore an ROC curve (threshold the
genotype order) and a Lorenz curve (cumulative share of risk versus
quantile).  For discrete step curves both are piecewise linear, the
trapezoid areas are exact, and U satisfies two closed-form links:

    U = 2 rho (1 - rho) (2 AUC_R - 1)
    U = 4 rho (0.5 - AUC_L)

together with the chained relation
AUC_L = (1 - rho)(1 - AUC_R) + rho / 2.  The Lorenz factor is 4, not 2:
substituting the chained relation into the ROC link gives
U = 2 rho (1 - rho)(2 AUC_R - 1) = 2 rho (1 - 2 AUC_L) = 4 rho (0.5 - AUC_L),
and the perfect predictor (U = 2 rho (1 - rho), AUC_L = rho / 2)
confirms it.

The identity checks return residuals rather than asserting, and accept
non-monotone curves: there they report the residual alongside a
monotone flag instead of erroring, since the links are only guaranteed
on risk-sorted tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .risk_model import _fields_equal
from .summary_indices import _EDGE, _masses_risks, u_statistic

__all__ = [
    "RocCurve",
    "LorenzCurve",
    "IdentityCheck",
    "implied_conditionals",
    "roc_from_table",
    "lorenz_from_table",
    "check_roc_identity",
    "check_lorenz_identity",
]


@dataclass(frozen=True)
class RocCurve:
    """ROC points of the genotype-threshold family, (0,0) to (1,1).

    ``t`` is 1 - specificity ascending, ``f`` the matching sensitivity,
    ``auc`` the exact trapezoid area.
    """

    t: np.ndarray
    f: np.ndarray
    auc: float

    __eq__ = _fields_equal


@dataclass(frozen=True)
class LorenzCurve:
    """Cumulative risk share h(q) against quantile q, with trapezoid area."""

    q: np.ndarray
    h: np.ndarray
    auc: float

    __eq__ = _fields_equal


@dataclass(frozen=True)
class IdentityCheck:
    """Residual of one U-to-area link evaluated on a risk table."""

    residual: float
    u: float
    u_from_curve: float
    monotone: bool


def _trapezoid(x: np.ndarray, y: np.ndarray) -> float:
    return float(0.5 * np.sum(np.diff(x) * (y[1:] + y[:-1])))


def implied_conditionals(table) -> tuple[np.ndarray, np.ndarray, float]:
    """Recover P(g|D), P(g|not D) and rho from masses and risks.

    Inverts the Bayes construction: P(g_i|D) = p_i r_i / rho and
    P(g_i|not D) = p_i (1 - r_i) / (1 - rho) with rho = sum p r, the
    mean risk of the evaluated curve.  Degenerate rho raises
    NumericError.
    """
    p, r = _masses_risks(table)
    rho = float(p @ r)
    if rho < _EDGE or rho > 1.0 - _EDGE:
        raise NumericError(f"conditionals undefined at rho={rho}")
    return p * r / rho, p * (1.0 - r) / (1.0 - rho), rho


def roc_from_table(table) -> RocCurve:
    """ROC curve of the rule "call disease when the genotype ranks above g".

    One point per threshold position, swept from the top of the stored
    order down: t_k = 1 - F_control(g_k), f_k = 1 - F_case(g_k).  The
    trapezoid AUC equals the tie-corrected rank statistic
    sum_{i>j} a_i b_j + 0.5 sum_i a_i b_i on the implied conditionals.
    """
    a, b, _ = implied_conditionals(table)
    t = np.concatenate([(1.0 - np.cumsum(b))[::-1], [1.0]])
    f = np.concatenate([(1.0 - np.cumsum(a))[::-1], [1.0]])
    # the full cumulative sums equal 1 up to rounding; pin the (0,0) corner
    t[0] = 0.0
    f[0] = 0.0
    return RocCurve(t=t, f=f, auc=_trapezoid(t, f))


def lorenz_from_table(table) -> LorenzCurve:
    """Lorenz curve h(q) = (1/rho) * integral of r over quantiles up to q."""
    p, r = _masses_risks(table)
    rho = float(p @ r)
    if rho < _EDGE or rho > 1.0 - _EDGE:
        raise NumericError(f"Lorenz curve undefined at rho={rho}")
    q = np.concatenate([[0.0], np.cumsum(p)])
    h = np.concatenate([[0.0], np.cumsum(p * r) / rho])
    q[-1] = 1.0
    h[-1] = 1.0
    return LorenzCurve(q=q, h=h, auc=_trapezoid(q, h))


def _identity(table, linked_u) -> IdentityCheck:
    """Residual of U against ``linked_u(rho)``, the U an area implies."""
    p, r = _masses_risks(table)
    rho = float(p @ r)
    u = u_statistic(p, r)
    linked = linked_u(rho)
    return IdentityCheck(
        residual=abs(u - linked),
        u=u,
        u_from_curve=linked,
        monotone=table.monotone,
    )


def check_roc_identity(table) -> IdentityCheck:
    """Residual of U = 2 rho (1 - rho) (2 AUC_R - 1).

    Exact (to rounding) on risk-sorted tables.  On non-monotone curves
    the ROC built from the stored order need not honour the link; the
    residual is still reported, with ``monotone`` False.
    """
    auc = roc_from_table(table).auc
    return _identity(table, lambda rho: 2.0 * rho * (1.0 - rho) * (2.0 * auc - 1.0))


def check_lorenz_identity(table) -> IdentityCheck:
    """Residual of U = 4 rho (0.5 - AUC_L).

    See the module docstring for why the factor is 4.  Exact on
    risk-sorted tables; reported with ``monotone`` False otherwise.
    """
    auc = lorenz_from_table(table).auc
    return _identity(table, lambda rho: 4.0 * rho * (0.5 - auc))
