"""Weighted isotonic regression for refitting non-monotone curves.

Carrying a trained genotype ordering onto independent data yields risk
sequences that violate monotonicity through sampling noise alone.
Pool-adjacent-violators (PAVA) projects such a sequence onto the
nondecreasing cone under weighted least squares, with the genotype
masses as weights; pooling therefore preserves the mass-weighted mean
risk, so a refit curve keeps its prevalence.

Two entry points share one algorithm.  ``pava`` fits a single curve;
``validate --isotonic`` uses it.  ``pava_rows`` refits a (B, G) stack
of curves at once, cell for cell equal to ``pava`` on each row's
positive-weight cells; the simulation harness uses it for each
replicate's point and bootstrap curves.  On one curve ``pava`` is the
faster of the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .risk_model import _fields_equal

__all__ = ["IsotonicFit", "pava", "pava_rows"]


@dataclass(frozen=True)
class IsotonicFit:
    """Result of a PAVA projection."""

    fitted: np.ndarray

    __eq__ = _fields_equal


def pava(risks, weights) -> IsotonicFit:
    """Weighted least-squares isotonic fit, nondecreasing.

    Scans left to right keeping a stack of blocks; whenever the newest
    block fails to exceed its predecessor the two merge into their
    weighted mean, cascading back as far as needed.  O(n): each element
    is merged at most once.

    Parameters
    ----------
    risks : array_like
        Values to project, in evaluation order.
    weights : array_like
        Strictly positive weights, same length.

    Returns
    -------
    IsotonicFit
        ``fitted`` is nondecreasing with the same weighted mean as the
        input.  Each run of equal fitted values is one pooled block,
        valued at the weighted mean of its members; block values
        increase strictly.
    """
    r = np.asarray(risks, dtype=float)
    w = np.asarray(weights, dtype=float)
    if r.ndim != 1 or r.shape != w.shape:
        raise ValidationError("risks and weights must be equal-length 1-d arrays")
    if r.size == 0:
        raise ValidationError("cannot fit an empty sequence")
    if np.any(w <= 0):
        raise ValidationError("weights must be strictly positive")

    # stack rows: [start index, weighted sum, weight]
    stack: list[list[float]] = []
    for i in range(r.size):
        stack.append([i, r[i] * w[i], w[i]])
        while len(stack) > 1 and (
            stack[-2][1] * stack[-1][2] >= stack[-1][1] * stack[-2][2]
        ):
            # previous mean >= current mean, compared cross-multiplied
            top = stack.pop()
            stack[-1][1] += top[1]
            stack[-1][2] += top[2]

    fitted = np.empty_like(r)
    ends = [row[0] for row in stack[1:]] + [r.size]
    for (start, wsum, wtot), end in zip(stack, ends):
        fitted[start:end] = wsum / wtot
    return IsotonicFit(fitted=fitted)


def pava_rows(risks: np.ndarray, weights) -> np.ndarray:
    """Row-wise weighted isotonic fit of a (B, G) stack of curves, in place.

    Runs the block stack of ``pava`` on every row at once: a loop over
    the G columns pushes each row's next positive-weight cell, then
    merges the top two blocks of every row that still violates, with
    the same cross-multiplied test and the same pooled sums, so each
    fitted value equals ``pava(risks[i, m], weights[i, m]).fitted``
    over the positive-weight cells ``m`` of row ``i`` bit for bit.
    Zero-weight cells, and rows with at most one positive-weight cell,
    keep their input values.

    Parameters
    ----------
    risks : ndarray of float64, shape (B, G)
        Overwritten with the fit.
    weights : array_like, shape (B, G)
        Nonnegative weights; zero marks a cell the fit skips.

    Returns
    -------
    ndarray
        ``risks``, refit.
    """
    r = risks
    if not isinstance(r, np.ndarray) or r.dtype != np.float64:
        raise ValidationError("risks must be a float64 array; it is refit in place")
    w = np.asarray(weights, dtype=float)
    if r.ndim != 2 or r.shape != w.shape:
        raise ValidationError("risks and weights must be 2-d arrays of one shape")
    if not np.all(w >= 0):
        raise ValidationError("weights must be nonnegative")

    n_rows, n_cols = r.shape
    # every row's block stack, flattened: row i owns slots base[i] ..
    # base[i] + n_cols, and top[i] is the slot of its newest block.  A
    # block is one complex number, weighted sum + 1j * weight, so one
    # gather, add or scatter moves both (componentwise, so each sum is
    # the float sum ``pava`` forms).  Slot base[i] holds a sentinel
    # block, sum -1 and weight 0, that fails the merge test against any
    # block of positive weight, so no row needs a stack-height check.
    n_slots = n_cols + 1
    stack = np.full(n_rows * n_slots, 1j)
    wsum, wtot = stack.real, stack.imag
    start = np.zeros(n_rows * n_slots, dtype=np.intp)
    base = np.arange(n_rows) * n_slots
    stack[base] = -1.0
    top = base.copy()
    for j in range(n_cols):
        w_j = w[:, j]
        rows = np.flatnonzero(w_j > 0)
        slot = top[rows] + 1
        weight = w_j[rows]
        wsum[slot] = r[:, j][rows] * weight
        wtot[slot] = weight
        start[slot] = j
        top[rows] = slot
        # only a row that just pushed can violate: merge its top two
        # blocks while the previous mean is >= the newest one
        while rows.size:
            prev, last = stack[slot - 1], stack[slot]
            merge = prev.real * last.imag >= last.real * prev.imag
            if not merge.all():
                rows, slot = rows[merge], slot[merge]
                prev, last = prev[merge], last[merge]
            slot -= 1
            prev += last
            stack[slot] = prev
            top[rows] = slot

    # block k of row i sits in slot base[i] + 1 + k; mark each block's
    # first cell in a (B, G) view of ``start``, and the running count of
    # marks along the row gives every cell its block's slot.  Cells
    # before a row's first block point at the sentinel; they have zero
    # weight, so the mask below never copies them.
    height = top - base
    k = np.arange(n_slots)
    live = (k > 0) & (k <= height[:, None])
    cells = start.reshape(n_rows, n_slots)[live] + np.repeat(base - np.arange(n_rows), height)
    ids = start[: r.size].reshape(n_rows, n_cols)
    start.fill(0)
    ids.ravel()[cells] = 1
    np.cumsum(ids, axis=1, out=ids)
    ids += base[:, None]
    stack[base] = 1j  # weight 1 for the sentinels: no 0 / 0 below
    values = wsum / wtot
    del stack, wsum, wtot
    fitted = np.take(values, ids)
    refit = w > 0
    refit &= (refit.sum(axis=1) > 1)[:, None]
    np.copyto(r, fitted, where=refit)
    return r
