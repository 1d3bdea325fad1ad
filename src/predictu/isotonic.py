"""Weighted isotonic regression for refitting non-monotone curves.

Carrying a trained genotype ordering onto independent data yields risk
sequences that violate monotonicity through sampling noise alone.
Pool-adjacent-violators (PAVA) projects such a sequence onto the
nondecreasing cone under weighted least squares, with the genotype
masses as weights; pooling therefore preserves the mass-weighted mean
risk, so a refit curve keeps its prevalence.

One merge-round routine serves both entry points.  ``pava_rows`` refits
a (B, G) stack of curves in place; the simulation harness uses it for
each replicate's point and bootstrap curves.  ``pava`` is its one-row
view; ``validate --isotonic`` uses it.  A row's fit depends on that
row's positive-weight cells alone, so a curve refits to the same bits
on its own or inside any stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

import numpy as np

from .errors import ValidationError
from .risk_model import _fields_equal

__all__ = ["IsotonicFit", "pava", "pava_rows"]

# merge rounds before the rows that still violate finish on the block stack
_ROUNDS = 32


@dataclass(frozen=True)
class IsotonicFit:
    """Result of a PAVA projection."""

    fitted: np.ndarray

    __eq__ = _fields_equal


def pava(risks, weights) -> IsotonicFit:
    """Weighted least-squares isotonic fit, nondecreasing.

    The one-row view of ``pava_rows``.

    Parameters
    ----------
    risks : array_like
        Values to project, in evaluation order.
    weights : array_like
        Finite, strictly positive weights, same length.  Non-finite risks
        or weights raise ``ValidationError``.

    Returns
    -------
    IsotonicFit
        ``fitted`` is nondecreasing with the same weighted mean as the
        input.  Each run of equal fitted values is one pooled block,
        valued at the weighted mean of its members; block values
        increase strictly.
    """
    r = np.array(risks, dtype=float)  # a copy: the fit is written into it
    w = np.asarray(weights, dtype=float)
    if r.ndim != 1 or r.shape != w.shape:
        raise ValidationError("risks and weights must be equal-length 1-d arrays")
    if r.size == 0:
        raise ValidationError("cannot fit an empty sequence")
    if np.any(w <= 0):
        raise ValidationError("weights must be strictly positive")
    return IsotonicFit(fitted=pava_rows(r[None], w[None])[0])


def pava_rows(risks: np.ndarray, weights) -> np.ndarray:
    """Row-wise weighted isotonic fit of a (B, G) stack of curves, in place.

    Each row's positive-weight cells start as one block each, and every
    merge round pools each run of adjacent blocks of one row whose
    earlier mean is >= the later one, compared cross-multiplied, so
    ties pool.  Adjacent violators always share a block of the isotonic
    solution (Best & Chakravarti 1990), so no round pools wrongly; the
    rounds stop once no row violates.  A row that still violates after
    ``_ROUNDS`` rounds (a low value after a long rise merges one block
    per round) finishes on the sequential block stack over its merged
    blocks.  Blocks are summed in order within their row, so a row's fit
    depends on that row alone.  Zero-weight cells, and rows with at most
    one positive-weight cell, keep their input values.  The rounds work
    on the positive-weight cells by flat index and carry only each
    block's first cell, so a round's work shrinks with its block count;
    any memory layout of ``risks`` refits to the same bits.

    Parameters
    ----------
    risks : ndarray of float64, shape (B, G)
        Finite values, overwritten with the fit.
    weights : array_like, shape (B, G)
        Finite nonnegative weights; zero marks a cell the fit skips.

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
    if not np.isfinite(w).all():
        raise ValidationError("weights must be finite")
    if not np.all(w >= 0):
        raise ValidationError("weights must be nonnegative")
    if not np.isfinite(r).all():
        raise ValidationError("risks must be finite")

    # the positive-weight cells by flat index, into a C-ordered copy of
    # ``risks`` when it is laid out otherwise; the copy's fit is copied back
    out = r if r.flags.c_contiguous else np.ascontiguousarray(r)
    positive = w > 0
    cells = np.flatnonzero(positive)
    # a row's only positive-weight cell keeps its value: r w / w need not be r
    lone = np.flatnonzero(np.count_nonzero(positive, axis=1) == 1)
    kept = out[lone]
    # the blocks, in row-major order: row id, weighted sum, weight and
    # first cell of each
    row = cells // r.shape[1]
    wtot = w.ravel()[cells]
    wsum = out.ravel()[cells] * wtot
    start = np.arange(cells.size)
    for k in count():
        merge = row[1:] == row[:-1]
        merge &= wsum[:-1] * wtot[1:] >= wsum[1:] * wtot[:-1]
        if not merge.any():
            break
        first = np.concatenate(([True], ~merge))
        if k >= _ROUNDS:
            _stack(first, row, wsum, wtot, np.unique(row[1:][merge]))
        ids = np.cumsum(first) - 1
        # integer gathers: a boolean mask of random runs compresses slower
        heads = np.flatnonzero(first)
        start, row = start[heads], row[heads]
        wsum, wtot = np.bincount(ids, wsum), np.bincount(ids, wtot)

    out.ravel()[cells] = np.repeat(wsum / wtot, np.diff(start, append=cells.size))
    out[lone] = kept
    if out is not r:
        r[...] = out
    return r


def _stack(first, row, wsum, wtot, violating) -> None:
    """Mark in ``first`` where each pooled block of the ``violating`` rows
    starts, by the sequential block stack over the rows' merged blocks.

    Merged blocks are parts of the solution's blocks, so the stack over
    them is as exact as over the cells.  Scans left to right; whenever
    the previous block's mean is >= the newest one's, the two merge,
    cascading back as far as needed.
    """
    # the row ids are sorted, so each row's blocks are one slice
    for lo, hi in np.searchsorted(row, np.c_[violating, violating + 1]).tolist():
        stack: list[tuple[int, float, float]] = []  # start, weighted sum, weight
        for top in zip(range(lo, hi), wsum[lo:hi].tolist(), wtot[lo:hi].tolist()):
            while stack and stack[-1][1] * top[2] >= top[1] * stack[-1][2]:
                start, s, t = stack.pop()
                top = (start, s + top[1], t + top[2])
            stack.append(top)
        first[lo:hi] = False
        first[[start for start, _, _ in stack]] = True
