"""The worker pool for the replicate loops.

The simulation harness and the resampling routines split their work
into contiguous ranges of independent units (harness replicates,
resampling groups), one range per worker, and map one function
``fn(lo, hi)`` of a range over the ranges on threads of the calling
process; a caller binds anything else ``fn`` needs in a closure.  Every
unit derives its random stream from its own index, never from the
worker that runs it, and the results come back in range order, so
results do not depend on the worker count.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import ValidationError

__all__ = ["available_cpus", "map_ranges"]


def available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def map_ranges(fn, n_items: int, workers: int | None) -> list:
    """``fn(lo, hi)`` over contiguous ranges that cover ``range(n_items)``.

    There is one range per worker, ``workers`` being 1 when None, at
    most ``n_items`` and at most ``available_cpus()`` (so no caller
    starts more threads than CPUs); a count below 1 is invalid input.
    The calling thread runs the first range and each other range runs
    on a pool thread, so ``fn`` must not write to anything the ranges
    share.  The results come back in range order.
    """
    workers = 1 if workers is None else int(workers)
    if workers < 1:
        raise ValidationError(f"workers must be at least 1, got {workers}")
    n_jobs = min(workers, n_items, available_cpus())
    bounds = np.linspace(0, n_items, n_jobs + 1).astype(int)
    ranges = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    if len(ranges) <= 1:
        return [fn(lo, hi) for lo, hi in ranges]
    # imported only where a pool starts, so a run on one worker never loads it
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(len(ranges) - 1) as pool:
        futures = [pool.submit(fn, lo, hi) for lo, hi in ranges[1:]]
        first = fn(*ranges[0])
        return [first] + [future.result() for future in futures]
