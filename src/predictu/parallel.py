"""Worker processes for the replicate loops.

The simulation harness and the resampling routines split their work
into contiguous ranges of independent units (harness replicates,
resampling groups), one range per worker, and map one function over
the ranges.  Every unit derives its random stream from its own index,
never from the worker that runs it, so results do not depend on the
worker count.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .errors import ValidationError

__all__ = ["worker_count", "map_ranges"]


def worker_count(requested: int | None = None) -> int:
    """Worker processes to use: argument, else PREDICTU_THREADS, else 1.

    A count below 1 from either source is invalid input, not 1 worker.
    """
    source = "workers"
    if requested is None:
        env = os.environ.get("PREDICTU_THREADS", "").strip()
        if not env:
            return 1
        try:
            requested = int(env)
        except ValueError as exc:
            raise ValidationError(f"PREDICTU_THREADS must be an integer, got {env!r}") from exc
        source = "PREDICTU_THREADS"
    if int(requested) < 1:
        raise ValidationError(f"{source} must be at least 1, got {requested}")
    return int(requested)


def map_ranges(fn, n_items: int, workers: int | None, *args) -> list:
    """``fn(*args, lo, hi)`` over contiguous ranges that cover ``range(n_items)``.

    There is one range per worker (at most ``n_items``), and the results
    come back in range order.  The calling process runs the first range
    itself while each other range runs in a freshly spawned process, so
    ``fn`` and ``args`` must pickle.
    """
    n_jobs = min(worker_count(workers), n_items)
    bounds = np.linspace(0, n_items, n_jobs + 1).astype(int)
    ranges = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    if len(ranges) <= 1:
        return [fn(*args, lo, hi) for lo, hi in ranges]
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=len(ranges) - 1, mp_context=context) as pool:
        futures = [pool.submit(fn, *args, lo, hi) for lo, hi in ranges[1:]]
        first = fn(*args, *ranges[0])
        return [first] + [future.result() for future in futures]
