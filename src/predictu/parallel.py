"""Worker pools for the replicate loops.

The simulation harness and the resampling routines split their work
into contiguous ranges of independent units (harness replicates,
resampling groups), one range per worker, and map one function over
the ranges.  Every unit derives its random stream from its own index,
never from the worker that runs it, and the results come back in range
order, so results do not depend on the worker count.

The two callers keep separate pools because their work differs.
Resampling spends its time in NumPy draws that release the interpreter
lock, so ``map_ranges_threads`` runs it on threads of the calling
process.  A harness replicate is mostly Python over small stacks, which
holds the lock, so ``map_ranges`` runs it on spawned processes.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np

from .errors import ValidationError

__all__ = ["worker_count", "available_cpus", "map_ranges", "map_ranges_threads"]


def available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def worker_count(requested: int | None = None, default: int = 1) -> int:
    """Workers to use: argument, else PREDICTU_THREADS, else ``default``.

    A count below 1 from either source is invalid input, not 1 worker.
    """
    source = "workers"
    if requested is None:
        env = os.environ.get("PREDICTU_THREADS", "").strip()
        if not env:
            return default
        try:
            requested = int(env)
        except ValueError as exc:
            raise ValidationError(f"PREDICTU_THREADS must be an integer, got {env!r}") from exc
        source = "PREDICTU_THREADS"
    if int(requested) < 1:
        raise ValidationError(f"{source} must be at least 1, got {requested}")
    return int(requested)


def _map(make_pool, fn, n_items: int, workers: int | None, args: tuple) -> list:
    """``fn(*args, lo, hi)`` over contiguous ranges that cover ``range(n_items)``.

    There is one range per worker (at most ``n_items``).  The calling
    thread runs the first range while a pool from ``make_pool(n)`` runs
    the n others, and the results come back in range order.
    """
    n_jobs = min(worker_count(workers), n_items)
    bounds = np.linspace(0, n_items, n_jobs + 1).astype(int)
    ranges = [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    if len(ranges) <= 1:
        return [fn(*args, lo, hi) for lo, hi in ranges]
    with make_pool(len(ranges) - 1) as pool:
        futures = [pool.submit(fn, *args, lo, hi) for lo, hi in ranges[1:]]
        first = fn(*args, *ranges[0])
        return [first] + [future.result() for future in futures]


def _spawn_pool(max_workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers, mp_context=multiprocessing.get_context("spawn"))


def map_ranges(fn, n_items: int, workers: int | None, *args) -> list:
    """``fn(*args, lo, hi)`` over contiguous ranges that cover ``range(n_items)``.

    There is one range per worker (at most ``n_items``), and the results
    come back in range order.  The calling process runs the first range
    itself while each other range runs in a freshly spawned process, so
    ``fn`` and ``args`` must pickle, and a script that calls this with
    more than one worker needs an ``if __name__ == "__main__":`` guard.
    """
    return _map(_spawn_pool, fn, n_items, workers, args)


def map_ranges_threads(fn, n_items: int, workers: int | None, *args) -> list:
    """``map_ranges`` on threads of the calling process.

    The calling thread runs the first range and each other range runs on
    a pool thread, so ``fn`` and ``args`` need not pickle; ``fn`` must
    not write to anything the ranges share.
    """
    return _map(ThreadPoolExecutor, fn, n_items, workers, args)
