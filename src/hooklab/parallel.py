"""One parallel fold over an index space, shared by the exhaustive sweeps.

The exact arithmetic and the fixed fold order make the result
independent of the worker count.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Callable

__all__ = ["fold_chunks"]


def fold_chunks(chunk: Callable, args: tuple, total: int, workers: int, add: Callable):
    """chunk((*args, 0, total)), computed as the fold of contiguous ranges.

    Cuts [0, total) into workers * 4 near-equal ranges, runs chunk on
    each in a process pool and folds the partials in range order with
    add(acc, part) -> acc.  workers is capped at the CPU count and at
    the number of ranges, because under fork every worker starts on the
    first submit; when one is left, the whole range runs in-process.
    chunk must be a module-level function: workers receive it pickled.
    Workers fork on Linux whatever the interpreter's default, so they
    inherit the loaded modules; elsewhere the platform default applies.
    """
    workers = min(workers, os.cpu_count() or 1)
    parts = workers * 4
    step, extra = divmod(total, parts)
    jobs = []
    lo = 0
    for i in range(parts):
        hi = lo + step + (i < extra)
        if lo < hi:
            jobs.append((*args, lo, hi))
        lo = hi
    workers = min(workers, len(jobs))
    if workers <= 1:
        return chunk((*args, 0, total))
    method = "fork" if sys.platform.startswith("linux") else None
    context = multiprocessing.get_context(method)
    with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
        return functools.reduce(add, pool.map(chunk, jobs))
