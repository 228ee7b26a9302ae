"""One process-pool map for the per-frame work of `gen` and `maps`."""
from __future__ import annotations

import concurrent.futures

# (fn, shared), set in each pool worker by the pool's initializer; never in
# the parent.
_task: tuple = ()


def _init_worker(fn, shared: tuple) -> None:
    global _task
    _task = (fn, shared)


def _run(item):
    fn, shared = _task
    return fn(*shared, item)


def parallel_map(fn, shared: tuple, items, workers: int) -> list:
    """Return [fn(*shared, item) for item in items], in input order.

    With workers > 1 and at least two items the calls run in a process pool:
    `fn` and `shared` reach each worker once, through the pool initializer,
    and the items go out in chunks, so a task carries only its item.
    Otherwise the same calls run in this process. `fn` must be a
    module-level function.
    """
    items = list(items)
    if workers <= 1 or len(items) < 2:
        return [fn(*shared, item) for item in items]
    chunksize = -(-len(items) // (4 * workers))
    with concurrent.futures.ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(fn, shared)) as pool:
        return list(pool.map(_run, items, chunksize=chunksize))
