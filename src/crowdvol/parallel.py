"""One parallel map for the per-frame work of `gen` and `maps`."""
from __future__ import annotations

import os
import pickle
import signal


def parallel_map(fn, shared: tuple, items, workers: int) -> list:
    """Return [fn(*shared, item) for item in items], in input order.

    The items are cut into min(workers, len(items)) contiguous blocks. This
    process runs the first block, and each other block runs in one child
    made by `os.fork`, which inherits `fn`, `shared` and its items, so
    nothing is sent to it; it pipes back one pickle of its results, or of
    the exception it stopped at. As with a serial loop, the exception of the
    earliest failing item is raised. Every child is killed if still running
    and reaped before this returns or raises. Where `os.fork` does not exist
    every block runs in this process.
    """
    items = list(items)
    n = max(1, min(workers, len(items))) if hasattr(os, "fork") else 1
    cuts = [len(items) * k // n for k in range(n + 1)]
    pids: list[int] = []  # children not yet reaped, in block order
    fds: list[int] = []  # read end of each child's pipe, in block order
    try:
        for k in range(1, n):
            read_fd, write_fd = os.pipe()
            fds.append(read_fd)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(fn, shared, items[cuts[k]:cuts[k + 1]], write_fd)
                pids.append(pid)
            finally:
                os.close(write_fd)
        results = [fn(*shared, item) for item in items[:cuts[1]]]
        for k, fd in enumerate(fds, 1):
            with open(fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = os.waitpid(pids[0], 0)[1]
            pids.pop(0)  # only once reaped, so an interrupt in the wait leaves it to the finally clause
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
                raise RuntimeError(
                    f"parallel_map: the process running block {k + 1} of {n} "
                    f"(items {cuts[k]} to {cuts[k + 1] - 1}) {how} without a result"
                )
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results += value
        return results
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)
        for fd in fds:
            os.close(fd)


def _child(fn, shared: tuple, block: list, write_fd: int):
    """Run one block in a forked child and leave through `os._exit`, so no
    atexit handler and no stdio buffer inherited from the parent runs or
    flushes a second time. Any exception, KeyboardInterrupt included, goes
    back to the parent, which raises it."""
    code = 1
    try:
        try:
            payload = pickle.dumps((True, [fn(*shared, item) for item in block]), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            payload = _pickled_error(exc)
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        os._exit(code)


def _pickled_error(exc: BaseException) -> bytes:
    """Pickle of (False, exc), or of a RuntimeError with its type and message
    when exc does not survive a pickle round trip."""
    try:
        payload = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
        pickle.loads(payload)
        return payload
    except Exception:
        return pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")), pickle.HIGHEST_PROTOCOL)
