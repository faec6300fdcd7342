"""An in-order map over this process and forked children.

Select, the only stage that forks, treats each episode on its own and decides
how many workers pay. The children inherit the function and the items, so
only their results cross a pipe.
"""

from __future__ import annotations

import os
import sys
import threading

from .errors import PodselectError


def map_in_order(fn, items: list, workers: int, stage: str) -> list:
    """[fn(item) for item in items], in input order.

    With workers > 1, splits the items between min(workers, len(items))
    workers: this process and forked children. Nothing forks where os.fork
    is missing or while another thread runs, since a forked child would hold
    that thread's locks but not the thread; the items are then mapped
    in-process, as with workers == 1. A dead worker raises
    PodselectError("<stage> pool: a worker process died").
    """
    workers = min(workers, len(items))
    if workers > 1 and hasattr(os, "fork") and threading.active_count() == 1:
        return _fork_join(fn, items, workers, stage)
    return list(map(fn, items))


# At most this many records in a fork-join's pipe of work, so that writing
# them all before any worker reads cannot block: 4 KiB, well inside a pipe's
# buffer on Linux and macOS.
_MAX_CHUNKS = 1024


def _fork_join(fn, items: list, workers: int, stage: str) -> list:
    """fn over items on this process and workers - 1 forked children; the
    results in input order.

    The items are cut into at most _MAX_CHUNKS runs, and each worker takes
    the next run left from a shared pipe until none is: a worker on a slower
    or busier core takes fewer. A child's exception is raised here again.
    Whatever ends this call, every child has been reaped by then, and on a
    failure killed first. A child whose parent is gone (a SIGTERM or SIGKILL
    that no cleanup runs after) finishes the run in hand and exits.
    """
    import pickle

    chunk = -(-len(items) // _MAX_CHUNKS)
    todo, todo_write = os.pipe()
    os.write(todo_write, b"".join(start.to_bytes(4, "little")
                                  for start in range(0, len(items), chunk)))
    os.close(todo_write)
    sys.stdout.flush()  # or a child's exit would write the parent's buffers again
    sys.stderr.flush()
    parent = os.getpid()
    read_ends: list[int] = []
    pids: list[int] = []
    reaped = 0
    try:
        for _ in range(1, workers):
            read_end, write_end = os.pipe()
            read_ends.append(read_end)
            try:
                if not (pid := os.fork()):
                    _serve(fn, items, chunk, todo, write_end, read_ends, parent)
            finally:
                os.close(write_end)
            pids.append(pid)
        shares = [_take(fn, items, chunk, todo)]
        for pid, read_end in zip(pids, read_ends):
            with open(read_end, "rb", closefd=False) as pipe:
                payload = pipe.read()
            status = os.waitpid(pid, 0)[1]
            reaped += 1
            try:
                ok, share = pickle.loads(payload)
            except Exception:  # a short read: the child died writing
                ok = share = None
            if os.waitstatus_to_exitcode(status) or ok is None:
                raise PodselectError(f"{stage} pool: a worker process died")
            if not ok:
                raise share
            shares.append(share)
        results = [None] * len(items)
        for share in shares:
            for i, result in share:
                results[i] = result
        return results
    except BaseException:
        import signal

        for pid in pids[reaped:]:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(todo)
        for read_end in read_ends:
            os.close(read_end)
        for pid in pids[reaped:]:
            os.waitpid(pid, 0)


def _take(fn, items: list, chunk: int, todo: int,
          parent: int | None = None) -> list[tuple[int, object]]:
    """(i, fn(items[i])) for each run of `chunk` items this worker takes from todo.

    Each record is 4 bytes, all written before any read, and a pipe read
    holds the pipe's lock, so no two workers take the same run. A forked
    child passes the pid that forked it, and exits before taking a run once
    its parent is gone: nothing would read its results.
    """
    taken = []
    while True:
        if parent is not None and os.getppid() != parent:
            os._exit(1)
        if not (record := os.read(todo, 4)):
            return taken
        start = int.from_bytes(record, "little")
        taken += ((i, fn(items[i])) for i in range(start, min(start + chunk, len(items))))


def _serve(fn, items: list, chunk: int, todo: int, write_end: int, read_ends: list[int],
           parent: int):
    """In a forked child: pickle (True, what _take returns) or (False, the
    exception raised) into write_end, then exit at once, running none of the
    parent's cleanup."""
    import pickle

    code = 1
    try:
        for read_end in read_ends:  # inherited; held open, a parent's close would not end a write
            os.close(read_end)
        try:
            reply = (True, _take(fn, items, chunk, todo, parent))
        except BaseException as exc:
            reply = (False, exc)
        with open(write_end, "wb", closefd=False) as pipe:
            pipe.write(pickle.dumps(reply))
        code = 0
    finally:
        os._exit(code)
