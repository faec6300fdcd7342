"""An in-order map that forks worker processes for its tail once that pays.

Select treats each episode on its own, so it splits across cores; it is the
only stage that forks. The map starts in-process and hands the items left to
forked children only while they are projected to save more than a fork-join
costs. The children inherit the function and the items, so only their
results cross a pipe.
"""

from __future__ import annotations

import os
import sys
import threading
from time import perf_counter

from .errors import PodselectError

# Seconds of in-process work before a fork-join is considered for the rest of
# the items: about what one costs. On a 2-core host (Python 3.11; 6 fresh
# processes, each holding a loaded 60-episode corpus) importing pickle took
# 2.5-3.9 ms and a first fork-join of one child 3.5-4.4 ms, a second one
# 2.8-3.7 ms; the pages then copied on write cost parent and child a little
# more. Forking from the first episode made cold runs on 20 episodes, whose
# select and evaluate take under 10 ms each, 9 ms slower (0.150 -> 0.159 s,
# medians of 24 alternated runs). Working in-process until that price has
# been paid (ski rental), and forking only while the fork is projected to
# save more than that price, needs no guess about the input: against all
# in-process or all forked, whichever is faster, it costs at most about this
# plus one item more.
_POOL_AFTER_S = 0.008


def _pool_pays(elapsed: float, done: int, rest: int, jobs: int) -> bool:
    """Whether forking should take the rest, done items having taken elapsed seconds.

    Not before one item is done and _POOL_AFTER_S has passed. Then only when
    the rest, projected from the mean time per item so far, would finish
    sooner on min(jobs, rest) workers by more than _POOL_AFTER_S: the
    projection times (1 - 1 / workers).
    """
    if not done or elapsed < _POOL_AFTER_S:
        return False
    return elapsed / done * rest * (1 - 1 / min(jobs, rest)) > _POOL_AFTER_S


def map_in_order(fn, items: list, jobs: int, stage: str) -> list:
    """[fn(item) for item in items], in input order.

    Works in-process, and before each item asks _pool_pays whether to hand
    the rest to min(jobs, len(rest)) workers: this process and forked
    children. The first item is always worked here. So a small input never
    pays for a fork, nor does a large one whose remaining work is too short
    to repay it. Nothing forks with jobs == 1, where os.fork is missing, or
    while another thread runs, since a forked child would hold that thread's
    locks but not the thread. A dead worker raises
    PodselectError("<stage> pool: a worker process died").
    """
    results = []
    forkable = jobs > 1 and hasattr(os, "fork") and threading.active_count() == 1
    started = perf_counter()
    for done, item in enumerate(items):
        if forkable and _pool_pays(perf_counter() - started, done, len(items) - done, jobs):
            break
        results.append(fn(item))
    rest = items[len(results):]
    if rest:
        results += _fork_join(fn, rest, min(jobs, len(rest)), stage)
    return results


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
