import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from podselect import forkjoin
from podselect.errors import PodselectError
from conftest import reaped


def square_and_pid(item):
    return item * item, os.getpid()


def slow_square_and_pid(item):
    time.sleep(0.002)
    return square_and_pid(item)


class TestMapInOrder:
    @pytest.mark.parametrize("count, jobs", [(1, 2), (2, 2), (7, 2), (7, 3), (5, 8), (64, 4)])
    def test_results_keep_input_order_whichever_worker_takes_each_item(
            self, forked, count, jobs):
        results = forkjoin.map_in_order(slow_square_and_pid, list(range(count)), jobs)
        assert len(forked) == min(jobs, count) - 1 and all(map(reaped, forked))
        assert [value for value, _ in results] == [i * i for i in range(count)]
        assert {pid for _, pid in results} <= {os.getpid(), *forked}

    def test_a_slower_worker_takes_fewer_items(self, forked):
        parent = os.getpid()

        def slow_in_a_child(item):
            time.sleep(0.001 if os.getpid() == parent else 0.05)
            return os.getpid()

        pids = forkjoin.map_in_order(slow_in_a_child, list(range(20)), 2)
        assert pids.count(parent) >= 15 and set(pids) <= {parent, *forked}

    @pytest.mark.parametrize("records", [1, 3])
    def test_more_items_than_records_go_in_runs(self, forked, monkeypatch,
                                                records):
        monkeypatch.setattr(forkjoin, "_MAX_CHUNKS", records)
        results = forkjoin.map_in_order(slow_square_and_pid, list(range(10)), 2)
        assert [value for value, _ in results] == [i * i for i in range(10)]
        assert all(map(reaped, forked))

    def test_nothing_forks_while_another_thread_runs(self, forked):
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            results = forkjoin.map_in_order(square_and_pid, [1, 2, 3], 2)
        finally:
            release.set()
            waiter.join()
        assert results == [(i * i, os.getpid()) for i in (1, 2, 3)]
        assert forked == []

    def test_nothing_forks_without_os_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert forkjoin.map_in_order(square_and_pid, [1, 2, 3], 2) == [
            (i * i, os.getpid()) for i in (1, 2, 3)]

    def test_a_childs_exception_is_raised_in_the_parent(self, forked, tmp_path):
        parent, mark = os.getpid(), tmp_path / "failing"

        def fail_in_a_child(item):
            # the child fails on the first item it takes after item 0, and the
            # parent holds its first item until then, leaving the child one
            if os.getpid() != parent:
                if item:
                    mark.touch()
                    raise ValueError(f"item {item} failed")
                return item
            deadline = time.monotonic() + 30
            while not mark.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            return item

        with pytest.raises(ValueError, match=r"^item [1-3] failed$"):
            forkjoin.map_in_order(fail_in_a_child, [0, 1, 2, 3], 2)
        assert len(forked) == 1 and reaped(forked[0])

    @pytest.mark.parametrize("death", ["killed", "exit-3", "unpicklable-result",
                                       "unpicklable-exception"])
    def test_a_dead_child_is_one_error(self, forked, death):
        parent = os.getpid()

        def die_in_a_child(item):
            if os.getpid() == parent:
                time.sleep(0.2)
                return item
            if death == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            if death == "exit-3":
                os._exit(3)
            if death == "unpicklable-result":
                return lambda: item
            raise ValueError(lambda: item)

        with pytest.raises(PodselectError, match="^select pool: a worker process died$"):
            forkjoin.map_in_order(die_in_a_child, [0, 1, 2, 3], 2)
        assert len(forked) == 1 and reaped(forked[0])

    def test_a_failing_parent_kills_and_reaps_its_children(self, forked):
        parent = os.getpid()

        def fail_in_the_parent(item):
            if os.getpid() == parent:
                if item:  # item 0 is the only one it may finish
                    raise RuntimeError("parent failed")
                return item
            time.sleep(60)

        started = time.monotonic()
        with pytest.raises(RuntimeError, match="parent failed"):
            forkjoin.map_in_order(fail_in_the_parent, list(range(6)), 3)
        assert time.monotonic() - started < 30  # killed, not waited out
        assert len(forked) == 2 and all(map(reaped, forked))

    def test_output_buffered_before_the_fork_is_written_once(self, tmp_path):
        script = ("import os, sys, time\n"
                  "from pathlib import Path\n"
                  "from podselect import forkjoin\n"
                  "marks = Path(sys.argv[1])\n"
                  "print('before', end='|')\n"  # a pipe: block-buffered, not yet written
                  "def work(i):\n"
                  # each worker touches its mark and holds its item until the
                  # other's is there too, so each takes one of the two
                  "    (marks / str(os.getpid())).touch()\n"
                  "    deadline = time.monotonic() + 30\n"
                  "    while len(os.listdir(marks)) < 2 and time.monotonic() < deadline:\n"
                  "        time.sleep(0.01)\n"
                  "    print(f'<{i}:{os.getpid()}>', end='', flush=True)\n"
                  "forkjoin.map_in_order(work, [1, 2], 3)\n")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("before|") and proc.stdout.count("before") == 1
        written = re.findall(r"<(\d):(\d+)>", proc.stdout)
        assert sorted(item for item, _ in written) == ["1", "2"]
        assert len({pid for _, pid in written}) == 2  # the child wrote one


# map_in_order over items 0-5 on two workers, each item first touching
# argv[1]/taken-<item>-<pid>. The parent holds its first item until it is
# killed; the child holds its first one until argv[1]/release exists, then
# touches argv[1]/done-<item>.
ORPHANED_CHILD = """
import os, sys, time
from pathlib import Path
from podselect import forkjoin

marks, parent = Path(sys.argv[1]), os.getpid()

def work(item):
    (marks / f"taken-{item}-{os.getpid()}").touch()
    deadline = time.monotonic() + 60
    while ((os.getpid() == parent or not (marks / "release").exists())
           and time.monotonic() < deadline):
        time.sleep(0.01)
    (marks / f"done-{item}").touch()
    return item

forkjoin.map_in_order(work, list(range(6)), 2)
"""


@pytest.mark.parametrize("signum", [signal.SIGKILL, signal.SIGTERM], ids=["SIGKILL", "SIGTERM"])
def test_a_child_whose_parent_is_killed_finishes_its_item_and_takes_no_other(tmp_path, signum):
    """A parent killed by a signal that no cleanup follows leaves its forked
    child to finish the item in hand, with four items still in the pipe."""
    marks = tmp_path / "marks"
    marks.mkdir()
    # the child inherits stdout, so the pipe reads EOF once the child has exited too
    proc = subprocess.Popen([sys.executable, "-c", ORPHANED_CHILD, str(marks)],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    orphan = None
    try:
        deadline = time.monotonic() + 60
        while len(taken := sorted(p.name for p in marks.glob("taken-*"))) < 2:
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        [(child_item, orphan)] = [(int(item), int(pid)) for _, item, pid in
                                  (name.split("-") for name in taken) if int(pid) != proc.pid]
        os.kill(proc.pid, signum)
        assert proc.wait(timeout=30) == -signum
        (marks / "release").touch()  # the parent is reaped, so the child has another
        proc.communicate(timeout=30)
        orphan = None  # it has exited
    finally:
        if proc.poll() is None:
            proc.kill()
        if orphan is not None:
            os.kill(orphan, signal.SIGKILL)
        proc.communicate()
    assert sorted(p.name for p in marks.iterdir()) == sorted(
        [*taken, "release", f"done-{child_item}"])


# A pipeline whose select episodes, all handed to a fork-join, sleep in the
# processes argv[2] names ("all" or "children"), each first touching
# argv[1]/<its pid>. A parent that does not sleep holds its first episode
# until a child has touched its mark: else it could take every episode before
# the child reads one. It installs Python's SIGINT handler, as a terminal's
# foreground job has it: one that inherits SIGINT ignored gets none, and the
# program keeps the SIG_IGN.
SLEEPY_PIPELINE = """
import os, signal, sys, time
from pathlib import Path
from podselect import cli

marks, sleepers = Path(sys.argv[1]), sys.argv[2]
parent = os.getpid()
cli._FORK_JOIN_S = 0
select_one = cli._select_one

def sleepy(episode, **kwargs):
    if sleepers == "all" or os.getpid() != parent:
        (marks / str(os.getpid())).touch()
        time.sleep(60)
    while not any(marks.iterdir()):
        time.sleep(0.01)
    return select_one(episode, **kwargs)

cli._select_one = sleepy
signal.signal(signal.SIGINT, signal.default_int_handler)
sys.exit(cli.main(sys.argv[3:]))
"""


@pytest.mark.parametrize("sleepers, target, ignoring", [
    ("all", "parent", False), ("all", "group", False), ("children", "parent", False),
    ("all", "group", True)],
    ids=["working-parent", "working-group", "waiting-parent", "inherited-sig-ign"])
def test_interrupt_mid_select_leaves_no_process_and_no_partial(
        fixtures_dir, tmp_path, sleepers, target, ignoring):
    """SIGINT to the parent alone, or to its whole group as a terminal sends it,
    while the parent works through its share or waits for its child's; last,
    with the pipeline started while this process ignores SIGINT."""
    marks = tmp_path / "marks"
    marks.mkdir()
    out = tmp_path / "run"
    handler = signal.getsignal(signal.SIGINT)
    if ignoring:  # as in a background job of a non-interactive shell
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        proc = subprocess.Popen(
            [sys.executable, "-c", SLEEPY_PIPELINE, str(marks), sleepers, "pipeline",
             "--input", str(fixtures_dir / "mini_corpus.jsonl"), "--output", str(out),
             "--strategy", "none", "--jobs", "2"],
            start_new_session=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
    finally:
        signal.signal(signal.SIGINT, handler)
    try:
        deadline = time.monotonic() + 60
        while len(os.listdir(marks)) < (2 if sleepers == "all" else 1):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        if sleepers == "children":
            time.sleep(0.5)  # the parent's own share is a few milliseconds
        if target == "parent":
            os.kill(proc.pid, signal.SIGINT)
        else:
            os.killpg(proc.pid, signal.SIGINT)
        stderr = proc.communicate(timeout=30)[1]
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    assert proc.returncode == 130
    assert "Traceback" not in stderr
    # preprocess logs its counts; the interrupt adds one line
    assert [line.split(" ", 2)[2] for line in stderr.splitlines()] == [
        "INFO podselect: preprocess: 10 in, 10 kept", "ERROR podselect: interrupted"]
    with pytest.raises(ProcessLookupError):  # nothing is left in the run's process group
        os.killpg(proc.pid, 0)
    assert sorted(p.name for p in out.iterdir()) == [
        "filter_report.json", "kept.jsonl", "split.jsonl"]
