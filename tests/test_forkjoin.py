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


@pytest.fixture
def always_fork(monkeypatch):
    """Every item but those done before the first check goes to a fork-join."""
    monkeypatch.setattr(forkjoin, "_POOL_AFTER_S", 0)


def square_and_pid(item):
    return item * item, os.getpid()


def slow_square_and_pid(item):
    time.sleep(0.002)
    return square_and_pid(item)


class TestMapInOrder:
    @pytest.mark.parametrize("count, jobs", [(1, 2), (2, 2), (7, 2), (7, 3), (5, 8), (64, 4)])
    def test_results_keep_input_order_whichever_worker_takes_each_item(
            self, always_fork, forked, count, jobs):
        results = forkjoin.map_in_order(slow_square_and_pid, list(range(count)), jobs, "test")
        assert len(forked) == min(jobs, count) - 1 and all(map(reaped, forked))
        assert [value for value, _ in results] == [i * i for i in range(count)]
        assert {pid for _, pid in results} <= {os.getpid(), *forked}

    def test_a_slower_worker_takes_fewer_items(self, always_fork, forked):
        parent = os.getpid()

        def slow_in_a_child(item):
            time.sleep(0.001 if os.getpid() == parent else 0.05)
            return os.getpid()

        pids = forkjoin.map_in_order(slow_in_a_child, list(range(20)), 2, "test")
        assert pids.count(parent) >= 15 and set(pids) <= {parent, *forked}

    @pytest.mark.parametrize("records", [1, 3])
    def test_more_items_than_records_go_in_runs(self, always_fork, forked, monkeypatch,
                                                records):
        monkeypatch.setattr(forkjoin, "_MAX_CHUNKS", records)
        results = forkjoin.map_in_order(slow_square_and_pid, list(range(10)), 2, "test")
        assert [value for value, _ in results] == [i * i for i in range(10)]
        assert all(map(reaped, forked))

    def test_nothing_forks_while_another_thread_runs(self, always_fork, forked):
        release = threading.Event()
        waiter = threading.Thread(target=release.wait)
        waiter.start()
        try:
            results = forkjoin.map_in_order(square_and_pid, [1, 2, 3], 2, "test")
        finally:
            release.set()
            waiter.join()
        assert results == [(i * i, os.getpid()) for i in (1, 2, 3)]
        assert forked == []

    def test_nothing_forks_without_os_fork(self, always_fork, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert forkjoin.map_in_order(square_and_pid, [1, 2, 3], 2, "test") == [
            (i * i, os.getpid()) for i in (1, 2, 3)]

    def test_a_childs_exception_is_raised_in_the_parent(self, always_fork, forked):
        parent = os.getpid()

        def fail_in_a_child(item):
            if os.getpid() != parent:
                raise ValueError(f"item {item} failed")
            time.sleep(0.2)  # leaves the child items to take
            return item

        with pytest.raises(ValueError, match=r"^item [1-3] failed$"):
            forkjoin.map_in_order(fail_in_a_child, [0, 1, 2, 3], 2, "test")
        assert len(forked) == 1 and reaped(forked[0])

    @pytest.mark.parametrize("death", ["killed", "exit-3", "unpicklable-result",
                                       "unpicklable-exception"])
    def test_a_dead_child_is_one_error(self, always_fork, forked, death):
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

        with pytest.raises(PodselectError, match="^evaluate pool: a worker process died$"):
            forkjoin.map_in_order(die_in_a_child, [0, 1, 2, 3], 2, "evaluate")
        assert len(forked) == 1 and reaped(forked[0])

    def test_a_failing_parent_kills_and_reaps_its_children(self, always_fork, forked):
        parent = os.getpid()

        def fail_in_the_parent(item):
            if os.getpid() == parent:
                raise RuntimeError("parent failed")
            time.sleep(60)

        started = time.monotonic()
        with pytest.raises(RuntimeError, match="parent failed"):
            forkjoin.map_in_order(fail_in_the_parent, list(range(6)), 3, "test")
        assert time.monotonic() - started < 30  # killed, not waited out
        assert len(forked) == 2 and all(map(reaped, forked))

    def test_output_buffered_before_the_fork_is_written_once(self):
        script = ("from podselect import forkjoin\n"
                  "forkjoin._POOL_AFTER_S = 0\n"
                  "print('before', end='|')\n"  # a pipe: block-buffered, not yet written
                  "forkjoin.map_in_order(lambda i: print(f'<{i}>', end='', flush=True),\n"
                  "                      [1, 2, 3], 3, 'test')\n")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("before|") and proc.stdout.count("before") == 1
        assert sorted(re.findall(r"<(\d)>", proc.stdout)) == ["1", "2", "3"]


# A pipeline whose select episodes sleep in the processes argv[2] names
# ("all" or "children"), each first touching argv[1]/<its pid>.
SLEEPY_PIPELINE = """
import os, sys, time
from pathlib import Path
from podselect import cli, forkjoin

marks, sleepers = Path(sys.argv[1]), sys.argv[2]
parent = os.getpid()
forkjoin._POOL_AFTER_S = 0
select_one = cli._select_one

def sleepy(episode, **kwargs):
    if sleepers == "all" or os.getpid() != parent:
        (marks / str(os.getpid())).touch()
        time.sleep(60)
    return select_one(episode, **kwargs)

cli._select_one = sleepy
sys.exit(cli.main(sys.argv[3:]))
"""


@pytest.mark.parametrize("sleepers, target", [("all", "parent"), ("all", "group"),
                                              ("children", "parent")],
                         ids=["working-parent", "working-group", "waiting-parent"])
def test_interrupt_mid_select_leaves_no_process_and_no_partial(
        fixtures_dir, tmp_path, sleepers, target):
    """SIGINT to the parent alone, or to its whole group as a terminal sends it,
    while the parent works through its share or waits for its child's."""
    marks = tmp_path / "marks"
    marks.mkdir()
    out = tmp_path / "run"
    proc = subprocess.Popen(
        [sys.executable, "-c", SLEEPY_PIPELINE, str(marks), sleepers, "pipeline",
         "--input", str(fixtures_dir / "mini_corpus.jsonl"), "--output", str(out),
         "--strategy", "none", "--jobs", "2"],
        start_new_session=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
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
        assert proc.wait(timeout=30) != 0
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    with pytest.raises(ProcessLookupError):  # nothing is left in the run's process group
        os.killpg(proc.pid, 0)
    assert sorted(p.name for p in out.iterdir()) == [
        "filter_report.json", "kept.jsonl", "split.jsonl"]
