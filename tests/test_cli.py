import gc
import hashlib
import json
import logging
import os
import pickle
import random
import signal
import subprocess
import sys
import tempfile
import threading
import time
import weakref
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podselect import abstractive, cli, corpus, forkjoin, preprocess, selection, topics
from podselect.cli import _derive_seed, _select_one, atomic_write, main
from podselect.errors import BackendError, InsufficientContentError
from podselect.preprocess import clean_description
from conftest import random_sentences, reaped
from test_abstractive import FakeBackend, delays, stub_server  # noqa: F401 (fixtures)


@pytest.fixture(autouse=True)
def no_ambient_config(monkeypatch):
    monkeypatch.delenv("PODSELECT_CONFIG", raising=False)


@pytest.fixture
def built(monkeypatch):
    """Episode ids in the order corpus.build_document is called on them."""
    ids = []
    build = corpus.build_document
    monkeypatch.setattr(corpus, "build_document",
                        lambda episode, *limit: ids.append(episode.id) or build(episode, *limit))
    return ids


@pytest.fixture
def pools(monkeypatch):
    """(workers, episode ids) of each share handed to a fork-join; nothing forks,
    the share is mapped in-process."""
    made = []

    def recording_fork_join(fn, items, workers, stage):
        made.append((workers, [item.id for item in items]))
        return list(map(fn, items))

    monkeypatch.setattr(forkjoin, "_fork_join", recording_fork_join)
    return made


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def read_jsonl(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def tiny_records(count=3, sentences=6):
    """Hand-sized corpus: every transcript has `sentences` 3-token sentences."""
    words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
             "golf", "hotel", "india", "juliet", "kilo", "lima"]
    records = []
    for i in range(count):
        parts = []
        for s in range(sentences):
            base = (i + s * 3) % len(words)
            chunk = [words[(base + j) % len(words)] for j in range(3)]
            parts.append(" ".join(chunk) + ".")
        records.append({
            "id": f"tiny-{i:02d}",
            "show_id": "show-tiny",
            "transcript": " ".join(parts),
            # enough tokens and stopwords to survive the corpus filter
            "description": f"Episode {i} of the show walks through case "
                           f"studies, guest interviews, and closing thoughts.",
            "show_description": "A show about things.",
        })
    return records


def tiny_corpus(path, count=3, sentences=6):
    """tiny_records written to path."""
    records = tiny_records(count, sentences)
    write_jsonl(path, records)
    return records


class TestAtomicWrite:
    def test_success_replaces_and_cleans_up(self, tmp_path):
        target = tmp_path / "out.txt"
        with atomic_write(target) as handle:
            handle.write("done")
        assert target.read_text() == "done"
        assert not (tmp_path / "out.txt.partial").exists()

    def test_failure_leaves_partial_only(self, tmp_path):
        target = tmp_path / "out.txt"
        with pytest.raises(RuntimeError):
            with atomic_write(target) as handle:
                handle.write("half")
                raise RuntimeError("interrupted")
        assert not target.exists()
        assert (tmp_path / "out.txt.partial").read_text() == "half"

    def test_existing_file_untouched_on_failure(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("original")
        with pytest.raises(RuntimeError):
            with atomic_write(target) as handle:
                handle.write("replacement")
                raise RuntimeError("interrupted")
        assert target.read_text() == "original"


class TestPreprocessCommand:
    def test_filter_fixture_outputs(self, fixtures_dir, tmp_path):
        out = tmp_path / "stage"
        code = main(["preprocess", "--input",
                     str(fixtures_dir / "filter_fixture.jsonl"),
                     "--output", str(out)])
        assert code == 0
        kept = read_jsonl(out / "kept.jsonl")
        assert [r["id"] for r in kept] == [f"ep-keep-{i:02d}" for i in range(1, 7)]
        report = json.loads((out / "filter_report.json").read_text())
        assert report["input"] == 12
        assert report["kept"] == 6
        assert sum(report["rejected_by_rule"].values()) == 6
        split = read_jsonl(out / "split.jsonl")
        assert len(split) == 6
        assert {r["id"] for r in split} == {r["id"] for r in kept}

    def test_everything_rejected_still_writes_artifacts(self, tmp_path):
        source = tmp_path / "eps.jsonl"
        write_jsonl(source, [{"id": "e1", "transcript": "t", "description": "short"}])
        out = tmp_path / "stage"
        assert main(["preprocess", "--input", str(source), "--output", str(out)]) == 0
        assert (out / "kept.jsonl").read_text() == ""
        assert (out / "split.jsonl").read_text() == ""
        report = json.loads((out / "filter_report.json").read_text())
        assert report["kept"] == 0

    def test_corpus_too_small_to_split_exits_one_and_writes_nothing(self, fixtures_dir,
                                                                    tmp_path):
        source = tmp_path / "eps.jsonl"
        lines = (fixtures_dir / "mini_corpus.jsonl").read_text("utf-8").splitlines()
        source.write_text("\n".join(lines[:2]) + "\n", "utf-8")
        out = tmp_path / "stage"
        proc = subprocess.run(
            [sys.executable, "-m", "podselect", "preprocess", "--input", str(source),
             "--output", str(out)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert "2 of 2 episodes kept; need at least 3 episodes" in proc.stderr
        assert not out.exists()

    def test_missing_input_exits_one(self, tmp_path):
        code = main(["preprocess", "--input", str(tmp_path / "absent.jsonl"),
                     "--output", str(tmp_path / "stage")])
        assert code == 1

    def test_bad_input_line_reported_and_skipped(self, tmp_path):
        source = tmp_path / "eps.jsonl"
        records = tiny_corpus(source, count=3)
        lines = source.read_text("utf-8").splitlines()
        source.write_text("\n".join([lines[0], "{not json", *lines[1:]]) + "\n", "utf-8")
        out = tmp_path / "stage"
        proc = subprocess.run(
            [sys.executable, "-m", "podselect", "preprocess", "--input", str(source),
             "--output", str(out)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "line 2: invalid JSON" in proc.stderr
        assert [r["id"] for r in read_jsonl(out / "kept.jsonl")] == [r["id"] for r in records]

    def test_missing_profanity_list_exits_two_before_the_corpus_is_read(self, tmp_path,
                                                                          caplog):
        source = tmp_path / "eps.jsonl"
        tiny_corpus(source, count=3)
        source.write_text("{not json\n" + source.read_text("utf-8"), "utf-8")
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"profanity_list_path": str(tmp_path / "absent.txt")}))
        out = tmp_path / "stage"
        assert main(["preprocess", "--input", str(source), "--output", str(out),
                     "--config", str(config)]) == 2
        assert "cannot read profanity list" in caplog.text
        assert "skipping record" not in caplog.text
        assert not out.exists()

    def test_lines_not_utf8_reported_and_skipped(self, tmp_path):
        source = tmp_path / "eps.jsonl"
        records = tiny_corpus(source, count=3)
        raw_byte = json.dumps(dict(records[0], id="raw-byte")).encode().replace(
            b"alpha", b"alph\xff", 1)
        # a record the filter keeps, so an unchecked escape would reach write_episodes
        escape = json.dumps(dict(records[1], id="escape",
                                 description=records[1]["description"].replace("1", "7"),
                                 transcript=records[1]["transcript"] + " \ud800."))
        lines = source.read_bytes().splitlines()
        source.write_bytes(b"\n".join([lines[0], raw_byte, lines[1], escape.encode(),
                                       lines[2]]) + b"\n")
        out = tmp_path / "stage"
        proc = subprocess.run(
            [sys.executable, "-m", "podselect", "preprocess", "--input", str(source),
             "--output", str(out)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert "line 2: not valid UTF-8" in proc.stderr
        assert "line 4: not valid UTF-8" in proc.stderr
        assert [r["id"] for r in read_jsonl(out / "kept.jsonl")] == [r["id"] for r in records]
        assert not list(out.glob("*.partial"))

    @pytest.mark.parametrize("command", ["preprocess", "pipeline"])
    def test_too_deeply_nested_line_reported_and_skipped(self, tmp_path, caplog, command):
        source = tmp_path / "eps.jsonl"
        records = tiny_corpus(source, count=3)
        lines = source.read_text("utf-8").splitlines()
        source.write_text("\n".join([lines[0], "[" * 200_000, *lines[1:]]) + "\n", "utf-8")
        out = tmp_path / "stage"
        jobs = ["--jobs", "1"] if command == "pipeline" else []  # preprocess has no --jobs
        assert main([command, "--input", str(source), "--output", str(out), *jobs]) == 0
        assert "line 2: invalid JSON (nested too deeply)" in caplog.text
        assert [r["id"] for r in read_jsonl(out / "kept.jsonl")] == [r["id"] for r in records]

    def test_non_finite_durations_never_reach_kept_jsonl(self, tmp_path):
        source = tmp_path / "eps.jsonl"
        records = tiny_corpus(source, count=8)
        bad = ["NaN", '"nan"', "1e999", '"-inf"', "true"]
        lines = [json.dumps(dict(record, duration_seconds=60.5)) for record in records]
        for number, duration in enumerate(bad, 1):  # each one a record the filter keeps
            lines[number] = lines[number][:-1] + f', "duration_seconds": {duration}}}'
        source.write_text("\n".join(lines) + "\n", "utf-8")
        out = tmp_path / "stage"
        assert main(["preprocess", "--input", str(source), "--output", str(out)]) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        with open(out / "kept.jsonl", encoding="utf-8") as handle:
            kept = [json.loads(line, parse_constant=refuse) for line in handle]
        assert [r["id"] for r in kept] == [records[i]["id"] for i in (0, 6, 7)]
        assert {r["duration_seconds"] for r in kept} == {60.5}

    def test_repeated_id_reported_and_first_kept(self, fixtures_dir, tmp_path):
        records = read_jsonl(fixtures_dir / "mini_corpus.jsonl")
        repeat = dict(records[0], description="A different description of the same "
                                              "episode, long enough to pass the filter.")
        source = tmp_path / "eps.jsonl"
        write_jsonl(source, [*records, repeat])
        out = tmp_path / "stage"
        proc = subprocess.run(
            [sys.executable, "-m", "podselect", "preprocess", "--input", str(source),
             "--output", str(out)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert f"line {len(records) + 1}: duplicate id 'mini-01'" in proc.stderr
        kept = read_jsonl(out / "kept.jsonl")
        assert [r["id"] for r in kept] == [r["id"] for r in records]
        assert kept[0]["description"] == records[0]["description"]


class TestSelectCommand:
    def test_window_selection_matches_library(self, tmp_path):
        source = tmp_path / "eps.jsonl"
        records = tiny_corpus(source)
        out = tmp_path / "selections.jsonl"
        code = main(["select", "--input", str(source), "--output", str(out),
                     "--strategy", "window", "--window-size", "2", "--jobs", "1"])
        assert code == 0
        rows = read_jsonl(out)
        assert [r["id"] for r in rows] == [r["id"] for r in records]
        for row, record in zip(rows, records):
            episode = corpus.Episode(id=record["id"],
                                     transcript_text=record["transcript"])
            doc = corpus.build_document(episode)
            expected = selection.select_window(
                doc, selection.SelectorConfig(window_size=2))
            assert row["strategy"] == "window"
            assert row["indices"] == list(expected.sentence_indices)
            assert row["tokens"] == expected.selected_token_count

    def test_parallel_output_matches_serial(self, tmp_path, monkeypatch):
        source = tmp_path / "eps.jsonl"
        tiny_corpus(source, count=6)
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        monkeypatch.setattr(cli, "_FORK_JOIN_S", 0)  # every episode goes to a fork-join
        for out, jobs in ((serial, "1"), (parallel, "2")):
            assert main(["select", "--input", str(source), "--output", str(out),
                         "--strategy", "novelty", "--window-size", "2",
                         "--top-k", "2", "--jobs", jobs]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    @pytest.mark.parametrize("jobs, cpus", [(["--jobs", "4"], 2), ([], 64)],
                             ids=["jobs-4", "cpu-count-64"])
    def test_pool_holds_at_most_one_worker_per_episode(self, tmp_path, monkeypatch,
                                                       pools, jobs, cpus):
        """4 episodes get 4 workers."""
        source = tmp_path / "eps.jsonl"
        ids = [record["id"] for record in tiny_corpus(source, count=4)]
        serial = tmp_path / "serial.jsonl"
        assert main(["select", "--input", str(source), "--output", str(serial),
                     "--jobs", "1"]) == 0
        monkeypatch.setattr(cli, "_FORK_JOIN_S", 0)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        out = tmp_path / "sel.jsonl"
        assert main(["select", "--input", str(source), "--output", str(out), *jobs]) == 0
        assert pools == [(4, ids)]
        assert out.read_bytes() == serial.read_bytes()

    @pytest.mark.parametrize("jobs", [2, 3, 4])
    @pytest.mark.parametrize("count", range(1, 7))
    def test_a_forking_select_hands_every_episode_to_one_fork_join(
            self, tmp_path, monkeypatch, pools, count, jobs):
        """With no fork-join price, every episode, the first included, goes to one
        fork-join on min(jobs, count) workers; one episode is not worth a fork."""
        source = tmp_path / "eps.jsonl"
        ids = [record["id"] for record in tiny_corpus(source, count=count)]
        monkeypatch.setattr(cli, "_FORK_JOIN_S", 0)
        assert main(["select", "--input", str(source), "--output",
                     str(tmp_path / "sel.jsonl"), "--jobs", str(jobs)]) == 0
        assert pools == ([(min(jobs, count), ids)] if count > 1 else [])

    def test_default_jobs_count_the_cpus_this_process_may_run_on(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli._jobs({"jobs": None}) == 1
        assert cli._jobs({"jobs": 3}) == 3
        monkeypatch.delattr(os, "sched_getaffinity")  # as on macOS and Windows
        assert cli._jobs({"jobs": None}) == 64

    def test_dead_pool_worker_exits_one(self, tmp_path, monkeypatch, caplog, forked):
        parent = os.getpid()
        select_one = cli._select_one

        def dying_in_a_child(episode, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            time.sleep(0.2)  # leaves the child episodes to take
            return select_one(episode, **kwargs)

        source = tmp_path / "eps.jsonl"
        tiny_corpus(source, count=3)
        monkeypatch.setattr(cli, "_FORK_JOIN_S", 0)
        monkeypatch.setattr(cli, "_select_one", dying_in_a_child)
        out = tmp_path / "sel.jsonl"
        assert main(["select", "--input", str(source), "--output", str(out),
                     "--jobs", "2"]) == 1
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
            "select pool: a worker process died"]
        assert not out.exists()
        assert len(forked) == 1 and reaped(forked[0])
        assert os.listdir(tmp_path) == ["eps.jsonl"]  # no .partial either

    def test_one_job_never_builds_a_pool(self, tmp_path, monkeypatch, pools):
        source = tmp_path / "eps.jsonl"
        tiny_corpus(source, count=3)
        monkeypatch.setattr(cli, "_FORK_JOIN_S", 0)
        assert main(["select", "--input", str(source), "--output",
                     str(tmp_path / "sel.jsonl"), "--jobs", "1"]) == 0
        assert pools == []

    @pytest.mark.parametrize("strategy, budget, lengths, jobs, price, expected", [
        # whole transcripts read: 8 s on 2 workers saves 4 s, which must exceed the price
        ("window", 1, [3, 5], 2, 3, (2, 8.0)),
        ("window", 1, [3, 5], 2, 4, (1, 8.0)),
        ("novelty", 1, [3, 5], 2, 3, (2, 8.0)),
        ("novelty", 1, [3, 5], 2, 4, (1, 8.0)),
        # the head pick reads at most budget * 6 characters: 6 + 4
        ("none", 1, [10, 4], 2, 4, (2, 10.0)),
        ("none", 1, [10, 4], 2, 5, (1, 10.0)),
        # a fit only for the transcript over budget * 6: 12 / 6 tokens x 500 sweeps
        ("topic", 1, [12, 6], 2, 508, (2, 1018.0)),
        ("topic", 1, [12, 6], 2, 509, (1, 1018.0)),
        ("topic", 2, [12, 6], 2, 8, (2, 18.0)),
        # workers are capped by the episode count; 4 workers save 3/4 of 8 s
        ("window", 1, [3, 5], 4, 3, (2, 8.0)),
        ("window", 1, [1, 2, 2, 3], 4, 5.5, (4, 8.0)),
        ("window", 1, [1, 2, 2, 3], 4, 6, (1, 8.0)),
        ("window", 1, [100], 4, 0, (1, 100.0)),
    ])
    def test_select_workers_weighs_the_characters_read_against_the_price(
            self, monkeypatch, strategy, budget, lengths, jobs, price, expected):
        """At one second a character and a token-sweep, the estimate is the
        characters read plus any fits, and select forks only when the workers
        save strictly more than the fork-join price."""
        monkeypatch.setattr(cli, "_SELECT_S_PER_CHAR", 1.0)
        monkeypatch.setattr(cli, "_SWEEP_S_PER_TOKEN", 1.0)
        monkeypatch.setattr(cli, "_FORK_JOIN_S", price)
        episodes = [corpus.Episode(f"ep-{i}", transcript_text="x" * length)
                    for i, length in enumerate(lengths)]
        settings = {"strategy": strategy, "budget": budget, "jobs": jobs}
        assert cli._select_workers(episodes, settings) == expected

    @pytest.fixture
    def free_fits(self, monkeypatch):
        """topics.fit_lda at no cost, under a model that ranks every sentence alike."""
        def no_fit(doc, config):
            k = config.num_topics
            return topics.TopicModel({}, ((),) * k, (1 / k,) * k, (0.5,) * k)

        monkeypatch.setattr(topics, "fit_lda", no_fit)

    # 3 tiny episodes of about 170 characters: a topic fit at budget 12 would
    # run on each, which repays a fork-join; the novelty picks would not
    FORK_CASES = pytest.mark.parametrize("args, forks", [
        (["--strategy", "topic", "--topics", "2", "--budget", "12"], True),
        (["--strategy", "novelty"], False)], ids=["topic-over-budget", "novelty"])

    @FORK_CASES
    def test_select_decides_from_the_input_before_the_first_episode(
            self, tmp_path, free_fits, pools, args, forks):
        """With no constant patched and fits that cost nothing, the topic corpus
        hands every episode to a fork-join, the first included; the novelty
        one forks nothing."""
        source = tmp_path / "eps.jsonl"
        ids = [record["id"] for record in tiny_corpus(source, count=3, sentences=8)]
        assert main(["select", "--input", str(source), "--output", str(tmp_path / "sel.jsonl"),
                     *args, "--jobs", "2"]) == 0
        assert pools == ([(2, ids)] if forks else [])

    @FORK_CASES
    def test_the_same_input_forks_alike_however_long_its_episodes_take(
            self, tmp_path, monkeypatch, free_fits, pools, args, forks):
        """Selected twice at --jobs 2, once with each episode taking 20 ms more,
        the same input records the same fork-joins: the clock plays no part."""
        source = tmp_path / "eps.jsonl"
        tiny_corpus(source, count=3, sentences=8)
        select_one = cli._select_one
        runs = []
        for delay in (0.02, 0):
            def slowed(episode, delay=delay, **kwargs):
                time.sleep(delay)
                return select_one(episode, **kwargs)

            monkeypatch.setattr(cli, "_select_one", slowed)
            assert main(["select", "--input", str(source), "--output",
                         str(tmp_path / f"sel-{delay}.jsonl"), *args, "--jobs", "2"]) == 0
            runs.append(pools[:])
            pools.clear()
        assert runs[0] == runs[1] and bool(runs[0]) == forks

    def test_topic_strategy_deterministic_for_seed(self, tmp_path):
        source = tmp_path / "eps.jsonl"
        tiny_corpus(source, count=3, sentences=8)
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        for out in (first, second):
            code = main(["select", "--input", str(source), "--output", str(out),
                         "--strategy", "topic", "--topics", "2", "--budget", "12",
                         "--seed", "7", "--jobs", "1"])
            assert code == 0
        assert first.read_bytes() == second.read_bytes()
        rows = read_jsonl(first)
        assert all(row["strategy"] == "topic" for row in rows)
        assert all(row["tokens"] <= 12 for row in rows)

    def test_head_strategy_takes_prefix(self, tmp_path):
        source = tmp_path / "eps.jsonl"
        tiny_corpus(source, count=1, sentences=5)
        out = tmp_path / "sel.jsonl"
        assert main(["select", "--input", str(source), "--output", str(out),
                     "--strategy", "none", "--budget", "7", "--jobs", "1"]) == 0
        row = read_jsonl(out)[0]
        assert row["indices"] == [0, 1, 2]  # 3-token sentences; 9 >= 7
        assert row["tokens"] == 9

    @pytest.mark.parametrize("strategy, limit", [("none", 7), ("window", None),
                                                 ("novelty", None), ("topic", None)])
    def test_only_the_head_strategy_builds_a_prefix(self, tmp_path, monkeypatch,
                                                    strategy, limit):
        limits = []
        build = corpus.build_document
        monkeypatch.setattr(corpus, "build_document",
                            lambda episode, *args: limits.append(args) or build(episode, *args))
        source = tmp_path / "eps.jsonl"
        tiny_corpus(source, count=2, sentences=5)
        assert main(["select", "--input", str(source), "--output", str(tmp_path / "sel.jsonl"),
                     "--strategy", strategy, "--budget", "7", "--topics", "2",
                     "--jobs", "1"]) == 0
        assert limits == [(limit,)] * 2

    def test_diagnostics_flag_adds_window_scores(self, tmp_path):
        source = tmp_path / "eps.jsonl"
        tiny_corpus(source, count=1)
        out = tmp_path / "sel.jsonl"
        assert main(["select", "--input", str(source), "--output", str(out),
                     "--strategy", "window", "--window-size", "2",
                     "--diagnostics", "--jobs", "1"]) == 0
        row = read_jsonl(out)[0]
        assert "window_scores" in row
        assert all(len(entry) == 3 for entry in row["window_scores"])

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_builds_no_backend_text(self, tmp_path, monkeypatch, forked, jobs):
        """Standalone select writes the selections and never caps a pick."""
        source = tmp_path / "eps.jsonl"
        tiny_corpus(source, count=6)
        monkeypatch.setattr(cli, "_FORK_JOIN_S", 0)  # --jobs 2 forks from the start
        plain, patched = tmp_path / "plain.jsonl", tmp_path / "patched.jsonl"
        args = ["select", "--input", str(source), "--strategy", "novelty",
                "--window-size", "2", "--top-k", "2", "--jobs", jobs]
        assert main([*args, "--output", str(plain)]) == 0

        def no_cap(*args):
            raise AssertionError("enforce_budget called")

        monkeypatch.setattr(abstractive, "enforce_budget", no_cap)
        assert main([*args, "--output", str(patched)]) == 0
        assert patched.read_bytes() == plain.read_bytes()
        assert len(forked) == (2 if jobs == "2" else 0)

    def test_topic_skips_an_episode_whose_first_pick_cannot_fit(self, fixtures_dir,
                                                                tmp_path, caplog):
        """At budget 8 the first topic pick of three mini episodes overflows: each
        is skipped with a warning, not written as a pick of no sentence."""
        out = tmp_path / "sel.jsonl"
        assert main(["select", "--input", str(fixtures_dir / "mini_corpus.jsonl"),
                     "--output", str(out), "--strategy", "topic", "--budget", "8",
                     "--seed", "7", "--jobs", "1"]) == 0
        skipped = ["mini-02", "mini-06", "mini-10"]
        rows = read_jsonl(out)
        assert [row["id"] for row in rows] == [
            f"mini-{i:02d}" for i in range(1, 11) if f"mini-{i:02d}" not in skipped]
        assert all(row["indices"] and 0 < row["tokens"] <= 8 for row in rows)
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == [f"skipping {episode_id}: no topic pick fits the budget of 8 tokens"
                            for episode_id in skipped]

    def test_empty_transcript_skipped(self, tmp_path):
        source = tmp_path / "eps.jsonl"
        write_jsonl(source, [
            {"id": "good", "transcript": "Words in here. More words follow."},
            {"id": "hollow", "transcript": "!!! ..."},
        ])
        out = tmp_path / "sel.jsonl"
        assert main(["select", "--input", str(source), "--output", str(out),
                     "--strategy", "window", "--window-size", "1",
                     "--jobs", "1"]) == 0
        assert [r["id"] for r in read_jsonl(out)] == ["good"]

    def test_outcome_survives_pickle(self):
        """A forked worker's outcome crosses a pipe; the episode pickles too."""
        episode = corpus.Episode(id="ep", transcript_text="One two three. Four five. Six.")
        outcome = _select_one(episode, "novelty", selection.SelectorConfig(), 5, 0, True)
        assert outcome[1] is not None
        assert pickle.loads(pickle.dumps((episode, outcome))) == (episode, outcome)


def topic_episode(rng, sentence_count, episode_id="ep-topic"):
    words = [f"word{i:02d}" for i in range(30)]
    sentences = random_sentences(rng, sentence_count, words, min_len=1, max_len=7)
    return corpus.Episode(id=episode_id,
                          transcript_text=" ".join(" ".join(s) + "." for s in sentences))


class TestTopicFitSkip:
    """The topic strategy skips the LDA fit when the whole transcript fits the budget."""

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(0, 2 ** 31),
           st.integers(0, 25), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_under_budget_record_equals_fit_and_pick(self, doc_seed, num_topics, seed,
                                                     slack, diagnostics):
        rng = random.Random(doc_seed)
        episode = topic_episode(rng, rng.randint(num_topics, 12), f"ep-{doc_seed}")
        doc = corpus.build_document(episode)
        selector = selection.SelectorConfig(token_budget=doc.total_tokens + slack)
        model = topics.fit_lda(doc, topics.TopicConfig(
            num_topics=num_topics, seed=_derive_seed(seed, episode.id)))
        picked = topics.select_by_topics(doc, model, selector)
        capped = abstractive.enforce_budget(picked, doc, selector.token_budget)
        assert _select_one(episode, "topic", selector, num_topics, seed, diagnostics) == (
            episode.id, picked.to_record(), capped, None)

    def test_fit_runs_only_at_a_binding_budget(self, monkeypatch):
        def no_fit(doc, config):
            raise RuntimeError("fit_lda called")

        monkeypatch.setattr(topics, "fit_lda", no_fit)
        episode = topic_episode(random.Random(3), 8)
        doc = corpus.build_document(episode)
        fits = selection.SelectorConfig(token_budget=doc.total_tokens)
        everything = selection.SelectionResult(
            episode_id=episode.id, strategy="topic",
            sentence_indices=tuple(range(len(doc.sentences))),
            selected_token_count=doc.total_tokens)
        assert _select_one(episode, "topic", fits, 3, 0, False) == (episode.id, {
            "id": episode.id, "strategy": "topic",
            "indices": list(range(len(doc.sentences))), "tokens": doc.total_tokens,
        }, abstractive.enforce_budget(everything, doc, doc.total_tokens), None)
        binding = selection.SelectorConfig(token_budget=doc.total_tokens - 1)
        with pytest.raises(RuntimeError, match="fit_lda called"):
            _select_one(episode, "topic", binding, 3, 0, False)

    def test_too_few_sentences_skipped_under_budget(self):
        episode = topic_episode(random.Random(5), 2)
        doc = corpus.build_document(episode)
        assert len(doc.sentences) == 2 and doc.total_tokens < 1024
        with pytest.raises(InsufficientContentError) as raised:
            topics.fit_lda(doc, topics.TopicConfig(num_topics=5))
        assert str(raised.value) == "episode 'ep-topic': 2 sentences cannot support 5 topics"
        assert _select_one(episode, "topic", selection.SelectorConfig(), 5, 0, False) == (
            episode.id, None, None, str(raised.value))


class TestConfigPrecedence:
    def test_cli_beats_config_file(self, tmp_path):
        source = tmp_path / "eps.jsonl"
        tiny_corpus(source, count=1, sentences=6)
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"window_size": 3, "strategy": "window"}))
        out = tmp_path / "sel.jsonl"
        assert main(["select", "--input", str(source), "--output", str(out),
                     "--config", str(config), "--window-size", "2",
                     "--jobs", "1"]) == 0
        assert len(read_jsonl(out)[0]["indices"]) == 2

    def test_config_file_beats_default(self, tmp_path):
        source = tmp_path / "eps.jsonl"
        tiny_corpus(source, count=1, sentences=6)
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"window_size": 3}))
        out = tmp_path / "sel.jsonl"
        assert main(["select", "--input", str(source), "--output", str(out),
                     "--config", str(config), "--jobs", "1"]) == 0
        assert len(read_jsonl(out)[0]["indices"]) == 3

    def test_config_file_with_leading_byte_order_mark(self, tmp_path):
        source = tmp_path / "eps.jsonl"
        tiny_corpus(source, count=1, sentences=6)
        config = tmp_path / "conf.json"
        config.write_bytes(b"\xef\xbb\xbf" + json.dumps({"window_size": 3}).encode())
        out = tmp_path / "sel.jsonl"
        assert main(["select", "--input", str(source), "--output", str(out),
                     "--config", str(config), "--jobs", "1"]) == 0
        assert len(read_jsonl(out)[0]["indices"]) == 3

    def test_environment_variable_names_config(self, tmp_path, monkeypatch):
        source = tmp_path / "eps.jsonl"
        tiny_corpus(source, count=1, sentences=6)
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"window_size": 4}))
        monkeypatch.setenv("PODSELECT_CONFIG", str(config))
        out = tmp_path / "sel.jsonl"
        assert main(["select", "--input", str(source), "--output", str(out),
                     "--jobs", "1"]) == 0
        assert len(read_jsonl(out)[0]["indices"]) == 4

    def test_invalid_config_json_exits_two(self, tmp_path):
        source = tmp_path / "eps.jsonl"
        tiny_corpus(source, count=1)
        config = tmp_path / "conf.json"
        config.write_text("{not json")
        assert main(["select", "--input", str(source),
                     "--output", str(tmp_path / "sel.jsonl"),
                     "--config", str(config)]) == 2

    def test_non_object_config_exits_two(self, tmp_path):
        source = tmp_path / "eps.jsonl"
        tiny_corpus(source, count=1)
        config = tmp_path / "conf.json"
        config.write_text("[1, 2]")
        assert main(["select", "--input", str(source),
                     "--output", str(tmp_path / "sel.jsonl"),
                     "--config", str(config)]) == 2

    @pytest.mark.parametrize("config, named", [
        ({"budget": "5"}, "budget must be an integer >= 1, got '5'"),
        ({"budget": True}, "budget must be an integer >= 1, got True"),
        ({"topics": "3", "strategy": "topic"}, "topics must be an integer >= 1, got '3'"),
        ({"endpoint": 5, "backend": "remote"}, "endpoint must be a string, got 5"),
        ({"desc_min_chars": 10}, "unknown config key 'desc_min_chars'"),
        ({"windowsize": 3}, "unknown config key 'windowsize'"),
        ({"profanity_list_path": "absent-words.txt"}, "cannot read profanity list"),
        ({"backend": "remote", "endpoint": "localhost:8080"},
         "endpoint 'localhost:8080' is not an http(s):// URL with a host"),
        ({"backend": "remote", "endpoint": "ftp://h/x"},
         "endpoint 'ftp://h/x' is not an http(s):// URL with a host"),
        ({"backend": "remote", "endpoint": "http://"},
         "endpoint 'http://' is not an http(s):// URL with a host"),
        ({"backend": "remote", "endpoint": "http://h:abc"}, "endpoint 'http://h:abc': "),
        ({"backend": "remote", "endpoint": "http://a b:80"}, "endpoint 'http://a b:80': "),
        (b'{"seed": 1, "strategy": "w\xffndow"}', "is not valid JSON"),
        (b"[" * 200_000, "is not valid JSON: nested too deeply"),
        ({"profanity_list_path": "nul\x00.txt"}, "cannot read profanity list"),
        ({"backend": "remote", "endpoint": "http://[::1:80"},
         "endpoint 'http://[::1:80': Invalid IPv6 URL"),
        ({"backend": "remote", "endpoint": "http://127.0.0.1:9/a b"},
         "endpoint 'http://127.0.0.1:9/a b': URL can't contain control characters"),
        ({"backend": "remote", "endpoint": "http://127.0.0.1:9/\u00e4"},
         "'ascii' codec can't encode character '\\xe4'"),
        ({"backend": "remote", "endpoint": "http://" + "a" * 64 + ":80"},
         "endpoint 'http://" + "a" * 64 + ":80': "),
        ({"backend": "remote", "endpoint": "http://a..b:80"}, "endpoint 'http://a..b:80': "),
        ({"backend": "remote", "endpoint": "http://127.0.0.1:9/a\tb"},
         "endpoint 'http://127.0.0.1:9/a\\tb': URL can't contain control characters"),
        ({"backend": "remote", "endpoint": "http://127.0.0.1:9/a\rb"},
         "endpoint 'http://127.0.0.1:9/a\\rb': URL can't contain control characters"),
        ({"backend": "remote", "endpoint": "http://127.0.0.1:9/a\nb"},
         "endpoint 'http://127.0.0.1:9/a\\nb': URL can't contain control characters"),
    ], ids=["budget-string", "budget-bool", "topics-string", "endpoint-number",
            "filter-threshold-key", "misspelled-key", "missing-profanity-list",
            "endpoint-no-scheme", "endpoint-ftp", "endpoint-no-host",
            "endpoint-bad-port", "endpoint-space-in-host", "config-not-utf8",
            "config-nested-too-deeply", "profanity-list-path-with-nul",
            "endpoint-unclosed-bracket", "endpoint-space-in-path",
            "endpoint-non-ascii-path", "endpoint-host-label-too-long",
            "endpoint-empty-host-label", "endpoint-tab-in-path", "endpoint-cr-in-path",
            "endpoint-lf-in-path"])
    def test_bad_config_exits_two_and_writes_nothing(self, fixtures_dir, tmp_path,
                                                     config, named):
        config_path = tmp_path / "conf.json"
        config_path.write_bytes(config if isinstance(config, bytes)
                                else json.dumps(config).encode())
        out = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-m", "podselect", "pipeline",
             "--input", str(fixtures_dir / "mini_corpus.jsonl"), "--output", str(out),
             "--config", str(config_path), "--jobs", "1"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert named in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command, required, flag", [
        ("preprocess", [], "--jobs"),
        ("summarize", ["--episodes", "eps.jsonl"], "--seed"),
        ("evaluate", ["--references", "eps.jsonl"], "--seed"),
        ("evaluate", ["--references", "eps.jsonl"], "--jobs"),
    ])
    def test_no_command_takes_a_flag_it_never_reads(self, capsys, command, required, flag):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--input", "in.jsonl", "--output", "out", *required, flag, "1"])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_config_key_without_a_flag_is_still_accepted(self, tmp_path):
        source = tmp_path / "eps.jsonl"
        tiny_corpus(source, count=3)
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"jobs": 1, "seed": 3}))
        assert main(["preprocess", "--input", str(source), "--output", str(tmp_path / "pre"),
                     "--config", str(config)]) == 0

    # valid inputs for each command, so only the config check stops a write
    @pytest.mark.parametrize("command, input_name, extra", [
        ("preprocess", "eps.jsonl", []),
        ("select", "eps.jsonl", []),
        ("summarize", "sel.jsonl", ["--episodes", "eps.jsonl"]),
        ("evaluate", "summ.jsonl", ["--references", "eps.jsonl"]),
        ("pipeline", "eps.jsonl", []),
    ])
    def test_every_command_checks_its_config_before_any_write(self, tmp_path, command,
                                                               input_name, extra):
        records = tiny_corpus(tmp_path / "eps.jsonl", count=3)
        write_jsonl(tmp_path / "sel.jsonl", [
            {"id": r["id"], "strategy": "window", "indices": [1, 2], "tokens": 6}
            for r in records])
        write_jsonl(tmp_path / "summ.jsonl", [
            {"id": r["id"], "summary": "golf hotel", "backend": "null"} for r in records])
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"windowsize": 3}))
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "podselect", command, "--input", str(tmp_path / input_name),
             "--output", str(out), "--config", str(config),
             *(str(tmp_path / arg) if arg.endswith(".jsonl") else arg for arg in extra)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "unknown config key 'windowsize'" in proc.stderr
        assert len(proc.stderr.splitlines()) == 1
        assert not out.exists()

    # each command with each integer setting flag it takes, one below its minimum
    # (0 for top_k, 1 for the others)
    @pytest.mark.parametrize("command, input_name, extra, key, minimum", [
        pytest.param(command, input_name, extra, key, {"top_k": 0}.get(key, 1),
                     id=f"{command}-{key}")
        for command, input_name, extra, keys in [
            ("select", "eps.jsonl", [], ["window_size", "top_k", "topics", "budget", "jobs"]),
            ("summarize", "sel.jsonl", ["--episodes", "eps.jsonl"], ["budget", "jobs"]),
            ("pipeline", "eps.jsonl", [], ["window_size", "top_k", "topics", "budget", "jobs"]),
        ]
        for key in keys
    ])
    def test_setting_flag_below_its_minimum_exits_two_like_its_config_key(
            self, tmp_path, command, input_name, extra, key, minimum):
        records = tiny_corpus(tmp_path / "eps.jsonl", count=3)
        write_jsonl(tmp_path / "sel.jsonl", [
            {"id": r["id"], "strategy": "window", "indices": [1, 2], "tokens": 6}
            for r in records])
        write_jsonl(tmp_path / "summ.jsonl", [
            {"id": r["id"], "summary": "golf hotel", "backend": "null"} for r in records])
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({key: minimum - 1}))
        out = tmp_path / "out"
        messages = []
        for given in (["--" + key.replace("_", "-"), str(minimum - 1)],
                      ["--config", str(config)]):
            proc = subprocess.run(
                [sys.executable, "-m", "podselect", command,
                 "--input", str(tmp_path / input_name), "--output", str(out), *given,
                 *(str(tmp_path / arg) if arg.endswith(".jsonl") else arg for arg in extra)],
                capture_output=True, text=True, timeout=60)
            assert proc.returncode == 2
            assert len(proc.stderr.splitlines()) == 1
            assert not out.exists()
            messages.append(proc.stderr.split(" podselect: ", 1)[1])
        assert messages == [f"{key} must be an integer >= {minimum}, got {minimum - 1}\n"] * 2

    def test_bad_strategy_in_config_exits_two(self, tmp_path):
        source = tmp_path / "eps.jsonl"
        tiny_corpus(source, count=1)
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"strategy": "bogus"}))
        assert main(["select", "--input", str(source),
                     "--output", str(tmp_path / "sel.jsonl"),
                     "--config", str(config)]) == 2


INDICES_RULE = "'indices' must be a list of strictly increasing integers"


class TestSummarizeCommand:
    def prepare(self, tmp_path, count=2):
        source = tmp_path / "eps.jsonl"
        tiny_corpus(source, count=count)
        selections = tmp_path / "sel.jsonl"
        assert main(["select", "--input", str(source), "--output", str(selections),
                     "--strategy", "window", "--window-size", "2", "--jobs", "1"]) == 0
        return source, selections

    def test_null_backend_passthrough(self, tmp_path):
        source, selections = self.prepare(tmp_path)
        out = tmp_path / "summ.jsonl"
        code = main(["summarize", "--input", str(selections),
                     "--episodes", str(source), "--output", str(out),
                     "--backend", "null", "--jobs", "1"])
        assert code == 0
        rows = read_jsonl(out)
        assert [r["id"] for r in rows] == ["tiny-00", "tiny-01"]
        assert all(r["backend"] == "null" for r in rows)
        assert all(r["summary"] for r in rows)

    def test_remote_backend_round_trip(self, tmp_path, stub_server):
        server, endpoint = stub_server
        source, selections = self.prepare(tmp_path)
        for _ in range(2):
            server.script.append((200, {"id": "x", "summary": "served summary"}))
        out = tmp_path / "summ.jsonl"
        code = main(["summarize", "--input", str(selections),
                     "--episodes", str(source), "--output", str(out),
                     "--backend", "remote", "--endpoint", endpoint, "--jobs", "1"])
        assert code == 0
        rows = read_jsonl(out)
        assert all(r["summary"] == "served summary" for r in rows)
        assert all(r["backend"] == "remote" for r in rows)
        assert len(server.requests) == 2

    def test_backend_failure_exits_one(self, tmp_path, stub_server, delays):
        server, endpoint = stub_server
        source, selections = self.prepare(tmp_path, count=1)
        for _ in range(3):
            server.script.append((500, {"error": "down"}))
        out = tmp_path / "summ.jsonl"
        code = main(["summarize", "--input", str(selections),
                     "--episodes", str(source), "--output", str(out),
                     "--backend", "remote", "--endpoint", endpoint, "--jobs", "1"])
        assert code == 1
        assert delays == [0.5, 1.0]
        assert not out.exists()
        assert (tmp_path / "summ.jsonl.partial").read_text("utf-8") == ""

    def test_refused_episode_logged_once_by_its_final_error(self, tmp_path, stub_server):
        server, endpoint = stub_server
        source, selections = self.prepare(tmp_path, count=1)
        for _ in range(abstractive.ATTEMPTS):  # every request is refused
            server.script.append((400, {"error": "bad request"}))
        proc = subprocess.run(
            [sys.executable, "-m", "podselect", "summarize", "--input", str(selections),
             "--episodes", str(source), "--output", str(tmp_path / "summ.jsonl"),
             "--backend", "remote", "--endpoint", endpoint, "--jobs", "1"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        errors = [line.split(" ", 2)[2] for line in proc.stderr.splitlines()
                  if " ERROR " in line]
        assert errors == [
            "ERROR podselect: backend failed for 'tiny-00' after 1 attempt (HTTP 400)",
            "ERROR podselect: summarize: 1 of 1 episodes failed; "
            "0 summaries left in summ.jsonl.partial"]
        assert len(server.requests) == 1

    def test_dead_backend_exits_one_after_every_attempt(self, tmp_path, monkeypatch):
        monkeypatch.setattr(abstractive, "BACKOFF_SECONDS", 0.001)
        source, selections = self.prepare(tmp_path, count=5)
        ids = [f"tiny-{i:02d}" for i in range(5)]
        backend = FakeBackend(faults={episode_id: [BackendError("HTTP 503", status=503)]
                                      * abstractive.ATTEMPTS for episode_id in ids})
        monkeypatch.setattr(abstractive, "RemoteBackend", lambda endpoint: backend)
        threads_before = threading.active_count()
        out = tmp_path / "summ.jsonl"
        code = main(["summarize", "--input", str(selections),
                     "--episodes", str(source), "--output", str(out),
                     "--backend", "remote", "--endpoint", "http://unused", "--jobs", "2"])
        assert code == 1
        assert not out.exists()
        assert (tmp_path / "summ.jsonl.partial").read_text("utf-8") == ""
        assert backend.attempts() == {episode_id: abstractive.ATTEMPTS for episode_id in ids}
        assert len(backend.threads) <= 2
        assert backend.most_threads <= threads_before + 1  # the caller is one of the 2

    @pytest.mark.parametrize("bad_line, reason", [
        ('{"id": "tiny-01", "indices": [0', "invalid JSON"),
        ('["tiny-01", [0, 1]]', "not a JSON object"),
        ('{"id": "tiny-01", "strategy": "window", "tokens": 3}', "missing key 'indices'"),
        ('{"id": "tiny-01", "indices": [0, 99], "tokens": 6}',
         "selection for 'tiny-01' references sentence 99"),
        ('{"id": "tiny-00", "indices": [0], "tokens": 3}', "duplicate id 'tiny-00'"),
        (b'{"id": "tiny-01", "indices": [0], "note": "\xff"}', "not valid UTF-8"),
        ("[" * 200_000, "invalid JSON (nested too deeply)"),
        ('{"id": "tiny-01", "indices": [1, 1], "tokens": 6}', INDICES_RULE),
        ('{"id": "tiny-01", "indices": [2, 0], "tokens": 6}', INDICES_RULE),
        ('{"id": "tiny-01", "indices": [true, false], "tokens": 3}', INDICES_RULE),
        ('{"id": "tiny-01", "indices": [0.0, 1.0], "tokens": 6}', INDICES_RULE),
        ('{"id": "tiny-01", "indices": "01", "tokens": 6}', INDICES_RULE),
        ('{"id": 1, "indices": [0], "tokens": 3}', "'id' must be a string"),
        ('{"id": ["tiny-01"], "indices": [0], "tokens": 3}', "'id' must be a string"),
        ('{"id": "tiny-01", "strategy": 5, "indices": [0], "tokens": 3}',
         "'strategy' must be a string"),
        ('{"id": "tiny-01", "strategy": null, "indices": [0], "tokens": 3}',
         "'strategy' must be a string"),
        ('{"id": "tiny-01", "indices": [0], "tokens": "many"}', "'tokens' must be an integer"),
        ('{"id": "tiny-01", "indices": [0], "tokens": true}', "'tokens' must be an integer"),
        ('{"id": "tiny-01", "indices": [0], "tokens": 3.0}', "'tokens' must be an integer"),
        ('{"id": "tiny-01", "indices": [0, 1], "tokens": 5}',
         "'tokens' is 5, but the indexed sentences of 'tiny-01' hold 6: not selected from "
         "this episodes file"),
        ('{"id": "tiny-01", "indices": [], "tokens": 1}',
         "'tokens' is 1, but the indexed sentences of 'tiny-01' hold 0"),
    ], ids=["not-json", "not-an-object", "missing-indices", "index-out-of-range",
            "duplicate-id", "not-utf8", "nested-too-deeply", "repeated-index",
            "indices-out-of-order", "boolean-indices", "float-indices", "indices-string",
            "id-number", "id-list", "strategy-number", "strategy-null", "tokens-string",
            "tokens-boolean", "tokens-float", "tokens-not-held", "tokens-for-no-sentence"])
    def test_malformed_selection_line_exits_one(self, tmp_path, bad_line, reason):
        source, selections = self.prepare(tmp_path)
        first_line = selections.read_bytes().splitlines()[0]
        bad = bad_line if isinstance(bad_line, bytes) else bad_line.encode()
        selections.write_bytes(first_line + b"\n" + bad + b"\n")
        out = tmp_path / "summ.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "podselect", "summarize", "--input", str(selections),
             "--episodes", str(source), "--output", str(out), "--jobs", "1"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"selection line 2: {reason}" in proc.stderr
        assert not out.exists()

    def test_selections_of_other_episodes_stop_the_run(self, tmp_path, caplog):
        source, selections = self.prepare(tmp_path)
        other = tmp_path / "other.jsonl"
        records = tiny_records(count=2)
        for record in records:  # the same ids and sentence count, 4 tokens a sentence
            record["transcript"] = record["transcript"].replace(".", " more.")
        write_jsonl(other, records)
        out = tmp_path / "summ.jsonl"
        assert main(["summarize", "--input", str(selections), "--episodes", str(other),
                     "--output", str(out), "--jobs", "1"]) == 1
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
            "selection line 1: 'tokens' is 6, but the indexed sentences of 'tiny-00' hold 8: "
            "not selected from this episodes file"]
        assert not out.exists()

    def test_builds_only_the_selected_documents(self, tmp_path, built):
        source = tmp_path / "eps.jsonl"
        tiny_corpus(source, count=4)
        selections = tmp_path / "sel.jsonl"
        write_jsonl(selections, [{"id": "tiny-02", "strategy": "window",
                                  "indices": [0, 1], "tokens": 6}])
        out = tmp_path / "summ.jsonl"
        assert main(["summarize", "--input", str(selections), "--episodes", str(source),
                     "--output", str(out), "--jobs", "1"]) == 0
        assert built == ["tiny-02"]
        assert [r["id"] for r in read_jsonl(out)] == ["tiny-02"]

    def test_selected_empty_transcript_left_out(self, tmp_path, caplog):
        source, selections = self.prepare(tmp_path)
        with open(source, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"id": "hollow", "transcript": "!!! ..."}) + "\n")
        with open(selections, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"id": "hollow", "indices": [0], "tokens": 1}) + "\n")
        out = tmp_path / "summ.jsonl"
        assert main(["summarize", "--input", str(selections), "--episodes", str(source),
                     "--output", str(out), "--jobs", "1"]) == 0
        assert [r["id"] for r in read_jsonl(out)] == ["tiny-00", "tiny-01"]
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == [
            "selection line 3: skipping 'hollow': transcript has no usable sentences"]

    def test_selection_of_an_absent_episode_left_out(self, tmp_path, caplog):
        source, selections = self.prepare(tmp_path)
        with open(selections, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"id": "elsewhere", "indices": [0], "tokens": 1}) + "\n")
        out = tmp_path / "summ.jsonl"
        assert main(["summarize", "--input", str(selections), "--episodes", str(source),
                     "--output", str(out), "--jobs", "1"]) == 0
        assert [r["id"] for r in read_jsonl(out)] == ["tiny-00", "tiny-01"]
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == ["selection line 3: no episode 'elsewhere'"]

    def test_a_selection_of_no_sentence_left_out(self, tmp_path, caplog):
        """Not summarized from an empty text; a line that claims tokens for no
        sentence still fails the count check."""
        source, selections = self.prepare(tmp_path, count=3)
        lines = read_jsonl(selections)
        lines[1] = {"id": "tiny-01", "strategy": "topic", "indices": [], "tokens": 0}
        write_jsonl(selections, lines)
        out = tmp_path / "summ.jsonl"
        assert main(["summarize", "--input", str(selections), "--episodes", str(source),
                     "--output", str(out), "--jobs", "1"]) == 0
        assert [r["id"] for r in read_jsonl(out)] == ["tiny-00", "tiny-02"]
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == ["selection line 2: skipping 'tiny-01': no sentence selected"]
        lines[1]["tokens"] = 3
        write_jsonl(selections, lines)
        assert main(["summarize", "--input", str(selections), "--episodes", str(source),
                     "--output", str(out), "--jobs", "1"]) == 1
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
            "selection line 2: 'tokens' is 3, but the indexed sentences of 'tiny-01' hold 0: "
            "not selected from this episodes file"]

    def test_zero_budget_exits_two(self, tmp_path):
        source, selections = self.prepare(tmp_path, count=1)
        out = tmp_path / "summ.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "podselect", "summarize", "--input", str(selections),
             "--episodes", str(source), "--output", str(out), "--budget", "0"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "budget must be an integer >= 1, got 0" in proc.stderr
        assert not out.exists()

    def test_remote_without_endpoint_exits_two(self, tmp_path):
        source, selections = self.prepare(tmp_path, count=1)
        code = main(["summarize", "--input", str(selections),
                     "--episodes", str(source),
                     "--output", str(tmp_path / "s.jsonl"),
                     "--backend", "remote"])
        assert code == 2


class TestEvaluateCommand:
    def test_identity_summaries_score_hundred(self, tmp_path):
        source = tmp_path / "eps.jsonl"
        records = tiny_corpus(source, count=3)
        summaries = tmp_path / "summ.jsonl"
        write_jsonl(summaries, [
            {"id": r["id"], "summary": clean_description(r["description"]),
             "backend": "null"}
            for r in records
        ])
        out = tmp_path / "report.csv"
        code = main(["evaluate", "--input", str(summaries),
                     "--references", str(source), "--output", str(out),
                     "--format", "csv", "--method-id", "identity"])
        assert code == 0
        assert out.read_text() == (
            "method,rouge_l_p,rouge_l_r,rouge_l_f\n"
            "identity,100.00,100.00,100.00\n"
        )

    def test_raw_references_change_the_score(self, tmp_path):
        source = tmp_path / "eps.jsonl"
        write_jsonl(source, [{
            "id": "e1", "transcript": "t",
            "description": "Great talk! Follow us at http://x.co/pod",
        }])
        summaries = tmp_path / "summ.jsonl"
        write_jsonl(summaries, [{"id": "e1", "summary": "Great talk!",
                                 "backend": "null"}])
        cleaned_out = tmp_path / "clean.csv"
        raw_out = tmp_path / "raw.csv"
        assert main(["evaluate", "--input", str(summaries), "--references",
                     str(source), "--output", str(cleaned_out),
                     "--format", "csv"]) == 0
        assert main(["evaluate", "--input", str(summaries), "--references",
                     str(source), "--output", str(raw_out),
                     "--format", "csv", "--raw-references"]) == 0
        cleaned_row = cleaned_out.read_text().splitlines()[1]
        raw_row = raw_out.read_text().splitlines()[1]
        assert cleaned_row.endswith("100.00,100.00,100.00")
        assert raw_row != cleaned_row

    @pytest.mark.parametrize("bad_line, reason", [
        ("{bad", "invalid JSON"),
        ('["tiny-00", "text"]', "not a JSON object"),
        ('{"summary": "text", "backend": "null"}', "missing key 'id'"),
        ('{"id": "tiny-00", "summary": 5}', "'id' and 'summary' must be strings"),
        ('{"id": "tiny-00", "summary": "text", "backend": "null"}', "duplicate id 'tiny-00'"),
        (b'{"id": "tiny-01", "summary": "caf\xe9"}', "not valid UTF-8"),
        ("[" * 200_000, "invalid JSON (nested too deeply)"),
        ('{"id": "tiny-01", "summary": "text", "backend": ["x"]}', "'backend' must be a string"),
        ('{"id": "tiny-01", "summary": "text", "backend": 0}', "'backend' must be a string"),
    ], ids=["not-json", "not-an-object", "missing-id", "summary-not-a-string",
            "duplicate-id", "not-utf8", "nested-too-deeply", "backend-list", "backend-number"])
    def test_malformed_summary_line_exits_one(self, tmp_path, bad_line, reason):
        source = tmp_path / "eps.jsonl"
        tiny_corpus(source, count=1)
        summaries = tmp_path / "summ.jsonl"
        bad = bad_line if isinstance(bad_line, bytes) else bad_line.encode()
        summaries.write_bytes(b'{"id": "tiny-00", "summary": "text", "backend": "null"}\n'
                              + bad + b"\n")
        out = tmp_path / "report.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "podselect", "evaluate", "--input", str(summaries),
             "--references", str(source), "--output", str(out)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert f"summary line 2: {reason}" in proc.stderr
        assert not out.exists()

    def test_bad_format_in_config_exits_two(self, tmp_path):
        source = tmp_path / "eps.jsonl"
        tiny_corpus(source, count=1)
        summaries = tmp_path / "summ.jsonl"
        write_jsonl(summaries, [{"id": "tiny-00", "summary": "text", "backend": "null"}])
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"format": "xml"}))
        out = tmp_path / "report.txt"
        assert main(["evaluate", "--input", str(summaries), "--references", str(source),
                     "--output", str(out), "--config", str(config)]) == 2
        assert not out.exists()

    def test_missing_reference_exits_one(self, tmp_path):
        source = tmp_path / "eps.jsonl"
        tiny_corpus(source, count=1)
        summaries = tmp_path / "summ.jsonl"
        write_jsonl(summaries, [{"id": "unknown-ep", "summary": "text",
                                 "backend": "null"}])
        code = main(["evaluate", "--input", str(summaries),
                     "--references", str(source),
                     "--output", str(tmp_path / "r.txt")])
        assert code == 1


PIPELINE_ARTIFACTS = ("kept.jsonl", "filter_report.json", "split.jsonl",
                      "selections.jsonl", "summaries.jsonl", "report.txt")


class TestPipelineCommand:
    def run_pipeline(self, fixtures_dir, out_dir, *extra):
        return main(["pipeline",
                     "--input", str(fixtures_dir / "mini_corpus.jsonl"),
                     "--output", str(out_dir),
                     "--strategy", "novelty", "--window-size", "4",
                     "--top-k", "2", "--seed", "11", "--jobs", "2",
                     *extra])

    def test_all_stages_produce_artifacts(self, fixtures_dir, tmp_path):
        out = tmp_path / "run"
        assert self.run_pipeline(fixtures_dir, out) == 0
        for name in PIPELINE_ARTIFACTS:
            assert (out / name).exists(), name
        assert len(read_jsonl(out / "kept.jsonl")) == 10
        assert len(read_jsonl(out / "selections.jsonl")) == 10
        assert len(read_jsonl(out / "summaries.jsonl")) == 10
        report = (out / "report.txt").read_text().splitlines()
        assert report[0].split() == ["method", "rouge_l_p", "rouge_l_r", "rouge_l_f"]
        assert report[1].startswith("novelty")

    def test_resume_skips_completed_stages(self, fixtures_dir, tmp_path):
        out = tmp_path / "run"
        assert self.run_pipeline(fixtures_dir, out) == 0
        before = {name: (out / name).stat().st_mtime_ns
                  for name in PIPELINE_ARTIFACTS}
        time.sleep(0.01)
        assert self.run_pipeline(fixtures_dir, out, "--resume") == 0
        after = {name: (out / name).stat().st_mtime_ns
                 for name in PIPELINE_ARTIFACTS}
        assert before == after

    def test_rerun_without_resume_is_byte_identical(self, fixtures_dir, tmp_path):
        first = tmp_path / "one"
        second = tmp_path / "two"
        assert self.run_pipeline(fixtures_dir, first) == 0
        assert self.run_pipeline(fixtures_dir, second) == 0
        for name in PIPELINE_ARTIFACTS:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_topic_episodes_skipped_at_select_score_zero(self, fixtures_dir, tmp_path, caplog):
        """At budget 8 topic skips mini-02, mini-06 and mini-10, whose first pick
        cannot fit, yet its report averages over all 10 kept episodes, as the
        other strategies' reports do, with those three at zero."""
        out = tmp_path / "run"
        assert main(["pipeline", "--input", str(fixtures_dir / "mini_corpus.jsonl"),
                     "--output", str(out), "--strategy", "topic", "--budget", "8",
                     "--seed", "7", "--jobs", "1", "--format", "json"]) == 0
        assert len(read_jsonl(out / "summaries.jsonl")) == 7
        assert json.loads((out / "report.json").read_text()) == [
            {"method": "topic", "rouge_l_p": 16.43, "rouge_l_r": 4.46, "rouge_l_f": 6.99}]
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings[-1] == "evaluate: 3 of 10 episodes have no summary and score zero"

    def test_small_null_run_loads_no_http_client_and_forks_no_pool(self, fixtures_dir,
                                                                    tmp_path):
        probe = ("import sys\n"
                 "before = set(sys.modules)\n"
                 "from podselect.cli import main\n"
                 "code = main(sys.argv[1:])\n"
                 "added = set(sys.modules) - before\n"
                 "print(code, sorted({'http.client', 'multiprocessing', 'pickle'} & added))\n")
        proc = subprocess.run(
            [sys.executable, "-c", probe, "pipeline",
             "--input", str(fixtures_dir / "mini_corpus.jsonl"), "--output", str(tmp_path / "run"),
             "--strategy", "none", "--backend", "null", "--jobs", "2"],
            capture_output=True, text=True, timeout=60)
        assert proc.stdout.strip() == "0 []", proc.stderr

    @pytest.mark.parametrize("extra, loaded", [
        (["--strategy", "novelty", "--format", "json"], []),
        (["--strategy", "topic", "--format", "json"], ["hashlib", "podselect.topics"]),
        (["--strategy", "novelty", "--format", "csv"], ["csv"]),
    ], ids=["novelty-json", "topic", "csv"])
    def test_run_imports_only_the_optional_modules_it_uses(self, fixtures_dir, tmp_path,
                                                           extra, loaded):
        # corpus reads its word lists through importlib.resources, which on
        # newer Pythons may import inspect itself: load it before the count
        probe = ("import importlib.resources, sys\n"
                 "optional = {'dataclasses', 'inspect', 'hashlib', 'csv',\n"
                 "            'concurrent.futures', 'pickle', 'podselect.topics'}\n"
                 "before = set(sys.modules)\n"
                 "from podselect import cli\n"
                 "cli.build_parser()\n"
                 "at_start = sorted(optional & (set(sys.modules) - before))\n"
                 "code = cli.main(sys.argv[1:])\n"
                 "print(code, at_start, sorted(optional & (set(sys.modules) - before)))\n")
        proc = subprocess.run(
            [sys.executable, "-c", probe, "pipeline",
             "--input", str(fixtures_dir / "mini_corpus.jsonl"), "--output", str(tmp_path / "run"),
             "--backend", "null", "--jobs", "2", *extra],
            capture_output=True, text=True, timeout=60)
        assert proc.stdout.strip() == f"0 [] {loaded}", proc.stderr

    def test_cleans_each_description_once(self, fixtures_dir, tmp_path, monkeypatch):
        cleaned = []
        clean = preprocess.clean_description
        monkeypatch.setattr(preprocess, "clean_description",
                            lambda raw: cleaned.append(raw) or clean(raw))
        out = tmp_path / "run"
        assert self.run_pipeline(fixtures_dir, out) == 0
        report = json.loads((out / "filter_report.json").read_text())
        reached_last_rule = report["kept"] + report["rejected_by_rule"].get(
            "desc_too_few_tokens", 0)
        assert len(cleaned) == reached_last_rule
        fresh = (out / "report.txt").read_bytes()
        # a resumed evaluate has no preprocess in memory: it cleans from kept.jsonl
        (out / "report.txt").unlink()
        cleaned.clear()
        assert self.run_pipeline(fixtures_dir, out, "--resume") == 0
        assert len(cleaned) == report["kept"]
        assert (out / "report.txt").read_bytes() == fresh

    def test_builds_each_kept_document_once(self, fixtures_dir, tmp_path, built):
        out = tmp_path / "run"
        assert main(["pipeline", "--input", str(fixtures_dir / "mini_corpus.jsonl"),
                     "--output", str(out), "--jobs", "1"]) == 0
        kept = [record["id"] for record in read_jsonl(out / "kept.jsonl")]
        assert len(read_jsonl(out / "summaries.jsonl")) == len(kept) == 10
        assert sorted(built) == sorted(kept)

    def test_resume_reruns_every_stage_after_one_that_runs(self, fixtures_dir, tmp_path):
        def run(out, *extra):
            return main(["pipeline", "--input", str(fixtures_dir / "mini_corpus.jsonl"),
                         "--output", str(out), "--strategy", "none", "--seed", "7",
                         "--format", "json", "--jobs", "1", *extra])

        fresh = tmp_path / "fresh"
        assert run(fresh, "--budget", "20") == 0
        out = tmp_path / "run"
        assert run(out) == 0
        (out / "selections.jsonl").unlink()
        assert run(out, "--resume", "--budget", "20") == 0
        for name in ("selections.jsonl", "summaries.jsonl", "report.json"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_kept_episodes_pass_in_memory_unless_resumed(self, fixtures_dir, tmp_path,
                                                          monkeypatch):
        reads = []
        load = corpus.load_episodes
        monkeypatch.setattr(corpus, "load_episodes",
                            lambda path, *args: reads.append(Path(path).name) or load(path, *args))
        out = tmp_path / "run"
        assert self.run_pipeline(fixtures_dir, out) == 0
        assert reads == ["mini_corpus.jsonl"]
        fresh = {name: (out / name).read_bytes() for name in PIPELINE_ARTIFACTS}
        for name in ("selections.jsonl", "summaries.jsonl", "report.txt"):
            (out / name).unlink()
        reads.clear()
        assert self.run_pipeline(fixtures_dir, out, "--resume") == 0
        assert reads == ["kept.jsonl", "kept.jsonl"]  # select, then evaluate
        assert {name: (out / name).read_bytes() for name in PIPELINE_ARTIFACTS} == fresh

    def test_each_hand_off_goes_once_its_stage_has_read_it(self, fixtures_dir, tmp_path,
                                                          monkeypatch):
        """Summarize runs with the kept episodes gone, evaluate with the capped inputs."""
        class Tracked(list):
            pass

        handed, alive = {}, {}
        filter_corpus, run_select = preprocess.filter_corpus, cli._run_select
        run_summarize, run_evaluate = cli._run_summarize, cli._run_evaluate

        def tracked_filter(*args, **kwargs):
            kept, report = filter_corpus(*args, **kwargs)
            kept = Tracked(kept)
            handed["kept"] = weakref.ref(kept)
            return kept, report

        def tracked_select(*args, **kwargs):
            inputs = Tracked(run_select(*args, **kwargs))
            handed["inputs"] = weakref.ref(inputs)
            return inputs

        def summarize(inputs, *args):
            gc.collect()
            alive["kept at summarize"] = handed["kept"]() is not None
            alive["inputs at summarize"] = handed["inputs"]() is inputs
            return run_summarize(inputs, *args)

        def evaluate(*args):
            gc.collect()
            alive["inputs at evaluate"] = handed["inputs"]() is not None
            return run_evaluate(*args)

        monkeypatch.setattr(preprocess, "filter_corpus", tracked_filter)
        monkeypatch.setattr(cli, "_run_select", tracked_select)
        monkeypatch.setattr(cli, "_run_summarize", summarize)
        monkeypatch.setattr(cli, "_run_evaluate", evaluate)
        assert self.run_pipeline(fixtures_dir, tmp_path / "run") == 0
        assert alive == {"kept at summarize": False, "inputs at summarize": True,
                         "inputs at evaluate": False}

    def test_json_report_format(self, fixtures_dir, tmp_path):
        out = tmp_path / "run"
        assert self.run_pipeline(fixtures_dir, out, "--format", "json") == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload[0]["method"] == "novelty"
        for key in ("rouge_l_p", "rouge_l_r", "rouge_l_f"):
            assert 0.0 <= payload[0][key] <= 100.0

    def test_bad_setting_writes_nothing(self, fixtures_dir, tmp_path):
        out = tmp_path / "run"
        assert self.run_pipeline(fixtures_dir, out, "--budget", "0") == 2
        assert not out.exists()

    def test_backend_failure_aborts_before_report(self, tmp_path, stub_server, delays):
        server, endpoint = stub_server
        source = tmp_path / "eps.jsonl"
        tiny_corpus(source, count=3, sentences=25)
        for _ in range(9):  # three episodes, three attempts each
            server.script.append((500, {"error": "down"}))
        out = tmp_path / "run"
        assert self.run_remote(source, out, endpoint) == 1
        assert sorted(delays) == sorted([0.5, 1.0] * 3)
        assert (out / "selections.jsonl").exists()
        assert not (out / "report.txt").exists()

    def test_reply_that_is_not_unicode_text_exits_one_without_traceback(self, tmp_path,
                                                                        stub_server):
        server, endpoint = stub_server
        source = tmp_path / "eps.jsonl"
        tiny_corpus(source, count=3, sentences=25)
        server.script.append((200, {"id": "x", "summary": "served summary"}))
        for _ in range(2):  # a protocol error is not retried
            server.script.append((200, b'{"id": "x", "summary": "\\ud800"}'))
        out = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-m", "podselect", "pipeline", "--input", str(source),
             "--output", str(out), "--strategy", "window", "--window-size", "2",
             "--backend", "remote", "--endpoint", endpoint, "--jobs", "1"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "backend summary for 'tiny-01' is not valid Unicode text" in proc.stderr
        assert len(server.requests) == 3
        assert read_jsonl(out / "summaries.jsonl.partial") == [
            {"id": "tiny-00", "summary": "served summary", "backend": "remote"}]
        assert not (out / "summaries.jsonl").exists()

    def run_remote(self, source, out, endpoint, *extra):
        return main(["pipeline", "--input", str(source), "--output", str(out),
                     "--strategy", "window", "--window-size", "2",
                     "--backend", "remote", "--endpoint", endpoint, "--jobs", "1",
                     *extra])

    def resume_against_healthy_backend(self, server, records, source, out, endpoint):
        server.script.clear()
        for _ in records:
            server.script.append((200, {"id": "x", "summary": "served summary"}))
        assert self.run_remote(source, out, endpoint, "--resume") == 0
        assert [r["id"] for r in read_jsonl(out / "summaries.jsonl")] == \
            [r["id"] for r in records]
        assert not (out / "summaries.jsonl.partial").exists()
        assert (out / "report.txt").exists()

    def test_resume_after_full_backend_failure(self, tmp_path, stub_server):
        server, endpoint = stub_server
        source = tmp_path / "eps.jsonl"
        records = tiny_corpus(source, count=3)
        for _ in records:  # a 400 is not retried
            server.script.append((400, {"error": "rejected"}))
        out = tmp_path / "run"
        assert self.run_remote(source, out, endpoint) == 1
        assert not (out / "summaries.jsonl").exists()
        assert (out / "summaries.jsonl.partial").read_text("utf-8") == ""
        assert not (out / "report.txt").exists()
        self.resume_against_healthy_backend(server, records, source, out, endpoint)

    def test_resume_after_partial_backend_failure(self, tmp_path, stub_server, delays):
        server, endpoint = stub_server
        source = tmp_path / "eps.jsonl"
        records = tiny_corpus(source, count=3)
        # every attempt for the first episode, whenever the scheduler sends it
        server.faults[records[0]["id"]] = deque([(503, {"error": "down"})] * 3)
        for _ in records[1:]:
            server.script.append((200, {"id": "x", "summary": "served summary"}))
        out = tmp_path / "run"
        assert self.run_remote(source, out, endpoint) == 1
        assert delays == [0.5, 1.0]
        assert not (out / "summaries.jsonl").exists()
        partial = read_jsonl(out / "summaries.jsonl.partial")
        assert [r["id"] for r in partial] == [r["id"] for r in records[1:]]
        assert not (out / "report.txt").exists()
        self.resume_against_healthy_backend(server, records, source, out, endpoint)


class TestHelpAndEntryPoint:
    def test_select_help_states_defaults(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["select", "--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        assert "default: 40" in text
        assert "25" in text
        assert "default: 5" in text
        assert "default: 1024" in text

    def test_summarize_help_states_budget_default(self, capsys):
        with pytest.raises(SystemExit):
            main(["summarize", "--help"])
        assert "default: 1024" in capsys.readouterr().out

    # Help as printed at 100 columns, kept in tests/fixtures/help/<command>.txt.
    # The defaults it states are read from the code that sets them; this pins
    # the text to what it was when they were written out by hand. At 80
    # columns Python 3.13's argparse wraps the usage line differently from
    # 3.11's (it keeps an option with its metavar); at 100 every command's
    # help prints the same bytes on both.
    @pytest.mark.parametrize("command", [None, "preprocess", "select", "summarize",
                                         "evaluate", "pipeline"])
    def test_help_text_is_pinned(self, command, fixtures_dir, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "100")
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"] if command else ["--help"])
        assert excinfo.value.code == 0
        expected = (fixtures_dir / "help" / f"{command or 'podselect'}.txt").read_text("utf-8")
        assert capsys.readouterr().out == expected

    def test_module_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "podselect", "--help"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "preprocess" in proc.stdout
        assert "pipeline" in proc.stdout


# sha256 of every artifact of fixed-seed runs on mini_corpus.jsonl. A refactor
# must leave these unchanged; a change that moves a digest says why it changes
# the outputs, and updates the digest in the same commit.
PREPROCESS_DIGESTS = {
    "kept.jsonl": "1afa2831183163c90cc6ebe55d7aab2106a17772f11aae5086ad7aec8cd47678",
    "filter_report.json": "0968c4407fa61a577e2c8093fd15990d1e61054a2527921880a3d63b11fed514",
    "split.jsonl": "851e38ede6b04a681b54f6c52062748c1b4b8803def7205c4d5d479f36adcfa6",
}
NULL_SUMMARIES_ALL_SENTENCES = (
    "81f63a52efafae28ac0f59341b7cf76ce2f925dc82b27ba1bc6c92ac3dfab5ab")
GOLDEN_PIPELINE_DIGESTS = {
    "window": ([], {
        "selections.jsonl": "945c157d7baf7ff1508119f9a3a8ce118fbb95388d6ff607a025aafdb1f7d329",
        "summaries.jsonl": NULL_SUMMARIES_ALL_SENTENCES,
        "report.json": "6129312e0dc9ab5cece24e7795ce1a92cce56582a989dd2415c153bffd48cd6f",
    }),
    "novelty": ([], {
        "selections.jsonl": "2ac2fb38ba08ab3403854aa75af3a27111f62c7c33685f585c9f956b373c5579",
        "summaries.jsonl": "64b00683516f873edfab14b08a45bf8f9f9055743e9fe6526b22d3facc58110a",
        "report.json": "1fdcf496811bcc78db5a21d2603556428fac13dcc8737a1776c632383644da26",
    }),
    "topic": ([], {
        "selections.jsonl": "5741d42112657aa52ab7614a97fa6632e072047aa2b37b31a1fc44ed6ea1d614",
        "summaries.jsonl": NULL_SUMMARIES_ALL_SENTENCES,
        "report.json": "7216deeb5adf64602d7ac06a28dabe00b531af5820e1054371367e4a61e87df1",
    }),
    "none": ([], {
        "selections.jsonl": "e25dfb12b633763876dbd62946d9674c33797edb144a3040ce872161f3769765",
        "summaries.jsonl": NULL_SUMMARIES_ALL_SENTENCES,
        "report.json": "44967f731e2ea574bc174e7295581081a2d1ec3c4fab1a8955b454440c0354a1",
    }),
    # mini transcripts hold 210-267 tokens: some fit this budget whole (mini-02
    # at exactly 250), the rest go through the topic fit
    "topic-budget-250": (["--budget", "250"], {
        "selections.jsonl": "36bbdcce7d43c8f127df770d845128552b896fc056bcac14ea1209202167f72b",
        "summaries.jsonl": "7df7da7e356fc0d0f98c9e401f81f54c99ff9c4d175a88f301e410dd7f6bd23c",
        "report.json": "5dc23eca17260d38fe908af5b4b052898d0fcb9cb7385ec2e7de8c01fed37188",
    }),
    # no mini transcript fits this budget, so every episode is fitted and ranked
    "topic-budget-120": (["--budget", "120"], {
        "selections.jsonl": "b1abbe77bf51660487394026bf983c13eae9e34e27c6560346852952c3d60aff",
        "summaries.jsonl": "ae64650a1e7ee017a02c47ba5ae4b4c6d38cb73527a26b3076933ffee30c8ded",
        "report.json": "2fe25338b9c12756deaaf53e541d68f17c2f588047703378795ea0c74631d2b5",
    }),
    # mini-06 opens with a 9-token sentence, so this run cuts it mid-sentence
    "none-budget-8": (["--budget", "8"], {
        "selections.jsonl": "58d81046bfdd9fabb07a406df7a5840968ba53327cd5a784b919d9d94de1e8b9",
        "summaries.jsonl": "ca9d13a86e2bd7fc81e6e0ccfbcc742bde7347cb6f5435074318b272d5115f6d",
        "report.json": "2c32973772e83e52a92e3774c2f2b84d3a15c068639abc629552c772c651e88e",
    }),
    # mini transcripts hold 24-36 sentences, so the default window is their
    # only one: at 3 sentences the pick is a real argmax, and the selections
    # carry every window's score
    "window-3": (["--window-size", "3", "--diagnostics"], {
        "selections.jsonl": "a95d20d34039a9d52a381eb587b83888a8e5c63c9d870ebf2c82707df979a6bc",
        "summaries.jsonl": "170bdd82481ed4b1a2aad4ae43057a5a6287021e15e32617b7ec36a290acb6e0",
        "report.json": "1a6682d61bfe55d74c32b3470d39f31c74df6ef2c575d0f363b1c606adc29086",
    }),
    "novelty-3": (["--window-size", "3", "--diagnostics"], {
        "selections.jsonl": "b8e999050bcd55ec065844e49cbb7a1a63dede901a049855380ef4fd52495e88",
        "summaries.jsonl": "9b139cae99eb67d20a20862c07c2aededcb8cc24afd191c503b1041b4735fb78",
        "report.json": "ea1401a038c7c349b78e103686fe169943fae4fd9b40c29538714b1182bbfd9d",
    }),
}
GOLDEN_WINDOW_DIAGNOSTICS_DIGEST = (
    "7335badc8519fa65ccc46aaf8fb267f71a2927fd2220002db33110f55ff99adb")


# each pipeline stage and its outputs, in the order the stages run
PIPELINE_STAGES = (
    ("preprocess", ("kept.jsonl", "filter_report.json", "split.jsonl")),
    ("select", ("selections.jsonl",)),
    ("summarize", ("summaries.jsonl",)),
    ("evaluate", ("report.json",)),
)


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def pipeline_args(fixtures_dir, out, case, jobs):
    """The golden run of `case` with `jobs` workers, and the digests it must give."""
    extra, digests = GOLDEN_PIPELINE_DIGESTS[case]
    args = ["pipeline", "--input", str(fixtures_dir / "mini_corpus.jsonl"),
            "--output", str(out), "--strategy", case.split("-")[0], "--jobs", jobs,
            "--seed", "7", "--format", "json", *extra]
    return args, {**PREPROCESS_DIGESTS, **digests}


class TestGoldenDigests:
    @pytest.mark.parametrize("case", list(GOLDEN_PIPELINE_DIGESTS))
    def test_pipeline_artifacts_unchanged(self, fixtures_dir, tmp_path, case):
        out = tmp_path / "run"
        args, expected = pipeline_args(fixtures_dir, out, case, "1")
        assert main(args) == 0
        assert {p.name: sha256_of(p) for p in out.iterdir()} == expected

    @pytest.mark.parametrize("case", list(GOLDEN_PIPELINE_DIGESTS))
    def test_parallel_pipeline_artifacts_unchanged(self, fixtures_dir, tmp_path, monkeypatch,
                                                   forked, case):
        monkeypatch.setattr(cli, "_FORK_JOIN_S", 0)  # every episode goes to a fork-join
        out = tmp_path / "run"
        args, expected = pipeline_args(fixtures_dir, out, case, "2")
        assert main(args) == 0
        assert {p.name: sha256_of(p) for p in out.iterdir()} == expected
        assert len(forked) == 1 and all(map(reaped, forked))  # select's; evaluate never forks

    @pytest.mark.parametrize("case", list(GOLDEN_PIPELINE_DIGESTS))
    def test_three_workers_write_the_golden_artifacts(self, fixtures_dir, tmp_path,
                                                      monkeypatch, forked, case):
        monkeypatch.setattr(cli, "_FORK_JOIN_S", 0)
        out = tmp_path / "run"
        args, expected = pipeline_args(fixtures_dir, out, case, "3")
        assert main(args) == 0
        assert {p.name: sha256_of(p) for p in out.iterdir()} == expected
        assert len(forked) == 2 and all(map(reaped, forked))

    def test_resume_rebuilds_summaries_from_kept(self, fixtures_dir, tmp_path, built):
        out = tmp_path / "run"
        args, expected = pipeline_args(fixtures_dir, out, "none-budget-8", "1")
        assert main(args) == 0
        (out / "summaries.jsonl").unlink()
        (out / "report.json").unlink()
        built.clear()
        assert main([*args, "--resume"]) == 0
        assert sorted(built) == sorted(r["id"] for r in read_jsonl(out / "kept.jsonl"))
        assert {p.name: sha256_of(p) for p in out.iterdir()} == expected

    @pytest.mark.parametrize("deleted", ["split.jsonl", "selections.jsonl",
                                         "summaries.jsonl", "report.json"])
    def test_resume_at_every_stage_boundary(self, fixtures_dir, tmp_path, caplog, deleted):
        out = tmp_path / "run"
        args, expected = pipeline_args(fixtures_dir, out, "novelty", "1")
        assert main(args) == 0
        stage = next(i for i, (_, outputs) in enumerate(PIPELINE_STAGES) if deleted in outputs)
        skipped = PIPELINE_STAGES[:stage]
        untouched = [name for _, outputs in skipped for name in outputs]
        before = {name: (out / name).stat().st_mtime_ns for name in untouched}
        (out / deleted).unlink()
        time.sleep(0.01)
        caplog.set_level(logging.INFO, logger="podselect")
        caplog.clear()
        assert main([*args, "--resume"]) == 0
        assert {name: (out / name).stat().st_mtime_ns for name in untouched} == before
        assert {p.name: sha256_of(p) for p in out.iterdir()} == expected
        assert [r.getMessage() for r in caplog.records
                if r.getMessage().startswith("pipeline:")] == [
            f"pipeline: {name} outputs exist, skipping" for name, _ in skipped]

    def test_window_diagnostics_unchanged(self, fixtures_dir, tmp_path):
        out = tmp_path / "sel.jsonl"
        assert main(["select", "--input", str(fixtures_dir / "mini_corpus.jsonl"),
                     "--output", str(out), "--strategy", "window", "--diagnostics",
                     "--jobs", "1"]) == 0
        assert sha256_of(out) == GOLDEN_WINDOW_DIAGNOSTICS_DIGEST


# --- no input line crashes a run ----------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)
# every key that an input file or the config file is read for
INPUT_KEYS = ["id", "transcript", "show_id", "description", "show_description",
              "duration_seconds", "indices", "strategy", "tokens", "summary", "backend",
              *cli._SETTINGS]
TINY = tiny_records(count=3)
# target: (records a line is edited from, the command with {path}, {tiny} and {out})
INPUT_TARGETS = {
    "episodes": (TINY, ["preprocess", "--input", "{path}", "--output", "{out}"]),
    "selections": ([{"id": r["id"], "strategy": "window", "indices": [1, 2], "tokens": 6}
                    for r in TINY],
                   ["summarize", "--input", "{path}", "--episodes", "{tiny}",
                    "--output", "{out}/summaries.jsonl", "--jobs", "1"]),
    "summaries": ([{"id": r["id"], "summary": "golf hotel", "backend": "null"} for r in TINY],
                  ["evaluate", "--input", "{path}", "--references", "{tiny}",
                   "--output", "{out}/report.json", "--format", "json"]),
    # flags keep the run offline and in-process whatever the file says
    "config": ([{"strategy": "topic", "topics": 2, "budget": 8}, {"top_k": 1, "seed": 3}],
               ["pipeline", "--input", "{tiny}", "--output", "{out}", "--config", "{path}",
                "--backend", "null", "--jobs", "1"]),
}


def input_lines(base_records):
    """Lines of an input file: a base record with one key set to any JSON value, any
    JSON value, an array nested up to 200,000 deep, or arbitrary bytes."""
    edited = st.builds(lambda base, key, value: {**base, key: value},
                       st.sampled_from(base_records), st.sampled_from(INPUT_KEYS), JSON_VALUES)
    line = st.one_of(edited.map(json.dumps), JSON_VALUES.map(json.dumps),
                     st.integers(1, 200_000).map(lambda depth: "[" * depth))
    return st.lists(line.map(str.encode) | st.binary(max_size=30), min_size=1, max_size=3)


def refuse_constant(constant):
    raise ValueError(f"{constant} is not JSON")


# A function, not a method: a parametrized @given method runs on a new
# instance per case, which Hypothesis's differing_executors health check may fail.
@pytest.mark.parametrize("target", list(INPUT_TARGETS))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_no_input_line_crashes_a_run(target, data):
    """Whatever its lines hold, a command given the file exits 0, 1 or 2 without
    raising, and every JSON artifact it leaves parses without NaN or Infinity."""
    base_records, command = INPUT_TARGETS[target]
    lines = data.draw(input_lines(base_records))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_jsonl(tmp / "tiny.jsonl", TINY)
        # a config file is one JSON document; the others are the lines, then the bases
        (tmp / "input").write_bytes(lines[0] if target == "config" else b"\n".join(
            [*lines, *(json.dumps(r).encode() for r in base_records)]))
        (tmp / "out").mkdir()
        names = {"path": tmp / "input", "tiny": tmp / "tiny.jsonl", "out": tmp / "out"}
        assert main([arg.format(**names) for arg in command]) in (0, 1, 2)
        for artifact in (tmp / "out").iterdir():
            text = artifact.read_text("utf-8")
            if artifact.suffix == ".json":
                json.loads(text, parse_constant=refuse_constant)
            elif ".jsonl" in artifact.name:  # .partial files too
                for line in text.splitlines():
                    json.loads(line, parse_constant=refuse_constant)
