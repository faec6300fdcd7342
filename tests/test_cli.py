import hashlib
import json
import os
import random
import subprocess
import sys
import threading
import time
from collections import deque
from concurrent import futures
from http.server import ThreadingHTTPServer
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podselect import abstractive, corpus, selection, topics
from podselect.cli import _derive_seed, _select_one, atomic_write, main
from podselect.errors import InsufficientContentError
from podselect.preprocess import clean_description
from conftest import random_sentences
from test_abstractive import ScriptedHandler


@pytest.fixture(autouse=True)
def no_ambient_config(monkeypatch):
    monkeypatch.delenv("PODSELECT_CONFIG", raising=False)


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), ScriptedHandler)
    server.script = deque()
    server.requests = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture
def built(monkeypatch):
    """Episode ids in the order corpus.build_document is called on them."""
    ids = []
    build = corpus.build_document
    monkeypatch.setattr(corpus, "build_document",
                        lambda episode: ids.append(episode.id) or build(episode))
    return ids


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def read_jsonl(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def tiny_corpus(path, count=3, sentences=6):
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

    def test_parallel_output_matches_serial(self, tmp_path):
        source = tmp_path / "eps.jsonl"
        tiny_corpus(source, count=6)
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        for out, jobs in ((serial, "1"), (parallel, "2")):
            assert main(["select", "--input", str(source), "--output", str(out),
                         "--strategy", "novelty", "--window-size", "2",
                         "--top-k", "2", "--jobs", jobs]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    @pytest.mark.parametrize("jobs, cpus", [(["--jobs", "4"], 2), ([], 64)],
                             ids=["jobs-4", "cpu-count-64"])
    def test_pool_holds_at_most_one_worker_per_episode(self, tmp_path, monkeypatch,
                                                       jobs, cpus):
        sizes = []

        class RecordingPool:
            """Stands in for ProcessPoolExecutor: records its size, starts no process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        source = tmp_path / "eps.jsonl"
        tiny_corpus(source, count=3)
        serial = tmp_path / "serial.jsonl"
        assert main(["select", "--input", str(source), "--output", str(serial),
                     "--jobs", "1"]) == 0
        monkeypatch.setattr(futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        out = tmp_path / "sel.jsonl"
        assert main(["select", "--input", str(source), "--output", str(out), *jobs]) == 0
        assert sizes == [3]
        assert out.read_bytes() == serial.read_bytes()

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
            episode.id, picked.to_record(diagnostics), capped, None)

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
    ], ids=["budget-string", "budget-bool", "topics-string", "endpoint-number",
            "filter-threshold-key", "misspelled-key", "missing-profanity-list",
            "endpoint-no-scheme", "endpoint-ftp", "endpoint-no-host",
            "endpoint-bad-port", "endpoint-space-in-host", "config-not-utf8"])
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

    def test_bad_strategy_in_config_exits_two(self, tmp_path):
        source = tmp_path / "eps.jsonl"
        tiny_corpus(source, count=1)
        config = tmp_path / "conf.json"
        config.write_text(json.dumps({"strategy": "bogus"}))
        assert main(["select", "--input", str(source),
                     "--output", str(tmp_path / "sel.jsonl"),
                     "--config", str(config)]) == 2


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

    def test_backend_failure_exits_one(self, tmp_path, stub_server):
        server, endpoint = stub_server
        source, selections = self.prepare(tmp_path, count=1)
        for _ in range(3):
            server.script.append((500, {"error": "down"}))
        out = tmp_path / "summ.jsonl"
        code = main(["summarize", "--input", str(selections),
                     "--episodes", str(source), "--output", str(out),
                     "--backend", "remote", "--endpoint", endpoint, "--jobs", "1"])
        assert code == 1
        assert not out.exists()
        assert (tmp_path / "summ.jsonl.partial").read_text("utf-8") == ""

    @pytest.mark.parametrize("bad_line, reason", [
        ('{"id": "tiny-01", "indices": [0', "invalid JSON"),
        ('["tiny-01", [0, 1]]', "not a JSON object"),
        ('{"id": "tiny-01", "strategy": "window", "tokens": 3}', "missing key 'indices'"),
        ('{"id": "tiny-01", "indices": [0, 99], "tokens": 6}',
         "selection for 'tiny-01' references sentence 99"),
        ('{"id": "tiny-00", "indices": [0], "tokens": 3}', "duplicate id 'tiny-00'"),
        (b'{"id": "tiny-01", "indices": [0], "note": "\xff"}', "not valid UTF-8"),
    ], ids=["not-json", "not-an-object", "missing-indices", "index-out-of-range",
            "duplicate-id", "not-utf8"])
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
        assert ("skipping hollow: episode 'hollow': transcript has no usable sentences"
                in caplog.text)
        assert "selection line 3: no episode 'hollow'" in caplog.text

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
    ], ids=["not-json", "not-an-object", "missing-id", "summary-not-a-string",
            "duplicate-id", "not-utf8"])
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

    def test_builds_each_kept_document_once(self, fixtures_dir, tmp_path, built):
        out = tmp_path / "run"
        assert main(["pipeline", "--input", str(fixtures_dir / "mini_corpus.jsonl"),
                     "--output", str(out), "--jobs", "1"]) == 0
        kept = [record["id"] for record in read_jsonl(out / "kept.jsonl")]
        assert len(read_jsonl(out / "summaries.jsonl")) == len(kept) == 10
        assert sorted(built) == sorted(kept)

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

    def test_backend_failure_aborts_before_report(self, tmp_path, stub_server):
        server, endpoint = stub_server
        source = tmp_path / "eps.jsonl"
        tiny_corpus(source, count=3, sentences=25)
        for _ in range(9):  # three episodes, three attempts each
            server.script.append((500, {"error": "down"}))
        out = tmp_path / "run"
        assert self.run_remote(source, out, endpoint) == 1
        assert (out / "selections.jsonl").exists()
        assert not (out / "report.txt").exists()

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

    def test_resume_after_partial_backend_failure(self, tmp_path, stub_server):
        server, endpoint = stub_server
        source = tmp_path / "eps.jsonl"
        records = tiny_corpus(source, count=3)
        for _ in range(3):  # every attempt for the first episode
            server.script.append((503, {"error": "down"}))
        for _ in records[1:]:
            server.script.append((200, {"id": "x", "summary": "served summary"}))
        out = tmp_path / "run"
        assert self.run_remote(source, out, endpoint) == 1
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
    # mini-06 opens with a 9-token sentence, so this run cuts it mid-sentence
    "none-budget-8": (["--budget", "8"], {
        "selections.jsonl": "58d81046bfdd9fabb07a406df7a5840968ba53327cd5a784b919d9d94de1e8b9",
        "summaries.jsonl": "ca9d13a86e2bd7fc81e6e0ccfbcc742bde7347cb6f5435074318b272d5115f6d",
        "report.json": "2c32973772e83e52a92e3774c2f2b84d3a15c068639abc629552c772c651e88e",
    }),
}
GOLDEN_WINDOW_DIAGNOSTICS_DIGEST = (
    "7335badc8519fa65ccc46aaf8fb267f71a2927fd2220002db33110f55ff99adb")


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
    def test_parallel_pipeline_artifacts_unchanged(self, fixtures_dir, tmp_path, case):
        out = tmp_path / "run"
        args, expected = pipeline_args(fixtures_dir, out, case, "2")
        assert main(args) == 0
        assert {p.name: sha256_of(p) for p in out.iterdir()} == expected

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

    def test_spawned_workers_write_the_golden_artifacts(self, fixtures_dir, tmp_path):
        """Workers and their returns pickle, as the spawn and forkserver methods need."""
        out = tmp_path / "run"
        args, expected = pipeline_args(fixtures_dir, out, "topic-budget-250", "2")
        script = ("import multiprocessing, sys\n"
                  "from podselect.cli import main\n"
                  "if __name__ == '__main__':\n"
                  "    multiprocessing.set_start_method('spawn')\n"
                  "    sys.exit(main(sys.argv[1:]))\n")
        proc = subprocess.run([sys.executable, "-c", script, *args],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert {p.name: sha256_of(p) for p in out.iterdir()} == expected

    def test_window_diagnostics_unchanged(self, fixtures_dir, tmp_path):
        out = tmp_path / "sel.jsonl"
        assert main(["select", "--input", str(fixtures_dir / "mini_corpus.jsonl"),
                     "--output", str(out), "--strategy", "window", "--diagnostics",
                     "--jobs", "1"]) == 0
        assert sha256_of(out) == GOLDEN_WINDOW_DIAGNOSTICS_DIGEST
