import json
import random
import threading
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podselect.abstractive import (BackendInput, NullBackend, RemoteBackend,
                                   Summary, enforce_budget, summarize)
from podselect.errors import BackendError, ProtocolError
from podselect.selection import SelectionResult
from conftest import make_doc, random_sentences


def make_selection(indices, doc, strategy="window"):
    return SelectionResult(
        episode_id=doc.episode_id,
        strategy=strategy,
        sentence_indices=tuple(indices),
        selected_token_count=sum(len(doc.sentences[i].tokens) for i in indices),
    )


class TestEnforceBudget:
    def test_fitting_selection_is_untouched(self):
        doc = make_doc([["a", "b"], ["c", "d"], ["e", "f"]])
        selection = make_selection([0, 2], doc)
        capped = enforce_budget(selection, doc, max_tokens=4)
        assert capped.text == "a b e f"
        assert capped.token_count == 4
        assert not capped.truncated_mid_sentence

    def test_trailing_sentences_dropped(self):
        doc = make_doc([["a", "b", "c"], ["d", "e", "f"], ["g", "h", "i"]])
        selection = make_selection([0, 1, 2], doc)
        capped = enforce_budget(selection, doc, max_tokens=7)
        assert capped.text == "a b c d e f"
        assert capped.token_count == 6
        assert not capped.truncated_mid_sentence

    def test_oversized_first_sentence_cut_mid_sentence(self):
        doc = make_doc([["one", "two", "three", "four", "five", "six"]])
        selection = make_selection([0], doc)
        capped = enforce_budget(selection, doc, max_tokens=4)
        assert capped.text == "one two three four"
        assert capped.token_count == 4
        assert capped.truncated_mid_sentence

    def test_oversized_multibyte_sentence_cuts_at_token_boundary(self):
        doc = make_doc([["café", "naïve", "über", "wörter"]])
        selection = make_selection([0], doc)
        capped = enforce_budget(selection, doc, max_tokens=2)
        assert capped.text == "café naïve"
        assert capped.token_count == 2
        assert capped.truncated_mid_sentence

    def test_later_oversized_sentence_is_just_dropped(self):
        # only the first selected sentence triggers the mid-sentence cut
        doc = make_doc([["a", "b"], ["c", "d", "e", "f", "g"]])
        selection = make_selection([0, 1], doc)
        capped = enforce_budget(selection, doc, max_tokens=3)
        assert capped.text == "a b"
        assert capped.token_count == 2
        assert not capped.truncated_mid_sentence

    def test_empty_selection(self):
        doc = make_doc([["a"]])
        capped = enforce_budget(make_selection([], doc), doc, max_tokens=5)
        assert capped.text == ""
        assert capped.token_count == 0
        assert not capped.truncated_mid_sentence

    def test_reapplying_cap_changes_nothing(self):
        doc = make_doc([["a", "b", "c"], ["d", "e"], ["f", "g"]])
        first = enforce_budget(make_selection([0, 1, 2], doc), doc, max_tokens=5)
        assert first.token_count == 5
        refit = make_selection([0, 1], doc)
        second = enforce_budget(refit, doc, max_tokens=5)
        assert (second.text, second.token_count) == (first.text, first.token_count)

    def test_invalid_arguments(self):
        doc = make_doc([["a"]])
        with pytest.raises(ValueError):
            enforce_budget(make_selection([0], doc), doc, max_tokens=0)
        dangling = SelectionResult(episode_id=doc.episode_id, strategy="window",
                                   sentence_indices=(3,), selected_token_count=0)
        with pytest.raises(ValueError):
            enforce_budget(dangling, doc, max_tokens=5)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_budget_respected_and_flag_exact(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        doc = make_doc(random_sentences(rng, rng.randint(1, 8),
                                        ["w%d" % i for i in range(12)],
                                        min_len=1, max_len=9))
        n = len(doc.sentences)
        count = rng.randint(0, n)
        indices = sorted(rng.sample(range(n), count))
        budget = rng.randint(1, 30)
        capped = enforce_budget(make_selection(indices, doc), doc, budget)
        assert capped.token_count <= budget
        should_flag = bool(indices) and len(doc.sentences[indices[0]].tokens) > budget
        assert capped.truncated_mid_sentence == should_flag
        if should_flag:
            assert capped.token_count == budget


class TestNullBackend:
    def test_identity(self):
        backend = NullBackend()
        assert backend.backend_id == "null"
        assert backend.generate("ep", "same text back", max_length=10) == "same text back"

    def test_summarize_wraps_and_times(self):
        capped = BackendInput(episode_id="ep-1", text="hello world", token_count=2)
        result = summarize(capped, NullBackend())
        assert result == Summary("ep-1", "hello world", "null", result.latency_ms)
        assert result.latency_ms is not None and result.latency_ms >= 0.0
        assert result.to_record() == {"id": "ep-1", "summary": "hello world",
                                      "backend": "null"}


class ScriptedHandler(BaseHTTPRequestHandler):
    """Serves canned responses from the owning server's script queue."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else None
        self.server.requests.append((self.path, body))
        status, payload = self.server.script.popleft()
        raw = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


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


class TestRemoteBackend:
    def test_success_round_trip(self, stub_server):
        server, endpoint = stub_server
        server.script.append((200, {"id": "ep-1", "summary": "a short summary"}))
        backend = RemoteBackend(endpoint, sleep=lambda s: None)
        assert backend.generate("ep-1", "long text") == "a short summary"
        path, body = server.requests[0]
        assert path == "/summarize"
        assert body == {"id": "ep-1", "text": "long text"}

    def test_max_length_forwarded_only_when_set(self, stub_server):
        server, endpoint = stub_server
        server.script.append((200, {"id": "e", "summary": "s"}))
        server.script.append((200, {"id": "e", "summary": "s"}))
        backend = RemoteBackend(endpoint, sleep=lambda s: None)
        backend.generate("e", "t")
        backend.generate("e", "t", max_length=64)
        assert "max_length" not in server.requests[0][1]
        assert server.requests[1][1]["max_length"] == 64

    def test_server_errors_retried_then_succeed(self, stub_server):
        server, endpoint = stub_server
        server.script.append((500, {"error": "busy"}))
        server.script.append((503, {"error": "busy"}))
        server.script.append((200, {"id": "e", "summary": "done"}))
        sleeps = []
        backend = RemoteBackend(endpoint, sleep=sleeps.append)
        assert backend.generate("e", "t") == "done"
        assert len(server.requests) == 3
        assert sleeps == [0.5, 1.0]  # doubles before each retry

    def test_exhausted_retries_raise_backend_error(self, stub_server):
        server, endpoint = stub_server
        for _ in range(3):
            server.script.append((500, {"error": "down"}))
        sleeps = []
        backend = RemoteBackend(endpoint, sleep=sleeps.append)
        with pytest.raises(BackendError) as excinfo:
            backend.generate("ep-x", "t")
        assert excinfo.value.attempts == 3
        assert len(server.requests) == 3
        assert sleeps == [0.5, 1.0]

    def test_client_error_fails_without_retry(self, stub_server):
        server, endpoint = stub_server
        server.script.append((400, {"error": "bad request"}))
        sleeps = []
        backend = RemoteBackend(endpoint, sleep=sleeps.append)
        with pytest.raises(BackendError) as excinfo:
            backend.generate("ep-x", "t")
        assert excinfo.value.attempts == 1
        assert "HTTP 400" in str(excinfo.value)
        assert len(server.requests) == 1
        assert sleeps == []

    def test_too_many_requests_retried_then_succeed(self, stub_server):
        server, endpoint = stub_server
        server.script.append((429, {"error": "slow down"}))
        server.script.append((200, {"id": "e", "summary": "done"}))
        sleeps = []
        backend = RemoteBackend(endpoint, sleep=sleeps.append)
        assert backend.generate("e", "t") == "done"
        assert len(server.requests) == 2
        assert sleeps == [0.5]

    def test_malformed_body_is_protocol_error_without_retry(self, stub_server):
        server, endpoint = stub_server
        server.script.append((200, b"this is not json"))
        backend = RemoteBackend(endpoint, sleep=lambda s: None)
        with pytest.raises(ProtocolError):
            backend.generate("e", "t")
        assert len(server.requests) == 1

    def test_missing_summary_field_is_protocol_error(self, stub_server):
        server, endpoint = stub_server
        server.script.append((200, {"id": "e", "result": "wrong key"}))
        backend = RemoteBackend(endpoint, sleep=lambda s: None)
        with pytest.raises(ProtocolError):
            backend.generate("e", "t")
        assert len(server.requests) == 1

    def test_connection_refused_retries_then_raises(self):
        backend = RemoteBackend("http://127.0.0.1:1", retries=2,
                                sleep=lambda s: None, timeout=1)
        with pytest.raises(BackendError) as excinfo:
            backend.generate("e", "t")
        assert excinfo.value.attempts == 2

    def test_endpoint_trailing_slash_normalized(self):
        backend = RemoteBackend("http://host:9/", sleep=lambda s: None)
        assert backend.url == "http://host:9/summarize"

    def test_invalid_retries_rejected(self):
        with pytest.raises(ValueError):
            RemoteBackend("http://host:9", retries=0)

    def test_summarize_uses_backend_id(self, stub_server):
        server, endpoint = stub_server
        server.script.append((200, {"id": "e", "summary": "out"}))
        capped = BackendInput(episode_id="e", text="in", token_count=1)
        result = summarize(capped, RemoteBackend(endpoint, sleep=lambda s: None))
        assert result.backend_id == "remote"
        assert result.text == "out"
