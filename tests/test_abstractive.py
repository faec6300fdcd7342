import json
import pickle
import random
import subprocess
import sys
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podselect import abstractive
from podselect.abstractive import (ATTEMPTS, BackendInput, NullBackend, RemoteBackend,
                                   Summary, enforce_budget, summarize, summarize_all)
from podselect.errors import BackendError, ProtocolError
from podselect.selection import SelectionResult
from conftest import make_doc, random_sentences


def make_selection(indices, doc, strategy="window"):
    return SelectionResult(
        episode_id=doc.episode_id,
        strategy=strategy,
        sentence_indices=tuple(indices),
        selected_token_count=sum(doc.sentences[i].token_count for i in indices),
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
        should_flag = bool(indices) and doc.sentences[indices[0]].token_count > budget
        assert capped.truncated_mid_sentence == should_flag
        if should_flag:
            assert capped.token_count == budget


class TestBackendInput:
    def test_immutable_and_survives_pickle(self):
        capped = BackendInput(episode_id="ep", text="some text", token_count=2,
                              truncated_mid_sentence=True)
        with pytest.raises(AttributeError):
            capped.text = "other"
        assert pickle.loads(pickle.dumps(capped)) == capped


class TestSummary:
    @given(st.builds(Summary, st.text(), st.text(), st.text()))
    def test_from_record_reads_to_record_back(self, summary):
        assert Summary.from_record(summary.to_record()) == summary

    def test_from_record_defaults(self):
        assert Summary.from_record({"id": "ep"}) == Summary("ep", "", "unknown")


class TestNullBackend:
    def test_identity(self):
        backend = NullBackend()
        assert backend.backend_id == "null"
        assert backend.generate("ep", "same text back", max_length=10) == "same text back"

    def test_summarize_wraps(self):
        capped = BackendInput(episode_id="ep-1", text="hello world", token_count=2)
        result = summarize(capped, NullBackend())
        assert result == Summary("ep-1", "hello world", "null")
        assert result.to_record() == {"id": "ep-1", "summary": "hello world",
                                      "backend": "null"}


class ScriptedHandler(BaseHTTPRequestHandler):
    """Serves canned responses: the next one planted in the owning server's
    `faults` for the request's episode id, else the next of its `script` queue."""

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else None
        self.server.requests.append((self.path, body))
        planted = self.server.faults.get(body and body.get("id"))
        status, payload = (planted or self.server.script).popleft()
        if status == "hang":  # answer nothing until the client has given up
            time.sleep(payload)
            return
        if status == "close":  # close the connection without a response
            return
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
    server.faults = {}
    server.requests = []
    # a short poll: shutdown() waits out the poll in progress (0.5 s by default)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01},
                              daemon=True)
    thread.start()
    try:
        yield server, f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture
def delays(monkeypatch):
    """The backoffs the retry policy chose, in order; the scheduler waits none of them."""
    chosen = []
    policy = abstractive._retry_delay

    def record(error, attempt):
        delay = policy(error, attempt)
        if delay is None:
            return None
        chosen.append(delay)
        return 0.0

    monkeypatch.setattr(abstractive, "_retry_delay", record)
    return chosen


def capped(episode_id="e", text="t"):
    return BackendInput(episode_id=episode_id, text=text, token_count=len(text.split()))


class TestRemoteBackend:
    def test_success_round_trip(self, stub_server):
        server, endpoint = stub_server
        server.script.append((200, {"id": "ep-1", "summary": "a short summary"}))
        backend = RemoteBackend(endpoint)
        assert backend.generate("ep-1", "long text") == "a short summary"
        path, body = server.requests[0]
        assert path == "/summarize"
        assert body == {"id": "ep-1", "text": "long text"}

    def test_max_length_forwarded_only_when_set(self, stub_server):
        server, endpoint = stub_server
        server.script.append((200, {"id": "e", "summary": "s"}))
        server.script.append((200, {"id": "e", "summary": "s"}))
        backend = RemoteBackend(endpoint)
        backend.generate("e", "t")
        backend.generate("e", "t", max_length=64)
        assert "max_length" not in server.requests[0][1]
        assert server.requests[1][1]["max_length"] == 64

    @pytest.mark.parametrize("response, status", [
        ((503, {"error": "busy"}), 503),
        ((404, {"error": "gone"}), 404),
        (("close", None), None),
    ], ids=["503", "404", "no-response"])
    def test_generate_makes_one_attempt(self, stub_server, response, status):
        server, endpoint = stub_server
        server.script.append(response)
        server.script.append((200, {"id": "e", "summary": "never asked for"}))
        with pytest.raises(BackendError) as excinfo:
            RemoteBackend(endpoint).generate("e", "t")
        assert excinfo.value.status == status
        assert len(server.requests) == 1

    def test_server_errors_retried_then_succeed(self, stub_server, delays):
        server, endpoint = stub_server
        server.script.append((500, {"error": "busy"}))
        server.script.append((503, {"error": "busy"}))
        server.script.append((200, {"id": "e", "summary": "done"}))
        assert summarize(capped(), RemoteBackend(endpoint)).text == "done"
        assert len(server.requests) == 3
        assert delays == [0.5, 1.0]  # doubles before each retry

    def test_exhausted_retries_raise_backend_error(self, stub_server, delays):
        server, endpoint = stub_server
        for _ in range(3):
            server.script.append((500, {"error": "down"}))
        with pytest.raises(BackendError) as excinfo:
            summarize(capped("ep-x"), RemoteBackend(endpoint))
        assert excinfo.value.attempts == 3
        assert str(excinfo.value) == "backend failed for 'ep-x' after 3 attempts (HTTP 500)"
        assert len(server.requests) == 3
        assert delays == [0.5, 1.0]

    def test_client_error_fails_without_retry(self, stub_server, delays):
        server, endpoint = stub_server
        server.script.append((400, {"error": "bad request"}))
        with pytest.raises(BackendError) as excinfo:
            summarize(capped("ep-x"), RemoteBackend(endpoint))
        assert excinfo.value.attempts == 1
        assert "HTTP 400" in str(excinfo.value)
        assert len(server.requests) == 1
        assert delays == []

    def test_too_many_requests_retried_then_succeed(self, stub_server, delays):
        server, endpoint = stub_server
        server.script.append((429, {"error": "slow down"}))
        server.script.append((200, {"id": "e", "summary": "done"}))
        assert summarize(capped(), RemoteBackend(endpoint)).text == "done"
        assert len(server.requests) == 2
        assert delays == [0.5]

    def test_malformed_body_is_protocol_error_without_retry(self, stub_server, delays):
        server, endpoint = stub_server
        server.script.append((200, b"this is not json"))
        server.script.append((200, b"this is not json"))
        backend = RemoteBackend(endpoint)
        with pytest.raises(ProtocolError):
            backend.generate("e", "t")
        with pytest.raises(BackendError) as excinfo:
            summarize(capped(), backend)
        assert excinfo.value.attempts == 1
        assert len(server.requests) == 2
        assert delays == []

    def test_too_deeply_nested_body_is_protocol_error(self, stub_server):
        server, endpoint = stub_server
        server.script.append((200, b"[" * 200_000))
        with pytest.raises(ProtocolError, match="non-JSON body for 'e'"):
            RemoteBackend(endpoint).generate("e", "t")

    # a lone surrogate as a JSON escape, and as the bytes json.loads decodes to one
    @pytest.mark.parametrize("body", [b'{"id": "e", "summary": "\\ud800"}',
                                      b'{"id": "e", "summary": "\xed\xa0\x80"}'],
                             ids=["escaped", "encoded"])
    def test_summary_that_is_not_unicode_text_is_protocol_error(self, stub_server, delays,
                                                                body):
        server, endpoint = stub_server
        server.script.append((200, body))
        with pytest.raises(BackendError) as excinfo:
            summarize(capped(), RemoteBackend(endpoint))
        assert "backend summary for 'e' is not valid Unicode text" in str(excinfo.value)
        assert excinfo.value.attempts == 1
        assert delays == []

    @settings(max_examples=300)
    @given(st.one_of(
        st.binary(),
        st.builds(lambda text, escape: json.dumps({"summary": text}, ensure_ascii=escape)
                  .encode("utf-8", "surrogatepass"),
                  st.text(st.characters(exclude_categories=())), st.booleans())))
    def test_parse_returns_writable_text_or_raises_protocol_error(self, body):
        try:
            summary = RemoteBackend._parse(body, "e")
        except ProtocolError:
            return
        assert isinstance(summary, str)
        summary.encode("utf-8")

    def test_missing_summary_field_is_protocol_error(self, stub_server):
        server, endpoint = stub_server
        server.script.append((200, {"id": "e", "result": "wrong key"}))
        backend = RemoteBackend(endpoint)
        with pytest.raises(ProtocolError):
            backend.generate("e", "t")
        assert len(server.requests) == 1

    def test_connection_refused_retries_then_raises(self, delays):
        backend = RemoteBackend("http://127.0.0.1:1", timeout=1)
        with pytest.raises(BackendError) as excinfo:
            summarize(capped(), backend)
        assert excinfo.value.attempts == 3
        assert delays == [0.5, 1.0]

    def test_read_timeout_retries_then_raises(self, stub_server, delays):
        server, endpoint = stub_server
        for _ in range(3):
            server.script.append(("hang", 0.5))
        backend = RemoteBackend(endpoint, timeout=0.2)
        with pytest.raises(BackendError) as excinfo:
            summarize(capped(), backend)
        assert excinfo.value.attempts == 3
        assert "TimeoutError" in str(excinfo.value)
        assert len(server.requests) == 3

    def test_connection_closed_without_response_is_retried(self, stub_server, delays):
        server, endpoint = stub_server
        server.script.append(("close", None))
        server.script.append((200, {"id": "e", "summary": "done"}))
        assert summarize(capped(), RemoteBackend(endpoint)).text == "done"
        assert len(server.requests) == 2
        assert delays == [0.5]

    def test_endpoint_trailing_slash_normalized(self, stub_server):
        server, endpoint = stub_server
        server.script.append((200, {"id": "e", "summary": "s"}))
        RemoteBackend(endpoint + "/").generate("e", "t")
        assert server.requests[0][0] == "/summarize"

    @pytest.mark.parametrize("suffix", ["/api?key=abc", "/api/?key=abc#x"],
                             ids=["query", "slash-query-fragment"])
    def test_endpoint_query_kept_and_fragment_dropped(self, stub_server, suffix):
        server, endpoint = stub_server
        server.script.append((200, {"id": "e", "summary": "s"}))
        RemoteBackend(endpoint + suffix).generate("e", "t")
        assert server.requests[0][0] == "/api/summarize?key=abc"

    def test_summarize_uses_backend_id(self, stub_server):
        server, endpoint = stub_server
        server.script.append((200, {"id": "e", "summary": "out"}))
        result = summarize(capped(text="in"), RemoteBackend(endpoint))
        assert result.backend_id == "remote"
        assert result.text == "out"

    def test_cli_imports_only_the_standard_library(self):
        # compared against a bare interpreter's modules, because site .pth files
        # may preload third-party ones (certifi, _distutils_hack) before any import
        probe = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import podselect.cli\n"
            "podselect.cli.build_parser()\n"
            "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
            "print(sorted(added - set(sys.stdlib_module_names) - {'podselect'}))\n"
        )
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"

    def test_cli_import_loads_no_http_client(self):
        probe = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import podselect.cli\n"
            "podselect.cli.build_parser()\n"
            "print(sorted({'http.client', 'ssl'} & (set(sys.modules) - before)))\n"
        )
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"


class FakeBackend:
    """In-process backend: raises the errors planted for an episode's first
    attempts, then answers; records every call, its thread and the requests in
    flight around it."""

    backend_id = "fake"

    def __init__(self, faults=None, delays=None, delay=0.002):
        self.faults = {episode_id: list(errors) for episode_id, errors in (faults or {}).items()}
        self.delays = delays or {}
        self.delay = delay
        self.calls = []  # (episode_id, started, ended, raised), in the order they ended
        self.threads = set()
        self.in_flight = self.most_in_flight = 0
        self.most_threads = threading.active_count()
        self._lock = threading.Lock()

    def generate(self, episode_id, text, max_length=None):
        started = time.monotonic()
        with self._lock:
            self.in_flight += 1
            self.most_in_flight = max(self.most_in_flight, self.in_flight)
            self.threads.add(threading.get_ident())
            self.most_threads = max(self.most_threads, threading.active_count())
            planted = self.faults.get(episode_id)
            error = planted.pop(0) if planted else None
        time.sleep(self.delays.get(episode_id, self.delay))
        with self._lock:
            self.in_flight -= 1
            self.calls.append((episode_id, started, time.monotonic(), error is not None))
        if error is not None:
            raise error
        return text.upper()

    def attempts(self):
        counts = {}
        for episode_id, *_ in self.calls:
            counts[episode_id] = counts.get(episode_id, 0) + 1
        return counts


def episodes(count):
    return [capped(f"ep-{i:04d}", f"text {i}") for i in range(count)]


def unavailable():
    return BackendError("HTTP 503", status=503)


def bounded(call, timeout=10.0):
    """call() on a daemon thread: its ('value' | 'error', result), failing if it outlives timeout."""
    box = {}

    def target():
        try:
            box["value"] = call()
        except BaseException as exc:  # handed to the test, which asserts on it
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"still running after {timeout} s"
    (outcome,) = box.items()
    return outcome


class TestSummarizeAll:
    """The scheduler over an in-process backend: no HTTP."""

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_requests_in_flight_never_exceed_jobs(self, monkeypatch, jobs):
        monkeypatch.setattr(abstractive, "BACKOFF_SECONDS", 0.02)
        inputs = episodes(12)
        backend = FakeBackend(faults={"ep-0000": [unavailable()], "ep-0005": [unavailable()]},
                              delay=0.01)
        outcomes = summarize_all(inputs, backend, None, jobs)
        assert all(isinstance(o, Summary) for o in outcomes)
        assert backend.most_in_flight <= jobs
        assert len(backend.threads) <= jobs
        assert len(backend.calls) == 14

    def test_every_retry_waits_at_least_its_backoff(self, monkeypatch):
        monkeypatch.setattr(abstractive, "BACKOFF_SECONDS", 0.05)
        inputs = episodes(6)
        faults = {"ep-0001": [unavailable(), unavailable()],
                  "ep-0003": [BackendError("HTTP 429", status=429)],
                  "ep-0004": [BackendError("ConnectionResetError: reset")] * 2}
        backend = FakeBackend(faults=faults)
        outcomes = summarize_all(inputs, backend, None, jobs=2)
        assert all(isinstance(o, Summary) for o in outcomes)
        for episode_id in faults:
            calls = [c for c in backend.calls if c[0] == episode_id]
            assert len(calls) == len(faults[episode_id]) + 1
            for attempt, (failed, retry) in enumerate(zip(calls, calls[1:]), 1):
                assert failed[3]
                assert retry[1] - failed[2] >= 0.05 * 2 ** (attempt - 1)

    def test_one_slot_sends_the_next_episode_while_a_retry_waits(self):
        backend = FakeBackend(faults={"ep-0000": [unavailable()]})
        outcomes = summarize_all(episodes(2), backend, None, jobs=1)
        assert [o.text for o in outcomes] == ["TEXT 0", "TEXT 1"]
        (first, _, _, failed), (second, sent, _, _), (retried, resent, _, _) = backend.calls
        assert (first, second, retried) == ("ep-0000", "ep-0001", "ep-0000")
        failed_at = backend.calls[0][2]
        assert sent < failed_at + abstractive.BACKOFF_SECONDS <= resent

    def test_outcomes_keep_input_order(self):
        inputs = episodes(8)
        # the first inputs answer last, so completion order is the reverse
        delays = {item.episode_id: 0.04 - 0.005 * i for i, item in enumerate(inputs)}
        backend = FakeBackend(delays=delays)
        outcomes = summarize_all(inputs, backend, 16, jobs=4)
        assert [o.episode_id for o in outcomes] == [item.episode_id for item in inputs]
        assert [o.text for o in outcomes] == [item.text.upper() for item in inputs]
        assert all(o.backend_id == "fake" for o in outcomes)
        assert [c[0] for c in backend.calls] != [item.episode_id for item in inputs]

    @pytest.mark.parametrize("error, attempts", [
        (BackendError("HTTP 400", status=400), 1),
        (BackendError("HTTP 404", status=404), 1),
        (ProtocolError("backend returned non-JSON body for 'e'"), 1),
        (BackendError("HTTP 408", status=408), ATTEMPTS),
        (BackendError("HTTP 429", status=429), ATTEMPTS),
        (BackendError("HTTP 500", status=500), ATTEMPTS),
        (BackendError("TimeoutError: timed out"), ATTEMPTS),
    ], ids=["400", "404", "protocol", "408", "429", "500", "no-response"])
    def test_attempts_by_failure(self, monkeypatch, error, attempts):
        monkeypatch.setattr(abstractive, "BACKOFF_SECONDS", 0.001)
        threads_before = threading.active_count()
        backend = FakeBackend(faults={"e": [error] * ATTEMPTS})
        (outcome,) = summarize_all([capped()], backend, None, jobs=4)
        assert backend.most_threads == threads_before  # one input: the caller is its worker
        assert isinstance(outcome, BackendError)
        assert outcome.attempts == attempts == len(backend.calls)
        tries = "1 attempt" if attempts == 1 else f"{attempts} attempts"
        assert str(outcome) == f"backend failed for 'e' after {tries} ({error})"

    def test_dead_backend_gets_attempts_per_episode_on_at_most_jobs_threads(self, monkeypatch):
        monkeypatch.setattr(abstractive, "BACKOFF_SECONDS", 0.001)
        inputs = episodes(1000)
        threads_before = threading.active_count()
        backend = FakeBackend(faults={item.episode_id: [unavailable()] * ATTEMPTS
                                      for item in inputs}, delay=0)
        outcomes = summarize_all(inputs, backend, None, jobs=4)
        assert all(isinstance(o, BackendError) and o.attempts == ATTEMPTS for o in outcomes)
        assert set(backend.attempts().values()) == {ATTEMPTS}
        assert len(backend.threads) <= 4
        assert backend.most_threads <= threads_before + 3  # the caller is one of the 4

    @pytest.mark.parametrize("waiting", ["on-a-backoff", "on-a-request"])
    def test_unexpected_error_stops_every_worker(self, monkeypatch, waiting):
        # a backoff far longer than the bound: the waiting worker must be woken
        monkeypatch.setattr(abstractive, "BACKOFF_SECONDS", 60.0)
        if waiting == "on-a-backoff":
            backend = FakeBackend(faults={"ep-0000": [unavailable()],
                                          "ep-0001": [RuntimeError("bug")]},
                                  delays={"ep-0001": 0.1})
        else:  # the other worker is done and waits for the failing request
            backend = FakeBackend(faults={"ep-0000": [RuntimeError("bug")]},
                                  delays={"ep-0000": 0.1})
        kind, result = bounded(lambda: summarize_all(episodes(2), backend, None, jobs=2))
        assert kind == "error" and isinstance(result, RuntimeError)
        assert str(result) == "bug"

    def test_stress_exact_attempts_under_fast_switching(self, monkeypatch):
        monkeypatch.setattr(abstractive, "BACKOFF_SECONDS", 0.001)
        rng = random.Random(4)
        menu = [unavailable, lambda: BackendError("HTTP 400", status=400),
                lambda: ProtocolError("bad body"), lambda: BackendError("OSError: reset")]
        inputs = episodes(300)
        faults, expected = {}, {}
        for item in inputs:
            errors = [rng.choice(menu)() for _ in range(rng.randint(0, ATTEMPTS))]
            faults[item.episode_id] = errors
            tries = 0
            for error in errors + [None]:
                tries += 1
                if error is None or tries == ATTEMPTS or abstractive._retry_delay(error, tries) is None:
                    break
            expected[item.episode_id] = tries
        backend = FakeBackend(faults=faults, delay=0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            kind, outcomes = bounded(lambda: summarize_all(inputs, backend, None, jobs=8), 60)
        finally:
            sys.setswitchinterval(interval)
        assert kind == "value"
        assert backend.attempts() == expected
        assert backend.most_in_flight <= 8
        for item, outcome in zip(inputs, outcomes):  # in input order
            if expected[item.episode_id] > len(faults[item.episode_id]):
                assert outcome.episode_id == item.episode_id
            else:
                assert f"for {item.episode_id!r} after" in str(outcome)
