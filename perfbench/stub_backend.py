"""Loopback stand-in for a remote summarization service, stdlib only.

Speaks the wire contract of ``podselect.abstractive.RemoteBackend``: POST
``/summarize`` with ``{"id", "text", "max_length"}`` returns ``{"id",
"summary"}`` after a fixed service delay. Episodes named in the fault plan
get one HTTP 503 on their first attempt and succeed on the retry. Attempts
are counted server-side per episode; ``GET /stats`` reports them and
``POST /reset`` clears them, so every pipeline run sees the same plan.

Run as ``python3 stub_backend.py --plan plan.json``; it listens on
127.0.0.1 only and prints ``port <n>`` once it is ready.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

SUMMARY_WORDS = 40
# A chosen stand-in, not a measured service time. With 2 client threads it
# makes HTTP round trips about half of the summarize stage on the
# remote-backend workload (the client's fixed 0.5 s retry backoff is most of
# the rest), while a pipeline run stays short enough to repeat several times
# within one benchmark run. A real model would take far longer per request.
DELAY_S = 0.010


def fault_plan(episode_ids, share: float, seed: int) -> list[str]:
    """The round(share * n) episode ids that get one 503, chosen by seeded hash."""
    ids = sorted(set(episode_ids))
    count = round(share * len(ids))
    ranked = sorted(ids, key=lambda i: hashlib.sha256(f"{seed}:{i}".encode()).digest())
    return sorted(ranked[:count])


def summary_for(text: str) -> str:
    """The stub's deterministic summary: the first SUMMARY_WORDS words."""
    return " ".join(text.split()[:SUMMARY_WORDS])


class StubState:
    def __init__(self, plan):
        self.plan = frozenset(plan)
        self._lock = threading.Lock()
        self.reset()

    def reset(self):
        with self._lock:
            self.attempts: dict[str, int] = {}
            self.tokens: dict[str, int] = {}
            self.faults = 0

    def admit(self, episode_id: str, text: str) -> bool:
        """Count one attempt; True when the plan says it must fail."""
        with self._lock:
            n = self.attempts[episode_id] = self.attempts.get(episode_id, 0) + 1
            self.tokens[episode_id] = len(text.split())
            fail = n == 1 and episode_id in self.plan
            self.faults += fail
            return fail

    def stats(self) -> dict:
        with self._lock:
            return {"attempts": dict(self.attempts), "tokens": dict(self.tokens),
                    "faults": self.faults}


def make_handler(state: StubState):
    class Handler(BaseHTTPRequestHandler):
        def _reply(self, status: int, payload: dict):
            body = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            body = self.rfile.read(length)
            if self.path == "/reset":
                state.reset()
                self._reply(200, {"ok": True})
                return
            if self.path != "/summarize":
                self._reply(404, {"error": "not found"})
                return
            request = json.loads(body)
            episode_id, text = request["id"], request["text"]
            fail = state.admit(episode_id, text)
            time.sleep(DELAY_S)
            if fail:
                self._reply(503, {"error": "planted fault"})
            else:
                self._reply(200, {"id": episode_id, "summary": summary_for(text)})

        def do_GET(self):
            if self.path == "/stats":
                self._reply(200, state.stats())
            else:
                self._reply(404, {"error": "not found"})

        def log_message(self, format, *args):
            pass

    return Handler


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True, help="JSON list of episode ids to fault once")
    args = parser.parse_args(argv)
    with open(args.plan, encoding="utf-8") as handle:
        plan = json.load(handle)
    state = StubState(plan)
    server = ThreadingHTTPServer(("127.0.0.1", 0), make_handler(state))
    server.daemon_threads = True
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
