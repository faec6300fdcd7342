"""Tests of the benchmark's own machinery: generator, metric names, spans, replay, stub."""

import json
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import oracle  # noqa: E402
import replay  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from podselect.errors import BackendError  # noqa: E402
from stub_backend import fault_plan  # noqa: E402
from tracing import Span, Tracer, layer_self_times, self_times  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text("utf-8"))


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
def test_generator_is_byte_deterministic_per_seed(name):
    spec = workloads.SPECS[name]
    first = workloads.generate(spec, 11).jsonl()
    assert workloads.generate(spec, 11).jsonl() == first
    assert workloads.generate(spec, 12).jsonl() != first


def test_check_corpus_is_deterministic_and_small():
    records = workloads.generate_check(5)
    assert records == workloads.generate_check(5)
    assert all(len(oracle.sentences_of(r["transcript"])) <= 30 for r in records)


def test_planted_rejections_and_properties():
    spec = workloads.SPECS["head-corpus"]
    corpus = workloads.generate(spec, 3)
    props = workloads.properties(corpus)
    assert props["planted_rejections"] == {rule: spec.planted_per_rule for rule in workloads.RULES}
    assert props["kept"] == spec.kept
    assert props["episodes"] == spec.kept + len(workloads.RULES) * spec.planted_per_rule
    non_ascii = sum(not r["transcript"].isascii() for r in corpus.records
                    if r["id"] in corpus.kept_ids)
    assert non_ascii == round(spec.non_ascii_share * spec.kept)


def test_metric_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.SPECS)


def test_result_line_refuses_unlisted_metrics():
    with pytest.raises(run.BenchError):
        run.result_line(True, 1, 0, {"episodes_per_s": 1.0}, run.END_TO_END)


def _span(span_id, parent_id, name, start, end):
    return Span(span_id=span_id, parent_id=parent_id, name=name, trace_id="t",
                start=start, end=end)


def test_self_times_on_hand_built_tree():
    spans = [
        _span(0, None, "stage.run", 0.0, 10.0),
        _span(1, 0, "corpus.load", 1.0, 4.0),
        _span(2, 1, "corpus.inner", 2.0, 3.0),
        _span(3, 0, "selection.pick", 3.0, 6.0),   # overlaps span 1
        _span(4, 0, "abstractive.call", 9.0, 12.0),  # runs past its parent
    ]
    own = self_times(spans)
    # root: 10 minus the union [1, 6] and [9, 10] of its children
    assert own == pytest.approx({0: 4.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 3.0})
    assert layer_self_times(spans) == pytest.approx(
        {"stage": 4.0, "corpus": 3.0, "selection": 3.0, "abstractive": 3.0})


def test_brute_force_lcs_and_head_pick():
    assert oracle.lcs_full_table(list("abcbdab"), list("bdcaba")) == 4
    assert oracle.lcs_full_table([], ["a"]) == 0
    assert oracle.head_pick([3, 3, 3], 5) == [0, 1]


def test_fault_plan_is_deterministic():
    ids = [f"ep-{i:04d}" for i in range(1, 201)]
    plan = fault_plan(ids, 0.02, 9)
    assert plan == fault_plan(list(reversed(ids)), 0.02, 9)
    assert len(plan) == 4 and set(plan) <= set(ids)
    assert plan != fault_plan(ids, 0.02, 10)


class _BackendDownFor:
    """Stands in for RemoteBackend: one episode exhausts its retries."""

    backend_id = "fake"

    def __init__(self, endpoint):
        self.failing = endpoint

    def generate(self, episode_id, text, max_length=None):
        if episode_id == self.failing:
            raise BackendError(f"backend failed for {episode_id!r}", attempts=3)
        return text


def test_replay_counts_episodes_left_without_summary(tmp_path, monkeypatch):
    records = workloads.generate(workloads.SPECS["remote-backend"], 1).records[:3]  # split needs 3
    path = tmp_path / "input.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    monkeypatch.setattr(replay.abstractive, "RemoteBackend", _BackendDownFor)
    result = replay.run(path, tmp_path, "none", 7, Tracer(), endpoint=records[1]["id"])
    assert result.counts["backend_failures"] == 1
    assert [s["id"] for s in result.summaries] == [records[0]["id"], records[2]["id"]]


def _call(endpoint, method, path, body=None):
    data = json.dumps(body).encode() if body is not None else (b"" if method == "POST" else None)
    request = urllib.request.Request(endpoint + path, data=data, method=method,
                                     headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def test_stub_fails_planted_episode_once_per_reset(tmp_path):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(["ep-2"]))
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "stub_backend.py"),
                             "--plan", str(plan_path)], stdout=subprocess.PIPE, text=True)
    try:
        endpoint = f"http://127.0.0.1:{int(proc.stdout.readline().split()[1])}"
        for _ in range(2):  # the plan repeats exactly after a reset
            assert _call(endpoint, "POST", "/reset") == (200, {"ok": True})
            request = {"id": "ep-2", "text": "one two three", "max_length": 5}
            assert _call(endpoint, "POST", "/summarize", request)[0] == 503
            assert _call(endpoint, "POST", "/summarize", request) == (
                200, {"id": "ep-2", "summary": "one two three"})
            assert _call(endpoint, "POST", "/summarize", {"id": "ep-1", "text": "x"})[0] == 200
            assert _call(endpoint, "GET", "/stats") == (
                200, {"attempts": {"ep-2": 2, "ep-1": 1}, "tokens": {"ep-2": 3, "ep-1": 1},
                      "faults": 1})
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()
