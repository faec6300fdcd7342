#!/usr/bin/env python3
"""podselect benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload head-corpus --seed 1 --seconds 16 --trace 0

Run from the root of a source checkout. Builds the workload's corpus from
--seed, then runs ``podselect pipeline ... --jobs 2`` as a child process
repeatedly for --seconds (at least three times). It is sized for a 2-core
machine: the only load is that one pipeline process with 2 workers, a
closed loop of one batch job, and on remote-backend the loopback stub sees
exactly 2 client threads. Every run checks the outputs
and prints, as its last line, one JSON object with the end-to-end metrics
(--trace 0) or the per-layer metrics of the traced replay (--trace 1).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import oracle
import workloads
from stub_backend import fault_plan, summary_for
from tracing import NullTracer, Tracer, layer_self_times, name_totals
from workloads import tokens_of

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

PIPELINE_SEED = 7    # the program's --seed; the workload seed only shapes inputs
JOBS = 2
BUDGET = 1024        # the CLI default, asserted on every summary
MIN_REPS = 3
SETUP_SAMPLES = 2    # after each timed pipeline run
CHILD_TIMEOUT_S = 150
REPLAYS = 2          # of each kind, untraced and traced, in the traced run
SPAN_PROBE = 2000    # empty spans per round of the tracer-cost probe

# CLI select on a small untimed corpus, against exhaustive rescoring by oracle.py
CHECK_RUNS = (
    ("window", ["--window-size", "6"], lambda tokens: oracle.window_pick(tokens, 6)),
    ("novelty", ["--window-size", "5", "--top-k", "3"],
     lambda tokens: oracle.novelty_pick(tokens, 5, 3)),
    ("none", ["--budget", "60"], lambda tokens: oracle.head_pick([len(t) for t in tokens], 60)),
)

END_TO_END = {
    "episodes_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "summarized_share": "share",
    "rouge_l_f": "%",
}

PER_LAYER = {
    "cli.preprocess_s": "s", "cli.select_s": "s", "cli.summarize_s": "s", "cli.evaluate_s": "s",
    "corpus.load_episodes_s": "s", "corpus.build_document_s": "s",
    "corpus.tokens_per_s": "tokens/s", "corpus.episodes": "count",
    "corpus.sentences": "count", "corpus.tokens": "count", "corpus.non_ascii_share": "share",
    "corpus.self_s": "s",
    "preprocess.filter_corpus_s": "s", "preprocess.split_dataset_s": "s",
    "preprocess.kept": "count",
    **{f"preprocess.rejected.{rule}": "count" for rule in workloads.RULES},
    "preprocess.self_s": "s",
    "selection.select_s": "s", "selection.episode_ms.p50": "ms",
    "selection.episode_ms.p90": "ms", "selection.episode_ms.samples": "count",
    "selection.windows": "count", "selection.self_s": "s",
    "topics.fit_lda_s": "s", "topics.token_updates": "count",
    "topics.token_updates_per_s": "updates/s", "topics.select_by_topics_s": "s",
    "topics.self_s": "s",
    "abstractive.enforce_budget_s": "s", "abstractive.summarize_s": "s",
    "abstractive.request_ms.p50": "ms", "abstractive.request_ms.p95": "ms",
    "abstractive.request_ms.samples": "count", "abstractive.attempts": "count",
    "abstractive.retries": "count", "abstractive.failures": "count",
    "abstractive.truncated_mid_sentence": "count", "abstractive.tokens_sent": "count",
    "abstractive.self_s": "s",
    "evalharness.evaluate_run_s": "s", "evalharness.render_table_s": "s",
    "evalharness.self_s": "s",
    "rouge.lcs_cells": "count", "rouge.lcs_cells_per_s": "cells/s",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_share": "share",
    "trace.unaccounted_s": "s", "trace.unaccounted_share": "share", "trace.spans": "count",
}

TRACED_LAYERS = ("corpus", "preprocess", "selection", "topics", "abstractive", "evalharness")


class BenchError(Exception):
    """The benchmark cannot run here at all: no result is printed."""


def log(message: str) -> None:
    print(message, flush=True)


def program_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PODSELECT_CONFIG", None)
    return env


def run_child(argv: list[str], log_path: Path) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, wall seconds, peak RSS in MB).

    Peak RSS comes from wait4 on the child, which covers it and every
    descendant it waited for (the selection worker processes).
    """
    with open(log_path, "ab") as log_handle:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=program_env(), cwd=ROOT,
                                stdout=log_handle, stderr=log_handle)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def podselect(*args: str) -> list[str]:
    return [sys.executable, "-m", "podselect", *args]


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# --- set-up -------------------------------------------------------------------


def setup_sample(work: Path) -> float:
    """Seconds for a fresh interpreter to import podselect.cli and build its parser."""
    argv = [sys.executable, "-c", "import podselect.cli as c; c.build_parser()"]
    code, wall, _ = run_child(argv, work / "setup.log")
    if code != 0:
        raise BenchError(f"importing podselect.cli failed, see {work / 'setup.log'}")
    return wall


def check_selection_oracle(work: Path, seed: int) -> list[str]:
    """CLI select on a small corpus must equal the exhaustive brute-force picks."""
    records = workloads.generate_check(seed)
    path = work / "check.jsonl"
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records),
                    encoding="utf-8")
    tokens = {r["id"]: [tokens_of(s) for s in oracle.sentences_of(r["transcript"])]
              for r in records}
    errors = []
    for strategy, extra, pick in CHECK_RUNS:
        out = work / f"check_{strategy}.jsonl"
        code, _, _ = run_child(podselect("select", "--input", str(path), "--output", str(out),
                                         "--strategy", strategy, "--jobs", "1", *extra),
                               work / "check.log")
        if code != 0:
            errors.append(f"check select --strategy {strategy} exited {code}")
            continue
        picks = {rec["id"]: rec["indices"] for rec in map(json.loads, out.read_text("utf-8").splitlines())}
        for episode_id, sentence_tokens in tokens.items():
            expected = pick(sentence_tokens)
            if picks.get(episode_id) != expected:
                errors.append(f"check {strategy} {episode_id}: picked {picks.get(episode_id)}, "
                              f"exhaustive rescoring gives {expected}")
    return errors


class Stub:
    """The loopback backend process: started once per run, reset per pipeline run."""

    def __init__(self, work: Path, plan: list[str]):
        plan_path = work / "fault_plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        self._log = open(work / "stub.log", "ab")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub_backend.py"), "--plan", str(plan_path)],
            stdout=subprocess.PIPE, stderr=self._log, text=True)
        line = self.proc.stdout.readline()
        if not line.startswith("port "):
            self.close()
            raise BenchError("stub backend did not start")
        self.endpoint = f"http://127.0.0.1:{int(line.split()[1])}"

    def _call(self, method: str, path: str) -> dict:
        request = urllib.request.Request(self.endpoint + path, method=method,
                                         data=b"" if method == "POST" else None)
        with urllib.request.urlopen(request, timeout=10) as response:
            return json.loads(response.read())

    def reset(self) -> None:
        self._call("POST", "/reset")

    def stats(self) -> dict:
        return self._call("GET", "/stats")

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


# --- one pipeline run and its output check ------------------------------------


class Expected:
    """What a correct pipeline run over this corpus must produce."""

    def __init__(self, spec: workloads.Spec, corpus: workloads.Corpus, plan: list[str]):
        self.spec = spec
        self.corpus = corpus
        self.plan = plan
        by_id = {r["id"]: r for r in corpus.records}
        self.sentences = {i: oracle.sentences_of(by_id[i]["transcript"]) for i in corpus.kept_ids}
        self.costs = {i: [len(tokens_of(s)) for s in sents] for i, sents in self.sentences.items()}


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text("utf-8").splitlines() if line.strip()]


def check_outputs(out: Path, exp: Expected, stub_stats: dict | None) -> list[str]:
    spec, corpus = exp.spec, exp.corpus
    errors = []
    report = json.loads((out / "filter_report.json").read_text("utf-8"))
    if report["reasons"] != corpus.planted or report["kept"] != len(corpus.kept_ids) \
            or report["input"] != len(corpus.records):
        errors.append("filter_report.json does not match the planted rejections")
    if [r["id"] for r in _read_jsonl(out / "kept.jsonl")] != corpus.kept_ids:
        errors.append("kept.jsonl ids differ from the planted keep list")
    if {r["id"] for r in _read_jsonl(out / "split.jsonl")} != set(corpus.kept_ids):
        errors.append("split.jsonl does not cover exactly the kept episodes")

    selections = _read_jsonl(out / "selections.jsonl")
    summaries = {r["id"]: r["summary"] for r in _read_jsonl(out / "summaries.jsonl")}
    if [r["id"] for r in selections] != corpus.kept_ids:
        errors.append("selections.jsonl does not hold one line per kept episode, in order")
    if set(summaries) != set(corpus.kept_ids):
        errors.append("summaries.jsonl does not hold one summary per kept episode")
    for record in selections:
        episode_id, indices = record["id"], record["indices"]
        costs = exp.costs.get(episode_id, [])
        if record["strategy"] != spec.strategy \
                or any(b <= a for a, b in zip(indices, indices[1:])) \
                or not all(0 <= i < len(costs) for i in indices):
            errors.append(f"{episode_id}: indices not sorted, unique and in range")
            continue
        if record["tokens"] != sum(costs[i] for i in indices):
            errors.append(f"{episode_id}: token count {record['tokens']} is wrong")
        if spec.strategy == "none" and indices != oracle.head_pick(costs, BUDGET):
            errors.append(f"{episode_id}: head selection is not the budget prefix")
        if spec.strategy == "topic" and record["tokens"] > BUDGET:
            errors.append(f"{episode_id}: topic selection exceeds the budget")
        capped = oracle.capped_text(exp.sentences[episode_id], indices, BUDGET)
        if len(tokens_of(capped)) > BUDGET:
            errors.append(f"{episode_id}: capped text exceeds the budget")
        if episode_id in corpus.oversized_ids and len(tokens_of(capped)) != BUDGET:
            errors.append(f"{episode_id}: oversized first sentence not cut at the budget")
        expected = capped if spec.backend == "null" else summary_for(capped)
        if episode_id in summaries and summaries[episode_id] != expected:
            errors.append(f"{episode_id}: summary is not the budget-capped selection")
        if stub_stats is not None and stub_stats["tokens"].get(episode_id) != len(capped.split()):
            errors.append(f"{episode_id}: backend received other text than the capped selection")

    rows = json.loads((out / "report.json").read_text("utf-8"))
    if len(rows) != 1 or rows[0]["method"] != spec.strategy or not 0 < rows[0]["rouge_l_f"] <= 100:
        errors.append("report.json is not one row for this strategy with a ROUGE-L F in (0, 100]")

    if stub_stats is not None:
        attempts = stub_stats["attempts"]
        want = {i: 2 if i in exp.plan else 1 for i in corpus.kept_ids}
        if attempts != want or stub_stats["faults"] != len(exp.plan):
            errors.append("backend attempts differ from one per episode plus one per planted 503")
    return errors


def artifact_digest(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def stage_times(out: Path, started_epoch: float) -> dict:
    """Stage wall times from the mtimes of the artifacts each stage renames into place."""
    marks = [started_epoch] + [(out / name).stat().st_mtime for name in
                               ("split.jsonl", "selections.jsonl", "summaries.jsonl", "report.json")]
    names = ("cli.preprocess_s", "cli.select_s", "cli.summarize_s", "cli.evaluate_s")
    return {name: marks[i + 1] - marks[i] for i, name in enumerate(names)}


def pipeline_run(work: Path, input_path: Path, exp: Expected, stub: Stub | None,
                 number: int) -> dict:
    """Run the pipeline once into its own directory; no checks, so runs go back to back."""
    out = work / f"out{number}"
    argv = podselect("pipeline", "--input", str(input_path), "--output", str(out),
                     "--strategy", exp.spec.strategy, "--jobs", str(JOBS),
                     "--seed", str(PIPELINE_SEED), "--format", "json",
                     "--backend", exp.spec.backend)
    if stub is not None:
        stub.reset()
        argv += ["--endpoint", stub.endpoint]
    started_epoch = time.time()
    code, wall, rss_mb = run_child(argv, work / "pipeline.log")
    return {"out": out, "code": code, "wall_s": wall, "peak_rss_mb": rss_mb,
            "started_epoch": started_epoch, "kept": len(exp.corpus.kept_ids),
            "stub": stub.stats() if stub is not None else None}


def inspect_run(run: dict, exp: Expected) -> None:
    """Check one run's artifacts and fill in what it delivered."""
    out = run["out"]
    run.update(delivered=0, errors=[], digest=None, stages={})
    if run["code"] != 0:
        run["errors"].append(f"pipeline exited {run['code']}, see pipeline.log")
        return
    try:
        run["errors"] += check_outputs(out, exp, run["stub"])
        rows = json.loads((out / "report.json").read_text("utf-8"))
        run["rouge_l_f"] = rows[0]["rouge_l_f"]
        run["delivered"] = len(_read_jsonl(out / "summaries.jsonl"))
        run["digest"] = artifact_digest(out)
        run["stages"] = stage_times(out, run["started_epoch"])
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        run["errors"].append(f"unreadable pipeline output: {type(exc).__name__}: {exc}")


# --- traced replay --------------------------------------------------------------


def span_cost_s(rounds: int = 5) -> float:
    """Seconds one span adds to the replay: an empty traced span minus an empty
    untraced one, each the fastest of `rounds` alternating rounds.

    The tracer's whole cost is this per-call bookkeeping. Whole replay passes
    cannot resolve it: a few hundred spans cost well under a millisecond,
    while the same pass repeated on a shared host varies by several percent.
    """
    def per_span(tracer) -> float:
        started = time.perf_counter()
        for _ in range(SPAN_PROBE):
            with tracer.span("probe"):
                pass
        return (time.perf_counter() - started) / SPAN_PROBE

    costs = [(per_span(Tracer()), per_span(NullTracer())) for _ in range(rounds)]
    return min(c[0] for c in costs) - min(c[1] for c in costs)


def traced_metrics(work: Path, input_path: Path, exp: Expected, stub: Stub | None,
                   cli_run: dict, seed: int) -> tuple[dict, list[str]]:
    """Replay the pipeline in-process untraced, then traced; per-layer metrics from the spans."""
    sys.path.insert(0, str(SRC))
    import replay
    from podselect import corpus, rouge
    logging.getLogger("podselect").setLevel(logging.ERROR)  # the planted 503s are expected

    spec = exp.spec
    endpoint = stub.endpoint if stub is not None else None
    errors = []

    def one_pass(tracer):
        if stub is not None:
            stub.reset()
        started = time.perf_counter()
        result = replay.run(input_path, work, spec.strategy, PIPELINE_SEED, tracer, endpoint)
        wall = time.perf_counter() - started
        return wall, result, tracer, stub.stats() if stub is not None else None

    # Untraced and traced replays alternate, and each side keeps its fastest
    # pass: noise from a shared machine only ever adds time. Both sides are
    # timed around the same call.
    passes = [one_pass(tracer) for _ in range(REPLAYS) for tracer in (NullTracer(), Tracer())]
    untraced_wall = min(p[0] for p in passes if isinstance(p[2], NullTracer))
    wall, result, tracer, stub_stats = min((p for p in passes if isinstance(p[2], Tracer)),
                                           key=lambda p: p[0])
    trace_dir = WORK / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_dir / f"{spec.name}-s{seed}.spans.jsonl")

    out = cli_run["out"]
    if result.selections != _read_jsonl(out / "selections.jsonl") \
            or result.summaries != _read_jsonl(out / "summaries.jsonl") \
            or result.report != (out / "report.json").read_text("utf-8"):
        errors.append("traced replay outputs differ from the CLI's artifacts")

    pairs = [([t.text for t in corpus.tokenize(s["summary"])],
              [t.text for t in corpus.tokenize(result.references[s["id"]])])
             for s in result.summaries]
    started = time.perf_counter()
    for candidate, reference in pairs:
        rouge.rouge_l(candidate, reference)
    probe_s = time.perf_counter() - started
    cells = sum(len(c) * len(r) for c, r in pairs)

    spans = tracer.spans
    root = spans[0].duration  # stage.run; the pass also returns its records after it
    own = layer_self_times(spans)
    unaccounted = own.get("stage", 0.0) + wall - root
    totals = name_totals(spans)
    counts = result.counts
    filter_report = result.filter_report

    def total(prefix: str) -> float:
        return sum(v for k, v in totals.items() if k.startswith(prefix))

    def durations_ms(prefix: str) -> list[float]:
        return [s.duration * 1000 for s in spans if s.name.startswith(prefix)]

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    select_ms = durations_ms("selection.")
    request_ms = durations_ms("abstractive.summarize")
    attempts = sum(stub_stats["attempts"].values()) if stub_stats is not None else len(request_ms)
    build_s = totals.get("corpus.build_document", 0.0)
    lda_s = totals.get("topics.fit_lda", 0.0)
    metrics = {
        **cli_run["stages"],
        "corpus.load_episodes_s": totals.get("corpus.load_episodes", 0.0),
        "corpus.build_document_s": build_s,
        "corpus.tokens_per_s": rate(counts["built_tokens"], build_s),
        "corpus.episodes": filter_report["input"],
        "corpus.sentences": counts["sentences"],
        "corpus.tokens": counts["tokens"],
        "corpus.non_ascii_share": workloads.properties(exp.corpus)["non_ascii_share"],
        "preprocess.filter_corpus_s": totals.get("preprocess.filter_corpus", 0.0),
        "preprocess.split_dataset_s": totals.get("preprocess.split_dataset", 0.0),
        "preprocess.kept": filter_report["kept"],
        **{f"preprocess.rejected.{rule}": filter_report["rejected_by_rule"].get(rule, 0)
           for rule in workloads.RULES},
        "selection.select_s": total("selection."),
        "selection.episode_ms.p50": percentile(select_ms, 0.5),
        "selection.episode_ms.p90": percentile(select_ms, 0.9),
        "selection.episode_ms.samples": len(select_ms),
        "selection.windows": counts["windows"],
        "topics.fit_lda_s": lda_s,
        "topics.token_updates": counts["token_updates"],
        "topics.token_updates_per_s": rate(counts["token_updates"], lda_s),
        "topics.select_by_topics_s": totals.get("topics.select_by_topics", 0.0),
        "abstractive.enforce_budget_s": totals.get("abstractive.enforce_budget", 0.0),
        "abstractive.summarize_s": totals.get("abstractive.summarize", 0.0),
        "abstractive.request_ms.p50": percentile(request_ms, 0.5),
        "abstractive.request_ms.p95": percentile(request_ms, 0.95),
        "abstractive.request_ms.samples": len(request_ms),
        "abstractive.attempts": attempts,
        "abstractive.retries": attempts - len(request_ms),
        "abstractive.failures": counts["backend_failures"],
        "abstractive.truncated_mid_sentence": counts["truncated_mid_sentence"],
        "abstractive.tokens_sent": counts["tokens_sent"],
        "evalharness.evaluate_run_s": totals.get("evalharness.evaluate_run", 0.0),
        "evalharness.render_table_s": totals.get("evalharness.render_table", 0.0),
        "rouge.lcs_cells": cells,
        "rouge.lcs_cells_per_s": rate(cells, probe_s),
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_share": len(spans) * span_cost_s() / untraced_wall,
        "trace.unaccounted_s": unaccounted,
        "trace.unaccounted_share": unaccounted / wall,
        "trace.spans": len(spans),
    }
    for layer in TRACED_LAYERS:
        metrics[f"{layer}.self_s"] = own.get(layer, 0.0)
    accounted = sum(own.get(layer, 0.0) for layer in TRACED_LAYERS) + own.get("stage", 0.0)
    if abs(accounted - root) > 1e-6 * max(1.0, root):
        errors.append(f"layer self times sum to {accounted:.6f} s, the root span is {root:.6f} s")
    if stub is not None and metrics["abstractive.retries"] != len(exp.plan):
        errors.append("traced replay retries differ from the planted 503s")
    return metrics, errors


# --- entry point ----------------------------------------------------------------


def result_line(correct: bool, attempted: int, failed: int, values: dict, units: dict) -> str:
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} are not the listed ones")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> tuple[bool, str]:
    if not (SRC / "podselect" / "cli.py").is_file():
        raise BenchError(f"no podselect sources under {SRC}; run from a source checkout")
    spec = workloads.SPECS[workload]
    work = WORK / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    stub = None
    try:
        corpus = workloads.generate(spec, seed)
        input_path = work / "input.jsonl"
        input_path.write_text(corpus.jsonl(), encoding="utf-8")
        props = workloads.properties(corpus)
        log(f"workload {workload} seed {seed}: " + json.dumps(props, sort_keys=True))
        plan = fault_plan(corpus.kept_ids, spec.fault_share, seed) if spec.backend == "remote" else []
        exp = Expected(spec, corpus, plan)

        errors = check_selection_oracle(work, seed)  # also writes bytecode caches
        if spec.backend == "remote":
            stub = Stub(work, plan)

        # Timed runs, each followed by set-up samples, so that both sample the
        # machine's speed over the whole run. Outputs are checked only at the
        # end, leaving no idle gaps between runs.
        runs = []
        setup = []
        started = time.perf_counter()
        while not runs or (not trace and (len(runs) < MIN_REPS
                                          or time.perf_counter() - started < seconds)):
            runs.append(pipeline_run(work, input_path, exp, stub, len(runs)))
            if runs[-1]["code"] != 0:
                break
            if not trace:
                setup += [setup_sample(work) for _ in range(SETUP_SAMPLES)]
        for number, run in enumerate(runs, 1):
            inspect_run(run, exp)
            log(f"run {number}: exit {run['code']} wall {run['wall_s']:.3f} s "
                f"rss {run['peak_rss_mb']:.1f} MB delivered {run['delivered']}/{run['kept']} "
                f"stages {json.dumps(run['stages'])}")
            errors += run["errors"]
        if len({run["digest"] for run in runs}) != 1:
            errors.append("artifacts differ between runs of the same input")

        attempted = sum(run["kept"] for run in runs)
        delivered = sum(run["delivered"] for run in runs)
        if trace:
            if errors:
                values = dict.fromkeys(PER_LAYER, 0.0)
            else:
                values, trace_errors = traced_metrics(work, input_path, exp, stub, runs[0], seed)
                errors += trace_errors
            units = PER_LAYER
        else:
            values = {
                # throughput over the whole timed window rather than a median
                # of runs, which would jump between a shared host's fast and
                # slow phases
                "episodes_per_s": delivered / sum(run["wall_s"] for run in runs),
                "peak_rss_mb": median([run["peak_rss_mb"] for run in runs]),
                "setup_s": median(setup),
                "summarized_share": delivered / attempted,
                "rouge_l_f": runs[0].get("rouge_l_f", 0.0),
            }
            units = END_TO_END
        for error in errors:
            log(f"CHECK FAILED: {error}")
        correct = not errors
        return correct, result_line(correct, attempted, attempted - delivered, values, units)
    finally:
        if stub is not None:
            stub.close()
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops its children and removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        correct, line = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(line, flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
