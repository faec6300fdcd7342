#!/usr/bin/env python3
"""Per-layer timings of podselect's text kernels, selectors, filter, cap and record I/O, in-process.

    python tools/bench.py --seed 101 --repeat 25 --output bench.json

Run from the root of a source checkout; it imports podselect from src/ and
builds its corpora with perfbench/workloads.py: the head-corpus workload,
and a transcript-scale one (550-650 sentences of 8-16 words per episode).
For each it times, best of --repeat: filter_corpus over the generated
episodes, and over the episodes it keeps, segment_spans over every
transcript, build_document on the prefix the head baseline reads at the
default budget and on the whole transcript, token_texts over the null
backend's summaries and their references, and lcs_length on those token
pairs, the shape evaluate scores. At transcript scale it also times the
selectors on documents built beforehand: the window and novelty picks over
whole documents, the head pick over the budget prefixes, and one fit_lda of
FIT_SWEEPS sweeps on the first document, reported per sweep; then
enforce_budget over the window picks, and write_records and read_records
over the generated records, through a temporary file. Every input is built
outside the timed calls. It writes one JSON object to --output.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from collections import deque
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from podselect.abstractive import enforce_budget  # noqa: E402
from podselect.corpus import (Episode, build_document, read_records, segment_spans,  # noqa: E402
                              token_texts, write_records)
from podselect.preprocess import filter_corpus  # noqa: E402
from podselect.rouge import lcs_length  # noqa: E402
from podselect.selection import (DEFAULT_TOKEN_BUDGET, select_head, select_novelty,  # noqa: E402
                                 select_window)
from podselect.topics import TopicConfig, fit_lda  # noqa: E402

TRANSCRIPT_SCALE = workloads.Spec("transcript-scale", "none", "null", kept=20,
                                  sentences=(550, 650), words=(8, 16), non_ascii_share=0.25)
SPECS = (workloads.SPECS["head-corpus"], TRANSCRIPT_SCALE)
FIT_SWEEPS = 20


def best_ms(repeat: int, work) -> float:
    """The fastest of repeat calls of work(), in milliseconds."""
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - started)
    return round(best * 1000, 3)


def measure(spec: workloads.Spec, seed: int, repeat: int) -> dict:
    records = workloads.generate(spec, seed).records
    episodes = [Episode.from_record(record) for record in records]
    kept, report = filter_corpus(episodes)
    transcripts = [episode.transcript_text for episode in kept]
    pairs = []
    for episode in kept:
        doc = build_document(episode, DEFAULT_TOKEN_BUDGET)
        summary = enforce_budget(select_head(doc, DEFAULT_TOKEN_BUDGET), doc).text
        pairs.append((summary, report.cleaned_descriptions[episode.id]))
    token_pairs = [(token_texts(summary), token_texts(reference))
                   for summary, reference in pairs]
    return {
        "episodes": len(kept),
        "transcript_chars": sum(map(len, transcripts)),
        "summary_tokens": sum(len(candidate) for candidate, _ in token_pairs),
        "reference_tokens": sum(len(reference) for _, reference in token_pairs),
        "filter_corpus_ms": best_ms(repeat, lambda: filter_corpus(episodes)),
        "segment_spans_ms": best_ms(repeat, lambda: [deque(segment_spans(text), 0)
                                                     for text in transcripts]),
        "build_document_prefix_ms": best_ms(repeat, lambda: [
            build_document(episode, DEFAULT_TOKEN_BUDGET) for episode in kept]),
        "build_document_full_ms": best_ms(repeat, lambda: [build_document(episode)
                                                           for episode in kept]),
        "token_texts_ms": best_ms(repeat, lambda: [(token_texts(summary), token_texts(reference))
                                                   for summary, reference in pairs]),
        "lcs_length_ms": best_ms(repeat, lambda: [lcs_length(candidate, reference)
                                                  for candidate, reference in token_pairs]),
        **(measure_transcript_scale(records, kept, repeat) if spec is TRANSCRIPT_SCALE else {}),
    }


def measure_transcript_scale(records: list[dict], kept: list[Episode], repeat: int) -> dict:
    """The selectors and the cap over documents built outside the timed calls,
    and the JSONL record I/O over the generated records."""
    whole = [build_document(episode) for episode in kept]
    prefixes = [build_document(episode, DEFAULT_TOKEN_BUDGET) for episode in kept]
    config = TopicConfig(gibbs_iterations=FIT_SWEEPS, burn_in=0)
    picks = [(select_window(doc), doc) for doc in whole]
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "records.jsonl"

        def write():
            with open(path, "w", encoding="utf-8", newline="") as handle:
                write_records(handle, records)

        write_ms = best_ms(repeat, write)
        read_ms = best_ms(repeat, lambda: deque(read_records(path, lambda record, _: record), 0))
        record_bytes = path.stat().st_size
    return {
        "transcript_tokens": sum(doc.total_tokens for doc in whole),
        "prefix_tokens": sum(doc.total_tokens for doc in prefixes),
        "fit_tokens": whole[0].total_tokens,
        "select_window_ms": best_ms(repeat, lambda: [select_window(doc) for doc in whole]),
        "select_novelty_ms": best_ms(repeat, lambda: [select_novelty(doc) for doc in whole]),
        "select_head_ms": best_ms(repeat, lambda: [select_head(doc) for doc in prefixes]),
        "fit_lda_sweep_ms": round(best_ms(repeat, lambda: fit_lda(whole[0], config))
                                  / FIT_SWEEPS, 3),
        "enforce_budget_ms": best_ms(repeat, lambda: [enforce_budget(pick, doc)
                                                      for pick, doc in picks]),
        "record_bytes": record_bytes,
        "write_records_ms": write_ms,
        "read_records_ms": read_ms,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=101, help="workload seed (default 101)")
    parser.add_argument("--repeat", type=int, default=25, help="timed calls per layer; the best counts")
    parser.add_argument("--output", required=True, help="path of the JSON written")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    result = {
        "python": platform.python_version(),
        "seed": args.seed,
        "repeat": args.repeat,
        "workloads": {spec.name: measure(spec, args.seed, args.repeat) for spec in SPECS},
    }
    Path(args.output).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
