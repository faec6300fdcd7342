"""Acceptance gate: nine checks the package must pass, each reporting one line.

Every check re-derives its expectation independently (brute-force oracles,
hand-planted fixtures, or repeated runs) rather than trusting the library's
own arithmetic. Lines are collected in ACCEPTANCE_LINES and echoed after the
run by the conftest terminal-summary hook.
"""

import functools
import json
import random
import subprocess
import sys
import time

from podselect.abstractive import enforce_budget
from podselect.errors import MissingReferenceError
from podselect.evalharness import EvalRow, evaluate_run
from podselect.preprocess import filter_corpus
from podselect.corpus import load_episodes
from podselect.rouge import rouge_l, rouge_n
from podselect.selection import (SelectionResult, SelectorConfig, score_windows,
                                 select_novelty, select_window)
from podselect.topics import TopicConfig, fit_lda
from podselect.abstractive import Summary
from conftest import make_doc, random_sentences, sentence_tokens, token_topics
from oracles import (oracle_rouge_avg, oracle_rouge_l, oracle_rouge_n,
                     oracle_window_argmax)

ACCEPTANCE_LINES: list[str] = []


def _record(number: int, name: str, budget_s: float | None = None):
    """Decorator: time the check, enforce the runtime budget, log one line."""
    def wrap(fn):
        @functools.wraps(fn)  # keeps the signature visible to fixture injection
        def run(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - started
                if budget_s is not None:
                    assert elapsed < budget_s, (
                        f"took {elapsed:.1f}s, budget {budget_s:.0f}s")
            except BaseException:
                ACCEPTANCE_LINES.append(f"criterion {number} ({name}): FAIL")
                raise
            ACCEPTANCE_LINES.append(
                f"criterion {number} ({name}): PASS ({elapsed:.1f}s)")
        return run
    return wrap


VOCAB = [f"w{i}" for i in range(25)]


@_record(1, "rouge oracle equivalence", budget_s=10.0)
def test_criterion_1_rouge_matches_brute_force_oracles():
    rng = random.Random(1001)
    for _ in range(200):
        candidate = [rng.choice(VOCAB) for _ in range(rng.randint(0, 200))]
        reference = [rng.choice(VOCAB) for _ in range(rng.randint(0, 200))]
        for n in (1, 2):
            got = rouge_n(candidate, reference, n)
            p, r, f = oracle_rouge_n(candidate, reference, n)
            assert (got.precision, got.recall, got.f1) == (p, r, f)
        got_l = rouge_l(candidate, reference)
        p, r, f = oracle_rouge_l(candidate, reference)
        assert (got_l.precision, got_l.recall, got_l.f1) == (p, r, f)


@_record(2, "window argmax equals exhaustive oracle", budget_s=30.0)
def test_criterion_2_select_window_equals_exhaustive_argmax():
    rng = random.Random(1002)
    for _ in range(50):
        sentence_count = rng.randint(1, 50)
        doc = make_doc(random_sentences(rng, sentence_count, VOCAB,
                                        min_len=2, max_len=4))
        window_size = rng.randint(1, sentence_count + 2)
        result = select_window(doc, SelectorConfig(window_size=window_size))
        start, end = oracle_window_argmax(sentence_tokens(doc), window_size)
        assert result.sentence_indices == tuple(range(start, end))


@_record(3, "closed-form window scores equal brute-force ROUGE", budget_s=30.0)
def test_criterion_3_thousand_random_slides_stay_exact():
    rng = random.Random(1003)
    for _ in range(1000):
        doc = make_doc(random_sentences(rng, rng.randint(1, 20), VOCAB,
                                        min_len=1, max_len=7))
        tokens = sentence_tokens(doc)
        flat = [t for s in tokens for t in s]
        count = len(doc.sentences)
        window_size = rng.randint(1, count + 2)
        rows = score_windows(doc, window_size)
        assert len(rows) == max(1, count - window_size + 1)
        row = rows[rng.randrange(len(rows))]
        assert row.end == min(row.start + window_size, count)
        window = [t for s in tokens[row.start:row.end] for t in s]
        assert row.score == oracle_rouge_avg(window, flat)


@_record(4, "novelty selection contains window and top-k", budget_s=30.0)
def test_criterion_4_novelty_containment_over_random_docs():
    rng = random.Random(1004)
    for _ in range(100):
        doc = make_doc(random_sentences(rng, rng.randint(1, 20), VOCAB))
        window_size = rng.randint(1, 8)
        top_k = rng.randint(0, 6)
        config = SelectorConfig(window_size=window_size, novelty_top_k=top_k)
        result = select_novelty(doc, config)
        base = select_window(doc, SelectorConfig(window_size=window_size))
        tokens = sentence_tokens(doc)
        flat = [t for s in tokens for t in s]
        ranked = sorted(((index, oracle_rouge_avg(s, flat)) for index, s in enumerate(tokens)),
                        key=lambda pair: (-pair[1], pair[0]))
        top = {index for index, _ in ranked[:top_k]}
        indices = result.sentence_indices
        assert set(indices) >= set(base.sentence_indices)
        assert set(indices) >= top
        assert list(indices) == sorted(set(indices))


@_record(5, "planted two-topic corpus recovered", budget_s=20.0)
def test_criterion_5_lda_recovers_planted_topics_for_five_seeds():
    rng = random.Random(1005)
    first_vocab = [f"left{i:02d}" for i in range(20)]
    second_vocab = [f"right{i:02d}" for i in range(20)]
    sentences = []
    token_group = []
    for i in range(40):
        vocab = first_vocab if i % 2 == 0 else second_vocab
        words = [rng.choice(vocab) for _ in range(50)]
        sentences.append(words)
        token_group.extend([i % 2] * len(words))
    doc = make_doc(sentences, episode_id="ep-planted")

    for seed in range(5):
        model = fit_lda(doc, TopicConfig(num_topics=2, gibbs_iterations=200,
                                         burn_in=100, seed=seed))
        for row in model.topic_word:
            assert abs(sum(row) - 1.0) <= 1e-9
        assert abs(sum(model.doc_topic_weight) - 1.0) <= 1e-9
        assignments = token_topics(model, doc)
        majority = {}
        for group in (0, 1):
            votes = [z for z, g in zip(assignments, token_group)
                     if g == group]
            majority[group] = max(set(votes), key=votes.count)
        assert majority[0] != majority[1], f"seed {seed}: topics collapsed"
        agree = sum(1 for z, g in zip(assignments, token_group)
                    if z == majority[g])
        purity = agree / len(assignments)
        assert purity >= 0.9, f"seed {seed}: purity {purity:.3f}"


@_record(6, "token budget never exceeded", budget_s=30.0)
def test_criterion_6_budget_enforced_over_500_random_selections():
    rng = random.Random(1006)
    flagged = 0
    for _ in range(500):
        lengths = [rng.randint(1, 300) for _ in range(rng.randint(1, 10))]
        if rng.random() < 0.1:
            lengths[0] = rng.randint(1025, 2000)  # force the oversize path
        doc = make_doc([[f"t{i}_{j}" for j in range(n)]
                        for i, n in enumerate(lengths)])
        count = rng.randint(1, len(doc.sentences))
        indices = tuple(sorted(rng.sample(range(len(doc.sentences)), count)))
        selection = SelectionResult(
            episode_id="ep", strategy="window", sentence_indices=indices,
            selected_token_count=sum(lengths[i] for i in indices))
        capped = enforce_budget(selection, doc, max_tokens=1024)
        assert capped.token_count <= 1024
        oversize_first = lengths[indices[0]] > 1024
        assert capped.truncated_mid_sentence == oversize_first
        if capped.truncated_mid_sentence:
            flagged += 1
            assert capped.token_count == 1024
    assert flagged > 0, "oversize path never exercised"


EXPECTED_FILTER_REPORT = {
    "input": 12,
    "kept": 6,
    "rejected_by_rule": {
        "desc_too_short": 1,
        "duplicate_description": 1,
        "similar_to_show_description": 1,
        "profanity": 1,
        "non_english": 1,
        "desc_too_few_tokens": 1,
    },
    "reasons": {
        "ep-too-short": "desc_too_short",
        "ep-duplicate": "duplicate_description",
        "ep-show-echo": "similar_to_show_description",
        "ep-profane": "profanity",
        "ep-non-english": "non_english",
        "ep-sparse": "desc_too_few_tokens",
    },
}


@_record(7, "filter fixture yields the exact report")
def test_criterion_7_filter_fixture_exact_report(fixtures_dir):
    episodes = list(load_episodes(fixtures_dir / "filter_fixture.jsonl"))
    kept, report = filter_corpus(episodes)
    assert [e.id for e in kept] == [f"ep-keep-{i:02d}" for i in range(1, 7)]
    assert json.loads(report.to_json()) == EXPECTED_FILTER_REPORT
    by_id = {e.id: e for e in episodes}
    assert len(by_id["ep-keep-06"].description) == 750  # kept at the boundary
    assert len(by_id["ep-too-short"].description) < 20


@_record(8, "pipeline is fast and byte-reproducible")
def test_criterion_8_end_to_end_pipeline_reproducible(fixtures_dir, tmp_path):
    artifact_names = ("kept.jsonl", "filter_report.json", "split.jsonl",
                      "selections.jsonl", "summaries.jsonl", "report.txt")
    outputs = []
    for run in ("one", "two"):
        out_dir = tmp_path / run
        command = [sys.executable, "-m", "podselect", "pipeline",
                   "--input", str(fixtures_dir / "mini_corpus.jsonl"),
                   "--output", str(out_dir),
                   "--strategy", "novelty", "--backend", "null",
                   "--seed", "11", "--jobs", "2"]
        started = time.perf_counter()
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=120)
        elapsed = time.perf_counter() - started
        assert proc.returncode == 0, proc.stderr
        assert elapsed < 60.0, f"run took {elapsed:.1f}s"
        outputs.append({name: (out_dir / name).read_bytes()
                        for name in artifact_names})

    assert outputs[0] == outputs[1], "same seed produced different artifacts"

    report_lines = outputs[0]["report.txt"].decode().splitlines()
    assert report_lines[0].split() == ["method", "rouge_l_p", "rouge_l_r",
                                       "rouge_l_f"]
    label, *values = report_lines[1].split()
    assert label == "novelty"
    assert len(values) == 3
    for value in values:
        assert 0.0 <= float(value) <= 100.0
    assert len(outputs[0]["kept.jsonl"].decode().strip().split("\n")) == 10


@_record(9, "evaluation identity and disjoint anchors")
def test_criterion_9_identity_and_disjoint_scores():
    references = {
        "e1": "a summary about market news and weather",
        "e2": "guests discuss the season finale in depth",
        "e3": "short notes",
    }
    identity = evaluate_run(
        [Summary(k, v, "null") for k, v in references.items()],
        references, method_id="identity")
    assert identity == EvalRow("identity", 100.0, 100.0, 100.0)

    disjoint = evaluate_run(
        [Summary(k, "zz yy xx ww vv", "null") for k in references],
        references, method_id="disjoint")
    assert disjoint == EvalRow("disjoint", 0.0, 0.0, 0.0)
