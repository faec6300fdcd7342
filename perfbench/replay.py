"""Serial, in-process replay of ``podselect pipeline`` for the traced run.

Calls podselect's public functions in the order the CLI calls them
(corpus -> preprocess -> selection/topics -> abstractive -> evalharness),
one span around each call, with the same settings the CLI resolves by
default. Like the CLI it writes kept.jsonl and reads it back in each later
stage, and builds every document once in select and again in summarize.
Nothing under src/ is instrumented. The caller puts src/ on sys.path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from podselect import abstractive, corpus, evalharness, preprocess, selection, topics
from podselect.cli import _derive_seed
from podselect.errors import BackendError


@dataclass
class ReplayResult:
    selections: list[dict]
    summaries: list[dict]
    report: str
    filter_report: dict
    counts: dict
    references: dict[str, str]   # episode id -> cleaned description


def _build(tracer, episode, counts) -> corpus.Document:
    with tracer.span("corpus.build_document", episode.id):
        doc = corpus.build_document(episode)
    counts["built_tokens"] += doc.total_tokens
    return doc


def _select(tracer, strategy: str, doc, seed: int, counts) -> selection.SelectionResult:
    config = selection.SelectorConfig()
    trace_id = doc.episode_id
    if strategy == "topic":
        topic_config = topics.TopicConfig(seed=_derive_seed(seed, doc.episode_id))
        with tracer.span("topics.fit_lda", trace_id):
            model = topics.fit_lda(doc, topic_config)
        counts["token_updates"] += doc.total_tokens * topic_config.gibbs_iterations
        with tracer.span("topics.select_by_topics", trace_id):
            return topics.select_by_topics(doc, model, config)
    if strategy == "none":
        with tracer.span("selection.select_head", trace_id):
            return selection.select_head(doc, config.token_budget)
    select = selection.select_novelty if strategy == "novelty" else selection.select_window
    with tracer.span(f"selection.{select.__name__}", trace_id):
        result = select(doc, config)
    counts["windows"] += len(result.diagnostics.get("window_scores", ()))
    return result


def run(input_path, work_dir, strategy: str, seed: int, tracer, endpoint=None) -> ReplayResult:
    budget = selection.DEFAULT_TOKEN_BUDGET
    counts = {"built_tokens": 0, "windows": 0, "token_updates": 0, "sentences": 0,
              "tokens": 0, "truncated_mid_sentence": 0, "tokens_sent": 0,
              "backend_failures": 0}
    kept_path = work_dir / "replay_kept.jsonl"
    with tracer.span("stage.run"):
        with tracer.span("stage.preprocess"):
            with tracer.span("corpus.load_episodes"):
                episodes = list(corpus.load_episodes(input_path, errors=[]))
            with tracer.span("preprocess.filter_corpus"):
                kept, report = preprocess.filter_corpus(episodes, preprocess.FilterConfig())
            with tracer.span("corpus.write_episodes"):
                with open(kept_path, "w", encoding="utf-8", newline="") as handle:
                    corpus.write_episodes(kept, handle)
            with tracer.span("preprocess.split_dataset"):
                preprocess.split_dataset([e.id for e in kept], seed=seed).to_jsonl()
        filter_report = json.loads(report.to_json())

        with tracer.span("stage.select"):
            with tracer.span("corpus.load_episodes"):
                kept = list(corpus.load_episodes(kept_path, errors=[]))
            selections = []
            for episode in kept:
                doc = _build(tracer, episode, counts)
                counts["sentences"] += len(doc.sentences)
                counts["tokens"] += doc.total_tokens
                selections.append(_select(tracer, strategy, doc, seed, counts))

        with tracer.span("stage.summarize"):
            with tracer.span("corpus.load_episodes"):
                kept = list(corpus.load_episodes(kept_path, errors=[]))
            documents = {episode.id: _build(tracer, episode, counts) for episode in kept}
            inputs = []
            for result in selections:
                with tracer.span("abstractive.enforce_budget", result.episode_id):
                    capped = abstractive.enforce_budget(result, documents[result.episode_id], budget)
                counts["truncated_mid_sentence"] += capped.truncated_mid_sentence
                counts["tokens_sent"] += capped.token_count
                inputs.append(capped)
            backend = (abstractive.RemoteBackend(endpoint) if endpoint
                       else abstractive.NullBackend())
            summaries = []
            for capped in inputs:
                # like the CLI, an episode whose backend retries run out is
                # left without a summary and the run goes on
                try:
                    with tracer.span("abstractive.summarize", capped.episode_id):
                        summaries.append(abstractive.summarize(capped, backend,
                                                               max_length=budget))
                except BackendError:
                    counts["backend_failures"] += 1

        with tracer.span("stage.evaluate"):
            with tracer.span("corpus.load_episodes"):
                kept = list(corpus.load_episodes(kept_path, errors=[]))
            references = {}
            for episode in kept:
                with tracer.span("preprocess.clean_description", episode.id):
                    references[episode.id] = preprocess.clean_description(episode.description)
            with tracer.span("evalharness.evaluate_run"):
                row = evalharness.evaluate_run(summaries, references, strategy)
            with tracer.span("evalharness.render_table"):
                rendered = evalharness.render_table([row], "json")

    return ReplayResult(
        selections=[r.to_record() for r in selections],
        summaries=[s.to_record() for s in summaries],
        report=rendered,
        filter_report=filter_report,
        counts=counts,
        references=references,
    )
