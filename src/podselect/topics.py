"""Topic-weighted selection backed by a collapsed Gibbs LDA sampler.

Sentences act as the pseudo-documents, so the sampler learns topics at
sentence granularity and selection can ask which sentences best represent
each topic. The sampler is plain Python on purpose: it keeps sampling
deterministic for a fixed seed with no dependency on array library
versions, and at transcript scale it is fast enough.
"""

from __future__ import annotations

import math
import random
from itertools import cycle
from typing import NamedTuple

from .corpus import Document, Frozen, token_texts
from .errors import ConfigError, InsufficientContentError
from .selection import DEFAULT_NUM_TOPICS, SelectionResult, SelectorConfig

BETA = 0.01  # word-topic prior; the topic prior is 50 / num_topics (Griffiths & Steyvers)


class TopicConfig(Frozen):
    """LDA settings, checked when built. Immutable; pickles by its arguments."""

    __slots__ = ("num_topics", "gibbs_iterations", "burn_in", "seed")

    def __init__(self, num_topics: int = DEFAULT_NUM_TOPICS, gibbs_iterations: int = 500,
                 burn_in: int = 300, seed: int = 0):
        if num_topics < 1:
            raise ConfigError(f"num_topics must be >= 1, got {num_topics}")
        if gibbs_iterations < 1:
            raise ConfigError("gibbs_iterations must be >= 1")
        if not 0 <= burn_in < gibbs_iterations:
            raise ConfigError("burn_in must satisfy 0 <= burn_in < gibbs_iterations")
        super().__init__(num_topics, gibbs_iterations, burn_in, seed)


class TopicModel(NamedTuple):
    vocabulary: dict[str, int]
    topic_word: tuple[tuple[float, ...], ...]  # K x V, rows sum to 1
    doc_topic_weight: tuple[float, ...]        # K, sums to 1
    oov_probability: tuple[float, ...]         # per-topic floor for unseen words

    @property
    def num_topics(self) -> int:
        return len(self.topic_word)


def _require_content(doc: Document, num_topics: int) -> None:
    if len(doc.sentences) < num_topics:
        raise InsufficientContentError(
            f"episode {doc.episode_id!r}: {len(doc.sentences)} sentences cannot "
            f"support {num_topics} topics"
        )
    if doc.total_tokens < 1:
        raise InsufficientContentError(f"episode {doc.episode_id!r}: no tokens")


def fit_lda(doc: Document, config: TopicConfig = TopicConfig()) -> TopicModel:
    """Fit topics over a document's sentences by collapsed Gibbs sampling.

    Each token's topic is resampled from counts that exclude the token
    itself; the conditional weight of topic j is

        (n_wj + beta) / (n_j + V * beta) * (n_dj + alpha)

    where n_wj counts the token's word in topic j, n_j the topic size, and
    n_dj the pseudo-document's tokens in topic j. Word and topic
    distributions are estimated from counts averaged over the post-burn-in
    iterations. Deterministic for a fixed config.seed.
    """
    _require_content(doc, config.num_topics)
    num_topics = config.num_topics

    vocabulary: dict[str, int] = {}
    token_word: list[int] = []
    token_doc: list[int] = []
    for d, sentence in enumerate(doc.sentences):
        for token in token_texts(sentence.raw_text):
            word_id = vocabulary.setdefault(token, len(vocabulary))
            token_word.append(word_id)
            token_doc.append(d)

    V = len(vocabulary)
    S = len(doc.sentences)
    T = len(token_word)
    alpha = 50.0 / num_topics
    beta = BETA
    v_beta = V * beta
    K = num_topics

    rng = random.Random(config.seed)
    n_wk = [[0] * K for _ in range(V)]
    n_dk = [[0] * K for _ in range(S)]
    n_k = [0] * K
    z = [0] * T
    for t in range(T):
        k = rng.randrange(K)
        z[t] = k
        n_wk[token_word[t]][k] += 1
        n_dk[token_doc[t]][k] += 1
        n_k[k] += 1

    acc_wk = [[0] * K for _ in range(V)]
    topic_range = range(K)
    weights = [0.0] * K

    for iteration in range(config.gibbs_iterations):
        for t in range(T):
            w = token_word[t]
            d = token_doc[t]
            k = z[t]
            nw = n_wk[w]
            nd = n_dk[d]
            nw[k] -= 1
            nd[k] -= 1
            n_k[k] -= 1
            cumulative = 0.0
            for j in topic_range:
                cumulative += (nw[j] + beta) / (n_k[j] + v_beta) * (nd[j] + alpha)
                weights[j] = cumulative
            draw = rng.random() * cumulative
            k = 0
            while weights[k] < draw:
                k += 1
            z[t] = k
            nw[k] += 1
            nd[k] += 1
            n_k[k] += 1
        if iteration >= config.burn_in:
            for w, k in zip(token_word, z):
                acc_wk[w][k] += 1

    samples = config.gibbs_iterations - config.burn_in
    # each sample adds every token to one topic's column, so a column sums to
    # that topic's size summed over the samples: an exact integer
    acc_k = [sum(row[j] for row in acc_wk) for j in topic_range]

    topic_word_rows: list[tuple[float, ...]] = []
    oov: list[float] = []
    for j in topic_range:
        mean_topic_total = acc_k[j] / samples
        denom = mean_topic_total + v_beta
        topic_word_rows.append(
            tuple((acc_wk[w][j] / samples + beta) / denom for w in range(V))
        )
        oov.append(beta / denom)

    theta_denom = T + K * alpha
    doc_topic = tuple((acc_k[j] / samples + alpha) / theta_denom for j in topic_range)

    return TopicModel(
        vocabulary=vocabulary,
        topic_word=tuple(topic_word_rows),
        doc_topic_weight=doc_topic,
        oov_probability=tuple(oov),
    )


def select_by_topics(doc: Document, model: TopicModel,
                     config: SelectorConfig = SelectorConfig()) -> SelectionResult:
    """Round-robin sentence picks across topics ordered by document weight.

    A sentence's relevance to a topic is the mean log probability of its
    tokens under the topic's word row: the mean keeps long and short
    sentences comparable, and a word the model never saw gets the topic's
    smoothing floor instead of a zero. Raises ValueError for a sentence
    with no tokens.

    Topics take turns (heaviest topic first) claiming their most relevant
    unselected sentence. Selection stops the moment the next pick would
    push the token total past config.token_budget, or when every sentence
    is taken. Ties on relevance go to the lower sentence index; ties on
    topic weight go to the lower topic id.
    """
    budget = config.token_budget
    order = sorted(range(model.num_topics),
                   key=lambda j: (-model.doc_topic_weight[j], j))
    sentence_tokens = [token_texts(sentence.raw_text) for sentence in doc.sentences]
    ranked: dict[int, list[int]] = {}
    for j in order:
        logs = [math.log(p) for p in model.topic_word[j]]
        floor = math.log(model.oov_probability[j])
        scores = []
        for index, tokens in enumerate(sentence_tokens):
            if not tokens:
                raise ValueError(f"sentence {index} has no tokens")
            total = 0.0
            for token in tokens:
                word_id = model.vocabulary.get(token)
                total += logs[word_id] if word_id is not None else floor
            scores.append(total / len(tokens))
        ranked[j] = sorted(range(len(scores)), key=lambda i: (-scores[i], i))

    selected: set[int] = set()
    picks: list[tuple[int, int]] = []  # (topic_id, sentence_index) in pick order
    total = 0
    # every topic ranks every sentence, so one runs dry only once all are taken
    for j, queue in cycle([(j, iter(ranked[j])) for j in order]):
        index = next((i for i in queue if i not in selected), None)
        if index is None:
            break
        cost = doc.sentences[index].token_count
        if total + cost > budget:
            break
        selected.add(index)
        picks.append((j, index))
        total += cost

    diagnostics: dict = {"topic_order": order, "picks": picks}
    if not selected and doc.sentences:
        diagnostics["budget_too_small"] = True
    return SelectionResult(
        episode_id=doc.episode_id,
        strategy="topic",
        sentence_indices=tuple(sorted(selected)),
        selected_token_count=total,
        diagnostics=diagnostics,
    )


def fit_and_select(doc: Document, config: TopicConfig = TopicConfig(),
                   selector: SelectorConfig = SelectorConfig()) -> SelectionResult:
    """select_by_topics over fit_lda, without the fit when it cannot matter.

    When the whole document fits selector.token_budget, the round-robin of
    select_by_topics takes every sentence whatever the topics are (every
    sentence of a built Document has tokens), so every sentence is selected
    without fitting. A document too small for config.num_topics raises the
    same InsufficientContentError as fit_lda either way. The result differs
    from the fitted one only in its diagnostics.
    """
    _require_content(doc, config.num_topics)
    if doc.total_tokens <= selector.token_budget:
        return SelectionResult(
            episode_id=doc.episode_id,
            strategy="topic",
            sentence_indices=tuple(range(len(doc.sentences))),
            selected_token_count=doc.total_tokens,
        )
    return select_by_topics(doc, fit_lda(doc, config), selector)
