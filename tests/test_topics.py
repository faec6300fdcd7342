import hashlib
import math
import pickle
import random

import pytest

from podselect.errors import ConfigError, InsufficientContentError
from podselect.selection import SelectorConfig
from podselect.topics import (TopicConfig, TopicModel, fit_and_select, fit_lda,
                              select_by_topics, sentence_topic_relevance)
from conftest import make_doc

FRUIT = [f"fruit{i:02d}" for i in range(20)]
ENGINE = [f"metal{i:02d}" for i in range(20)]


def planted_doc(seed=0, sentences_total=40, tokens_each=50):
    """Two disjoint 20-word vocabularies, interleaved sentence by sentence."""
    rng = random.Random(seed)
    sentences = []
    for i in range(sentences_total):
        vocab = FRUIT if i % 2 == 0 else ENGINE
        sentences.append([rng.choice(vocab) for _ in range(tokens_each)])
    return make_doc(sentences, episode_id="ep-planted")


def fast_config(**overrides):
    defaults = dict(num_topics=2, gibbs_iterations=200, burn_in=100, seed=7)
    defaults.update(overrides)
    return TopicConfig(**defaults)


class TestTopicConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TopicConfig(num_topics=0)
        with pytest.raises(ConfigError):
            TopicConfig(gibbs_iterations=100, burn_in=100)
        with pytest.raises(ConfigError):
            TopicConfig(gibbs_iterations=0)

    def test_immutable_and_pickles_with_its_values(self):
        config = TopicConfig(num_topics=3, seed=9)
        with pytest.raises(AttributeError):
            config.seed = 1
        assert pickle.loads(pickle.dumps(config)) == config
        assert config != TopicConfig(num_topics=3)


class TestFitLda:
    def test_single_topic_degenerates_to_smoothed_unigram(self):
        # with one topic every token stays in topic 0, so the word row is
        # the smoothed empirical distribution: (count + beta) / (T + V*beta)
        doc = make_doc([["a", "b"], ["b"]])
        model = fit_lda(doc, TopicConfig(num_topics=1, gibbs_iterations=10,
                                         burn_in=5, seed=0))
        assert model.num_topics == 1
        assert model.assignments == (0, 0, 0)
        assert model.doc_topic_weight == (1.0,)
        row = model.topic_word[0]
        a, b = model.vocabulary["a"], model.vocabulary["b"]
        assert row[a] == pytest.approx(1.01 / 3.02, abs=1e-12)
        assert row[b] == pytest.approx(2.01 / 3.02, abs=1e-12)
        assert model.oov_probability[0] == pytest.approx(0.01 / 3.02, abs=1e-12)

    def test_short_fit_matches_recorded_digest(self):
        # Three topics over two planted vocabularies leave the topic weights
        # uneven, so they move with alpha (50 / num_topics) and the word rows
        # with beta; with two topics both weights are 0.5 whatever alpha is.
        # Recorded while alpha and beta were TopicConfig fields at these values.
        model = fit_lda(planted_doc(), fast_config(num_topics=3, gibbs_iterations=20,
                                                   burn_in=10))
        fitted = repr((model.topic_word, model.doc_topic_weight, model.assignments))
        assert hashlib.sha256(fitted.encode()).hexdigest() == (
            "7266eba0a3cb8e22945c5eaac0aadd0bde2f51f8cacf5d714a3862185090babf")

    def test_distributions_normalize(self):
        model = fit_lda(planted_doc(), fast_config())
        for row in model.topic_word:
            assert sum(row) == pytest.approx(1.0, abs=1e-9)
        assert sum(model.doc_topic_weight) == pytest.approx(1.0, abs=1e-9)
        assert all(p > 0 for row in model.topic_word for p in row)
        assert all(p > 0 for p in model.oov_probability)

    def test_same_seed_is_deterministic(self):
        doc = planted_doc()
        first = fit_lda(doc, fast_config(seed=13))
        second = fit_lda(doc, fast_config(seed=13))
        assert first == second

    def test_different_seeds_diverge(self):
        doc = planted_doc()
        first = fit_lda(doc, fast_config(seed=0))
        second = fit_lda(doc, fast_config(seed=1))
        assert first.assignments != second.assignments
        assert first.topic_word != second.topic_word

    def test_recovers_planted_split(self):
        doc = planted_doc(seed=3)
        model = fit_lda(doc, fast_config(seed=7))
        token_group = []
        for i, sentence in enumerate(doc.sentences):
            token_group.extend([i % 2] * len(sentence.tokens))
        majority = {}
        for group in (0, 1):
            votes = [z for z, g in zip(model.assignments, token_group) if g == group]
            majority[group] = max(set(votes), key=votes.count)
        assert majority[0] != majority[1]
        agree = sum(1 for z, g in zip(model.assignments, token_group)
                    if z == majority[g])
        assert agree / len(model.assignments) >= 0.9

    def test_too_few_sentences_raises(self):
        # fit_and_select raises it too, even though the document fits the budget
        doc = make_doc([["a", "b"], ["c", "d"]])
        for fit in (fit_lda, fit_and_select):
            with pytest.raises(InsufficientContentError,
                               match="2 sentences cannot support 5 topics$"):
                fit(doc, TopicConfig(num_topics=5))


class TestFitAndSelect:
    def test_binding_budget_fits(self):
        doc = planted_doc(sentences_total=10, tokens_each=10)
        config = fast_config(num_topics=3)
        selector = SelectorConfig(token_budget=doc.total_tokens - 1)
        fitted = select_by_topics(doc, fit_lda(doc, config), selector)
        result = fit_and_select(doc, config, selector)
        assert result == fitted and result.diagnostics == fitted.diagnostics
        assert len(result.sentence_indices) < 10


def hand_model():
    return TopicModel(
        vocabulary={"x": 0, "y": 1, "z": 2},
        topic_word=((0.8, 0.1, 0.1), (0.1, 0.8, 0.1)),
        doc_topic_weight=(0.6, 0.4),
        assignments=(),
        oov_probability=(0.001, 0.002),
        seed=0,
    )


class TestSentenceTopicRelevance:
    def test_mean_log_probability(self):
        doc = make_doc([["x", "y"]])
        rel = sentence_topic_relevance(doc.sentences[0], hand_model(), 0)
        assert rel.score == pytest.approx((math.log(0.8) + math.log(0.1)) / 2, abs=1e-12)
        assert (rel.sentence_index, rel.topic_id) == (0, 0)

    def test_unknown_word_uses_floor(self):
        doc = make_doc([["x", "unseen"]])
        rel = sentence_topic_relevance(doc.sentences[0], hand_model(), 1)
        assert rel.score == pytest.approx((math.log(0.1) + math.log(0.002)) / 2, abs=1e-12)

    def test_duplicating_tokens_leaves_score_unchanged(self):
        model = hand_model()
        short = make_doc([["x", "y"]]).sentences[0]
        doubled = make_doc([["x", "y", "x", "y"]]).sentences[0]
        for topic in (0, 1):
            assert sentence_topic_relevance(short, model, topic).score == pytest.approx(
                sentence_topic_relevance(doubled, model, topic).score, abs=1e-12)

    def test_bad_topic_id_rejected(self):
        doc = make_doc([["x"]])
        with pytest.raises(ValueError):
            sentence_topic_relevance(doc.sentences[0], hand_model(), 2)
        with pytest.raises(ValueError):
            sentence_topic_relevance(doc.sentences[0], hand_model(), -1)

    def test_on_topic_sentence_beats_off_topic_sentence(self):
        doc = planted_doc(seed=5)
        model = fit_lda(doc, fast_config(seed=1))
        fruit_sentence = doc.sentences[0]   # drawn entirely from FRUIT
        metal_sentence = doc.sentences[1]   # drawn entirely from ENGINE
        for topic in range(model.num_topics):
            fruit = sentence_topic_relevance(fruit_sentence, model, topic).score
            metal = sentence_topic_relevance(metal_sentence, model, topic).score
            assert fruit != metal
        best_for_fruit = max(range(2), key=lambda j: sentence_topic_relevance(
            fruit_sentence, model, j).score)
        best_for_metal = max(range(2), key=lambda j: sentence_topic_relevance(
            metal_sentence, model, j).score)
        assert best_for_fruit != best_for_metal

    def test_uniform_corpus_single_topic_ties_everything(self):
        # every word appears once, so the lone topic is uniform over words
        doc = make_doc([["a", "b"], ["c", "d"], ["e", "f"]])
        model = fit_lda(doc, TopicConfig(num_topics=1, gibbs_iterations=5,
                                         burn_in=1, seed=0))
        scores = [sentence_topic_relevance(s, model, 0).score for s in doc.sentences]
        assert scores[0] == pytest.approx(scores[1], abs=1e-12)
        assert scores[1] == pytest.approx(scores[2], abs=1e-12)

    def test_rescaling_rows_preserves_ranking(self):
        doc = make_doc([["x", "x"], ["y", "y"], ["x", "y"], ["z", "z"]])
        base = hand_model()
        scaled = TopicModel(
            vocabulary=base.vocabulary,
            topic_word=tuple(tuple(p * 3.0 for p in row) for row in base.topic_word),
            doc_topic_weight=base.doc_topic_weight,
            assignments=base.assignments,
            oov_probability=tuple(p * 3.0 for p in base.oov_probability),
            seed=base.seed,
        )
        for topic in (0, 1):
            rank = [sentence_topic_relevance(s, base, topic).score for s in doc.sentences]
            rank_scaled = [sentence_topic_relevance(s, scaled, topic).score
                           for s in doc.sentences]
            order = sorted(range(4), key=lambda i: (-rank[i], i))
            order_scaled = sorted(range(4), key=lambda i: (-rank_scaled[i], i))
            assert order == order_scaled


class TestSelectByTopics:
    # relevance order under hand_model: topic 0 ranks [0, 2, 1, 3],
    # topic 1 ranks [1, 2, 0, 3]; topic 0 is heavier so it picks first
    def doc(self):
        return make_doc([["x", "x"], ["y", "y"], ["x", "y"], ["z", "z"]],
                        episode_id="ep-rr")

    def test_round_robin_claims_each_topics_best_first(self):
        result = select_by_topics(self.doc(), hand_model(),
                                  SelectorConfig(token_budget=100))
        assert result.strategy == "topic"
        assert result.diagnostics["topic_order"] == [0, 1]
        assert result.diagnostics["picks"] == [(0, 0), (1, 1), (0, 2), (1, 3)]
        assert result.sentence_indices == (0, 1, 2, 3)
        assert result.selected_token_count == 8

    def test_stops_at_first_overflow(self):
        result = select_by_topics(self.doc(), hand_model(),
                                  SelectorConfig(token_budget=5))
        # third pick would reach 6 tokens, so selection ends at two
        assert result.diagnostics["picks"] == [(0, 0), (1, 1)]
        assert result.sentence_indices == (0, 1)
        assert result.selected_token_count == 4
        assert "budget_too_small" not in result.diagnostics

    def test_budget_below_any_sentence(self):
        result = select_by_topics(self.doc(), hand_model(),
                                  SelectorConfig(token_budget=1))
        assert result.sentence_indices == ()
        assert result.selected_token_count == 0
        assert result.diagnostics["budget_too_small"] is True

    def test_exact_budget_fits(self):
        result = select_by_topics(self.doc(), hand_model(),
                                  SelectorConfig(token_budget=4))
        assert result.sentence_indices == (0, 1)
        assert result.selected_token_count == 4

    def test_single_topic_degenerates_to_relevance_order(self):
        doc = self.doc()
        model = TopicModel(
            vocabulary={"x": 0, "y": 1, "z": 2},
            topic_word=((0.8, 0.15, 0.05),),
            doc_topic_weight=(1.0,),
            assignments=(),
            oov_probability=(0.001,),
            seed=0,
        )
        # relevance order: s0 (x x), s2 (x y), s1 (y y), s3 (z z)
        result = select_by_topics(doc, model, SelectorConfig(token_budget=6))
        assert result.diagnostics["picks"] == [(0, 0), (0, 2), (0, 1)]
        assert result.sentence_indices == (0, 1, 2)

    def test_end_to_end_with_fitted_model(self):
        doc = planted_doc(seed=11)
        model = fit_lda(doc, fast_config(seed=2))
        result = select_by_topics(doc, model, SelectorConfig(token_budget=120))
        assert 0 < result.selected_token_count <= 120
        assert result.sentence_indices == tuple(sorted(set(result.sentence_indices)))
        picked_topics = [topic for topic, _ in result.diagnostics["picks"][:2]]
        assert picked_topics[0] == result.diagnostics["topic_order"][0]
