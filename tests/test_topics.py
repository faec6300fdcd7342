import hashlib
import itertools
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podselect.errors import ConfigError, InsufficientContentError
from podselect.selection import SelectorConfig
from podselect.topics import TopicConfig, TopicModel, fit_and_select, fit_lda, select_by_topics
from conftest import make_doc, sentence_tokens, token_topics
from oracles import oracle_topic_picks

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
        assert repr(config) == ("TopicConfig(num_topics=3, gibbs_iterations=500, burn_in=300, "
                                "seed=9)")
        # unpickling calls the class, so its checks run again
        invalid = TopicConfig()
        object.__setattr__(invalid, "burn_in", 500)
        with pytest.raises(ConfigError, match="burn_in must satisfy"):
            pickle.loads(pickle.dumps(invalid))


class TestFitLda:
    def test_single_topic_degenerates_to_smoothed_unigram(self):
        # with one topic every token stays in topic 0, so the word row is
        # the smoothed empirical distribution: (count + beta) / (T + V*beta)
        doc = make_doc([["a", "b"], ["b"]])
        model = fit_lda(doc, TopicConfig(num_topics=1, gibbs_iterations=10,
                                         burn_in=5, seed=0))
        assert model.num_topics == 1
        assert token_topics(model, doc) == [0, 0, 0]
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
        # Recorded while alpha and beta were TopicConfig fields at these values,
        # and again, from the same fit, once the model no longer kept the final
        # per-token topics.
        model = fit_lda(planted_doc(), fast_config(num_topics=3, gibbs_iterations=20,
                                                   burn_in=10))
        fitted = repr((model.topic_word, model.doc_topic_weight))
        assert hashlib.sha256(fitted.encode()).hexdigest() == (
            "00d935859e133322a4daa1d4a0a0425561f4a9c34ecd760f95d076b1fd9cf0db")

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
        assert first.doc_topic_weight != second.doc_topic_weight
        assert first.topic_word != second.topic_word

    def test_recovers_planted_split(self):
        doc = planted_doc(seed=3)
        model = fit_lda(doc, fast_config(seed=7))
        token_group = []
        for i, tokens in enumerate(sentence_tokens(doc)):
            token_group.extend([i % 2] * len(tokens))
        assignments = token_topics(model, doc)
        majority = {}
        for group in (0, 1):
            votes = [z for z, g in zip(assignments, token_group) if g == group]
            majority[group] = max(set(votes), key=votes.count)
        assert majority[0] != majority[1]
        agree = sum(1 for z, g in zip(assignments, token_group)
                    if z == majority[g])
        assert agree / len(assignments) >= 0.9

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
        oov_probability=(0.001, 0.002),
    )


def single_topic_model(row, oov=0.001):
    """A one-topic model whose word row is the dict `row`, in insertion order."""
    return TopicModel(
        vocabulary={word: w for w, word in enumerate(row)},
        topic_word=(tuple(row.values()),),
        doc_topic_weight=(1.0,),
        oov_probability=(oov,),
    )


def relevance_order(sentences, model):
    """Sentence indices in the order select_by_topics claims them under a
    one-topic model, with a budget that holds them all: the relevance ranking."""
    doc = make_doc(sentences)
    result = select_by_topics(doc, model, SelectorConfig(token_budget=doc.total_tokens))
    return [index for _, index in result.diagnostics["picks"]]


class TestSentenceTopicRelevance:
    """The relevance rule, seen through the ranking select_by_topics makes.

    A one-word sentence of a probe word with probability p scores log(p), so
    a probe a hair above and a hair below a score pins that score down."""

    @staticmethod
    def assert_scores(tokens, expected, **row):
        for shift, order in ((1e-12, [1, 0]), (-1e-12, [0, 1])):
            probe = math.exp(expected + shift)
            model = single_topic_model({**row, "probe": probe}, oov=0.002)
            assert relevance_order([tokens, ["probe"]], model) == order

    def test_mean_log_probability(self):
        self.assert_scores(["x", "y"], (math.log(0.8) + math.log(0.1)) / 2, x=0.8, y=0.1)

    def test_unknown_word_uses_floor(self):
        self.assert_scores(["x", "unseen"], (math.log(0.1) + math.log(0.002)) / 2, x=0.1)

    def test_duplicating_tokens_leaves_score_unchanged(self):
        # doubling one sentence leaves the ranking as it was; a summed score
        # would drop a doubled ["x", "y"] below ["y", "y"]
        model = single_topic_model({"x": 0.8, "y": 0.15, "z": 0.05})
        sentences = [["x", "x"], ["y", "y"], ["x", "y"], ["z", "z"], ["x", "unseen"]]
        assert relevance_order(sentences, model) == [0, 2, 1, 3, 4]
        for i in range(len(sentences)):
            doubled = [s * 2 if k == i else s for k, s in enumerate(sentences)]
            assert relevance_order(doubled, model) == [0, 2, 1, 3, 4]

    def test_sentence_without_tokens_rejected(self):
        doc = make_doc([["x"], []])
        with pytest.raises(ValueError, match="^sentence 1 has no tokens$"):
            select_by_topics(doc, single_topic_model({"x": 1.0}))

    def test_on_topic_sentence_beats_off_topic_sentence(self):
        # each fitted topic, alone, ranks every sentence of one planted
        # vocabulary ahead of every sentence of the other, and the two topics
        # favour different vocabularies
        doc = planted_doc(seed=5)
        model = fit_lda(doc, fast_config(seed=1))
        sentences = sentence_tokens(doc)
        favoured = set()
        for j in range(model.num_topics):
            alone = model._replace(topic_word=(model.topic_word[j],), doc_topic_weight=(1.0,),
                                   oov_probability=(model.oov_probability[j],))
            parities = [i % 2 for i in relevance_order(sentences, alone)]
            assert parities == [parities[0]] * 20 + [1 - parities[0]] * 20
            favoured.add(parities[0])
        assert favoured == {0, 1}

    def test_uniform_corpus_single_topic_ties_everything(self):
        # every word appears once, so the lone topic is uniform over words and
        # index order breaks the tie, however the sentences are arranged
        for arrangement in itertools.permutations([["a", "b"], ["c", "d"], ["e", "f"]]):
            doc = make_doc(list(arrangement))
            model = fit_lda(doc, TopicConfig(num_topics=1, gibbs_iterations=5,
                                             burn_in=1, seed=0))
            assert relevance_order(list(arrangement), model) == [0, 1, 2]

    def test_rescaling_rows_preserves_ranking(self):
        sentences = [["x", "x"], ["y", "y"], ["x", "y"], ["z", "z"], ["unseen"]]
        row = {"x": 0.8, "y": 0.15, "z": 0.05}
        base = single_topic_model(row, oov=0.001)
        scaled = single_topic_model({w: p * 3.0 for w, p in row.items()}, oov=0.003)
        assert relevance_order(sentences, base) == [0, 2, 1, 3, 4]
        assert relevance_order(sentences, scaled) == [0, 2, 1, 3, 4]


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
            oov_probability=(0.001,),
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


def tied_model(rng):
    """A hand-built model over few distinct probabilities and weights, so
    topic weights and sentence relevances tie often."""
    num_topics = rng.randint(1, 4)
    vocabulary = {word: w for w, word in enumerate("abcde"[:rng.randint(1, 5)])}
    return TopicModel(
        vocabulary=vocabulary,
        topic_word=tuple(tuple(rng.choice([0.05, 0.1, 0.2, 0.4]) for _ in vocabulary)
                         for _ in range(num_topics)),
        doc_topic_weight=tuple(rng.choice([0.2, 0.3, 0.5]) for _ in range(num_topics)),
        oov_probability=tuple(rng.choice([0.001, 0.05]) for _ in range(num_topics)),
    )


class TestSelectByTopicsOracle:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_rescanning_oracle_at_every_budget(self, seed):
        rng = random.Random(seed)
        model = tied_model(rng)
        words = list(model.vocabulary) + ["unseen"]
        doc = make_doc([rng.choices(words, k=rng.randint(1, 4))
                        for _ in range(rng.randint(1, 8))])
        tokens = sentence_tokens(doc)
        for budget in range(1, doc.total_tokens + 2):
            result = select_by_topics(doc, model, SelectorConfig(token_budget=budget))
            want = oracle_topic_picks(tokens, model.vocabulary, model.topic_word,
                                      model.doc_topic_weight, model.oov_probability, budget)
            assert result.sentence_indices == want["sentence_indices"]
            assert result.selected_token_count == want["selected_token_count"]
            assert result.diagnostics["picks"] == want["picks"]
            assert result.diagnostics["topic_order"] == want["topic_order"]
            assert result.diagnostics.get("budget_too_small", False) == \
                want["budget_too_small"]
