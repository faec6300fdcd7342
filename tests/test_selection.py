import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podselect import selection, topics
from podselect.errors import ConfigError
from podselect.selection import (DEFAULT_WINDOW_SIZE, NOVELTY_WINDOW_SIZE, SelectionResult,
                                 SelectorConfig, WindowScore, score_windows, select_head,
                                 select_novelty, select_window)
from conftest import make_doc, random_sentences, sentence_tokens
from oracles import (oracle_rouge_avg, oracle_rouge_n, oracle_window_argmax,
                     oracle_window_scores)

VOCAB = ["the", "a", "market", "update", "stocks", "bonds", "rise", "fall",
         "today", "weather", "mild", "sports", "news", "host", "guest"]


def random_doc(rng, max_sentences=12):
    count = rng.randint(1, max_sentences)
    return make_doc(random_sentences(rng, count, VOCAB))


class TestScoreWindows:
    def test_five_sentences_window_two(self):
        words = [["a", "b"], ["c", "d"], ["e", "f"], ["a", "c"], ["b", "e"]]
        doc = make_doc(words)
        got = score_windows(doc, window_size=2)
        expected = oracle_window_scores([list(s) for s in words], 2)
        assert len(got) == 4
        for row, (start, end, score) in zip(got, expected):
            assert (row.start, row.end) == (start, end)
            assert row.score == score

    def test_random_docs_match_oracle_exactly(self):
        rng = random.Random(23)
        for _ in range(30):
            doc = random_doc(rng)
            w = rng.randint(1, len(doc.sentences) + 2)
            got = score_windows(doc, w)
            expected = oracle_window_scores(sentence_tokens(doc), w)
            assert [(r.start, r.end, r.score) for r in got] == expected

    def test_short_doc_single_perfect_window(self):
        doc = make_doc([["a", "b"], ["c", "d"]])
        got = score_windows(doc, window_size=5)
        assert len(got) == 1
        assert (got[0].start, got[0].end) == (0, 2)
        assert got[0].score == 1.0

    def test_without_rouge_l_component(self):
        # the ROUGE-1/2 mean alone picks the same window as the full score
        rng = random.Random(29)
        for _ in range(30):
            doc = random_doc(rng)
            w = rng.randint(1, len(doc.sentences) + 1)
            tokens = sentence_tokens(doc)
            flat = [t for s in tokens for t in s]
            best = None
            for row in score_windows(doc, w):
                cand = [t for s in tokens[row.start:row.end] for t in s]
                partial = (oracle_rouge_n(cand, flat, 1)[2]
                           + oracle_rouge_n(cand, flat, 2)[2]) / 2
                if best is None or partial > best[0]:
                    best = (partial, row.start, row.end)
            result = select_window(doc, SelectorConfig(window_size=w))
            assert result.sentence_indices == tuple(range(best[1], best[2]))

    def test_empty_doc_rejected(self):
        doc = make_doc([["a"]])._replace(sentences=())
        with pytest.raises(ConfigError):
            score_windows(doc, 2)


class TestSelectWindow:
    def test_dense_middle_wins(self):
        # sentences 2-3 hold 12 of 20 tokens, all distinct
        doc = make_doc([
            ["a", "b"],
            ["c", "d"],
            ["e", "f", "g", "h", "i", "j"],
            ["k", "l", "m", "n", "o", "p"],
            ["q", "r"],
        ])
        result = select_window(doc, SelectorConfig(window_size=2))
        assert result.strategy == "window"
        assert result.sentence_indices == (2, 3)
        assert result.selected_token_count == 12

    def test_matches_exhaustive_argmax(self):
        rng = random.Random(31)
        for _ in range(40):
            doc = random_doc(rng)
            w = rng.randint(1, len(doc.sentences) + 1)
            result = select_window(doc, SelectorConfig(window_size=w))
            start, end = oracle_window_argmax(sentence_tokens(doc), w)
            assert result.sentence_indices == tuple(range(start, end))

    def test_picks_window_with_most_tokens(self):
        rng = random.Random(43)
        for _ in range(40):
            doc = random_doc(rng)
            w = rng.randint(1, len(doc.sentences) + 1)
            lengths = [len(s) for s in sentence_tokens(doc)]
            starts = range(max(1, len(lengths) - w + 1))
            start = max(starts, key=lambda i: (sum(lengths[i:i + w]), -i))
            result = select_window(doc, SelectorConfig(window_size=w))
            assert result.sentence_indices == tuple(range(start, min(start + w, len(lengths))))

    def test_tie_goes_to_lowest_start(self):
        doc = make_doc([["a", "b"], ["a", "b"], ["a", "b"]])
        result = select_window(doc, SelectorConfig(window_size=1))
        assert result.sentence_indices == (0,)

    def test_diagnostics_carry_all_windows(self):
        doc = make_doc([["a"], ["b"], ["c"], ["d"]])
        result = select_window(doc, SelectorConfig(window_size=2))
        assert result.diagnostics == {"window_size": 2}
        scores = score_windows(doc, 2)
        assert len(scores) == 3
        assert result.to_record(doc)["window_scores"] == [list(row) for row in scores]
        best = max(scores, key=lambda row: row.score)
        assert result.sentence_indices == tuple(range(best.start, best.end))

    def test_to_record_shape(self):
        doc = make_doc([["a", "b"], ["c", "d"]], episode_id="ep-9")
        result = select_window(doc, SelectorConfig(window_size=1))
        record = result.to_record()
        assert record == {"id": "ep-9", "strategy": "window",
                          "indices": list(result.sentence_indices),
                          "tokens": result.selected_token_count}
        with_diag = result.to_record(doc)
        expected = oracle_window_scores(sentence_tokens(doc), 1)
        assert with_diag == {**record, "window_scores": [list(row) for row in expected]}

    @given(st.builds(SelectionResult, st.text(), st.text(),
                     st.lists(st.integers(), unique=True).map(sorted).map(tuple),
                     st.integers()))
    def test_from_record_reads_to_record_back(self, result):
        # to_record writes no diagnostics, so none are read back
        assert SelectionResult.from_record(result.to_record()) == result._replace(diagnostics=None)

    def test_from_record_defaults(self):
        """Only 'strategy' has a default; 'tokens', which to_record always
        writes, is required like 'id' and 'indices'."""
        result = SelectionResult.from_record({"id": "ep", "indices": [0, 2], "tokens": 5})
        assert result == SelectionResult("ep", "window", (0, 2), 5)
        for key in ("id", "indices", "tokens"):
            record = {"id": "ep", "indices": [0, 2], "tokens": 5}
            del record[key]
            with pytest.raises(KeyError, match=key):
                SelectionResult.from_record(record)

    def test_picks_without_scoring(self, monkeypatch):
        def no_score(*args):
            raise AssertionError("a pick scored its windows")

        monkeypatch.setattr(selection, "score_windows", no_score)
        monkeypatch.setattr(selection, "_self_score", no_score)
        rng = random.Random(53)
        for _ in range(40):
            doc = random_doc(rng)
            w = rng.randint(1, len(doc.sentences) + 1)
            top_k = rng.randint(0, 3)
            tokens = sentence_tokens(doc)
            start, end = oracle_window_argmax(tokens, w)
            longest = sorted(range(len(tokens)), key=lambda i: (-len(tokens[i]), i))[:top_k]
            config = SelectorConfig(window_size=w, novelty_top_k=top_k)
            assert select_window(doc, config).sentence_indices == tuple(range(start, end))
            assert select_novelty(doc, config).sentence_indices == tuple(
                sorted(set(range(start, end)) | set(longest)))

    # few words, short sentences: many windows tie on their token count
    @given(st.lists(st.lists(st.sampled_from(VOCAB[:3]), min_size=1, max_size=3),
                    min_size=1, max_size=10), st.data())
    @settings(max_examples=60, deadline=None)
    def test_pick_is_first_best_score_and_records_rescore(self, words, data):
        doc = make_doc(words)
        w = data.draw(st.integers(1, len(words) + 2))
        best = max(score_windows(doc, w), key=lambda row: row.score)
        picked = select_window(doc, SelectorConfig(window_size=w))
        assert picked.sentence_indices == tuple(range(best.start, best.end))
        assert picked.selected_token_count == sum(map(len, words[best.start:best.end]))
        for select, default in ((select_window, DEFAULT_WINDOW_SIZE),
                                (select_novelty, NOVELTY_WINDOW_SIZE)):
            for size in (None, w):
                result = select(doc, SelectorConfig(window_size=size))
                rows = [list(row) for row in score_windows(doc, size or default)]
                assert result.to_record(doc)["window_scores"] == rows
                assert "window_scores" not in result.to_record()
        budget = data.draw(st.integers(1, doc.total_tokens + 1))
        unscored = [select_head(doc, budget),
                    topics.fit_and_select(doc, topics.TopicConfig(1, 4, 1),
                                          SelectorConfig(token_budget=budget))]
        for result in unscored:
            assert "window_scores" not in result.to_record(doc)


class TestScoreSingleSentences:
    """Windows of one sentence: each sentence scored alone against the document."""

    def test_single_sentence_doc_scores_one(self):
        doc = make_doc([["a", "b", "c"]])
        assert score_windows(doc, 1) == [WindowScore(0, 1, 1.0)]

    def test_matches_direct_computation(self):
        rng = random.Random(37)
        for _ in range(30):
            doc = random_doc(rng)
            tokens = sentence_tokens(doc)
            flat = [t for s in tokens for t in s]
            rows = score_windows(doc, 1)
            assert [(row.start, row.end) for row in rows] == [
                (i, i + 1) for i in range(len(doc.sentences))]
            for row in rows:
                assert row.score == oracle_rouge_avg(tokens[row.start], flat)


class TestSelectNovelty:
    def test_merges_window_and_top_singles(self):
        rng = random.Random(41)
        for _ in range(25):
            doc = random_doc(rng)
            config = SelectorConfig(window_size=2, novelty_top_k=2)
            result = select_novelty(doc, config)
            base = select_window(doc, SelectorConfig(window_size=2))
            tokens = sentence_tokens(doc)
            flat = [t for s in tokens for t in s]
            singles = [(index, oracle_rouge_avg(s, flat)) for index, s in enumerate(tokens)]
            ranked = sorted(singles, key=lambda pair: (-pair[1], pair[0]))
            top = {index for index, _ in ranked[:2]}
            expected = tuple(sorted(set(base.sentence_indices) | top))
            assert result.sentence_indices == expected
            assert result.strategy == "novelty"
            assert result.selected_token_count == sum(len(tokens[i]) for i in expected)

    def test_top_singles_are_longest_sentences(self):
        rng = random.Random(47)
        for _ in range(40):
            doc = random_doc(rng)
            top_k = rng.randint(0, 4)
            result = select_novelty(doc, SelectorConfig(window_size=2, novelty_top_k=top_k))
            tokens = sentence_tokens(doc)
            longest = sorted(range(len(tokens)), key=lambda i: (-len(tokens[i]), i))
            assert result.diagnostics["top_k"] == longest[:top_k]

    def test_outlier_summary_sentence_joins_selection(self):
        # best 2-window sits in sentences 0-1; sentence 4 echoes the most
        # frequent words and outranks any other single sentence
        doc = make_doc([
            ["market", "update", "stocks", "rise", "today"],
            ["market", "update", "bonds", "fall", "today"],
            ["weather", "stays", "mild"],
            ["sports", "scores", "follow"],
            ["market", "update", "stocks", "bonds", "today", "weather", "sports"],
        ])
        result = select_novelty(doc, SelectorConfig(window_size=2, novelty_top_k=1))
        top_single = result.diagnostics["top_k"]
        assert top_single == [4]
        start, end, _ = max(result.to_record(doc)["window_scores"], key=lambda row: row[2])
        window_range = set(range(start, end))
        assert 4 not in window_range
        assert 4 in result.sentence_indices
        assert set(result.sentence_indices) == window_range | {4}

    def test_top_k_zero_reduces_to_window(self):
        doc = make_doc([["a", "b"], ["c", "d"], ["a", "c"]])
        result = select_novelty(doc, SelectorConfig(window_size=2, novelty_top_k=0))
        base = select_window(doc, SelectorConfig(window_size=2))
        assert result.sentence_indices == base.sentence_indices

    def test_top_k_beyond_doc_selects_everything(self):
        doc = make_doc([["a", "b"], ["c", "d"], ["e", "f"]])
        result = select_novelty(doc, SelectorConfig(window_size=1, novelty_top_k=50))
        assert result.sentence_indices == (0, 1, 2)

    def test_default_window_size_is_25(self):
        rng = random.Random(5)
        doc = make_doc(random_sentences(rng, 30, VOCAB))
        result = select_novelty(doc, SelectorConfig(novelty_top_k=0))
        base = select_window(doc, SelectorConfig(window_size=25))
        assert result.sentence_indices == base.sentence_indices
        assert len(base.sentence_indices) == 25


class TestSelectHead:
    def test_budget_crossing_sentence_included(self):
        doc = make_doc([["a", "b", "c"], ["d", "e", "f"], ["g", "h", "i"], ["j", "k", "l"]])
        result = select_head(doc, token_budget=5)
        assert result.strategy == "none"
        assert result.sentence_indices == (0, 1)
        assert result.selected_token_count == 6

    def test_budget_at_exact_boundary(self):
        doc = make_doc([["a", "b", "c"], ["d", "e", "f"], ["g", "h", "i"]])
        result = select_head(doc, token_budget=6)
        assert result.sentence_indices == (0, 1)
        assert result.selected_token_count == 6

    def test_budget_beyond_doc_takes_all(self):
        doc = make_doc([["a", "b"], ["c", "d"]])
        result = select_head(doc, token_budget=100)
        assert result.sentence_indices == (0, 1)
        assert result.selected_token_count == 4

    def test_tiny_budget_takes_first_sentence(self):
        doc = make_doc([["a", "b", "c"], ["d"]])
        result = select_head(doc, token_budget=1)
        assert result.sentence_indices == (0,)

    def test_invalid_budget_rejected(self):
        doc = make_doc([["a"]])
        with pytest.raises(ConfigError):
            select_head(doc, token_budget=0)


class TestSelectorConfig:
    def test_validation(self):
        # the function that reads a value refuses it, and a zero window_size is
        # not read as the strategy default; test_topics.py checks the topic strategy
        doc = make_doc([["a", "b"], ["c"]])
        for select in (select_window, select_novelty):
            for size in (0, -1):
                with pytest.raises(ConfigError, match=f"^window_size must be >= 1, got {size}$"):
                    select(doc, SelectorConfig(window_size=size))
        with pytest.raises(ConfigError, match="^novelty_top_k must be >= 0, got -1$"):
            select_novelty(doc, SelectorConfig(novelty_top_k=-1))
        with pytest.raises(ConfigError, match="^token_budget must be >= 1, got 0$"):
            select_head(doc, SelectorConfig(token_budget=0).token_budget)

    def test_immutable_and_pickles_with_its_values(self):
        config = SelectorConfig(window_size=3, novelty_top_k=2, token_budget=50)
        with pytest.raises(AttributeError):
            config.token_budget = 10
        assert pickle.loads(pickle.dumps(config)) == config
        assert config != SelectorConfig(window_size=3, novelty_top_k=2)
        assert hash(config) == hash(SelectorConfig(3, 2, 50))
        assert repr(config) == "SelectorConfig(window_size=3, novelty_top_k=2, token_budget=50)"


class TestSelectionResult:
    def test_diagnostics_count_in_equality(self):
        plain = SelectionResult("ep", "window", (0, 1), 7)
        diagnosed = SelectionResult("ep", "window", (0, 1), 7, diagnostics={"best": 1})
        assert plain.diagnostics is None
        assert plain != diagnosed
        assert diagnosed == SelectionResult("ep", "window", (0, 1), 7, diagnostics={"best": 1})
        assert diagnosed != SelectionResult("ep", "window", (0, 1), 7, diagnostics={"best": 0})
        assert hash(plain) == hash(SelectionResult("ep", "window", (0, 1), 7))
        with pytest.raises(TypeError, match="unhashable"):
            hash(diagnosed)
        assert plain != SelectionResult("ep", "window", (0, 1, 2), 7)

    def test_immutable_and_pickles_with_diagnostics(self):
        result = SelectionResult("ep", "window", (0,), 3, diagnostics={"best": 0})
        with pytest.raises(AttributeError):
            result.strategy = "none"
        copy = pickle.loads(pickle.dumps(result))
        assert copy == result and copy.diagnostics == {"best": 0}
        assert repr(result) == ("SelectionResult(episode_id='ep', strategy='window', "
                                "sentence_indices=(0,), selected_token_count=3, "
                                "diagnostics={'best': 0})")
