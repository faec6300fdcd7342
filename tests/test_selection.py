import random

import pytest

from podselect.errors import ConfigError
from podselect.selection import (SelectorConfig, score_single_sentences,
                                 score_windows, select_head, select_novelty,
                                 select_window)
from conftest import make_doc, random_sentences
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
            sentence_tokens = [s.tokens for s in doc.sentences]
            got = score_windows(doc, w)
            expected = oracle_window_scores(sentence_tokens, w)
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
            flat = [t for s in doc.sentences for t in s.tokens]
            best = None
            for row in score_windows(doc, w):
                cand = [t for s in doc.sentences[row.start:row.end] for t in s.tokens]
                partial = (oracle_rouge_n(cand, flat, 1)[2]
                           + oracle_rouge_n(cand, flat, 2)[2]) / 2
                if best is None or partial > best[0]:
                    best = (partial, row.start, row.end)
            result = select_window(doc, SelectorConfig(window_size=w))
            assert result.sentence_indices == tuple(range(best[1], best[2]))

    def test_empty_doc_rejected(self):
        doc = make_doc([["a"]])
        object.__setattr__(doc, "sentences", ())
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
            start, end = oracle_window_argmax([s.tokens for s in doc.sentences], w)
            assert result.sentence_indices == tuple(range(start, end))

    def test_picks_window_with_most_tokens(self):
        rng = random.Random(43)
        for _ in range(40):
            doc = random_doc(rng)
            w = rng.randint(1, len(doc.sentences) + 1)
            lengths = [len(s.tokens) for s in doc.sentences]
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
        scores = result.diagnostics["window_scores"]
        assert len(scores) == 3
        best = result.diagnostics["best"]
        assert best.score == max(row.score for row in scores)
        assert result.sentence_indices == tuple(range(best.start, best.end))

    def test_to_record_shape(self):
        doc = make_doc([["a", "b"], ["c", "d"]], episode_id="ep-9")
        result = select_window(doc, SelectorConfig(window_size=1))
        record = result.to_record()
        assert record == {"id": "ep-9", "strategy": "window",
                          "indices": list(result.sentence_indices),
                          "tokens": result.selected_token_count}
        with_diag = result.to_record(include_diagnostics=True)
        assert "window_scores" in with_diag


class TestScoreSingleSentences:
    def test_single_sentence_doc_scores_one(self):
        doc = make_doc([["a", "b", "c"]])
        assert score_single_sentences(doc) == [(0, 1.0)]

    def test_matches_direct_computation(self):
        rng = random.Random(37)
        for _ in range(30):
            doc = random_doc(rng)
            flat = [t for s in doc.sentences for t in s.tokens]
            for index, score in score_single_sentences(doc):
                tokens = doc.sentences[index].tokens
                assert score == oracle_rouge_avg(tokens, flat)


class TestSelectNovelty:
    def test_merges_window_and_top_singles(self):
        rng = random.Random(41)
        for _ in range(25):
            doc = random_doc(rng)
            config = SelectorConfig(window_size=2, novelty_top_k=2)
            result = select_novelty(doc, config)
            base = select_window(doc, SelectorConfig(window_size=2))
            singles = score_single_sentences(doc)
            ranked = sorted(singles, key=lambda pair: (-pair[1], pair[0]))
            top = {index for index, _ in ranked[:2]}
            expected = tuple(sorted(set(base.sentence_indices) | top))
            assert result.sentence_indices == expected
            assert result.strategy == "novelty"
            assert result.selected_token_count == sum(
                len(doc.sentences[i].tokens) for i in expected)

    def test_top_singles_are_longest_sentences(self):
        rng = random.Random(47)
        for _ in range(40):
            doc = random_doc(rng)
            top_k = rng.randint(0, 4)
            result = select_novelty(doc, SelectorConfig(window_size=2, novelty_top_k=top_k))
            longest = sorted(doc.sentences, key=lambda s: (-len(s.tokens), s.index))
            assert result.diagnostics["top_k"] == [s.index for s in longest[:top_k]]

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
        window_range = set(range(result.diagnostics["best"].start,
                                 result.diagnostics["best"].end))
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
        with pytest.raises(ConfigError):
            SelectorConfig(window_size=0)
        with pytest.raises(ConfigError):
            SelectorConfig(novelty_top_k=-1)
        with pytest.raises(ConfigError):
            SelectorConfig(token_budget=0)
