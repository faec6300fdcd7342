import json
import pickle
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podselect.corpus import (Document, Episode, Sentence, build_document, load_episodes,
                              segment_sentences, segment_spans, token_texts,
                              tokenize)
from podselect.abstractive import enforce_budget
from podselect.errors import EmptyDocumentError
from podselect.selection import select_head

from oracles import oracle_segment_spans, oracle_tokenize

# ASCII letters and punctuation, whitespace including NBSP and the rarer
# separators str.isspace accepts, non-ASCII punctuation and symbols, accented
# letters, a combining acute accent, CJK and an emoji; plus abbreviations,
# mixed-case words and plurals.
MIXED_CHARS = (string.ascii_letters + string.punctuation + " \t\n\u00a0"
               + "\x1c\x1d\x1e\x1f\x85\u2028\u3000"
               + "“”‘’—…¿€™·" + "éÅñ" + "\u0301" + "中文" + "😀")
MIXED_WORDS = ["Dr.", "e.g.", "J.", "The", "the", "and", "cats", "carries",
               "classes", "focus", "café"]
MIXED_TEXT = st.lists(st.sampled_from(list(MIXED_CHARS)) | st.sampled_from(MIXED_WORDS),
                      max_size=60).map("".join)
ASCII_TEXT = st.text(alphabet=string.ascii_letters + string.punctuation + " \t\n",
                     max_size=60)


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


class TestLoadEpisodes:
    def test_three_well_formed_records(self, tmp_path):
        records = [
            {"id": f"ep{i}", "show_id": "s1", "transcript": f"text {i}",
             "description": "d", "show_description": "sd", "duration_seconds": 60 + i}
            for i in range(3)
        ]
        path = tmp_path / "eps.jsonl"
        write_lines(path, [json.dumps(r) for r in records])
        episodes = list(load_episodes(path))
        assert [e.id for e in episodes] == ["ep0", "ep1", "ep2"]
        assert episodes[1].transcript_text == "text 1"
        assert episodes[2].duration_seconds == 62.0

    def test_missing_id_reported_with_line_number(self, tmp_path):
        path = tmp_path / "eps.jsonl"
        write_lines(path, [
            json.dumps({"id": "ep1", "transcript": "a"}),
            json.dumps({"transcript": "no id here"}),
            json.dumps({"id": "ep3", "transcript": "c"}),
        ])
        errors = []
        episodes = list(load_episodes(path, errors=errors))
        assert [e.id for e in episodes] == ["ep1", "ep3"]
        assert len(errors) == 1
        assert errors[0].line_number == 2

    def test_invalid_json_and_missing_transcript(self, tmp_path):
        path = tmp_path / "eps.jsonl"
        write_lines(path, [
            "{not json",
            json.dumps({"id": "ep2"}),
            json.dumps({"id": "ep3", "transcript": "ok"}),
        ])
        errors = []
        episodes = list(load_episodes(path, errors=errors))
        assert [e.id for e in episodes] == ["ep3"]
        assert [e.line_number for e in errors] == [1, 2]

    def test_empty_file_yields_nothing(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert list(load_episodes(path)) == []

    def test_negative_duration_rejected(self, tmp_path):
        path = tmp_path / "eps.jsonl"
        write_lines(path, [json.dumps({"id": "e", "transcript": "t",
                                       "duration_seconds": -5})])
        errors = []
        assert list(load_episodes(path, errors=errors)) == []
        assert len(errors) == 1

    @pytest.mark.parametrize("duration, reason", [
        ("NaN", "is not finite"), ('"nan"', "is not finite"), ("1e999", "is not finite"),
        ('"-inf"', "is not finite"), ("true", "is not a number"),
    ])
    def test_non_finite_or_boolean_duration_rejected(self, tmp_path, duration, reason):
        path = tmp_path / "eps.jsonl"
        write_lines(path, [json.dumps({"id": "ok", "transcript": "t", "duration_seconds": 5}),
                           '{"id": "bad", "transcript": "t", "duration_seconds": %s}' % duration])
        errors = []
        assert [e.id for e in load_episodes(path, errors=errors)] == ["ok"]
        assert [str(e) for e in errors] == [f"line 2: duration_seconds {reason}"]

    def test_repeated_id_reported_and_first_kept(self, tmp_path):
        path = tmp_path / "eps.jsonl"
        write_lines(path, [
            json.dumps({"id": "ep1", "transcript": "first"}),
            json.dumps({"id": "ep2", "transcript": "other"}),
            json.dumps({"id": "ep1", "transcript": "second"}),
        ])
        errors = []
        episodes = list(load_episodes(path, errors=errors))
        assert [(e.id, e.transcript_text) for e in episodes] == [("ep1", "first"),
                                                                 ("ep2", "other")]
        assert [str(e) for e in errors] == ["line 3: duplicate id 'ep1'"]

class TestSegmentation:
    def test_hand_segmented_fixture(self, fixtures_dir):
        cases = json.loads((fixtures_dir / "segmentation_cases.json").read_text("utf-8"))
        assert len(cases) == 50
        for case in cases:
            assert segment_sentences(case["text"]) == case["sentences"], case["text"]

    def test_abbreviation_not_split(self):
        assert segment_sentences("Dr. Smith arrived.") == ["Dr. Smith arrived."]

    def test_unpunctuated_transcript_is_one_sentence(self):
        text = "so we kept talking for an hour about nothing in particular"
        assert segment_sentences(text) == [text]

    def test_spans_cover_text_with_whitespace_gaps(self):
        text = "  One here. Two there!  Three? "
        spans = segment_spans(text)
        previous_end = 0
        for start, end in spans:
            assert text[previous_end:start].strip() == ""
            assert start < end
            previous_end = end
        assert text[previous_end:].strip() == ""

    @given(st.text(alphabet="aB .!?\n\t'\"", max_size=80))
    @settings(max_examples=200)
    def test_reassembly_from_spans(self, text):
        spans = segment_spans(text)
        rebuilt = []
        cursor = 0
        for start, end in spans:
            gap = text[cursor:start]
            assert gap.strip() == ""
            rebuilt.append(gap)
            rebuilt.append(text[start:end])
            cursor = end
        rebuilt.append(text[cursor:])
        assert "".join(rebuilt) == text

    @given(MIXED_TEXT | ASCII_TEXT)
    @settings(max_examples=300)
    def test_matches_character_oracle(self, text):
        assert segment_spans(text) == oracle_segment_spans(text)


class TestTokenize:
    def test_basic_normalization(self):
        assert [t.text for t in tokenize("The cat sat.")] == ["the", "cat", "sat"]

    def test_edge_punctuation_stripped(self):
        assert [t.text for t in tokenize("Hello, WORLD!!")] == ["hello", "world"]

    def test_pure_punctuation_dropped(self):
        assert tokenize("!!! ... ???") == []

    def test_internal_punctuation_kept(self):
        assert [t.text for t in tokenize("can't x-ray")] == ["can't", "x-ray"]

    def test_byte_spans_point_at_sources(self):
        text = "Hello, WORLD!! again"
        for token in tokenize(text):
            start, end = token.byte_span
            assert text.encode("utf-8")[start:end].decode("utf-8").lower() == token.text

    def test_byte_spans_with_multibyte_chars(self):
        text = "café ouvert! déjà vu"
        data = text.encode("utf-8")
        tokens = tokenize(text)
        assert [t.text for t in tokens] == ["café", "ouvert", "déjà", "vu"]
        for token in tokens:
            start, end = token.byte_span
            assert data[start:end].decode("utf-8").lower() == token.text

    @given(MIXED_TEXT | ASCII_TEXT)
    @settings(max_examples=300)
    def test_matches_character_oracle_under_every_config(self, text):
        # the tokenizer has exactly one configuration: strip edges, lowercase
        assert [(t.text, t.byte_span) for t in tokenize(text)] == oracle_tokenize(text)

    @given(MIXED_TEXT | ASCII_TEXT)
    @settings(max_examples=300)
    def test_token_texts_match_character_oracle(self, text):
        assert token_texts(text) == [value for value, _ in oracle_tokenize(text)]

    @given(MIXED_TEXT | ASCII_TEXT)
    @settings(max_examples=300)
    def test_collapsing_whitespace_changes_no_token(self, text):
        # filter_corpus reuses a description's tokens when cleanup only did this
        assert token_texts(" ".join(text.split())) == token_texts(text)


class TestBuildDocument:
    def test_tokenless_sentences_dropped_and_reindexed(self):
        episode = Episode(id="e1", transcript_text="Real words here. !!! More words now.")
        doc = build_document(episode)
        assert [s.index for s in doc.sentences] == [0, 1]
        assert [s.raw_text for s in doc.sentences] == ["Real words here.", "More words now."]

    def test_total_tokens(self):
        episode = Episode(id="e1", transcript_text="One two three. Four five.")
        doc = build_document(episode)
        assert doc.total_tokens == 5
        assert [s.tokens for s in doc.sentences] == [("one", "two", "three"),
                                                     ("four", "five")]

    def test_empty_transcript_raises(self):
        with pytest.raises(EmptyDocumentError):
            build_document(Episode(id="e1", transcript_text="... !!!"))

    def test_deterministic(self):
        episode = Episode(id="e1", transcript_text="Same text. Every time!")
        assert build_document(episode) == build_document(episode)


def head_case(rng):
    """(transcript, budget): sentences of 1-12 tokens, token-less ones between
    them, sometimes an oversized first sentence; the budget lands inside a
    sentence, exactly on a sentence boundary, or beyond the whole transcript."""
    words = ["Dr.", "alpha", "beta", "gamma", "delta", "Café", "(echo)", "x"]
    sentences, counts = [], []
    if rng.random() < 0.25:
        sentences.append(" ".join(rng.choices(words[1:], k=rng.randint(30, 60))) + ".")
        counts.append(len(token_texts(sentences[-1])))
    for _ in range(rng.randint(0, 15)):
        if rng.random() < 0.2:
            sentences.append(rng.choice(["!!!", "... ?", "-- ."]))
            continue
        sentence = " ".join(rng.choices(words, k=rng.randint(1, 12))) + rng.choice(".!?")
        sentences.append(sentence)
        counts.append(len(token_texts(sentence)))
    total = sum(counts)
    mode = rng.choice(["inside", "boundary", "beyond"])
    if mode == "boundary" and counts:
        budget = sum(counts[:rng.randint(1, len(counts))])
    elif mode == "beyond":
        budget = total + rng.randint(1, 5)
    else:
        budget = rng.randint(1, max(1, total))
    return " ".join(sentences), budget


class TestBuildDocumentPrefix:
    """build_document(episode, limit) stops after the sentence that brings the
    token total to the limit, which is where select_head stops."""

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_head_pick_and_cap_equal_those_of_the_full_build(self, seed):
        transcript, budget = head_case(random.Random(seed))
        episode = Episode(id="e1", transcript_text=transcript)
        try:
            full = build_document(episode)
        except EmptyDocumentError:
            with pytest.raises(EmptyDocumentError):
                build_document(episode, budget)
            return
        prefix = build_document(episode, budget)
        assert prefix.sentences == full.sentences[:len(prefix.sentences)]
        assert prefix.total_tokens == sum(len(s.tokens) for s in prefix.sentences)
        assert prefix == full or prefix.total_tokens >= budget
        assert prefix.total_tokens - len(prefix.sentences[-1].tokens) < budget
        head = select_head(full, budget)
        assert select_head(prefix, budget) == head
        assert enforce_budget(head, prefix, budget) == enforce_budget(head, full, budget)

    def test_stops_after_the_sentence_reaching_the_limit(self):
        episode = Episode(id="e1", transcript_text="One two. !!! Three four five. Six. Seven.")
        assert [s.tokens for s in build_document(episode, 5).sentences] == [
            ("one", "two"), ("three", "four", "five")]
        assert build_document(episode, 6).total_tokens == 6
        assert build_document(episode, 99) == build_document(episode)
        assert build_document(episode, None) == build_document(episode)

    def test_oversized_first_sentence_is_the_whole_prefix(self):
        episode = Episode(id="e1", transcript_text="Aa bb cc dd ee ff gg hh. Next one.")
        doc = build_document(episode, 3)
        assert [s.raw_text for s in doc.sentences] == ["Aa bb cc dd ee ff gg hh."]
        assert doc.total_tokens == 8

    def test_empty_transcript_still_raises(self):
        with pytest.raises(EmptyDocumentError):
            build_document(Episode(id="e1", transcript_text="... !!!"), 5)


class TestRecords:
    @pytest.mark.parametrize("record, field", [
        (Episode(id="ep"), "description"),
        (Sentence(index=0, tokens=("a",), raw_text="a"), "tokens"),
        (Document(episode_id="ep", sentences=(), total_tokens=0), "total_tokens"),
    ])
    def test_fields_cannot_be_assigned(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))

    def test_episode_survives_pickle(self):
        episode = Episode(id="ep", show_id="s", transcript_text="One. Two.",
                          description="d", show_description="sd", duration_seconds=1.5)
        assert pickle.loads(pickle.dumps(episode)) == episode
