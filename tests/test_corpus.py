import json
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podselect.corpus import (Episode, build_document, load_episodes,
                              segment_sentences, segment_spans, token_texts,
                              tokenize)
from podselect.errors import EmptyDocumentError

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
