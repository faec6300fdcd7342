import itertools
import json
import pickle
import random
import re
import string
import sys
import time
import unicodedata

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from podselect.corpus import (ABBREVIATIONS, Document, Episode, Sentence, build_document,
                              load_episodes, read_records, segment_spans,
                              token_end, token_texts, tokenize, write_records)
from podselect.abstractive import enforce_budget
from podselect.errors import EmptyDocumentError, RecordParseError
from podselect.selection import SelectionResult, select_head

from oracles import oracle_segment_spans, oracle_tokenize

# The longest abbreviation, and words of one and two letters more: the
# abbreviation guard decides a word of more letters than any abbreviation
# without walking back over it.
LONGEST_ABBREVIATION = max(sorted(ABBREVIATIONS), key=len)
GUARD_LENGTH_WORDS = [LONGEST_ABBREVIATION, LONGEST_ABBREVIATION.capitalize() + "s",
                      LONGEST_ABBREVIATION + "es"]
# ASCII letters and punctuation, whitespace including NBSP and the rarer
# separators str.isspace accepts, non-ASCII punctuation and symbols, accented
# letters, a combining acute accent, CJK and an emoji; plus abbreviations,
# mixed-case words and plurals, the guard's length words, and a capital
# letter that lowers to two characters.
MIXED_CHARS = (string.ascii_letters + string.punctuation + " \t\n\u00a0"
               + "\x1c\x1d\x1e\x1f\x85\u2028\u3000"
               + "“”‘’—…¿€™·" + "éÅñ" + "\u0301" + "中文" + "😀")
MIXED_WORDS = ["Dr.", "e.g.", "J.", "The", "the", "and", "cats", "carries",
               "classes", "focus", "café", *GUARD_LENGTH_WORDS, "İ…"]
MIXED_TEXT = st.lists(st.sampled_from(list(MIXED_CHARS)) | st.sampled_from(MIXED_WORDS),
                      max_size=60).map("".join)
ASCII_TEXT = st.text(alphabet=string.ascii_letters + string.punctuation + " \t\n",
                     max_size=60)
# Terminals, closers and whitespace packed together, with single letters,
# abbreviations, the guard's length words and runs of opening brackets
# before the periods, some long enough to fill the letters the guard reads.
BOUNDARY_DENSE_TEXT = st.lists(
    st.sampled_from(list(".!?") + list("\"')]”’")
                    + list("\t\n\r\x0b\x0c\x1c\x85\xa0\u2028\u3000")
                    + ["a", "J", "x", "Dr", "e.g", *GUARD_LENGTH_WORDS, "İ", "İ…"])
    | st.integers(1, 5).map(lambda n: "(" * n)
    | st.integers(1, 20).map(lambda n: "(" * n + "Dr"),
    max_size=60).map("".join)

# Where the token count's rule is easiest to get wrong: the separators
# str.split() cuts at and bytes.split() does not, non-ASCII whitespace, C0
# controls and DEL (neither whitespace nor P*/S*: a unit of them is a token),
# a combining mark, the P* underscore, a capital sigma, and non-ASCII
# punctuation and symbols; plus units made only of edge characters.
COUNT_EDGE_CHARS = ["\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000",
                    "\x00", "\x01", "\x08", "\x0e", "\x1b", "\x7f", "\u0301", "_", "Σ",
                    "—", "“", "€", "·"]
EDGE_ONLY_UNITS = ["--", "...", "_", "“”", "—_—", "(€)", "·!·"]
COUNT_CHARS = COUNT_EDGE_CHARS + list(" \t\n.!?aZé中") + ["Dr.", "word"]


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
        pytest.param("1" + "0" * 400, "is not finite", id="int-past-the-float-range"),
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

    @pytest.mark.parametrize("field", ["show_id", "description", "show_description"])
    @pytest.mark.parametrize("value", [{"text": "a dict"}, ["a", "list"], 17, True],
                             ids=["object", "list", "number", "true"])
    def test_text_field_that_is_not_a_string_rejected(self, tmp_path, field, value):
        path = tmp_path / "eps.jsonl"
        write_lines(path, [json.dumps({"id": "ok", "transcript": "Some words here."}),
                           json.dumps({"id": "bad", "transcript": "Some words here.",
                                       field: value})])
        errors = []
        assert [e.id for e in load_episodes(path, errors=errors)] == ["ok"]
        assert [str(e) for e in errors] == [f"line 2: {field!r} is not a string"]

    def test_missing_or_null_text_fields_read_as_empty(self, tmp_path):
        path = tmp_path / "eps.jsonl"
        write_lines(path, [json.dumps({"id": "missing", "transcript": "t"}),
                           json.dumps({"id": "null", "transcript": "t", "show_id": None,
                                       "description": None, "show_description": None})])
        episodes = list(load_episodes(path))
        assert [(e.show_id, e.description, e.show_description) for e in episodes] == [
            ("", "", "")] * 2

    @pytest.mark.parametrize("line", ["[" * 200_000, '{"id": "deep", "x": ' + "[" * 200_000],
                             ids=["top-level", "in-an-object"])
    def test_too_deeply_nested_line_skipped(self, tmp_path, line):
        path = tmp_path / "eps.jsonl"
        write_lines(path, [json.dumps({"id": "ep1", "transcript": "a"}), line,
                           json.dumps({"id": "ep3", "transcript": "c"})])
        errors = []
        assert [e.id for e in load_episodes(path, errors=errors)] == ["ep1", "ep3"]
        assert [str(e) for e in errors] == ["line 2: invalid JSON (nested too deeply)"]

    def test_integer_too_long_to_read_never_raises(self, tmp_path):
        path = tmp_path / "eps.jsonl"
        write_lines(path, ['{"id": "long", "transcript": "t", "n": 1%s}' % ("0" * 5000),
                           json.dumps({"id": "ok", "transcript": "t"})])
        # Python 3.11 and later refuse to read an integer this long; 3.10 reads it
        assert [e.id for e in load_episodes(path)][-1] == "ok"

    def test_bad_bytes_in_an_ignored_key_reject_the_line(self, tmp_path):
        path = tmp_path / "eps.jsonl"
        path.write_bytes(b'{"id": "ok", "transcript": "t"}\n'
                         b'{"id": "bad", "transcript": "t", "note": "caf\xe9"}\n')
        errors = []
        assert [e.id for e in load_episodes(path, errors=errors)] == ["ok"]
        assert [str(e) for e in errors] == ["line 2: not valid UTF-8"]

    def test_leading_byte_order_mark_dropped(self, tmp_path):
        # RFC 8259 section 8.1 lets a reader ignore one; later in the file it is no BOM
        path = tmp_path / "eps.jsonl"
        path.write_bytes(b'\xef\xbb\xbf{"id": "ep1", "transcript": "a"}\n'
                         b'\xef\xbb\xbf{"id": "ep2", "transcript": "b"}\n')
        errors = []
        assert [e.id for e in load_episodes(path, errors=errors)] == ["ep1"]
        assert [e.line_number for e in errors] == [2]


class TestReadRecords:
    def test_without_errors_the_first_bad_line_raises(self, tmp_path):
        path = tmp_path / "recs.jsonl"
        write_lines(path, ['{"id": "a"}', "", '{"id": "b"}', '{"id": "a"}', "{bad"])
        reader = read_records(path, lambda record, line_number: (line_number, record["id"]))
        assert next(reader) == (1, "a")
        assert next(reader) == (3, "b")
        with pytest.raises(RecordParseError, match="^line 4: duplicate id 'a'$"):
            next(reader)

    def test_write_records_writes_lines_read_records_reads_back(self, tmp_path):
        path = tmp_path / "recs.jsonl"
        records = [{"id": "a", "text": "caf\u00e9 \u2615"}, {"id": "b", "n": [1, 2.5, None]}]
        with open(path, "w", encoding="utf-8", newline="") as handle:
            write_records(handle, records)
        assert path.read_text("utf-8") == (
            '{"id": "a", "text": "caf\u00e9 \u2615"}\n{"id": "b", "n": [1, 2.5, null]}\n')
        assert list(read_records(path, lambda record, line_number: record)) == records


def sentences(text):
    """The sentence strings of text: the slices at its segment_spans."""
    return [text[start:end] for start, end in segment_spans(text)]


class TestSegmentation:
    def test_hand_segmented_fixture(self, fixtures_dir):
        cases = json.loads((fixtures_dir / "segmentation_cases.json").read_text("utf-8"))
        assert len(cases) == 50
        for case in cases:
            assert sentences(case["text"]) == case["sentences"], case["text"]

    def test_abbreviation_not_split(self):
        assert sentences("Dr. Smith arrived.") == ["Dr. Smith arrived."]

    def test_unpunctuated_transcript_is_one_sentence(self):
        text = "so we kept talking for an hour about nothing in particular"
        assert sentences(text) == [text]

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

    @given(MIXED_TEXT | ASCII_TEXT | BOUNDARY_DENSE_TEXT)
    @settings(max_examples=300)
    def test_matches_character_oracle(self, text):
        assert list(segment_spans(text)) == oracle_segment_spans(text)

    def test_spans_come_one_at_a_time(self):
        spans = segment_spans("One here. Two there!")
        assert next(spans) == (0, 9)
        assert list(spans) == [(10, 20)]

    def test_period_after_the_longest_abbreviation_length(self):
        words = [*GUARD_LENGTH_WORDS, LONGEST_ABBREVIATION.upper(), "x" + LONGEST_ABBREVIATION,
                 "İ" * (len(LONGEST_ABBREVIATION) + 1)]
        for before, word in itertools.product(["", " ", "\n", "(", "(((", "“", "a. "], words):
            text = f"{before}{word}. next one. And {word}. ({word}. end"
            assert list(segment_spans(text)) == oracle_segment_spans(text), text

    def test_guard_premises_hold_on_every_code_point(self):
        """The boundary pattern calls a period after an alphanumeric character
        and more characters than the longest abbreviation, none of them
        whitespace, a sentence end without asking the guard: that needs the
        pattern's alphanumerics ([^\\W_]) to be str.isalnum, its \\s to be
        str.isspace, and no alphanumeric character to be whitespace or
        stripped from a token's edge. Its word is then too long, as lower()
        maps every character to at least one."""
        alnum, space = re.compile(r"[^\W_]"), re.compile(r"\s")
        broken = [hex(point) for point, ch in enumerate(map(chr, range(sys.maxunicode + 1)))
                  if bool(alnum.match(ch)) != ch.isalnum()
                  or bool(space.match(ch)) != ch.isspace()
                  or (ch.isalnum() and (ch.isspace() or unicodedata.category(ch)[0] in "PS"))
                  or not ch.lower()]
        assert broken == []

    @pytest.mark.parametrize("run", ["(", ".", "!.", '."'])
    def test_linear_in_a_million_character_run(self, run):
        # long enough that work quadratic in the run, such as stripping the word's
        # punctuation one character at a time or retrying a match from each
        # character of a run of terminals, takes far longer than the limit
        filler = run * (1_000_000 // len(run))
        text = "Start here. " + filler + "a. b"
        started = time.perf_counter()
        spans = list(segment_spans(text))
        assert time.perf_counter() - started < 5
        assert spans == [(0, 11), (12, len(text))]

    @pytest.mark.parametrize("unit, end, sentences", [
        ("a.\n", "", 1),               # whitespace but no space: every period an initial's
        ("Mr. ", "", 1),                # every period an abbreviation's
        ("U.S.A. ", "", None),          # not an abbreviation: one sentence per unit
        ("(", "Dr. Smith. b", 2),       # one word of a million characters
    ], ids=["initials", "abbreviations", "not-abbreviations", "bracket-run"])
    def test_guard_linear_in_a_million_character_transcript(self, unit, end, sentences):
        # The guard reads a bounded window before each period, and doubles it
        # only while the word could still be an abbreviation: quadratic work,
        # such as an unbounded look-back from each period, takes far longer
        # than the limit here.
        def transcript(length):
            return unit * (length // len(unit)) + end

        text = transcript(1_000_000)
        started = time.perf_counter()
        spans = list(segment_spans(text))
        assert time.perf_counter() - started < 5
        assert len(spans) == (sentences or 1_000_000 // len(unit))
        assert spans[0][0] == 0 and spans[-1][1] == len(text.rstrip())
        short = transcript(2_000)
        assert list(segment_spans(short)) == oracle_segment_spans(short)


def char_offset(text, byte_offset):
    """The character offset in text of a UTF-8 byte offset on a character boundary."""
    return len(text.encode("utf-8")[:byte_offset].decode("utf-8"))


class TestTokenize:
    def test_basic_normalization(self):
        assert [t.text for t in tokenize("The cat sat.")] == ["the", "cat", "sat"]

    def test_edge_punctuation_stripped(self):
        assert [t.text for t in tokenize("Hello, WORLD!!")] == ["hello", "world"]

    def test_pure_punctuation_dropped(self):
        assert tokenize("!!! ... ???") == []

    def test_internal_punctuation_kept(self):
        assert [t.text for t in tokenize("can't x-ray")] == ["can't", "x-ray"]

    def test_spans_point_at_sources(self):
        text = "Hello, WORLD!! again"
        for token in tokenize(text):
            start, end = token.span
            assert text[start:end].lower() == token.text

    def test_spans_with_multibyte_chars(self):
        text = "café ouvert! déjà vu"
        tokens = tokenize(text)
        assert [t.text for t in tokens] == ["café", "ouvert", "déjà", "vu"]
        assert [t.span for t in tokens] == [(0, 4), (5, 11), (13, 17), (18, 20)]
        for token in tokens:
            start, end = token.span
            assert text[start:end].lower() == token.text

    @given(MIXED_TEXT | ASCII_TEXT)
    @settings(max_examples=300)
    def test_matches_character_oracle_under_every_config(self, text):
        # the tokenizer has exactly one configuration: strip edges, lowercase
        assert [(t.text, t.span) for t in tokenize(text)] == [
            (value, (char_offset(text, start), char_offset(text, end)))
            for value, (start, end) in oracle_tokenize(text)]

    @given(MIXED_TEXT)
    @example("«Ça» va, naïve—über… 中文 ZÜRICH! ok😀.")
    @settings(max_examples=300)
    def test_budget_cut_is_the_source_up_to_the_oracle_end_of_a_token(self, raw):
        """enforce_budget cuts a sentence over budget n at the end of its n-th
        token, as the oracle's byte offsets locate it."""
        oracle = oracle_tokenize(raw)
        sentence = Sentence(len(token_texts(raw)), raw)
        doc = Document(episode_id="ep", sentences=(sentence,), total_tokens=len(oracle))
        selection = SelectionResult("ep", "none", (0,), len(oracle))
        for n in range(1, len(oracle)):
            capped = enforce_budget(selection, doc, n)
            assert capped.truncated_mid_sentence
            end = oracle[n - 1][1][1]
            assert capped.text == raw.encode("utf-8")[:end].decode("utf-8")

    @given(MIXED_TEXT | ASCII_TEXT)
    @settings(max_examples=300)
    def test_token_texts_match_character_oracle(self, text):
        assert token_texts(text) == [value for value, _ in oracle_tokenize(text)]

    @given(MIXED_TEXT)
    @example("«Ça» va, naïve—über… 中文 ZÜRICH! ok😀.")
    @settings(max_examples=300)
    def test_token_end_is_the_end_of_the_nth_token_span(self, text):
        tokens = tokenize(text)
        assert [token_end(text, n) for n in range(1, len(tokens) + 1)] == [
            token.span[1] for token in tokens]
        for n in (0, len(tokens) + 1):
            with pytest.raises(ValueError, match=f"^text has no token {n}$"):
                token_end(text, n)

    def test_lower_keeps_whitespace_and_edge_characters_apart_on_every_code_point(self):
        """token_texts lowers a whole text before splitting and stripping it, which
        gives the same tokens only if lower() maps whitespace to whitespace and P*/S*
        characters to P*/S* characters, and every other character to neither."""
        def edge(ch):
            return unicodedata.category(ch)[0] in "PS"

        crossing = [hex(point) for point, ch in enumerate(map(chr, range(sys.maxunicode + 1)))
                    if any(low.isspace() != ch.isspace() or edge(low) != edge(ch)
                           for low in ch.lower())]
        assert crossing == []

    @pytest.mark.parametrize("text, expected", [
        ("ΑΣⒶ", ["ας"]),   # a stripped, cased circled letter ends the word: final sigma
        ("ⒶΣ!", ["σ"]),    # the stripped letter made the lowered text's sigma final
        ("ΑΣ. ΑΣΑ", ["ας", "ασα"]),
        ("İstanbul \u212aelvin", ["i\u0307stanbul", "kelvin"]),
    ])
    def test_token_texts_lower_a_sigma_after_stripping(self, text, expected):
        assert token_texts(text) == expected == [value for value, _ in oracle_tokenize(text)]

    def test_token_texts_match_character_oracle_on_seeded_strings(self):
        alphabet = MIXED_CHARS + "ΣΑσςⒶⓐİ\u212a\u2160"  # sigma contexts, cased symbols
        rng = random.Random(19)
        for _ in range(200_000):
            text = "".join(rng.choices(alphabet, k=rng.randrange(9)))
            assert token_texts(text) == [value for value, _ in oracle_tokenize(text)], text

    @given(MIXED_TEXT | ASCII_TEXT)
    @settings(max_examples=300)
    def test_collapsing_whitespace_changes_no_token(self, text):
        # filter_corpus reuses a description's tokens when cleanup only did this
        assert token_texts(" ".join(text.split())) == token_texts(text)


class TestBuildDocument:
    def test_tokenless_sentences_dropped_and_reindexed(self):
        episode = Episode(id="e1", transcript_text="Real words here. !!! More words now.")
        doc = build_document(episode)
        assert [s.token_count for s in doc.sentences] == [3, 3]
        assert [s.raw_text for s in doc.sentences] == ["Real words here.", "More words now."]

    def test_total_tokens(self):
        episode = Episode(id="e1", transcript_text="One two three. Four five.")
        doc = build_document(episode)
        assert doc.total_tokens == 5
        assert [s.token_count for s in doc.sentences] == [3, 2]
        assert [token_texts(s.raw_text) for s in doc.sentences] == [["one", "two", "three"],
                                                                    ["four", "five"]]

    def test_empty_transcript_raises(self):
        with pytest.raises(EmptyDocumentError):
            build_document(Episode(id="e1", transcript_text="... !!!"))

    def test_deterministic(self):
        episode = Episode(id="e1", transcript_text="Same text. Every time!")
        assert build_document(episode) == build_document(episode)

    @given(st.lists(st.sampled_from(list(MIXED_CHARS + "Σς")) | st.sampled_from(MIXED_WORDS),
                    max_size=60).map("".join))
    @settings(max_examples=300)
    def test_sentence_token_counts_are_the_transcripts_tokens(self, text):
        """A Sentence keeps only its token count: the counts are those of the
        sentence texts, and add up to the whole transcript's token count."""
        assert_counts_match_the_oracle(text)

    @given(st.lists(st.sampled_from(COUNT_CHARS) | st.sampled_from(EDGE_ONLY_UNITS),
                    max_size=60).map("".join))
    @settings(max_examples=500)
    def test_token_counts_match_the_oracle_at_the_count_rules_edges(self, text):
        assert_counts_match_the_oracle(text)

    @pytest.mark.parametrize("ch", COUNT_EDGE_CHARS + EDGE_ONLY_UNITS)
    def test_token_count_of_one_character_between_two_words(self, ch):
        for text in (f"first {ch} second", f"first{ch}second", f"{ch} first. second {ch}"):
            assert_counts_match_the_oracle(text)


def assert_counts_match_the_oracle(text):
    """build_document counts each sentence's tokens as the character oracle
    does, and drops just the sentences without one."""
    episode = Episode("e", transcript_text=text)
    if not oracle_tokenize(text):
        with pytest.raises(EmptyDocumentError):
            build_document(episode)
        return
    doc = build_document(episode)
    counts = [s.token_count for s in doc.sentences]
    assert counts == [len(oracle_tokenize(s.raw_text)) for s in doc.sentences], text
    assert counts == [len(token_texts(s.raw_text)) for s in doc.sentences]
    assert 0 not in counts
    assert doc.total_tokens == sum(counts) == len(oracle_tokenize(text))


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
        assert prefix.total_tokens == sum(s.token_count for s in prefix.sentences)
        assert prefix == full or prefix.total_tokens >= budget
        assert prefix.total_tokens - prefix.sentences[-1].token_count < budget
        head = select_head(full, budget)
        assert select_head(prefix, budget) == head
        assert enforce_budget(head, prefix, budget) == enforce_budget(head, full, budget)

    def test_stops_after_the_sentence_reaching_the_limit(self):
        episode = Episode(id="e1", transcript_text="One two. !!! Three four five. Six. Seven.")
        assert [token_texts(s.raw_text) for s in build_document(episode, 5).sentences] == [
            ["one", "two"], ["three", "four", "five"]]
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
        (Sentence(1, "a"), "token_count"),
        (Document(episode_id="ep", sentences=(), total_tokens=0), "total_tokens"),
    ])
    def test_fields_cannot_be_assigned(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))

    @given(st.builds(Episode, st.text(min_size=1), st.text(), st.text(), st.text(), st.text(),
                     st.none() | st.floats(min_value=0, allow_infinity=False)))
    def test_episode_from_record_reads_to_record_back(self, episode):
        assert Episode.from_record(episode.to_record()) == episode

    def test_episode_survives_pickle(self):
        episode = Episode(id="ep", show_id="s", transcript_text="One. Two.",
                          description="d", show_description="sd", duration_seconds=1.5)
        assert pickle.loads(pickle.dumps(episode)) == episode
