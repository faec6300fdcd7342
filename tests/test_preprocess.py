import json
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podselect import preprocess
from podselect.corpus import Episode, load_episodes, token_texts
from podselect.errors import ConfigError, InsufficientContentError
from podselect.preprocess import (DUPLICATE_SIM_THRESHOLD, FilterConfig, FilterReport,
                                  _DuplicateIndex, _jaccard, _shingles, clean_description,
                                  detect_english, filter_corpus, load_profanity_list,
                                  split_dataset)

from oracles import oracle_near_duplicates

PLACEHOLDER_LIST = load_profanity_list()


def similarity(a, b):
    """Jaccard similarity of two texts' 3-token shingles, tokenized as filter_corpus
    tokenizes them: the measure of its duplicate and show-description rules."""
    return _jaccard(_shingles(token_texts(a)), _shingles(token_texts(b)))


class TestCleanDescription:
    def test_url_and_follow_clause_removed(self):
        assert clean_description("Great talk! Follow us at http://x.co/pod") == "Great talk!"

    def test_sponsor_sentence_removed(self):
        raw = "Hosted by Ana. Use promo code SAVE10 at checkout."
        assert clean_description(raw) == "Hosted by Ana."

    @pytest.mark.parametrize("phrase", [*preprocess.SPONSOR_PHRASES, "use promo code"])
    def test_every_sponsor_phrase_at_a_word_start_removes_its_sentence(self, phrase):
        raw = f"Hosted by Ana. ({phrase.title()} Acme today.) Thanks for listening."
        assert clean_description(raw) == "Hosted by Ana. Thanks for listening."

    @pytest.mark.parametrize("sentence", [
        "We argue because code review matters.",
        "Please reuse code from the last episode.",
        "They refuse code changes this late.",
        "Never misuse code you found online.",
    ])
    def test_sponsor_phrase_inside_a_word_is_no_hit(self, sentence):
        raw = f"Hosted by Ana. {sentence}"
        assert clean_description(raw) == raw

    def test_handles_removed(self):
        raw = "Chat with @host_name about the news."
        assert clean_description(raw) == "Chat with about the news."

    def test_bare_www_url_removed(self):
        raw = "Notes live at www.example.org/notes for members."
        assert clean_description(raw) == "Notes live at for members."

    def test_non_matching_text_unchanged(self):
        raw = "A plain description with nothing to strip."
        assert clean_description(raw) == raw

    def test_whitespace_collapsed(self):
        assert clean_description("Too   many\n\nspaces here.") == "Too many spaces here."
        # the separators and non-ASCII spaces are whitespace too
        assert (clean_description("\x1cUnit\x85 sep\xa0and\u3000wide. \x1c")
                == "Unit sep and wide.")

    def test_email_like_text_survives(self):
        raw = "Reach the desk at mailbag all week."
        assert clean_description(raw) == raw

    @given(st.text(alphabet="abc .!", max_size=60))
    @settings(max_examples=100)
    def test_idempotent(self, raw):
        once = clean_description(raw)
        assert clean_description(once) == once


def profanity_verdict(tmp_path, text, words=PLACEHOLDER_LIST):
    """How filter_corpus, reading the word list file of words, treats an episode
    whose description is text followed by enough English to pass every other
    rule: 'profanity' or 'kept'."""
    path = tmp_path / "verdict_words.txt"
    path.write_text("".join(word + "\n" for word in sorted(words)), encoding="utf-8")
    episode = Episode(id="e", transcript_text="t",
                      description=f"{text}, and that was the end of the story for the day")
    kept, report = filter_corpus([episode], FilterConfig(profanity_list_path=str(path)))
    return report.reasons.get("e", "kept" if kept == [episode] else None)


class TestProfanity:
    def test_listed_word_hits(self, tmp_path):
        assert profanity_verdict(tmp_path, "He said badword twice") == "profanity"

    def test_case_and_punctuation_insensitive(self, tmp_path):
        assert profanity_verdict(tmp_path, "He said BadWord!") == "profanity"

    def test_substring_does_not_hit(self, tmp_path):
        assert profanity_verdict(tmp_path, "the badwording continued") == "kept"

    def test_clean_text_passes(self, tmp_path):
        assert profanity_verdict(tmp_path, "a perfectly polite chat") == "kept"

    def test_missing_wordlist_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_profanity_list(tmp_path / "missing.txt")

    @pytest.mark.parametrize("name, content", [("nul\x00.txt", None),
                                               ("latin1.txt", b"caf\xe9\n")],
                             ids=["nul-in-path", "not-utf8"])
    def test_unreadable_wordlist_is_config_error(self, tmp_path, name, content):
        path = tmp_path / name
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(ConfigError, match="cannot read profanity list"):
            load_profanity_list(str(path))

    def test_custom_wordlist_file(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("# comment\nzonk\n", encoding="utf-8")
        words = load_profanity_list(path)
        assert words == {"zonk"}
        assert profanity_verdict(tmp_path, "total zonk moment", words) == "profanity"
        assert profanity_verdict(tmp_path, "zonked out", words) == "kept"

    def test_custom_wordlist_lines_are_stripped_lowercased_and_split_at_newlines(self,
                                                                                  tmp_path):
        path = tmp_path / "words.txt"
        # str.splitlines would also cut at the form feed; a file's lines do not
        path.write_text("  Zonk \n\n  # note\nab\x0ccd\r\nQuux\n", encoding="utf-8")
        assert load_profanity_list(path) == {"zonk", "ab\x0ccd", "quux"}

    def test_leading_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_bytes(b"\xef\xbb\xbfzonk\nquux\n")
        assert load_profanity_list(path) == {"zonk", "quux"}


class TestDetectEnglish:
    def test_english_sentence(self):
        # three stopwords in nine tokens
        assert detect_english(token_texts("the quick brown fox jumps over the lazy dog")) is True

    def test_german_sentence(self):
        assert detect_english(token_texts("der schnelle braune fuchs springt")) is False

    def test_no_tokens_is_not_english(self):
        assert detect_english(token_texts("!!! ...")) is False

    def test_threshold_is_inclusive(self):
        # exactly one stopword in five tokens, threshold 0.2; one in six is below it
        assert detect_english(token_texts("the zebra quagga okapi bongo")) is True
        assert detect_english(token_texts("the zebra quagga okapi bongo eland")) is False


class TestDescriptionSimilarity:
    def test_hand_counted_half(self):
        # shingles abc bcd cde vs abc bcd cdf: 2 shared of 4 distinct
        assert similarity("a b c d e", "a b c d f") == pytest.approx(0.5)

    def test_identical_is_one(self):
        text = "an identical description of this episode"
        assert similarity(text, text) == 1.0

    def test_identical_after_normalization_is_one(self):
        assert similarity("Hello, World!", "hello world") == 1.0

    def test_short_identical_inputs(self):
        assert similarity("two words", "two words") == 1.0

    def test_disjoint_is_zero(self):
        assert similarity("alpha beta gamma delta", "epsilon zeta eta theta") == 0.0

    def test_empty_side_is_zero(self):
        assert similarity("", "some words here") == 0.0
        assert similarity("", "") == 0.0

    @given(st.text(alphabet="ab c", max_size=40), st.text(alphabet="ab c", max_size=40))
    @settings(max_examples=100)
    def test_symmetric_and_bounded(self, a, b):
        forward = similarity(a, b)
        assert forward == similarity(b, a)
        assert 0.0 <= forward <= 1.0


EXPECTED_REPORT = {
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


def load_fixture_episodes(fixtures_dir):
    return list(load_episodes(fixtures_dir / "filter_fixture.jsonl"))


class TestFilterCorpus:
    def test_fixture_report_exact(self, fixtures_dir):
        episodes = load_fixture_episodes(fixtures_dir)
        kept, report = filter_corpus(episodes)
        assert [e.id for e in kept] == [f"ep-keep-{i:02d}" for i in range(1, 7)]
        assert json.loads(report.to_json()) == EXPECTED_REPORT

    def test_report_is_immutable_compares_every_field_and_renders_unchanged(self):
        fields = (3, 1, {"profanity": 1, "desc_too_short": 1},
                  {"é": "profanity", "a": "desc_too_short"}, {"c": "x"})
        report = FilterReport(*fields)
        with pytest.raises(AttributeError):
            report.kept_count = 2
        assert report == FilterReport(*fields)
        for position in range(len(fields)):
            changed = list(fields)
            changed[position] = 0 if position < 2 else {"other": 1}
            assert report != FilterReport(*changed)
        # rules in ALL_RULES order, reasons in insertion order, no cleaned descriptions
        assert report.to_json() == (
            '{\n  "input": 3,\n  "kept": 1,\n  "rejected_by_rule": {\n'
            '    "desc_too_short": 1,\n    "profanity": 1\n  },\n  "reasons": {\n'
            '    "é": "profanity",\n    "a": "desc_too_short"\n  }\n}')

    def test_each_description_is_shingled_once(self, fixtures_dir, monkeypatch):
        shingled = []
        shingles = preprocess._shingles
        monkeypatch.setattr(preprocess, "_shingles",
                            lambda tokens: shingled.append(tuple(tokens)) or shingles(tokens))
        episodes = load_fixture_episodes(fixtures_dir)
        _, report = filter_corpus(episodes)
        assert json.loads(report.to_json()) == EXPECTED_REPORT
        survivors = [e for e in episodes if preprocess.DESC_MIN_CHARS <= len(e.description)
                     <= preprocess.DESC_MAX_CHARS]
        deduped = len(survivors) - report.rejected_by_rule["duplicate_description"]
        # the length rule shingles every survivor's description; rule 3 only
        # the show descriptions of those rule 2 kept
        assert shingled[:len(survivors)] == [tuple(token_texts(e.description))
                                             for e in survivors]
        assert len(shingled) == len(survivors) + deduped

    def test_reads_a_one_pass_iterator(self, fixtures_dir):
        episodes = load_fixture_episodes(fixtures_dir)
        assert filter_corpus(iter(episodes)) == filter_corpus(episodes)

    def test_report_holds_each_kept_cleaned_description(self, fixtures_dir):
        kept, report = filter_corpus(load_fixture_episodes(fixtures_dir))
        assert report.cleaned_descriptions == {
            episode.id: clean_description(episode.description) for episode in kept}

    def test_boundary_lengths_kept(self, fixtures_dir):
        episodes = load_fixture_episodes(fixtures_dir)
        by_id = {e.id: e for e in episodes}
        assert len(by_id["ep-keep-06"].description) == 750  # inclusive upper bound
        assert len(by_id["ep-too-short"].description) == 18

    def test_too_long_description_rejected(self):
        episodes = [Episode(id="long", transcript_text="t",
                            description="word " * 160)]  # 800 chars
        assert len(episodes[0].description) == 800
        kept, report = filter_corpus(episodes)
        assert kept == []
        assert report.reasons["long"] == "desc_too_long"

    def test_exactly_twenty_chars_kept_by_length_rule(self):
        description = "a b c d e f g h i jo"
        assert len(description) == 20
        episodes = [Episode(id="e", transcript_text="t", description=description)]
        _, report = filter_corpus(episodes)
        assert "desc_too_short" not in report.rejected_by_rule

    def test_first_match_short_circuits(self):
        # violates length and profanity; only the first rule is recorded
        episodes = [Episode(id="e", transcript_text="t", description="badword here")]
        kept, report = filter_corpus(episodes)
        assert report.reasons["e"] == "desc_too_short"
        assert "profanity" not in report.rejected_by_rule

    def test_profanity_in_show_description_rejects(self):
        episodes = [Episode(
            id="e", transcript_text="t",
            description="a perfectly ordinary chat about the weather and the news today",
            show_description="the swearword network",
        )]
        kept, report = filter_corpus(episodes)
        assert report.reasons["e"] == "profanity"

    def test_profanity_list_path_replaces_bundled_list(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("weather\n", encoding="utf-8")
        episodes = [Episode(
            id="e", transcript_text="t",
            description="a perfectly ordinary chat about the weather and the news today",
        )]
        assert [e.id for e in filter_corpus(episodes)[0]] == ["e"]
        kept, report = filter_corpus(episodes, FilterConfig(profanity_list_path=str(path)))
        assert kept == []
        assert report.reasons == {"e": "profanity"}

    def test_duplicate_keeps_first_occurrence(self):
        description = "the very same text about the very same show and its hosts"
        episodes = [
            Episode(id="first", transcript_text="t", description=description),
            Episode(id="second", transcript_text="t", description=description),
        ]
        kept, report = filter_corpus(episodes)
        assert [e.id for e in kept] == ["first"]
        assert report.reasons["second"] == "duplicate_description"

    def test_near_duplicate_below_threshold_kept(self):
        base = "the hosts walk through the week of news with their usual calm and a few good jokes along the way"
        variant = base.replace("calm", "cheer")
        score = similarity(base, variant)
        assert 0.5 < score < 0.9  # near but below: kept
        episodes = [
            Episode(id="a", transcript_text="t", description=base),
            Episode(id="b", transcript_text="t", description=variant),
        ]
        kept, _ = filter_corpus(episodes)
        assert [e.id for e in kept] == ["a", "b"]

    def test_idempotent_on_kept_set(self, fixtures_dir):
        episodes = load_fixture_episodes(fixtures_dir)
        kept, _ = filter_corpus(episodes)
        kept_again, report = filter_corpus(kept)
        assert [e.id for e in kept_again] == [e.id for e in kept]
        assert report.rejected_by_rule == {}


def duplicate_verdicts(shingle_sets):
    index = _DuplicateIndex(shingle_sets)
    return [not index.add_unless_duplicate(shingles) for shingles in shingle_sets]


def shingle_set(words):
    return frozenset((word,) for word in words)


def edge_sets(rng):
    """Shingle sets at the 0.9 edge: earlier sets repeated, emptied, or with a
    few shingles dropped and a few added, from sizes where 0.9 * size is and
    is not an integer."""
    sets = []
    for _ in range(rng.randint(1, 30)):
        roll = rng.random()
        if not sets or roll < 0.2:
            size = rng.choice([0, 1, 2, 3, 9, 10, 11, 19, 20, 21, 29, 30, 40])
            sets.append(frozenset(tuple(rng.choices("abcdefgh", k=3)) for _ in range(size)))
        elif roll < 0.35:
            sets.append(rng.choice(sets))
        else:
            base = sorted(rng.choice(sets))
            dropped = set(rng.sample(base, min(len(base), rng.randint(0, 4))))
            added = {(f"new{rng.randrange(50)}",) for _ in range(rng.randint(0, 3))}
            sets.append(frozenset(base) - dropped | added)
    return sets


class TestDuplicateIndex:
    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_all_pairs_oracle_at_the_edge(self, seed):
        sets = edge_sets(random.Random(seed))
        assert duplicate_verdicts(sets) == oracle_near_duplicates(sets, DUPLICATE_SIM_THRESHOLD)

    @pytest.mark.parametrize("size", [10, 20, 30, 40, 100])
    def test_jaccard_of_exactly_the_threshold_is_a_duplicate(self, size):
        # 0.9 * size is an integer: dropping a tenth leaves J = 0.9 exactly
        base = [f"w{i}" for i in range(size)]
        exact = shingle_set(base[:size - size // 10])
        under = shingle_set(base[:size - size // 10 - 1])
        assert duplicate_verdicts([shingle_set(base), exact]) == [False, True]
        assert duplicate_verdicts([shingle_set(base), under]) == [False, False]
        # the same pairs the other way round: the longer set comes second
        assert duplicate_verdicts([exact, shingle_set(base)]) == [False, True]
        assert duplicate_verdicts([under, shingle_set(base)]) == [False, False]

    def test_prefix_keeps_the_fewest_shared_shingles_a_duplicate_can_have(self):
        for size in range(1, 2001):
            fewest = math.ceil(DUPLICATE_SIM_THRESHOLD * size)
            assert (fewest - 1) / size < DUPLICATE_SIM_THRESHOLD <= fewest / size

    def test_empty_sets_and_repeats(self):
        empty = frozenset()
        full = shingle_set("abcdefghij")
        assert duplicate_verdicts([empty, empty, full, full, empty, full]) == [
            False, False, False, True, False, True]

    def test_first_occurrence_wins_and_duplicates_are_not_indexed(self):
        words = [f"w{i}" for i in range(20)]
        first = shingle_set(words)
        second = shingle_set(words[1:] + ["x"])       # J = 19 / 21 with first
        third = shingle_set(words[2:] + ["x", "y"])   # 19 / 21 with second, 18 / 22 with first
        assert duplicate_verdicts([first, second, third]) == [False, True, False]
        assert duplicate_verdicts([second, third, first]) == [False, True, True]

    def test_distinct_descriptions_cost_about_one_comparison_each(self, monkeypatch):
        """1,600 distinct templated descriptions of 57-60 shingles, ten shows of
        twelve theme words each: comparing every pair takes 1,279,200 calls."""
        rng = random.Random(5)
        filler = [f"filler{i}" for i in range(1000)]

        def description(number):
            theme = [rng.choice([f"show{number % 10}word{i}" for i in range(12)])
                     for _ in range(7)]
            other = [rng.choice(filler) for _ in range(3)]
            return (f"show {number % 10} opens with its usual blurb about the hosts and "
                    f"the weekly news in part {number} we also get into the {theme[0]} the "
                    f"{other[0]} and the {theme[1]} question with a guest from {other[1]} "
                    f"later we turn to the {theme[2]} and the {theme[3]} and what the "
                    f"{theme[4]} taught us about the {theme[5]} listener mail closes it "
                    f"with the {other[2]} and the {theme[6]}").split()

        sets = [_shingles(description(number)) for number in range(1600)]
        calls = []
        jaccard = preprocess._jaccard
        monkeypatch.setattr(preprocess, "_jaccard", lambda a, b: calls.append(1) or jaccard(a, b))
        assert duplicate_verdicts(sets) == [False] * 1600
        assert 0 < len(calls) <= 3200


class TestSplitDataset:
    def test_ten_episodes_split_8_1_1(self):
        ids = [f"ep{i}" for i in range(10)]
        assignment = split_dataset(ids, seed=3)
        assert Counter(assignment.assignments.values()) == {
            "train": 8, "validation": 1, "test": 1}
        assert set(assignment.assignments) == set(ids)

    def test_deterministic_per_seed(self):
        ids = [f"ep{i}" for i in range(50)]
        assert split_dataset(ids, seed=9).assignments == split_dataset(ids, seed=9).assignments

    def test_different_seeds_differ(self):
        ids = [f"ep{i}" for i in range(50)]
        a = split_dataset(ids, seed=0).assignments
        b = split_dataset(ids, seed=1).assignments
        assert a != b

    def test_remainder_goes_to_train(self):
        ids = [f"ep{i}" for i in range(12)]
        counts = Counter(split_dataset(ids, seed=0).assignments.values())
        assert counts == {"train": 10, "validation": 1, "test": 1}

    def test_partition_is_exact_for_many_sizes(self):
        for n in range(3, 40):
            ids = [f"ep{i}" for i in range(n)]
            assignment = split_dataset(ids, seed=n)
            counts = Counter(assignment.assignments.values())
            assert sum(counts.values()) == n
            assert counts["validation"] == max(1, n // 10)
            assert counts["test"] == max(1, n // 10)
            assert counts["train"] > 0  # every bucket is filled, 3-9 episodes included

    def test_too_few_episodes_rejected(self):
        for ids in (["a"], ["a", "b"]):
            with pytest.raises(InsufficientContentError,
                               match=f"at least 3 episodes.*got {len(ids)}"):
                split_dataset(ids)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigError):
            split_dataset(["a", "a", "b"])

    def test_jsonl_shape(self):
        assignment = split_dataset([f"ep{i}" for i in range(5)], seed=1)
        lines = assignment.to_jsonl().strip().split("\n")
        assert len(lines) == 5
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"id", "split"}
            assert record["split"] in ("train", "validation", "test")
