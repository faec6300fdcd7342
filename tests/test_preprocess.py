import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podselect.corpus import Episode, load_episodes
from podselect.errors import ConfigError, InsufficientContentError
from podselect.preprocess import (FilterConfig, clean_description,
                                  contains_profanity, description_similarity,
                                  detect_english, filter_corpus,
                                  load_profanity_list, split_dataset)

PLACEHOLDER_LIST = load_profanity_list()


class TestCleanDescription:
    def test_url_and_follow_clause_removed(self):
        assert clean_description("Great talk! Follow us at http://x.co/pod") == "Great talk!"

    def test_sponsor_sentence_removed(self):
        raw = "Hosted by Ana. Use promo code SAVE10 at checkout."
        assert clean_description(raw) == "Hosted by Ana."

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

    def test_email_like_text_survives(self):
        raw = "Reach the desk at mailbag all week."
        assert clean_description(raw) == raw

    @given(st.text(alphabet="abc .!", max_size=60))
    @settings(max_examples=100)
    def test_idempotent(self, raw):
        once = clean_description(raw)
        assert clean_description(once) == once


class TestProfanity:
    def test_listed_word_hits(self):
        assert contains_profanity("He said badword twice", PLACEHOLDER_LIST)

    def test_case_and_punctuation_insensitive(self):
        assert contains_profanity("He said BadWord!", PLACEHOLDER_LIST)

    def test_substring_does_not_hit(self):
        assert not contains_profanity("the badwording continued", PLACEHOLDER_LIST)

    def test_clean_text_passes(self):
        assert not contains_profanity("a perfectly polite chat", PLACEHOLDER_LIST)

    def test_missing_wordlist_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            load_profanity_list(tmp_path / "missing.txt")

    def test_custom_wordlist_file(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("# comment\nzonk\n", encoding="utf-8")
        words = load_profanity_list(path)
        assert contains_profanity("total zonk moment", words)
        assert not contains_profanity("zonked out", words)


class TestDetectEnglish:
    def test_english_sentence(self):
        is_english, ratio = detect_english("the quick brown fox jumps over the lazy dog")
        assert is_english
        assert ratio == pytest.approx(3 / 9, abs=1e-12)

    def test_german_sentence(self):
        is_english, ratio = detect_english("der schnelle braune fuchs springt")
        assert not is_english
        assert ratio == 0.0

    def test_no_tokens_raises(self):
        with pytest.raises(ValueError):
            detect_english("!!! ...")

    def test_threshold_is_inclusive(self):
        # exactly one stopword in five tokens, threshold 0.2
        is_english, ratio = detect_english("the zebra quagga okapi bongo")
        assert ratio == pytest.approx(0.2, abs=1e-12)
        assert is_english


class TestDescriptionSimilarity:
    def test_hand_counted_half(self):
        # shingles abc bcd cde vs abc bcd cdf: 2 shared of 4 distinct
        assert description_similarity("a b c d e", "a b c d f") == pytest.approx(0.5)

    def test_identical_is_one(self):
        text = "an identical description of this episode"
        assert description_similarity(text, text) == 1.0

    def test_identical_after_normalization_is_one(self):
        assert description_similarity("Hello, World!", "hello world") == 1.0

    def test_short_identical_inputs(self):
        assert description_similarity("two words", "two words") == 1.0

    def test_disjoint_is_zero(self):
        assert description_similarity("alpha beta gamma delta", "epsilon zeta eta theta") == 0.0

    def test_empty_side_is_zero(self):
        assert description_similarity("", "some words here") == 0.0
        assert description_similarity("", "") == 0.0

    @given(st.text(alphabet="ab c", max_size=40), st.text(alphabet="ab c", max_size=40))
    @settings(max_examples=100)
    def test_symmetric_and_bounded(self, a, b):
        forward = description_similarity(a, b)
        assert forward == description_similarity(b, a)
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
        similarity = description_similarity(base, variant)
        assert 0.5 < similarity < 0.9  # near but below: kept
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


class TestSplitDataset:
    def test_ten_episodes_split_8_1_1(self):
        ids = [f"ep{i}" for i in range(10)]
        assignment = split_dataset(ids, seed=3)
        assert assignment.counts() == {"train": 8, "validation": 1, "test": 1}
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
        counts = split_dataset(ids, seed=0).counts()
        assert counts == {"train": 10, "validation": 1, "test": 1}

    def test_partition_is_exact_for_many_sizes(self):
        for n in range(3, 40):
            ids = [f"ep{i}" for i in range(n)]
            assignment = split_dataset(ids, seed=n)
            counts = assignment.counts()
            assert sum(counts.values()) == n
            assert counts["validation"] == n // 10
            assert counts["test"] == n // 10

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
