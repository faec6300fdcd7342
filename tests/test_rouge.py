import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from podselect.rouge import lcs_length, rouge_l, rouge_n

from oracles import (oracle_lcs_full_table, oracle_rouge_avg, oracle_rouge_l,
                     oracle_rouge_n)

WORDS = st.lists(st.sampled_from("red blue green stone river cloud".split()), max_size=30)


class TestRougeN:
    def test_unigram_two_thirds(self):
        # "the cat sat" vs "the cat ate": 2 shared unigrams of 3 each side
        score = rouge_n("the cat sat".split(), "the cat ate".split(), 1)
        assert score.precision == pytest.approx(2 / 3, abs=1e-15)
        assert score.recall == pytest.approx(2 / 3, abs=1e-15)
        assert score.f1 == pytest.approx(2 / 3, abs=1e-15)

    def test_bigram_half(self):
        score = rouge_n("the cat sat".split(), "the cat ate".split(), 2)
        assert score.precision == pytest.approx(0.5, abs=1e-15)
        assert score.recall == pytest.approx(0.5, abs=1e-15)
        assert score.f1 == pytest.approx(0.5, abs=1e-15)

    def test_clipped_counting(self):
        # candidate repeats a gram more often than the reference holds it
        score = rouge_n(["a", "a", "a"], ["a", "b"], 1)
        assert score.precision == pytest.approx(1 / 3, abs=1e-15)
        assert score.recall == pytest.approx(1 / 2, abs=1e-15)

    def test_clipped_bigrams(self):
        # a b a b holds (a, b) twice and (b, a) once; the reference holds (a, b)
        # once and (b, a) twice, so each gram counts once
        score = rouge_n(["a", "b", "a", "b"], ["b", "a", "b", "a", "x"], 2)
        assert score.precision == pytest.approx(2 / 3, abs=1e-15)
        assert score.recall == pytest.approx(2 / 4, abs=1e-15)

    def test_a_side_shorter_than_n_scores_zero(self):
        # one token holds no bigram
        for candidate, reference in (["a"], ["a", "a"]), (["a", "a"], ["a"]):
            score = rouge_n(candidate, reference, 2)
            assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)

    def test_empty_sides_score_zero(self):
        for candidate, reference in ([], ["a"]), (["a"], []), ([], []):
            score = rouge_n(candidate, reference, 1)
            assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)

    def test_unsupported_n_rejected(self):
        for n in (3, 0, -1):
            with pytest.raises(ValueError):
                rouge_n(["a"], ["a"], n)

    def test_matches_oracle_on_random_pairs(self):
        rng = random.Random(1001)
        vocab = [f"w{i}" for i in range(12)]
        for _ in range(300):
            a = [rng.choice(vocab) for _ in range(rng.randint(0, 40))]
            b = [rng.choice(vocab) for _ in range(rng.randint(0, 40))]
            for n in (1, 2):
                got = rouge_n(a, b, n)
                want = oracle_rouge_n(a, b, n)
                assert (got.precision, got.recall, got.f1) == want


class TestLcs:
    def test_classic_pair(self):
        assert lcs_length("abcbdab", "bdcaba") == 4

    def test_identical_and_disjoint(self):
        assert lcs_length(list("abcd"), list("abcd")) == 4
        assert lcs_length(list("abcd"), list("efgh")) == 0
        assert lcs_length([], list("ab")) == 0
        assert lcs_length([], []) == 0

    def test_matches_full_table_on_many_random_pairs(self):
        rng = random.Random(1002)
        alphabet = "abcdef"
        for _ in range(1000):
            a = [rng.choice(alphabet) for _ in range(rng.randint(0, 200))]
            b = [rng.choice(alphabet) for _ in range(rng.randint(0, 200))]
            assert lcs_length(a, b) == oracle_lcs_full_table(a, b)

    def test_matches_full_table_at_evaluation_shape(self):
        # A ~1,100-token capped summary against a ~70-token description,
        # words drawn Zipf-like from a ~300-word vocabulary; references past
        # 64 and 128 tokens make the bit vector span several machine words.
        vocab = [f"w{i}" for i in range(300)]
        weights = [1 / (rank + 1) for rank in range(len(vocab))]
        for seed in range(3):
            rng = random.Random(seed)
            for ref_len in (70, 65, 130, 200):
                candidate = rng.choices(vocab, weights, k=rng.randint(1050, 1150))
                reference = rng.choices(vocab, weights, k=ref_len)
                expected = oracle_lcs_full_table(candidate, reference)
                assert lcs_length(candidate, reference) == expected
                assert lcs_length(reference, candidate) == expected

    @pytest.mark.parametrize("shared_share", [0.0, 1 / 3, 1.0])
    def test_matches_full_table_when_the_loop_skips_unshared_tokens(self, shared_share):
        # The loop runs only over the longer side's tokens that occur in the
        # shorter side: none of them, about a third as in evaluation, or all.
        rng = random.Random(f"shared:{shared_share}")
        shorter = [f"r{rng.randrange(40)}" for _ in range(60)]
        pool = sorted(set(shorter))
        longer = [rng.choice(pool) if rng.random() < shared_share else f"c{rng.randrange(500)}"
                  for _ in range(1000)]
        expected = oracle_lcs_full_table(longer, shorter)
        assert lcs_length(longer, shorter) == lcs_length(shorter, longer) == expected
        if shared_share == 0.0:
            assert expected == 0

    @given(WORDS, WORDS)
    def test_symmetry(self, a, b):
        assert lcs_length(a, b) == lcs_length(b, a)

    @given(WORDS, WORDS)
    def test_bounded_by_shorter_side(self, a, b):
        assert 0 <= lcs_length(a, b) <= min(len(a), len(b))

    @given(WORDS, WORDS, WORDS)
    @settings(max_examples=60)
    def test_common_prefix_peels_off(self, prefix, a, b):
        assert lcs_length(prefix + a, prefix + b) == len(prefix) + lcs_length(a, b)


class TestRougeL:
    def test_known_pair(self):
        score = rouge_l("the cat on mat".split(), "the cat sat on the mat".split())
        assert score.precision == pytest.approx(1.0, abs=1e-15)
        assert score.recall == pytest.approx(2 / 3, abs=1e-15)
        assert score.f1 == pytest.approx(0.8, abs=1e-15)

    def test_matches_oracle_on_random_pairs(self):
        rng = random.Random(1003)
        vocab = [f"w{i}" for i in range(8)]
        for _ in range(200):
            a = [rng.choice(vocab) for _ in range(rng.randint(0, 60))]
            b = [rng.choice(vocab) for _ in range(rng.randint(0, 60))]
            got = rouge_l(a, b)
            assert (got.precision, got.recall, got.f1) == oracle_rouge_l(a, b)


def kernel_rouge_avg(candidate, reference):
    """The mean of the ROUGE-1, ROUGE-2 and ROUGE-L F1 values, from the kernels."""
    return (rouge_n(candidate, reference, 1).f1 + rouge_n(candidate, reference, 2).f1
            + rouge_l(candidate, reference).f1) / 3.0


class TestOracleRougeAvg:
    """The mean the selectors' closed-form scores are checked against."""

    def test_known_pair(self):
        value = oracle_rouge_avg("the cat sat".split(), "the cat ate".split())
        assert value == pytest.approx(11 / 18, abs=1e-12)

    def test_identical_sequences_score_one(self):
        tokens = "a b c a d".split()
        assert oracle_rouge_avg(tokens, tokens) == pytest.approx(1.0, abs=1e-15)

    def test_any_single_token_change_drops_below_one(self):
        rng = random.Random(1004)
        vocab = [f"w{i}" for i in range(6)]
        for _ in range(50):
            tokens = [rng.choice(vocab) for _ in range(rng.randint(2, 20))]
            mutated = list(tokens)
            mutated[rng.randrange(len(mutated))] = "unseen-token"
            assert oracle_rouge_avg(mutated, tokens) < 1.0

    def test_matches_mean_of_kernels(self):
        rng = random.Random(1005)
        vocab = [f"w{i}" for i in range(10)]
        for _ in range(100):
            a = [rng.choice(vocab) for _ in range(rng.randint(0, 30))]
            b = [rng.choice(vocab) for _ in range(rng.randint(0, 30))]
            assert kernel_rouge_avg(a, b) == pytest.approx(oracle_rouge_avg(a, b), abs=1e-15)


class TestOverlapSymmetry:
    @given(WORDS, WORDS)
    def test_recall_of_one_side_is_precision_of_other(self, a, b):
        for n in (1, 2):
            assert rouge_n(a, b, n).recall == rouge_n(b, a, n).precision
