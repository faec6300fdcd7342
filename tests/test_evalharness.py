import json

import pytest

from podselect.abstractive import Summary
from podselect.errors import MissingReferenceError
from podselect.evalharness import EvalRow, evaluate_run, render_table


def summary(episode_id, text):
    return Summary(episode_id=episode_id, text=text, backend_id="null")


class TestEvaluateRun:
    def test_identity_scores_one_hundred(self):
        references = {"e1": "the first reference here", "e2": "another one entirely"}
        summaries = [summary(k, v) for k, v in references.items()]
        row = evaluate_run(summaries, references, method_id="identity")
        assert row == EvalRow("identity", 100.0, 100.0, 100.0)

    def test_disjoint_scores_zero(self):
        references = {"e1": "alpha beta gamma"}
        row = evaluate_run([summary("e1", "delta epsilon zeta")], references)
        assert (row.rouge_l_p, row.rouge_l_r, row.rouge_l_f) == (0.0, 0.0, 0.0)

    def test_single_pair_two_thirds(self):
        # LCS("a b c", "a b d") = 2 -> P = R = F = 2/3 -> 66.67
        row = evaluate_run([summary("e", "a b c")], {"e": "a b d"})
        assert (row.rouge_l_p, row.rouge_l_r, row.rouge_l_f) == (66.67, 66.67, 66.67)

    def test_macro_average_of_identity_and_disjoint(self):
        references = {"same": "match these words", "other": "completely different text"}
        summaries = [summary("same", "match these words"),
                     summary("other", "unrelated noise tokens")]
        row = evaluate_run(summaries, references)
        assert (row.rouge_l_p, row.rouge_l_r, row.rouge_l_f) == (50.0, 50.0, 50.0)

    def test_an_episode_without_a_summary_scores_zero(self):
        """It still counts in the average, so runs that skip different episodes
        are scored on the same set."""
        references = {"kept": "match these words", "skipped": "never summarized here"}
        row = evaluate_run([summary("kept", "match these words")], references)
        assert (row.rouge_l_p, row.rouge_l_r, row.rouge_l_f) == (50.0, 50.0, 50.0)
        assert row == evaluate_run([summary("kept", "match these words"),
                                    summary("skipped", "")], references)

    def test_rounding_is_half_even(self):
        # candidate of 32 tokens sharing exactly one with a 1-token reference:
        # P = 1/32 -> 3.125 rounds down to the even digit, F = 2/33 -> 6.06
        candidate = " ".join(["x"] + [f"w{i}" for i in range(31)])
        row = evaluate_run([summary("e", candidate)], {"e": "x"})
        assert row.rouge_l_p == 3.12
        assert row.rouge_l_r == 100.0
        assert row.rouge_l_f == 6.06

    def test_tokenization_normalizes_case_and_punctuation(self):
        row = evaluate_run([summary("e", "Hello, World!")], {"e": "hello world"})
        assert row.rouge_l_f == 100.0

    def test_missing_references_reported_together_sorted(self):
        summaries = [summary("z-ep", "t"), summary("a-ep", "t"), summary("ok", "t")]
        with pytest.raises(MissingReferenceError) as excinfo:
            evaluate_run(summaries, {"ok": "t"})
        assert excinfo.value.episode_ids == ["a-ep", "z-ep"]

    def test_empty_run_rejected(self):
        with pytest.raises(ValueError):
            evaluate_run([], {"e": "t"})

    def test_order_of_summaries_does_not_matter(self):
        references = {"e1": "a b c d", "e2": "p q r", "e3": "x y"}
        summaries = [summary("e1", "a b z"), summary("e2", "p z z"),
                     summary("e3", "x y")]
        forward = evaluate_run(summaries, references)
        backward = evaluate_run(list(reversed(summaries)), references)
        assert forward == backward


FROZEN_ROWS = [EvalRow("window", 12.34, 5.6, 78.9),
               EvalRow("novelty+x", 100.0, 0.0, 6.06)]


class TestRenderTable:
    def test_text_layout_frozen(self):
        expected = (
            "method     rouge_l_p  rouge_l_r  rouge_l_f\n"
            "window         12.34       5.60      78.90\n"
            "novelty+x     100.00       0.00       6.06\n"
        )
        assert render_table(FROZEN_ROWS, "text") == expected

    def test_csv_frozen(self):
        expected = (
            "method,rouge_l_p,rouge_l_r,rouge_l_f\n"
            "window,12.34,5.60,78.90\n"
            "novelty+x,100.00,0.00,6.06\n"
        )
        assert render_table(FROZEN_ROWS, "csv") == expected

    def test_json_round_trips(self):
        rendered = render_table(FROZEN_ROWS, "json")
        assert rendered.endswith("\n")
        payload = json.loads(rendered)
        assert payload == [
            {"method": "window", "rouge_l_p": 12.34, "rouge_l_r": 5.6,
             "rouge_l_f": 78.9},
            {"method": "novelty+x", "rouge_l_p": 100.0, "rouge_l_r": 0.0,
             "rouge_l_f": 6.06},
        ]

    def test_byte_stable_across_calls(self):
        for fmt in ("text", "csv", "json"):
            assert render_table(FROZEN_ROWS, fmt) == render_table(FROZEN_ROWS, fmt)

    def test_default_format_is_text(self):
        assert render_table(FROZEN_ROWS) == render_table(FROZEN_ROWS, "text")

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            render_table([], "text")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_table(FROZEN_ROWS, "yaml")
