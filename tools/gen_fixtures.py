#!/usr/bin/env python3
"""Regenerate the committed test fixtures.

Deterministic: running this twice produces identical files. The filter
fixture plants exactly one violation per rejection rule; the mini corpus
is ten synthetic episodes that all pass the default filter, one per theme
of perfbench/workloads.py's vocabulary, which the benchmark corpora use too.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import DESCRIPTION_TEMPLATES, FUNCTION_WORDS, THEMES  # noqa: E402


def make_transcript(rng: random.Random, theme_words: list[str], sentence_count: int) -> str:
    sentences = []
    for _ in range(sentence_count):
        length = rng.randint(5, 9)
        words = []
        for position in range(length):
            pool = theme_words if rng.random() < 0.45 else FUNCTION_WORDS
            words.append(rng.choice(pool))
        text = " ".join(words)
        terminal = "?" if rng.random() < 0.1 else "."
        sentences.append(text[0].upper() + text[1:] + terminal)
    return " ".join(sentences)


def gen_mini_corpus() -> list[dict]:
    rng = random.Random(20250819)
    episodes = []
    for number, (theme, words) in enumerate(sorted(THEMES.items()), start=1):
        sentence_count = rng.randint(30, 40)
        episodes.append({
            "id": f"mini-{number:02d}",
            "show_id": f"show-{theme}",
            "transcript": make_transcript(rng, words, sentence_count),
            "description": DESCRIPTION_TEMPLATES[theme],
            "show_description": f"A weekly show about {theme} for curious listeners.",
            "duration_seconds": float(rng.randint(900, 3600)),
        })
    return episodes


def exactly_n_chars(base_words: list[str], n: int) -> str:
    """Compose natural-ish text of exactly n characters, no trailing space."""
    text = ""
    i = 0
    while len(text) < n:
        word = base_words[i % len(base_words)]
        text = word if not text else text + " " + word
        i += 1
    text = text[:n]
    if text.endswith(" "):
        text = text[:-1] + "x"
    return text


def gen_filter_fixture() -> list[dict]:
    keep1_desc = ("A relaxed conversation about sourdough baking, starter care, "
                  "and the joy of a good crust shared between friends.")
    boundary_words = ("the hosts compare notes on long distance travel and the gear "
                      "that held up after years of hard use on the road").split()
    episodes = [
        {
            "id": "ep-keep-01",
            "show_id": "show-a",
            "transcript": "We talk bread today. The starter is lively. Bake it hot.",
            "description": keep1_desc,
            "show_description": "Weekly kitchen stories from two home bakers.",
        },
        {
            "id": "ep-too-short",
            "show_id": "show-a",
            "transcript": "Short chat about nothing much at all today.",
            "description": "Great episode now.",  # 18 chars, below the 20 minimum
            "show_description": "Weekly kitchen stories from two home bakers.",
        },
        {
            "id": "ep-keep-02",
            "show_id": "show-b",
            "transcript": "Stars look close tonight. The telescope is ready. We wait for dark.",
            "description": ("Backyard astronomy for beginners, with advice on a first "
                            "telescope and where to find truly dark skies."),
            "show_description": "Two stargazers compare notes after midnight.",
        },
        {
            "id": "ep-duplicate",
            "show_id": "show-c",
            "transcript": "A repeat style chat about bread and baking routines again.",
            "description": keep1_desc,  # identical to ep-keep-01, rejected as duplicate
            "show_description": "Copycat feed with recycled notes.",
        },
        {
            "id": "ep-keep-03",
            "show_id": "show-d",
            "transcript": "The climb was steep. Our legs burned badly. The descent paid it back.",
            "description": ("A ride report from the gravel hills, covering tire pressure, "
                            "snack strategy, and one glorious descent."),
            "show_description": "Cycling stories recorded in the garage.",
        },
        {
            "id": "ep-show-echo",
            "show_id": "show-e",
            "transcript": "We repeat the show blurb as our notes. Nothing new here.",
            # identical to its own show_description, rejected by the overlap rule
            "description": "The same boilerplate blurb pasted on every single episode of this feed.",
            "show_description": "The same boilerplate blurb pasted on every single episode of this feed.",
        },
        {
            "id": "ep-profane",
            "show_id": "show-f",
            "transcript": "A heated debate gets loud. Apologies are made at the end.",
            "description": ("The hosts trade stories and one flustered guest says badword "
                            "twice before the break while reviewing listener mail."),
            "show_description": "Unfiltered roundtable chatter.",
        },
        {
            "id": "ep-keep-04",
            "show_id": "show-g",
            "transcript": "Compost turns slowly. The seedlings harden off. Rain helps everyone.",
            "description": ("Spring garden jobs in order, from turning compost to hardening "
                            "off seedlings without losing them to frost."),
            "show_description": "A potting shed podcast about patient gardening.",
        },
        {
            "id": "ep-non-english",
            "show_id": "show-h",
            "transcript": "Una charla tranquila sobre cocina y viajes por la costa.",
            "description": ("Charla amable sobre cocina tradicional, recetas caseras y "
                            "viajes culinarios por pueblos costeros."),
            "show_description": "Conversaciones sin prisa cada semana.",
        },
        {
            "id": "ep-keep-05",
            "show_id": "show-i",
            "transcript": "The gambit looked unsound. The clock decided otherwise. A draw felt fair.",
            "description": ("A long look at one gambit game, the blunder that nearly lost it, "
                            "and the endgame squeeze that saved the draw."),
            "show_description": "Chess talk for club players.",
        },
        {
            "id": "ep-sparse",
            "show_id": "show-j",
            "transcript": "A short promo style episode with little content inside it.",
            # cleaning drops the sponsorship sentence, leaving under 10 tokens
            "description": "This show is sponsored by MegaCorp today. Subscribe now everywhere!",
            "show_description": "Short promos and announcements.",
        },
        {
            "id": "ep-keep-06",
            "show_id": "show-k",
            "transcript": "The kiln cools all night. Morning reveals the glaze. Some mugs crack anyway.",
            # exactly 750 characters, the inclusive upper bound for description length
            "description": exactly_n_chars(boundary_words, 750),
            "show_description": "Slow craft radio from a shared studio.",
        },
    ]
    return episodes


def write_jsonl(path: Path, records: list[dict]):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
    print(f"wrote {path} ({len(records)} records)")


def main():
    FIXTURES.mkdir(parents=True, exist_ok=True)
    write_jsonl(FIXTURES / "filter_fixture.jsonl", gen_filter_fixture())
    write_jsonl(FIXTURES / "mini_corpus.jsonl", gen_mini_corpus())


if __name__ == "__main__":
    main()
