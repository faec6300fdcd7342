"""Seeded synthetic corpora for the benchmark workloads.

Everything here is a pure function of the workload spec and the seed, so
the same seed always yields byte-identical JSONL. The theme vocabularies
and description templates follow tools/gen_fixtures.py; a Zipf-distributed
filler vocabulary of a few thousand pseudo-words is mixed in so that
per-episode distinct-word counts (which LDA and the n-gram tables scale
with) look like real transcripts instead of a 30-word toy language.
"""

from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass

FUNCTION_WORDS = [
    "the", "and", "we", "it", "a", "of", "to", "in", "was", "so",
    "then", "that", "for", "on", "with", "they", "this", "but",
]

THEMES = {
    "sourdough": ["sourdough", "starter", "crust", "flour", "oven", "proofing",
                  "crumb", "loaf", "bakery", "hydration", "levain", "scoring"],
    "astronomy": ["telescope", "nebula", "orbit", "comet", "eclipse", "galaxy",
                  "aperture", "stargazing", "meteor", "planet", "lens", "dark"],
    "cycling": ["gravel", "derailleur", "climb", "descent", "panniers", "route",
                "saddle", "tires", "cadence", "headwind", "bikepacking", "frame"],
    "gardening": ["compost", "seedlings", "mulch", "trellis", "tomatoes", "soil",
                  "pruning", "beds", "harvest", "pollinators", "shade", "weeds"],
    "chess": ["opening", "endgame", "gambit", "blunder", "tactics", "knight",
              "castling", "tempo", "sacrifice", "position", "clock", "rating"],
    "jazz": ["saxophone", "improvisation", "quartet", "swing", "vinyl", "chord",
             "session", "trumpet", "rhythm", "ballad", "club", "solo"],
    "hiking": ["trailhead", "switchback", "summit", "ridgeline", "blisters",
               "shelter", "creek", "elevation", "permits", "scramble", "fog", "pack"],
    "pottery": ["wheel", "glaze", "kiln", "stoneware", "trimming", "slip",
                "bisque", "clay", "studio", "mugs", "firing", "wedging"],
    "sailing": ["mainsail", "harbor", "tack", "rigging", "keel", "swell",
                "anchorage", "jib", "crossing", "knots", "chart", "mooring"],
    "photography": ["shutter", "aperture", "film", "darkroom", "portrait",
                    "exposure", "tripod", "negatives", "prints", "lightroom",
                    "contrast", "grain"],
}
THEME_NAMES = sorted(THEMES)

DESCRIPTION_TEMPLATES = {
    "sourdough": "We talk through keeping a sourdough starter alive, getting an open crumb, and why oven steam makes the crust sing.",
    "astronomy": "A tour of backyard astronomy this week, from picking a first telescope to catching a meteor shower far from city light.",
    "cycling": "Notes from a long gravel ride, with honest talk about tire choice, packing panniers, and surviving a brutal headwind.",
    "gardening": "The garden wakes up this month, so we cover compost, hardening off seedlings, and keeping pollinators happy in small beds.",
    "chess": "We break down a wild gambit game, the endgame technique that saved it, and how to stop repeating the same opening blunder.",
    "jazz": "A late night session on the records that shaped modern jazz, with a detour into why vinyl reissues keep selling out.",
    "hiking": "Trail notes from a three day ridgeline loop, including permits, water caches, and the switchback that nearly ended us.",
    "pottery": "From wedging clay to pulling the kiln door open, we walk through a full firing cycle and the glazes that surprised us.",
    "sailing": "We recap a coastal crossing, mooring etiquette in a crowded harbor, and the rigging fix that held through a squall.",
    "photography": "Darkroom stories this week, covering film stocks we love, contact prints, and how to meter a portrait in harsh light.",
}

# Letters only (Unicode category L*), so the tokenizer keeps every one of
# them whole and whitespace units stay equal to tokens.
NON_ASCII_WORDS = [
    "café", "naïve", "über", "señor", "façade", "jalapeño", "smörgåsbord",
    "crème", "brûlée", "zürich", "kraków", "søren", "ångström", "mañana",
    "résumé", "piñata", "straße", "tōkyō", "ελλάδα", "москва", "東京", "北京",
]

FILLER_SIZE = 4000
ZIPF_EXPONENT = 1.07
_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"] + ["ar", "en", "ol", "ur", "is"]

# How a token is drawn: theme word, function word, or Zipf filler.
P_THEME = 0.25
P_FUNCTION = 0.35
P_NON_ASCII = 0.04  # per token, only in transcripts marked non-ASCII
P_COMMA = 0.06
THEME_BLOCK = 20  # sentences before a transcript switches between its two themes

RULES = (
    "desc_too_short", "desc_too_long", "duplicate_description",
    "similar_to_show_description", "profanity", "non_english",
    "desc_too_few_tokens",
)


@dataclass(frozen=True)
class Spec:
    """Shape of one workload's corpus and the CLI settings that run it."""

    name: str
    strategy: str
    backend: str
    kept: int                    # episodes that pass the filter
    sentences: tuple[int, int]   # per-episode sentence count range, inclusive
    words: tuple[int, int]       # per-sentence word count range, inclusive
    planted_per_rule: int = 0    # rejected episodes planted for each filter rule
    non_ascii_share: float = 0.0
    oversized_first: int = 0     # kept episodes whose first sentence exceeds the budget
    fault_share: float = 0.0     # episodes whose first backend request gets a 503


# Why each workload exists is recorded in BENCHMARK.json. Episode counts are
# multiples of ten, so each seed uses every theme equally often as a primary
# theme; the selection workloads hold many short episodes rather than a few
# long ones, because the macro ROUGE-L of a run settles with episode count.
SPECS = {
    spec.name: spec for spec in (
        Spec("head-corpus", "none", "null", kept=60, sentences=(100, 300), words=(6, 14),
             planted_per_rule=2, non_ascii_share=0.25, oversized_first=2),
        Spec("novelty-mid", "novelty", "null", kept=30, sentences=(36, 42), words=(6, 14)),
        Spec("topic-transcript", "topic", "null", kept=20, sentences=(34, 40), words=(8, 16)),
        Spec("remote-backend", "none", "remote", kept=200, sentences=(20, 40), words=(6, 14),
             fault_share=0.02),
    )
}


def filler_vocabulary(size: int = FILLER_SIZE) -> list[str]:
    """Distinct pseudo-words, identical for every seed, in Zipf rank order."""
    rng = random.Random(0x5EED)
    taken = set(FUNCTION_WORDS)
    for words in THEMES.values():
        taken.update(words)
    out: list[str] = []
    while len(out) < size:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4)))
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


class _Words:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.filler = filler_vocabulary()
        total = 0.0
        self.cumulative = []
        for rank in range(1, len(self.filler) + 1):
            total += rank ** -ZIPF_EXPONENT
            self.cumulative.append(total)

    def filler_word(self) -> str:
        draw = self.rng.random() * self.cumulative[-1]
        return self.filler[bisect.bisect_left(self.cumulative, draw)]

    def word(self, theme: str, non_ascii: bool) -> str:
        rng = self.rng
        if non_ascii and rng.random() < P_NON_ASCII:
            return rng.choice(NON_ASCII_WORDS)
        roll = rng.random()
        if roll < P_THEME:
            return rng.choice(THEMES[theme])
        if roll < P_THEME + P_FUNCTION:
            return rng.choice(FUNCTION_WORDS)
        return self.filler_word()

    def sentence(self, theme: str, length: int, non_ascii: bool) -> str:
        rng = self.rng
        # An ASCII function word first, so capitalising it keeps its length,
        # and a theme word last: a single letter or an abbreviation before
        # the period would not end the sentence.
        words = [rng.choice(FUNCTION_WORDS)]
        words += [self.word(theme, non_ascii) for _ in range(length - 2)]
        words.append(rng.choice(THEMES[theme]))
        for i in range(length - 1):
            if rng.random() < P_COMMA:
                words[i] += ","
        roll = rng.random()
        terminal = "?" if roll < 0.1 else "!" if roll < 0.15 else "."
        text = " ".join(words)
        return text[0].upper() + text[1:] + terminal


def _spread(lo: int, hi: int, count: int, rng: random.Random) -> list[int]:
    """`count` values evenly covering [lo, hi], in seeded order.

    Every seed gets the same multiset of sizes, so per-seed cost differs
    only by content, not by how many long episodes the draw happened to hold.
    """
    if count == 1:
        return [(lo + hi) // 2]
    values = [lo + round((hi - lo) * i / (count - 1)) for i in range(count)]
    rng.shuffle(values)
    return values


def _transcript(words: _Words, themes: tuple[str, str], sentence_count: int,
                length_range: tuple[int, int], non_ascii: bool) -> str:
    rng = words.rng
    out = []
    for i in range(sentence_count):
        theme = themes[(i // THEME_BLOCK) % 2]
        out.append(words.sentence(theme, rng.randint(*length_range), non_ascii))
    return " ".join(out)


def _description(words: _Words, theme: str, number: int) -> str:
    """The template plus three seeded sentences, about 70 tokens in all.

    The length is there for the ROUGE-L of a run: the LCS of a short
    reference swings widely from episode to episode, and a longer one makes
    the macro score far steadier from seed to seed.
    """
    rng = words.rng
    theme_words = [rng.choice(THEMES[theme]) for _ in range(7)]
    filler = [words.filler_word() for _ in range(3)]
    return (f"{DESCRIPTION_TEMPLATES[theme]} In part {number} we also get into the "
            f"{theme_words[0]}, the {filler[0]} and the {theme_words[1]} question with a guest "
            f"from {filler[1]}. Later we turn to the {theme_words[2]} and the {theme_words[3]}, "
            f"and what the {theme_words[4]} taught us about the {theme_words[5]}. Listener "
            f"mail closes it with the {filler[2]} and the {theme_words[6]}.")


def _show_description(theme: str) -> str:
    return f"A weekly show about {theme} for curious listeners."


def _planted(rule: str, words: _Words, number: int, kept_description: str) -> tuple[str, str]:
    """(description, show_description) that trips `rule` and no earlier rule."""
    # the number sits mid-text, so two plants of one rule differ in at least
    # three 3-token shingles and never reject each other as duplicates
    tag = f"{words.filler_word()} {number} {words.filler_word()}"
    if rule == "desc_too_short":
        return "Great episode now.", _show_description("misc")
    if rule == "desc_too_long":
        return (kept_description + " ") * 7 + tag, _show_description("misc")
    if rule == "duplicate_description":
        return kept_description, _show_description("copies")
    if rule == "similar_to_show_description":
        blurb = f"The same boilerplate blurb {tag} pasted on every single episode of this feed."
        return blurb, blurb
    if rule == "profanity":
        return (f"The hosts trade stories and one flustered guest says badword {tag} "
                f"twice before the break while reviewing listener mail."), "Roundtable chatter."
    if rule == "non_english":
        return (f"Charla amable sobre cocina tradicional {tag} recetas caseras y viajes "
                f"culinarios por pueblos costeros."), "Conversaciones sin prisa."
    if rule == "desc_too_few_tokens":
        return (f"This show is sponsored by {tag} today. Subscribe now everywhere!",
                "Short promos and announcements.")
    raise ValueError(f"unknown rule {rule!r}")


@dataclass(frozen=True)
class Corpus:
    records: list[dict]
    planted: dict[str, str]       # episode id -> rule that must reject it
    kept_ids: list[str]           # in input order
    oversized_ids: list[str]

    def jsonl(self) -> str:
        return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in self.records)


def generate(spec: Spec, seed: int) -> Corpus:
    """Build one workload corpus. Same (spec, seed), same bytes."""
    rng = random.Random(f"{spec.name}:{seed}")
    words = _Words(rng)
    sizes = _spread(*spec.sentences, spec.kept, rng)
    non_ascii_count = round(spec.non_ascii_share * spec.kept)
    non_ascii = set(rng.sample(range(spec.kept), non_ascii_count))
    oversized = set(rng.sample(sorted(set(range(spec.kept)) - non_ascii), spec.oversized_first))

    # primary themes cycle through a seeded order of all ten, so every seed
    # spreads episodes over the themes as evenly as the episode count allows
    primaries = rng.sample(THEME_NAMES, len(THEME_NAMES))
    kept_records = []
    for i in range(spec.kept):
        primary = primaries[i % len(primaries)]
        themes = (primary, rng.choice([t for t in THEME_NAMES if t != primary]))
        transcript = _transcript(words, themes, sizes[i], spec.words, i in non_ascii)
        if i in oversized:
            # one run-on first sentence longer than the default 1024-token budget
            run_on = " ".join(words.word(themes[0], False) for _ in range(1100))
            transcript = f"So {run_on} {themes[0]}. {transcript}"
        kept_records.append({
            "show_id": f"show-{themes[0]}",
            "transcript": transcript,
            "description": _description(words, themes[0], i + 1),
            "show_description": _show_description(themes[0]),
        })

    # planted rejections go after the first kept episode, so a duplicate
    # always has an earlier original
    planted_records = []
    for rule in RULES:
        for number in range(spec.planted_per_rule):
            source = kept_records[rng.randrange(spec.kept)]
            description, show = _planted(rule, words, number, kept_records[0]["description"])
            planted_records.append({
                "show_id": "show-planted",
                "transcript": source["transcript"],
                "description": description,
                "show_description": show,
                "rule": rule,
            })
    order = [("kept", i) for i in range(1, spec.kept)] + \
            [("planted", i) for i in range(len(planted_records))]
    rng.shuffle(order)
    order.insert(0, ("kept", 0))

    records, planted, kept_ids, oversized_ids = [], {}, [], []
    for position, (kind, i) in enumerate(order, start=1):
        episode_id = f"ep-{position:04d}"
        if kind == "kept":
            record = dict(kept_records[i])
            kept_ids.append(episode_id)
            if i in oversized:
                oversized_ids.append(episode_id)
        else:
            record = dict(planted_records[i])
            planted[episode_id] = record.pop("rule")
        records.append({"id": episode_id, **record})
    return Corpus(records=records, planted=planted, kept_ids=kept_ids,
                  oversized_ids=oversized_ids)


def generate_check(seed: int) -> list[dict]:
    """Small episodes (at most 30 sentences) for the exhaustive selection check."""
    rng = random.Random(f"check:{seed}")
    words = _Words(rng)
    out = []
    for i in range(4):
        themes = tuple(rng.sample(THEME_NAMES, 2))
        out.append({
            "id": f"check-{i + 1:02d}",
            "transcript": _transcript(words, themes, rng.randint(20, 30), (3, 9), i % 2 == 1),
            "description": _description(words, themes[0], i + 1),
        })
    return out


def tokens_of(text: str) -> list[str]:
    """Tokens of generated text: the generator only ever adds ,.?! at word edges."""
    return [unit.strip(",.?!").lower() for unit in text.split()]


def properties(corpus: Corpus) -> dict:
    """Input properties printed with every run."""
    sentences = tokens = 0
    distinct: set[str] = set()
    non_ascii = 0
    for record in corpus.records:
        text = record["transcript"]
        sentences += sum(text.count(t + " ") for t in ".?!") + 1
        toks = tokens_of(text)
        tokens += len(toks)
        distinct.update(toks)
        non_ascii += not text.isascii()
    planted: dict[str, int] = {}
    for rule in corpus.planted.values():
        planted[rule] = planted.get(rule, 0) + 1
    return {
        "episodes": len(corpus.records),
        "kept": len(corpus.kept_ids),
        "sentences": sentences,
        "tokens": tokens,
        "distinct_words": len(distinct),
        "non_ascii_share": round(non_ascii / len(corpus.records), 4),
        "planted_rejections": planted,
    }
