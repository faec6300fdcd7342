import random
import sys
from pathlib import Path

import pytest

# make tests/oracles.py importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).resolve().parent))

from podselect.corpus import Document, Sentence

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def make_sentence(index: int, words: list[str]) -> Sentence:
    """Build a Sentence whose raw text is the words joined by single spaces."""
    return Sentence(index=index, tokens=tuple(words), raw_text=" ".join(words))


def make_doc(sentence_words: list[list[str]], episode_id: str = "ep-test") -> Document:
    sentences = tuple(make_sentence(index, words) for index, words in enumerate(sentence_words))
    total = sum(len(s.tokens) for s in sentences)
    return Document(episode_id=episode_id, sentences=sentences, total_tokens=total)


def random_sentences(rng: random.Random, sentence_count: int, vocab: list[str],
                     min_len: int = 2, max_len: int = 6) -> list[list[str]]:
    return [
        [rng.choice(vocab) for _ in range(rng.randint(min_len, max_len))]
        for _ in range(sentence_count)
    ]


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance gate's one-line verdicts after the run."""
    lines = getattr(sys.modules.get("test_acceptance"), "ACCEPTANCE_LINES", None)
    if not lines:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
