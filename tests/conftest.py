import os
import random
import sys
from pathlib import Path

import pytest

# make tests/oracles.py importable regardless of invocation directory
sys.path.insert(0, str(Path(__file__).resolve().parent))

from podselect.corpus import Document, Sentence, token_texts

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def make_sentence(words: list[str]) -> Sentence:
    """A Sentence whose raw text is the words joined by single spaces, which
    must tokenize back to the words, as build_document would count them."""
    raw = " ".join(words)
    assert token_texts(raw) == words, words
    return Sentence(len(words), raw)


def make_doc(sentence_words: list[list[str]], episode_id: str = "ep-test") -> Document:
    sentences = tuple(map(make_sentence, sentence_words))
    total = sum(s.token_count for s in sentences)
    return Document(episode_id=episode_id, sentences=sentences, total_tokens=total)


def sentence_tokens(doc: Document) -> list[list[str]]:
    """The tokens of each sentence of doc, in order."""
    return [token_texts(s.raw_text) for s in doc.sentences]


def token_topics(model, doc: Document) -> list[int]:
    """Each token of doc in document order, labelled with the topic whose word
    row gives its word the most probability, the lower topic id on ties."""
    return [max(range(model.num_topics), key=lambda j: model.topic_word[j][word_id])
            for tokens in sentence_tokens(doc) for word_id in map(model.vocabulary.get, tokens)]


def random_sentences(rng: random.Random, sentence_count: int, vocab: list[str],
                     min_len: int = 2, max_len: int = 6) -> list[list[str]]:
    return [
        [rng.choice(vocab) for _ in range(rng.randint(min_len, max_len))]
        for _ in range(sentence_count)
    ]


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def forked(monkeypatch) -> list[int]:
    """Pids of the children os.fork makes in this process, in order."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def reaped(pid: int) -> bool:
    """Whether the child pid is gone, already waited for."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance gate's one-line verdicts after the run."""
    lines = getattr(sys.modules.get("test_acceptance"), "ACCEPTANCE_LINES", None)
    if not lines:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in lines:
        terminalreporter.write_line(line)
