"""Independent reference implementations used to pin expected values.

Everything here is deliberately brute force and shares no code with the
package: n-gram overlap via Counter intersection, LCS via the full
quadratic table, window selection via exhaustive rescoring, and
segmentation and tokenization one character at a time. Only the bundled
word lists are shared, read here with their own parser.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from importlib import resources


def _oracle_wordlist(name):
    text = resources.files("podselect").joinpath(f"data/{name}").read_text("utf-8")
    words = (line.strip().lower() for line in text.splitlines())
    return {word for word in words if word and not word.startswith("#")}


_ORACLE_ABBREVIATIONS = _oracle_wordlist("abbreviations.txt")


def _oracle_punct_or_symbol(ch):
    return unicodedata.category(ch)[0] in ("P", "S")


def oracle_segment_spans(text):
    """Sentence character spans, scanning every character.

    A run of . ! ? plus any closing quotes or brackets ends a sentence when
    whitespace follows, unless it is a lone period after an abbreviation or
    a single letter. Spans are trimmed of whitespace; empty ones vanish.
    """
    spans = []
    n = len(text)
    seg_start = 0
    i = 0
    while i < n:
        if text[i] not in ".!?":
            i += 1
            continue
        run_end = i
        while run_end < n and text[run_end] in ".!?":
            run_end += 1
        close_end = run_end
        while close_end < n and text[close_end] in "\"'\u201d\u2019)]":
            close_end += 1
        guarded = False
        if run_end - i == 1 and text[i] == ".":
            word_start = i
            while word_start > 0 and not text[word_start - 1].isspace():
                word_start -= 1
            word = text[word_start:i]
            while word and _oracle_punct_or_symbol(word[0]):
                word = word[1:]
            guarded = bool(word) and ((len(word) == 1 and word.isalpha())
                                      or word.lower() in _ORACLE_ABBREVIATIONS)
        if close_end < n and text[close_end].isspace() and not guarded:
            spans.append((seg_start, close_end))
            seg_start = i = close_end
        else:
            i = run_end
    spans.append((seg_start, n))
    trimmed = []
    for start, end in spans:
        while start < end and text[start].isspace():
            start += 1
        while end > start and text[end - 1].isspace():
            end -= 1
        if start < end:
            trimmed.append((start, end))
    return trimmed


def oracle_tokenize(text):
    """[(token text, UTF-8 byte span)], scanning every character.

    Units are maximal runs of non-whitespace. Edge characters in Unicode
    categories P* and S* are stripped one at a time, and what is left is
    lowercased; each byte offset is the encoded length of the text before it.
    """
    tokens = []
    n = len(text)
    i = 0
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        start = i
        while i < n and not text[i].isspace():
            i += 1
        end = i
        while start < end and _oracle_punct_or_symbol(text[start]):
            start += 1
        while end > start and _oracle_punct_or_symbol(text[end - 1]):
            end -= 1
        if start == end:
            continue
        value = text[start:end].lower()
        span = (len(text[:start].encode("utf-8")), len(text[:end].encode("utf-8")))
        tokens.append((value, span))
    return tokens


def oracle_ngram_overlap(candidate, reference, n):
    """(overlap, candidate_total, reference_total) by clipped counting."""
    cand = Counter(tuple(candidate[i:i + n]) for i in range(len(candidate) - n + 1))
    ref = Counter(tuple(reference[i:i + n]) for i in range(len(reference) - n + 1))
    overlap = sum((cand & ref).values())
    return overlap, sum(cand.values()), sum(ref.values())


def oracle_prf(overlap, candidate_total, reference_total):
    precision = overlap / candidate_total if candidate_total else 0.0
    recall = overlap / reference_total if reference_total else 0.0
    f1 = (2 * precision * recall / (precision + recall)) if (precision + recall) else 0.0
    return precision, recall, f1


def oracle_rouge_n(candidate, reference, n):
    return oracle_prf(*oracle_ngram_overlap(candidate, reference, n))


def oracle_lcs_full_table(a, b):
    """Quadratic-space LCS, the textbook full table."""
    rows, cols = len(a), len(b)
    table = [[0] * (cols + 1) for _ in range(rows + 1)]
    for i in range(rows):
        for j in range(cols):
            if a[i] == b[j]:
                table[i + 1][j + 1] = table[i][j] + 1
            else:
                table[i + 1][j + 1] = max(table[i][j + 1], table[i + 1][j])
    return table[rows][cols]


def oracle_rouge_l(candidate, reference):
    return oracle_prf(oracle_lcs_full_table(candidate, reference),
                      len(candidate), len(reference))


def oracle_rouge_avg(candidate, reference):
    return (oracle_rouge_n(candidate, reference, 1)[2]
            + oracle_rouge_n(candidate, reference, 2)[2]
            + oracle_rouge_l(candidate, reference)[2]) / 3.0


def oracle_window_scores(sentence_tokens, window_size):
    """Exhaustively score every window of sentences against the whole text.

    Returns [(start, end, score)] where score is the mean of the three
    ROUGE F1 values, matching the selector's default configuration.
    """
    n = len(sentence_tokens)
    reference = [token for sentence in sentence_tokens for token in sentence]
    results = []
    for start in range(max(1, n - window_size + 1)):
        end = min(start + window_size, n)
        candidate = [token for sentence in sentence_tokens[start:end] for token in sentence]
        results.append((start, end, oracle_rouge_avg(candidate, reference)))
    return results


def oracle_window_argmax(sentence_tokens, window_size):
    """(start, end) of the best window; ties go to the lowest start."""
    scores = oracle_window_scores(sentence_tokens, window_size)
    best = scores[0]
    for row in scores[1:]:
        if row[2] > best[2]:
            best = row
    return best[0], best[1]


def oracle_near_duplicates(shingle_sets, threshold):
    """For each set in order: is it a near duplicate of an earlier kept set?

    Compares every pair: a set is a duplicate when its Jaccard with some
    earlier set that was not itself a duplicate reaches threshold, a set
    with nothing in it matching nothing. Duplicates are never compared
    against, so the first occurrence wins.
    """
    kept = []
    verdicts = []
    for shingles in shingle_sets:
        duplicate = any(shingles and other
                        and len(shingles & other) / len(shingles | other) >= threshold
                        for other in kept)
        verdicts.append(duplicate)
        if not duplicate:
            kept.append(shingles)
    return verdicts


def oracle_topic_picks(sentence_tokens, vocabulary, topic_word, doc_topic_weight,
                       oov_probability, budget):
    """Topic round robin, rescanning each ranking from the top every turn.

    A sentence's relevance to a topic is its mean per-token log probability,
    unseen words at the topic's floor; each topic ranks every sentence by
    (-relevance, index). Topics take turns by (-weight, topic id), each
    claiming its first untaken sentence, until all are taken or the next
    pick would cross budget. The log probabilities are added in a plain
    loop: from Python 3.12 sum() compensates float error, which can move a
    tie. Returns the fields select_by_topics reports.
    """
    topics = range(len(topic_word))
    order = sorted(topics, key=lambda j: (-doc_topic_weight[j], j))
    rankings = {}
    for j in topics:
        scores = []
        for tokens in sentence_tokens:
            total = 0.0
            for token in tokens:
                if token in vocabulary:
                    total += math.log(topic_word[j][vocabulary[token]])
                else:
                    total += math.log(oov_probability[j])
            scores.append(total / len(tokens))
        rankings[j] = sorted(range(len(sentence_tokens)), key=lambda i: (-scores[i], i))

    taken = []
    picks = []
    used = 0
    done = False
    while not done:
        for j in order:
            untaken = [i for i in rankings[j] if i not in taken]
            if not untaken or used + len(sentence_tokens[untaken[0]]) > budget:
                done = True
                break
            taken.append(untaken[0])
            picks.append((j, untaken[0]))
            used += len(sentence_tokens[untaken[0]])
    return {
        "sentence_indices": tuple(sorted(taken)),
        "selected_token_count": used,
        "picks": picks,
        "topic_order": order,
        "budget_too_small": not taken and bool(sentence_tokens),
    }
