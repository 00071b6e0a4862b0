"""Corpus normalization and vocabulary construction.

Corpora are UTF-8 plain text, one sentence per line.  Normalization is
deterministic: tokens are lowercased, punctuation marks become standalone
tokens, and every standalone digit run (optionally with internal ``.``,
``,`` or ``:``, so dates and decimals stay in one piece) is replaced by
the literal token ``NUMBER``.  Mixed alphanumerics such as ``3d`` are
left intact.

The vocabulary maps words to dense ids ``0..|V|-1`` assigned by
descending corpus frequency, ties broken lexicographically, so two
ingestions of the same corpus agree bit for bit.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, DataError

# A sentence is a plain list of normalized tokens.
Sentence = list

NUMBER_TOKEN = "NUMBER"

# Number runs first so "3.5" survives as one token; the lookahead stops a
# digit prefix of a mixed token ("3d") from matching, which then falls
# through to the word alternative.
_TOKEN_RE = re.compile(r"\d+(?:[.,:]\d+)*(?!\w)|\w+|[^\w\s]")
_NUMBER_RE = re.compile(r"\d+(?:[.,:]\d+)*")


def normalize_line(line: str) -> Sentence:
    """Normalize one raw sentence into a token list.

    >>> normalize_line("Han har 3 hundar.")
    ['han', 'har', 'NUMBER', 'hundar', '.']

    The literal token ``NUMBER`` is preserved as-is so that normalizing
    already-normalized text is a no-op.
    """
    tokens = []
    for raw in _TOKEN_RE.findall(line):
        if raw == NUMBER_TOKEN:
            tokens.append(raw)
            continue
        token = raw.lower()
        tokens.append(NUMBER_TOKEN if _NUMBER_RE.fullmatch(token) else token)
    return tokens


def iter_corpus_lines(path) -> Iterator[str]:
    """Yield raw text lines, rejecting invalid UTF-8 with its byte offset."""
    offset = 0
    with open(path, "rb") as fh:
        for raw in fh:
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(
                    f"{path}: invalid UTF-8 at byte offset {offset + exc.start}"
                ) from None
            offset += len(raw)
            yield line.rstrip("\n").rstrip("\r")


def read_sentences(path) -> Iterator[Sentence]:
    """Stream normalized sentences from a one-sentence-per-line file."""
    for line in iter_corpus_lines(path):
        sentence = normalize_line(line)
        if sentence:
            yield sentence


def word_index(words: Sequence[str], source: str) -> dict[str, int]:
    """Row of each word in ``words``; a repeated word is a DataError naming ``source``."""
    index = {word: i for i, word in enumerate(words)}
    if len(index) != len(words):
        repeated = next(word for word, n in Counter(words).items() if n > 1)
        raise DataError(f"duplicate word in {source}: {repeated!r}")
    return index


def row_lookup(index: Mapping[str, int], words: Iterable[str], source: str) -> np.ndarray:
    """Row numbers of ``words`` in ``index``; a word it lacks is a DataError."""
    try:
        return np.array([index[word] for word in words], dtype=np.intp)
    except KeyError as exc:
        raise DataError(f"word {exc.args[0]!r} is missing from {source}") from None


@dataclass(frozen=True, eq=False)
class Vocabulary:
    """Words in id order with their corpus frequencies; ``ids`` maps word -> id."""

    words: tuple[str, ...]
    frequencies: np.ndarray
    ids: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.words) != len(self.frequencies):
            raise DataError("words and frequencies do not match in length")
        low = np.flatnonzero(self.frequencies < 1)
        if low.size:
            word, freq = self.words[low[0]], self.frequencies[low[0]]
            raise DataError(f"non-positive frequency for {word!r}: {freq}")
        object.__setattr__(self, "ids", word_index(self.words, "the vocabulary"))

    def __len__(self) -> int:
        return len(self.words)


def build_vocabulary(corpus: Iterable[Sentence]) -> Vocabulary:
    """Count tokens and assign ids by descending frequency, ties lexicographic."""
    counts: Counter = Counter()
    for sentence in corpus:
        counts.update(sentence)
    ordered = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    words = tuple(word for word, _ in ordered)
    return Vocabulary(words, np.array([freq for _, freq in ordered], dtype=np.int64))


def filter_by_frequency(vocab: Vocabulary, min_freq: int) -> Vocabulary:
    """Keep entries with frequency strictly above ``min_freq``, re-densifying ids.

    The surviving entries keep their relative order, so ids stay assigned
    by descending frequency with lexicographic ties.
    """
    if min_freq < 0:
        raise ConfigurationError(f"min_freq must be >= 0, got {min_freq}")
    keep = vocab.frequencies > min_freq
    return Vocabulary(tuple(compress(vocab.words, keep)), vocab.frequencies[keep])


def save_vocabulary(vocab: Vocabulary, path) -> None:
    """Write ``word<TAB>id<TAB>frequency`` rows sorted by id."""
    with open(path, "w", encoding="utf-8") as fh:
        for word_id, (word, freq) in enumerate(zip(vocab.words, vocab.frequencies.tolist())):
            fh.write(f"{word}\t{word_id}\t{freq}\n")


def load_vocabulary(path) -> Vocabulary:
    """Read a vocabulary TSV, validating that ids are dense and unique."""
    rows: list[tuple[str, int, int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields")
            word, id_text, freq_text = parts
            try:
                rows.append((word, int(id_text), int(freq_text)))
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-integer id or frequency") from None
    rows.sort(key=lambda row: row[1])
    ids = [row[1] for row in rows]
    if ids != list(range(len(rows))):
        raise DataError(f"{path}: ids are not dense 0..{len(rows) - 1}")
    try:
        frequencies = np.array([freq for _, _, freq in rows], dtype=np.int64)
        return Vocabulary(tuple(word for word, _, _ in rows), frequencies)
    except (DataError, OverflowError) as exc:
        raise DataError(f"{path}: {exc}") from None
