"""Corpus normalization and vocabulary construction.

Corpora are UTF-8 plain text, one sentence per line.  Normalization is
deterministic: tokens are lowercased, punctuation marks become standalone
tokens, and every standalone digit run (optionally with internal ``.``,
``,`` or ``:``, so dates and decimals stay in one piece) is replaced by
the literal token ``NUMBER``.  Mixed alphanumerics such as ``3d`` are
left intact.

``read_sentences`` reads the file in chunks of whole lines (about
``READ_BYTES`` bytes each) and decodes each chunk once.  It splits every
line on whitespace and normalizes each distinct piece once per read,
through a cache bounded at ``PIECE_CACHE_SIZE`` pieces.  This equals
normalizing the whole line because no token spans whitespace: no token
alternative matches it, the number lookahead sees a non-word character
at a piece's end just as at a space, and ``str.split()`` splits on
exactly the code points that the regex class for whitespace matches.

The vocabulary maps words to dense ids ``0..|V|-1`` assigned by
descending corpus frequency, ties broken lexicographically, so two
ingestions of the same corpus agree bit for bit.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, compress
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, DataError

# A sentence is a plain list of normalized tokens.
Sentence = list

NUMBER_TOKEN = "NUMBER"

# Bytes of whole lines read and decoded at a time; larger chunks read no
# faster and hold more memory.
READ_BYTES = 1 << 14

# Distinct whitespace-delimited pieces kept normalized during one read.
PIECE_CACHE_SIZE = 1 << 16

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


def read_sentences(path) -> Iterator[Sentence]:
    """Stream normalized sentences from a one-sentence-per-line file.

    Blank lines yield nothing; invalid UTF-8 is a DataError giving the
    bad byte's offset in the file.  Every sentence is a new list.
    """
    normalize_piece = lru_cache(maxsize=PIECE_CACHE_SIZE)(normalize_line)
    offset = 0
    with open(path, "rb") as fh:
        while lines := fh.readlines(READ_BYTES):
            chunk = b"".join(lines)
            try:
                text = chunk.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(
                    f"{path}: invalid UTF-8 at byte offset {offset + exc.start}"
                ) from None
            offset += len(chunk)
            for line in text.split("\n"):
                # The cached piece lists are shared, so the sentence must be a copy.
                sentence = list(chain.from_iterable(map(normalize_piece, line.split())))
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
