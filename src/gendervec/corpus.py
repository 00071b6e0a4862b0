"""Corpus normalization and vocabulary construction.

Corpora are UTF-8 plain text, one sentence per line.  Normalization is
deterministic: tokens are lowercased, punctuation marks become standalone
tokens, and every standalone digit run (optionally with internal ``.``,
``,`` or ``:``, so dates and decimals stay in one piece) is replaced by
the literal token ``NUMBER``.  Mixed alphanumerics such as ``3d`` are
left intact.

``read_chunks`` is the one decoder: it reads the file in chunks of
whole lines (about ``READ_BYTES`` bytes each) and decodes each chunk
once.  ``read_sentences`` normalizes each line.  The other file readers
normalize each distinct whitespace piece, an item of ``str.split()``,
once.  This equals normalizing whole lines because no token spans
whitespace: no token alternative matches it, the number lookahead sees
a non-word character at a piece's end just as at a space, and
``str.split()`` splits on exactly the code points that the regex class
for whitespace matches.  Since the line break is whitespace too, a
chunk's ``split()`` is the concatenation of its lines' ``split()``, so
the file readers take the pieces of whole chunks and create no object
per sentence.  ``read_token_ids`` and ``token_ids`` (over an iterable of
sentences) yield the ``(token ids, tokens per sentence)`` chunks that
counting takes, with id -1 for a token out of the vocabulary.

The vocabulary maps words to dense ids ``0..|V|-1`` assigned by
descending corpus frequency, ties broken lexicographically, so two
ingestions of the same corpus agree bit for bit.
"""

from __future__ import annotations

import re
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, compress, islice, repeat
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, DataError
from .records import read_rows, write_rows

# A sentence is a plain list of normalized tokens.
Sentence = list

NUMBER_TOKEN = "NUMBER"

# Bytes of whole lines read and decoded at a time; larger chunks read no
# faster and hold more memory.
READ_BYTES = 1 << 14

# Sentences of an iterable corpus turned into token ids at a time.
BATCH_SENTENCES = 1 << 10

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


def read_chunks(path) -> Iterator[str]:
    """Stream a one-sentence-per-line file as decoded chunks of whole lines.

    Invalid UTF-8 is a DataError giving the bad byte's offset in the file.
    """
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
            yield text


def read_sentences(path) -> Iterator[Sentence]:
    """Stream normalized sentences from a one-sentence-per-line file.

    Blank lines yield nothing.  Every sentence is a new list.
    """
    for text in read_chunks(path):
        for line in text.split("\n"):
            if sentence := normalize_line(line):
                yield sentence


def token_ids(
    sentences: Iterable[Sentence], vocab: Vocabulary
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Token ids (-1 out of ``vocab``) and tokens per sentence of ``sentences``,
    ``BATCH_SENTENCES`` sentences at a time."""
    ids_of = vocab.ids.get
    sentences = iter(sentences)
    while batch := list(islice(sentences, BATCH_SENTENCES)):
        sizes = np.fromiter(map(len, batch), np.intp, len(batch))
        ids = np.fromiter(
            map(ids_of, chain.from_iterable(batch), repeat(-1)), np.int64, int(sizes.sum())
        )
        yield ids, sizes


def read_token_ids(path, vocab: Vocabulary) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The chunks of ``token_ids(read_sentences(path), vocab)``, one per read
    chunk; every line is a sentence, so a blank line has zero tokens."""
    table = _PieceTable(vocab)
    for text in read_chunks(path):
        rows = np.fromiter(map(table.__getitem__, text.split()), np.intp)
        # Each line's list dies at once; keeping them would slow the
        # split through garbage collection.
        pieces = np.fromiter(map(len, map(str.split, text.split("\n"))), np.intp)
        yield table.tokens(rows, pieces)


class _PieceTable(dict):
    """Row number of each whitespace piece, assigned when first looked up.

    Row ``r`` holds the token ids of the piece, -1 for a token out of the
    vocabulary, at ``ids[start[r]:start[r + 1]]``.
    """

    def __init__(self, vocab: Vocabulary):
        super().__init__()
        self.vocab_ids = vocab.ids
        self.ids = array("q")
        self.start = array("q", [0])

    def __missing__(self, piece: str) -> int:
        self.ids.extend(self.vocab_ids.get(token, -1) for token in normalize_line(piece))
        self.start.append(len(self.ids))
        row = self[piece] = len(self.start) - 2
        return row

    def tokens(self, rows: np.ndarray, pieces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Token ids of the pieces ``rows``, and the token count of each line
        given its piece count ``pieces``."""
        # frombuffer views stop the arrays from growing while they live;
        # they go on return, before the next lookup can add a row.
        start = np.frombuffer(self.start, dtype=np.int64)
        first = start[rows]
        widths = start[rows + 1] - first
        ends = np.cumsum(widths)
        ids = np.frombuffer(self.ids, dtype=np.int64)[
            np.repeat(first - ends + widths, widths) + np.arange(widths.sum())
        ]
        line_ends = np.concatenate(([0], ends))[np.cumsum(pieces)]
        return ids, np.diff(line_ends, prepend=0)


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
    return _ranked(counts)


def build_vocabulary_from_file(path) -> Vocabulary:
    """``build_vocabulary(read_sentences(path))``, from whole-chunk piece counts.

    Each distinct whitespace piece is normalized once and its count added
    to every token it yields.
    """
    pieces: Counter = Counter()
    for text in read_chunks(path):
        pieces.update(text.split())
    counts: Counter = Counter()
    for piece, n in pieces.items():
        for token in normalize_line(piece):
            counts[token] += n
    return _ranked(counts)


def _ranked(counts: Counter) -> Vocabulary:
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


def ingest_vocabulary(path, min_freq: int) -> Vocabulary:
    """The vocabulary of the corpus file ``path``, words of frequency
    above ``min_freq`` only; an empty result is a DataError."""
    vocab = filter_by_frequency(build_vocabulary_from_file(path), min_freq)
    if len(vocab) == 0:
        raise DataError(f"{path}: no vocabulary entries survive the frequency filter")
    return vocab


def save_vocabulary(vocab: Vocabulary, path) -> None:
    """Write ``word<TAB>id<TAB>frequency`` rows sorted by id."""
    write_rows(path, zip(vocab.words, range(len(vocab)), vocab.frequencies.tolist()))


def load_vocabulary(path) -> Vocabulary:
    """Read a vocabulary TSV, validating that ids are dense and unique."""
    rows: list[tuple[str, int, int]] = []
    for lineno, (word, id_text, freq_text) in read_rows(path, 3, "3 tab-separated fields"):
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
