"""Windowed co-occurrence counting over a fixed vocabulary.

A context is a type and a window size, and its counts are whole numbers
in a sparse int64 context-row by target-column matrix.  Windows are
positional and truncate at sentence boundaries; out-of-vocabulary tokens
keep their position but contribute nothing, as context or as target.

``count_by_distance`` is the one counter.  It sees a corpus only as
chunks of token ids (-1 out of vocabulary) with the token count of each
sentence, as ``corpus.read_token_ids`` (a file) and ``corpus.token_ids``
(sentences) yield them.  One numpy step counts the pairs at each
distance whose ids are both known and whose sentence is the same.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from .corpus import Sentence, Vocabulary, token_ids
from .errors import ConfigurationError, DataError
from .records import Record, bounds, one_of, read_rows

CONTEXT_TYPES = ("asymmetric_backward", "asymmetric_forward", "symmetric")

# Tokens counted at a time, in whole chunks or batches; bounds counting
# memory whatever the corpus size.
BLOCK_TOKENS = 1 << 16

# Count triplets formatted and written at a time by save_cooccurrence.
WRITE_ENTRIES = 1 << 16

# Count-file rows of these bytes alone are read in bulk by numpy's C
# parser; others, CRLF rows among them, line by line.
ROW_BYTES = b"0123456789\t\n"


@dataclass(frozen=True)
class ContextConfig(Record):
    context_type: str = field(metadata=one_of(CONTEXT_TYPES))
    window_size: int = field(metadata=bounds(1, 5))

    @classmethod
    def from_dict(cls, data: dict):
        # counts are never weighted by distance, so no artifact that says so replays
        if isinstance(data, dict) and data.get("distance_weighting", False) is not False:
            raise DataError(f"{cls.__name__}: 'distance_weighting' must be false")
        return super().from_dict(data)


class CoocMatrix:
    """Sparse (context, target) integer count matrix plus the config that built it."""

    def __init__(self, matrix: sparse.csr_array, config: ContextConfig):
        if matrix.shape[0] != matrix.shape[1]:
            # contexts and targets share one vocabulary
            raise ConfigurationError(f"expected a square matrix, got {matrix.shape}")
        self.matrix = matrix
        self.config = config

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def nnz(self) -> int:
        return int(self.matrix.nnz)

    @property
    def total(self) -> int:
        # in Python ints: an int64 sum wraps past 2**63
        return sum(self.matrix.data.tolist())


def count_by_distance(
    chunks: Iterable[tuple[np.ndarray, np.ndarray]], n: int, max_window: int
) -> list[sparse.csr_array]:
    """Count (context, target) pairs by exact distance, in one pass over
    ``(token ids, tokens per sentence)`` chunks of a vocabulary of ``n`` words.

    Returns ``[D_1, .., D_max_window]`` where ``D_d[c, t]`` counts how
    often context ``c`` sits exactly ``d`` positions before target ``t``
    in the same sentence.  Chunks are summed a block of whole chunks of
    about ``BLOCK_TOKENS`` at a time.
    """
    counts = [sparse.csr_array((n, n), dtype=np.int64) for _ in range(max_window)]
    block: list[tuple[np.ndarray, np.ndarray]] = []
    held = 0

    def add_block() -> None:
        ids = np.concatenate([chunk[0] for chunk in block])
        sizes = np.concatenate([chunk[1] for chunk in block])
        sentence = np.repeat(np.arange(len(sizes)), sizes)
        for d in range(1, max_window + 1):
            context, target = ids[:-d], ids[d:]
            keep = (context >= 0) & (target >= 0) & (sentence[:-d] == sentence[d:])
            pairs = sparse.coo_array(
                (np.ones(keep.sum(), np.int64), (context[keep], target[keep])), shape=(n, n)
            )
            counts[d - 1] = counts[d - 1] + pairs.tocsr()
        block.clear()

    for chunk in chunks:
        block.append(chunk)
        held += len(chunk[0])
        if held >= BLOCK_TOKENS:
            add_block()
            held = 0
    if block:
        add_block()
    return counts


def combine(by_distance: Sequence[sparse.csr_array], config: ContextConfig) -> CoocMatrix:
    """Build the counts of ``config`` from ``count_by_distance`` output.

    The backward window w is ``sum(D_d for d <= w)``, the forward window
    its transpose and the symmetric type the sum of both.
    """
    w = config.window_size
    if w > len(by_distance):
        raise ConfigurationError(
            f"window_size {w} needs counts up to distance {w}, got {len(by_distance)}"
        )
    backward = sum(by_distance[1:w], by_distance[0].copy())
    if config.context_type == "asymmetric_backward":
        matrix = backward
    elif config.context_type == "asymmetric_forward":
        matrix = backward.T.tocsr()
    else:
        matrix = (backward + backward.T).tocsr()
    matrix.sort_indices()
    return CoocMatrix(matrix, config)


def count_cooccurrences(
    corpus: Iterable[Sentence], vocab: Vocabulary, config: ContextConfig
) -> CoocMatrix:
    """Count windowed (context, target) pairs over the corpus.

    For a target at position ``i``, the backward window covers positions
    ``i-w..i-1``, the forward window ``i+1..i+w``, and the symmetric type
    both.  Each pair counts once.
    """
    by_distance = count_by_distance(token_ids(corpus, vocab), len(vocab), config.window_size)
    return combine(by_distance, config)


def save_cooccurrence(cooc: CoocMatrix, path) -> None:
    """Write a JSON header line, then ``context_id<TAB>target_id<TAB>count``
    triplets sorted by (context, target)."""
    header = {"rows": cooc.shape[0], "cols": cooc.shape[1], **cooc.config.to_dict()}
    coo = cooc.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for start in range(0, len(order), WRITE_ENTRIES):
            part = order[start:start + WRITE_ENTRIES]
            columns = (coo.row[part].tolist(), coo.col[part].tolist(), coo.data[part].tolist())
            fh.write("".join(map("{}\t{}\t{}\n".format, *columns)))


def load_cooccurrence(path, vocab_size: int | None = None, vocab_path=None) -> CoocMatrix:
    """Read ``save_cooccurrence`` output; a header of other than ``vocab_size``
    words, if given, is a ``DataError`` naming ``vocab_path``, before the body is parsed."""
    # in binary: the header line is the only text decoded here
    with open(path, "rb") as fh:
        header_line, body = fh.readline(), fh.read()
    # rows of ROW_BYTES alone, not of newlines alone, go to numpy's C parser
    plain = body.count(b"\n") < len(body) and not body.translate(None, ROW_BYTES)
    del body
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise DataError(f"{path}: missing or malformed JSON header") from None
    n, n_cols = (header.get(k) if isinstance(header, dict) else None for k in ("rows", "cols"))
    # type(v) is int: JSON gives a bool or a float its own type
    if type(n) is not int or type(n_cols) is not int or n < 0:
        raise DataError(f"{path}: header lacks non-negative integer rows and cols")
    if n_cols != n:
        raise DataError(f"{path}: non-square dims in header")
    if vocab_size not in (None, n):
        raise DataError(f"{vocab_path}: {vocab_size} words, but {path} counts {n}")
    try:
        config = ContextConfig.from_dict(header)
    except (ConfigurationError, DataError) as exc:
        raise DataError(f"{path}: {exc}") from None
    rows, cols, counts = _triplets(path, n, plain).T
    matrix = sparse.coo_array((counts, (rows, cols)), shape=(n, n)).tocsr()
    # tocsr sums repeated (row, col) pairs, so fewer entries means a repeat
    if matrix.nnz != len(counts):
        raise DataError(f"{path}: a (context, target) pair appears on more than one line")
    return CoocMatrix(matrix, config)


def _triplets(path, n: int, plain: bool) -> np.ndarray:
    """The ``(row, col, count)`` rows: in bulk when ``plain`` and in range, else
    line by line, which names the first bad line."""
    if plain:
        try:
            bulk = np.loadtxt(path, np.int64, delimiter="\t", comments=None, skiprows=1,
                              ndmin=2, encoding="utf-8")
        except (ValueError, OverflowError):
            bulk = None
        if bulk is not None and bulk.shape[1] == 3 and not (bulk[:, :2] >= n).any():
            return bulk
    entries = []
    triplets = read_rows(path, 3, "3 tab-separated fields", skip=1)
    for lineno, (row_text, col_text, count_text) in triplets:
        try:
            row, col = int(row_text), int(col_text)
        except ValueError:
            raise DataError(f"{path}:{lineno}: malformed triplet") from None
        if not (0 <= row < n and 0 <= col < n):
            raise DataError(f"{path}:{lineno}: index out of range")
        # digits only: no sign, point, exponent, nan or inf
        value = int(count_text) if count_text.isdecimal() else -1
        if not 0 <= value < 2**63:
            raise DataError(f"{path}:{lineno}: count {count_text} is not an int64 >= 0")
        entries.extend((row, col, value))
    return np.array(entries, dtype=np.int64).reshape(-1, 3)
