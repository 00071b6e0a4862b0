"""Windowed co-occurrence counting over a fixed vocabulary.

Counts live in a sparse context-row by target-column matrix.  Windows
are positional and truncate at sentence boundaries; out-of-vocabulary
tokens keep their position but contribute nothing, neither as context
nor as target.

Counting sees a corpus only as the chunks that ``corpus.token_ids`` and
``corpus.read_token_ids`` yield: token ids (-1 out of vocabulary) with
the token count of each sentence.  One numpy step counts the pairs at
each distance whose ids are both known and whose sentence is the same.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from .corpus import Sentence, Vocabulary, read_token_ids, token_ids
from .errors import ConfigurationError, DataError
from .records import Record, read_rows

CONTEXT_TYPES = ("asymmetric_backward", "asymmetric_forward", "symmetric")

# Largest supported window size.
MAX_WINDOW = 5

# Tokens counted at a time, in whole chunks or batches; bounds counting
# memory whatever the corpus size.
BLOCK_TOKENS = 1 << 16

# Count triplets formatted and written at a time by save_cooccurrence.
WRITE_ENTRIES = 1 << 16


@dataclass(frozen=True)
class ContextConfig(Record):
    context_type: str
    window_size: int
    distance_weighting: bool = False

    def __post_init__(self):
        if self.context_type not in CONTEXT_TYPES:
            raise ConfigurationError(
                f"context_type must be one of {CONTEXT_TYPES}, got {self.context_type!r}"
            )
        if self.window_size < 1:
            raise ConfigurationError(f"window_size must be >= 1, got {self.window_size}")
        if self.window_size > MAX_WINDOW:
            raise ConfigurationError(f"window_size {self.window_size} exceeds {MAX_WINDOW}")


class CoocMatrix:
    """Sparse (context, target) count matrix plus the config that built it."""

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
    def total(self) -> float:
        return float(self.matrix.sum())


def count_by_distance(
    corpus: Iterable[Sentence], vocab: Vocabulary, max_window: int
) -> list[sparse.csr_array]:
    """Count (context, target) pairs by exact distance, in one pass.

    Returns ``[D_1, .., D_max_window]`` where ``D_d[c, t]`` counts how
    often context ``c`` sits exactly ``d`` positions before target ``t``
    in the same sentence.
    """
    return _count_blocks(token_ids(corpus, vocab), len(vocab), max_window)


def count_by_distance_from_file(
    path, vocab: Vocabulary, max_window: int
) -> list[sparse.csr_array]:
    """``count_by_distance(read_sentences(path), vocab, max_window)``, counted
    from ``read_token_ids``."""
    return _count_blocks(read_token_ids(path, vocab), len(vocab), max_window)


def _count_blocks(
    chunks: Iterable[tuple[np.ndarray, np.ndarray]], n: int, max_window: int
) -> list[sparse.csr_array]:
    """Sum the pairs of ``(token ids, tokens per sentence)`` chunks by
    distance, a block of whole chunks of about ``BLOCK_TOKENS`` at a time."""
    counts = [sparse.csr_array((n, n), dtype=np.float64) for _ in range(max_window)]
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
                (np.ones(np.count_nonzero(keep)), (context[keep], target[keep])), shape=(n, n)
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
    its transpose and the symmetric type the sum of both.  Distance
    weighting divides ``D_d`` by ``d``.
    """
    w = config.window_size
    if w > len(by_distance):
        raise ConfigurationError(
            f"window_size {w} needs counts up to distance {w}, got {len(by_distance)}"
        )
    terms = [D / d if config.distance_weighting else D for d, D in enumerate(by_distance[:w], 1)]
    backward = sum(terms[1:], terms[0].copy())
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
    both.  Each pair contributes weight 1, or ``1/distance`` when
    distance weighting is on.
    """
    return combine(count_by_distance(corpus, vocab, config.window_size), config)


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
            counts = [str(int(v)) if v.is_integer() else repr(v) for v in coo.data[part].tolist()]
            fh.write("".join(map(
                "{}\t{}\t{}\n".format, coo.row[part].tolist(), coo.col[part].tolist(), counts
            )))


def load_cooccurrence(path) -> CoocMatrix:
    # the header line alone: a text-mode read would decode the rows after it too
    with open(path, "rb") as fh:
        header_line = fh.readline()
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
    try:
        config = ContextConfig.from_dict(header)
    except ConfigurationError as exc:
        raise DataError(f"{path}: {exc}") from None
    rows, cols, values = [], [], []
    triplets = read_rows(path, 3, "3 tab-separated fields", skip=1)
    for lineno, (row_text, col_text, count_text) in triplets:
        try:
            row, col, value = int(row_text), int(col_text), float(count_text)
        except ValueError:
            raise DataError(f"{path}:{lineno}: malformed triplet") from None
        if not (0 <= row < n and 0 <= col < n):
            raise DataError(f"{path}:{lineno}: index out of range")
        if not 0 <= value < math.inf:
            raise DataError(f"{path}:{lineno}: count {count_text} is not finite and >= 0")
        rows.append(row)
        cols.append(col)
        values.append(value)
    matrix = sparse.coo_array(
        (np.array(values, dtype=np.float64),
         (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64))),
        shape=(n, n),
    ).tocsr()
    # tocsr sums repeated (row, col) pairs, so fewer entries means a repeat
    if matrix.nnz != len(values):
        raise DataError(f"{path}: a (context, target) pair appears on more than one line")
    return CoocMatrix(matrix, config)
