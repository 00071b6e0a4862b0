"""Windowed co-occurrence counting over a fixed vocabulary.

Counts live in a sparse context-row by target-column matrix.  Windows
are positional and truncate at sentence boundaries; out-of-vocabulary
tokens keep their position but contribute nothing, neither as context
nor as target.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from .corpus import Sentence, Vocabulary
from .errors import ConfigurationError, DataError
from .records import Record

CONTEXT_TYPES = ("asymmetric_backward", "asymmetric_forward", "symmetric")

# Largest supported window size.
MAX_WINDOW = 5

# Token slots flattened and counted at a time; bounds counting memory
# whatever the corpus size.
BLOCK_TOKENS = 1 << 18


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
    in the same sentence.  Token ids are flattened into blocks of about
    ``BLOCK_TOKENS`` slots that end on sentence boundaries; each sentence
    is followed by ``max_window`` out-of-vocabulary slots, so no counted
    pair crosses a sentence.
    """
    n = len(vocab)
    ids_of = vocab.ids.get
    gap = [-1] * max_window
    counts = [sparse.csr_array((n, n), dtype=np.float64) for _ in range(max_window)]
    block: list[int] = []

    def add_block() -> None:
        ids = np.array(block, dtype=np.int64)
        for d in range(1, max_window + 1):
            context, target = ids[:-d], ids[d:]
            keep = (context >= 0) & (target >= 0)
            pairs = sparse.coo_array(
                (np.ones(np.count_nonzero(keep)), (context[keep], target[keep])), shape=(n, n)
            )
            counts[d - 1] = counts[d - 1] + pairs.tocsr()
        block.clear()

    for sentence in corpus:
        block.extend(map(ids_of, sentence, repeat(-1)))
        block.extend(gap)
        if len(block) >= BLOCK_TOKENS:
            add_block()
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        coo = cooc.matrix.tocoo()
        for i in np.lexsort((coo.col, coo.row)):
            value = float(coo.data[i])
            text = str(int(value)) if value == int(value) else repr(value)
            fh.write(f"{int(coo.row[i])}\t{int(coo.col[i])}\t{text}\n")


def load_cooccurrence(path) -> CoocMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            header = json.loads(fh.readline())
        except json.JSONDecodeError:
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
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields")
            try:
                row, col, value = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise DataError(f"{path}:{lineno}: malformed triplet") from None
            if not (0 <= row < n and 0 <= col < n):
                raise DataError(f"{path}:{lineno}: index out of range")
            if not 0 <= value < math.inf:
                raise DataError(f"{path}:{lineno}: count {parts[2]} is not finite and >= 0")
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
