"""Dense word vectors from power-transformed co-occurrence counts.

Integer counts are raised elementwise, as float64, to a power ``alpha``
(default 0.5, which tempers high-frequency contexts); a truncated SVD
keeps the top-K right singular vectors, and the row for a target word,
optionally scaled by ``sigma**sigma_power``, is its embedding.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np
from scipy import linalg, sparse
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .cooccurrence import ContextConfig, CoocMatrix, count_cooccurrences
from .corpus import Sentence, Vocabulary, row_lookup, word_index
from .errors import ConfigurationError, DataError, NumericalError
from .records import Record, bounds, key, open_text

EMBEDDING_MAGIC = b"RSVEMB01"


@dataclass(frozen=True)
class EmbeddingConfig(Record):
    k: int = field(default=50, metadata=key("K") | bounds(1))
    alpha: float = field(default=0.5, metadata=bounds(0, open_lo=True))
    sigma_power: float = field(default=0.0, metadata=bounds())
    seed: int = field(default=0, metadata=bounds(0))


def power_transform(cooc: CoocMatrix, alpha: float) -> sparse.csr_array:
    """Raise every stored count, as float64, to ``alpha``, preserving sparsity."""
    if not alpha > 0:
        raise ConfigurationError(f"alpha must be > 0, got {alpha}")
    out = cooc.matrix.astype(np.float64)
    with np.errstate(over="ignore"):
        out.data = np.power(out.data, alpha)
    if not np.all(np.isfinite(out.data)):
        raise NumericalError(f"count**{alpha} overflowed the float64 range")
    return out


def truncated_svd(matrix, k: int, *, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Top-``k`` singular values and right singular vectors of ``matrix``.

    ARPACK's implicitly restarted Lanczos (``scipy.sparse.linalg.eigsh``)
    finds the top eigenvectors of the Gram matrix, in the steps of
    ``scipy.sparse.linalg.svds``'s ARPACK solver and with its output bit
    for bit; when ``k >= min(m, n) - 1``, past what ARPACK accepts, a
    dense LAPACK SVD does.  Every dense step calls ``scipy.linalg``, as
    ARPACK does: numpy and scipy each bundle their own OpenBLAS, and
    calling both sets two thread pools against each other.  It runs in
    two halves, ``ritz_factors`` (every scipy step) and then
    ``singular_vectors`` (numpy's product, order and signs), so a caller
    with many matrices can run each half over all of them in turn.

    Parameters
    ----------
    matrix : (m, n) ndarray or scipy sparse array
    k : number of singular triplets to keep, ``1 <= k <= min(m, n)``
    seed : seeds ARPACK's start vector and any restart vector it asks
        for (exactly rank-deficient input with ``k`` above the rank); a
        fixed seed means bitwise reproducible output on one platform

    Returns
    -------
    (sigma, v) : ``sigma`` descending with shape (k,), ``v`` column-
        orthonormal with shape (n, k).  Each column of ``v`` is flipped
        so its largest-magnitude component is non-negative.

    Raises
    ------
    ConfigurationError : ``k`` outside ``1..min(m, n)`` (an empty matrix
        therefore always fails)
    NumericalError : ARPACK failed, e.g. to converge; the message is ARPACK's
    """
    return singular_vectors(ritz_factors(matrix, k, seed=seed), k)


def ritz_factors(matrix, k: int, *, seed: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The scipy half of ``truncated_svd``: its checks, ARPACK and LAPACK steps.

    Returns ``(s, w, q)``: the singular values, not yet ordered, and the
    right singular vectors as the rows of ``w[::-1] @ q.T``, or of ``w``
    itself when ``q`` is None.
    """
    m, n = matrix.shape
    rank_cap = min(m, n)
    if k < 1 or k > rank_cap:
        raise ConfigurationError(f"k must be in 1..{rank_cap} for shape {(m, n)}, got {k}")
    if k >= rank_cap - 1:
        dense = matrix.toarray() if sparse.issparse(matrix) else np.asarray(matrix, dtype=float)
        _, s, vt = linalg.svd(dense, full_matrices=False)
        return s, vt, None
    # factor the Gram matrix of the long side, as svds does
    a, a_h = (matrix, matrix.T.conj()) if m >= n else (matrix.T.conj(), matrix)
    gram = LinearOperator(
        (rank_cap, rank_cap), matvec=lambda v: a_h.dot(a.dot(v)), dtype=matrix.dtype
    )
    # the start vector and every restart vector come from one seeded generator
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(rank_cap)
    try:
        _, q = eigsh(gram, k=k, v0=v0, rng=rng)
    except ArpackError as exc:
        raise NumericalError(f"truncated SVD failed: {exc}") from None
    # ARPACK's eigenvectors need not be exactly orthonormal
    q, _ = linalg.qr(q, mode="economic")
    # numpy's QR, which svds calls, returns C order; a dense product
    # reads the layout in its last bits
    u, s, w = linalg.svd(a.dot(np.ascontiguousarray(q)), full_matrices=False, overwrite_a=True)
    if m < n:
        return s[::-1], u[:, ::-1].T, None
    return s[::-1], w, q


def singular_vectors(factors, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The numpy half of ``truncated_svd``: ``ritz_factors`` output as
    the top-``k`` ``(sigma, v)``, ordered and oriented."""
    s, w, q = factors
    # svds multiplies the reversed view; reversing the product
    # instead changes the last bits on rank-deficient input
    vt = w if q is None else w[::-1] @ q.T
    order = np.argsort(-s, kind="stable")[:k]
    return _fix_signs(s[order], vt[order].T)


def _fix_signs(sigma: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Deterministic orientation: largest-magnitude component of each
    # column is made non-negative (first index wins ties).
    lead = np.argmax(np.abs(v), axis=0)
    v *= np.where(v[lead, np.arange(v.shape[1])] < 0, -1.0, 1.0)
    return sigma, v


@dataclass(frozen=True, eq=False)
class EmbeddingMatrix:
    """Per-word dense vectors: row ``i`` of ``matrix`` is ``words[i]``'s."""

    words: tuple[str, ...]
    matrix: np.ndarray
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ConfigurationError(f"vectors must be 2-D, got shape {matrix.shape}")
        if len(self.words) != matrix.shape[0]:
            raise ConfigurationError(f"{len(self.words)} words but {matrix.shape[0]} vector rows")
        object.__setattr__(self, "words", tuple(self.words))
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_index", word_index(self.words, "the embedding"))

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    @property
    def k(self) -> int:
        return self.matrix.shape[1]

    def rows(self, words: Iterable[str]) -> np.ndarray:
        return row_lookup(self._index, words, "the embedding")


def transformed_counts(cooc: CoocMatrix, vocab: Vocabulary, config: EmbeddingConfig) -> sparse.csr_array:
    """The matrix ``embed_counts`` factors: the counts, checked against the
    vocabulary, raised to ``config.alpha``; all-zero counts are a DataError."""
    if len(vocab) != cooc.shape[1]:
        raise ConfigurationError(
            f"vocabulary size {len(vocab)} does not match matrix dims {cooc.shape}"
        )
    if len(vocab) and not cooc.matrix.count_nonzero():
        raise DataError("no nonzero count to factor: no two vocabulary words share a window")
    return power_transform(cooc, config.alpha)


def scaled_vectors(sigma: np.ndarray, v: np.ndarray, config: EmbeddingConfig) -> np.ndarray:
    """Word vectors: the rows of ``v`` scaled by ``sigma**config.sigma_power``."""
    vectors = v * np.power(sigma, config.sigma_power)
    if not np.all(np.isfinite(vectors)):
        raise NumericalError("non-finite embedding values; check sigma_power against zero sigma")
    return vectors


def embed_counts(cooc: CoocMatrix, vocab: Vocabulary, config: EmbeddingConfig) -> EmbeddingMatrix:
    """Transform counts and factor them into word vectors; all-zero counts are a DataError."""
    transformed = transformed_counts(cooc, vocab, config)
    sigma, v = truncated_svd(transformed, config.k, seed=config.seed)
    vectors = scaled_vectors(sigma, v, config)
    return EmbeddingMatrix(vocab.words, vectors)


def embed(
    corpus: Iterable[Sentence],
    vocab: Vocabulary,
    context_config: ContextConfig,
    embedding_config: EmbeddingConfig,
) -> EmbeddingMatrix:
    """Count, transform and factor in one step."""
    cooc = count_cooccurrences(corpus, vocab, context_config)
    return embed_counts(cooc, vocab, embedding_config)


def save_embedding_text(emb: EmbeddingMatrix, path) -> None:
    """Write ``|V| K`` then one ``word v1 .. vK`` line per word."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(emb)} {emb.k}\n")
        for word, row in zip(emb.words, emb.matrix):
            values = " ".join(repr(float(x)) for x in row)
            fh.write(f"{word} {values}\n")


def _finite_embedding(words: list[str], rows: np.ndarray, path) -> EmbeddingMatrix:
    """The loaded rows as an embedding; vectors of dimension 0, a NaN or
    infinite value, or a repeated word is a DataError naming ``path``."""
    if rows.shape[1] == 0:
        raise DataError(f"{path}: the vectors have dimension 0")
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise DataError(f"{path}: the vector of {words[bad[0]]!r} has a non-finite value")
    try:
        return EmbeddingMatrix(words, rows)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def load_embedding_text(path) -> EmbeddingMatrix:
    with open_text(path) as fh:
        header = fh.readline().split()
        try:
            n, k = (int(x) for x in header)
        except ValueError:
            raise DataError(f"{path}: malformed header line") from None
        if n < 0 or k < 0:
            raise DataError(f"{path}: malformed header line")
        # every row takes a word, K space-led values and a newline
        if n * (2 * k + 2) > os.fstat(fh.fileno()).st_size:
            raise DataError(f"{path}: header promises {n} vectors of dim {k}, past the file end")
        rows = np.empty((n, k), dtype=np.float64)
        words: list[str] = []
        for i in range(n):
            parts = fh.readline().split()
            if len(parts) != k + 1:
                raise DataError(f"{path}: row {i} has {len(parts) - 1} values, expected {k}")
            words.append(parts[0])
            try:
                rows[i] = [float(x) for x in parts[1:]]
            except ValueError:
                raise DataError(f"{path}: row {i} has a non-numeric value") from None
    return _finite_embedding(words, rows, path)


def save_embedding_binary(emb: EmbeddingMatrix, path) -> None:
    """Binary variant: magic, word count, K, then length-prefixed words
    each followed by K little-endian float64 values."""
    with open(path, "wb") as fh:
        fh.write(EMBEDDING_MAGIC)
        fh.write(struct.pack("<QQ", len(emb), emb.k))
        for word, row in zip(emb.words, emb.matrix):
            encoded = word.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(np.ascontiguousarray(row, dtype="<f8").tobytes())


def _field(data: memoryview, at: int, size: int, path) -> memoryview:
    """The ``size`` bytes of ``data`` from ``at``; past its end is a DataError."""
    if at + size > len(data):
        raise DataError(f"{path}: truncated embedding file")
    return data[at:at + size]


def load_embedding_binary(path) -> EmbeddingMatrix:
    with open(path, "rb") as fh:
        data = memoryview(fh.read())
    if data[:len(EMBEDDING_MAGIC)] != EMBEDDING_MAGIC:
        raise DataError(f"{path}: bad magic {bytes(data[:len(EMBEDDING_MAGIC)])!r}")
    at = len(EMBEDDING_MAGIC) + 16
    n, k = struct.unpack("<QQ", _field(data, at - 16, 16, path))
    # every row takes a 4-byte length and K float64 values
    if at + n * (4 + 8 * k) > len(data):
        raise DataError(f"{path}: header promises {n} vectors of dim {k}, past the file end")
    words: list[str] = []
    width = 8 * k
    vectors = bytearray(n * width)
    for i in range(n):
        (length,) = struct.unpack("<I", _field(data, at, 4, path))
        try:
            words.append(str(_field(data, at + 4, length, path), "utf-8"))
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: invalid UTF-8 at byte offset {at + 4 + exc.start}") from None
        at += 4 + length
        vectors[i * width:(i + 1) * width] = _field(data, at, width, path)
        at += width
    return _finite_embedding(words, np.frombuffer(vectors, "<f8").reshape(n, k), path)


def load_embedding(path) -> EmbeddingMatrix:
    """The embedding at ``path``: binary if it starts with the magic, text otherwise."""
    with open(path, "rb") as fh:
        magic = fh.read(len(EMBEDDING_MAGIC))
    if magic == EMBEDDING_MAGIC:
        return load_embedding_binary(path)
    return load_embedding_text(path)
