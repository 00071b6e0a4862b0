"""Labeled dataset assembly and deterministic stratified splitting.

A ``LabeledSet`` holds the labeled words as parallel arrays: words,
embedding rows, class indices and corpus frequencies; splits are row
takes of it.  The 80/10/10 split is stratified per class with
largest-remainder apportionment, so the same seed always yields the
same word partition regardless of which embedding produced the vectors.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .corpus import Vocabulary, row_lookup, word_index
from .embedding import EmbeddingMatrix
from .errors import ConfigurationError, DataError
from .lexicon import CODE_TO_CLASS, GenderLexicon
from .records import Record, integer, read_rows, write_json, write_rows

CLASSES = tuple(CODE_TO_CLASS.values())

DEFAULT_RATIOS = (0.8, 0.1, 0.1)
PARTITION_NAMES = ("train", "dev", "test")
NO_LABELED_EXAMPLES = "no labeled examples: embedding, lexicon and vocabulary do not overlap"


@dataclass(frozen=True, eq=False)
class LabeledExample:
    word: str
    vector: np.ndarray
    gender: str
    frequency: int


@dataclass(frozen=True, eq=False)
class LabeledSet:
    """Labeled words as parallel arrays.

    Row ``i`` is ``words[i]`` with its embedding row ``vectors[i]``, its
    class ``labels[i]`` (an index into ``CLASSES``) and its corpus
    frequency.  Sets selected from the vocabulary or read from a dataset
    table have zero-width vectors until ``join_with_embedding`` attaches
    them.  Iterating yields one ``LabeledExample`` per row.
    """

    words: tuple[str, ...]
    vectors: np.ndarray
    labels: np.ndarray
    frequencies: np.ndarray
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        lengths = {len(self.words), len(self.vectors), len(self.labels), len(self.frequencies)}
        if self.vectors.ndim != 2 or len(lengths) != 1:
            raise DataError("words, vectors, labels and frequencies do not match in length")
        object.__setattr__(self, "_index", word_index(self.words, "the dataset"))

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[LabeledExample]:
        rows = zip(self.words, self.vectors, self.labels, self.frequencies)
        for word, vector, label, freq in rows:
            yield LabeledExample(word, vector, CLASSES[label], int(freq))

    def rows(self, words: Iterable[str]) -> np.ndarray:
        return row_lookup(self._index, words, "the dataset")

    def take(self, rows: np.ndarray) -> "LabeledSet":
        words = tuple(self.words[i] for i in rows)
        return LabeledSet(words, self.vectors[rows], self.labels[rows], self.frequencies[rows])


def _unjoined(words: list[str], labels: list[int], frequencies: list[int]) -> LabeledSet:
    return LabeledSet(
        tuple(words), np.empty((len(words), 0)),
        np.array(labels, dtype=np.int64), np.array(frequencies, dtype=np.int64),
    )


@dataclass(frozen=True, eq=False)
class SplitBundle:
    """The three partitions and the split manifest they were cut from."""

    train: LabeledSet
    dev: LabeledSet
    test: LabeledSet
    manifest: dict


def labeled_rows(vocab: Vocabulary, lexicon: GenderLexicon, min_freq: int = 0) -> LabeledSet:
    """The vocabulary words the lexicon codes ``u`` or ``n`` with corpus
    frequency strictly above ``min_freq``, with zero-width vectors, in
    vocabulary-id order (descending frequency), which split seeding
    relies on.  Words with any other code are not labeled.  It fixes a
    grid's split before any embedding exists.
    """
    if min_freq < 0:
        raise ConfigurationError(f"min_freq must be >= 0, got {min_freq}")
    words, labels, freqs = [], [], []
    for word, freq in zip(vocab.words, vocab.frequencies.tolist()):
        gender = CODE_TO_CLASS.get(lexicon.code_of(word)) if word in lexicon else None
        if freq > min_freq and gender is not None:
            words.append(word)
            labels.append(CLASSES.index(gender))
            freqs.append(freq)
    return _unjoined(words, labels, freqs)


def build_dataset(
    embedding: EmbeddingMatrix,
    lexicon: GenderLexicon,
    vocab: Vocabulary,
    min_freq: int = 0,
) -> LabeledSet:
    """The ``labeled_rows`` that the embedding covers, with their vectors."""
    table = labeled_rows(vocab, lexicon, min_freq)
    table = table.take(np.flatnonzero([word in embedding for word in table.words]))
    if not table:
        raise DataError(NO_LABELED_EXAMPLES)
    return join_with_embedding(table, embedding)


def apportion(total: int, ratios: Sequence[float]) -> list[int]:
    """Split ``total`` into integer parts by largest remainder.

    Floors the ideal shares, then hands leftover units to the largest
    fractional remainders; remainder ties go to the earlier part.
    """
    ideals = [total * r for r in ratios]
    floors = [int(x) for x in ideals]
    leftover = total - sum(floors)
    by_remainder = sorted(
        range(len(ratios)), key=lambda i: (-(ideals[i] - floors[i]), i)
    )
    for i in by_remainder[:leftover]:
        floors[i] += 1
    return floors


def validate_ratios(ratios: Sequence[float]) -> tuple[float, float, float]:
    if len(ratios) != 3:
        raise ConfigurationError(f"expected 3 ratios, got {len(ratios)}")
    if any(r <= 0 for r in ratios):
        raise ConfigurationError(f"ratios must be positive, got {tuple(ratios)}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigurationError(f"ratios must sum to 1, got {tuple(ratios)}")
    return (float(ratios[0]), float(ratios[1]), float(ratios[2]))


def split_words_by_class(
    labeled: LabeledSet,
    ratios: Sequence[float] = DEFAULT_RATIOS,
    seed: int = 0,
) -> dict[str, list[str]]:
    """Partition each class's words into train/dev/test word lists.

    This is the seed-deterministic core shared by every caller: the
    classes present are processed in sorted name order, each class's
    rows (in row order) are shuffled by one generator seeded with
    ``seed``, and counts come from ``apportion``.  Identical inputs
    therefore give identical partitions.
    """
    ratios = validate_ratios(ratios)
    rng = np.random.default_rng(seed)
    parts: dict[str, list[str]] = {name: [] for name in PARTITION_NAMES}
    for c in sorted(np.unique(labeled.labels), key=lambda c: CLASSES[c]):
        rows = np.flatnonzero(labeled.labels == c)
        if len(rows) < 3:
            raise DataError(
                f"class {CLASSES[c]!r} has only {len(rows)} members; need at least 3 to split"
            )
        rows = rows[rng.permutation(len(rows))]
        ends = np.cumsum(apportion(len(rows), ratios))[:-1]
        for name, part in zip(PARTITION_NAMES, np.split(rows, ends)):
            parts[name].extend(labeled.words[i] for i in part)
    return parts


def stratified_split(
    data: LabeledSet,
    ratios: Sequence[float] = DEFAULT_RATIOS,
    seed: int = 0,
) -> SplitBundle:
    """Stratified 80/10/10 split (or custom ratios) of a labeled set."""
    parts = split_words_by_class(data, ratios, seed)
    return bundle_from_manifest(split_manifest(parts, seed, ratios), data)


def word_list_digest(words: Iterable[str]) -> str:
    """Order-insensitive sha256 over a word list (sorted, newline-joined)."""
    blob = "\n".join(sorted(words)).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def split_manifest(
    partitions: Mapping[str, Sequence[str]], seed: int, ratios: Sequence[float]
) -> dict:
    """JSON-ready record of a split: words per partition, seed, ratios and
    the digest of the test words."""
    return {
        "seed": seed,
        "ratios": list(ratios),
        "partitions": {name: list(partitions[name]) for name in PARTITION_NAMES},
        "test_digest": word_list_digest(partitions["test"]),
    }


def save_split_manifest(manifest: dict, path) -> None:
    write_json(path, manifest)


def load_split_manifest(path) -> dict:
    """A split manifest whose partitions are disjoint and whose
    ``test_digest`` is the digest of its test words."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError:
            raise DataError(f"{path}: malformed split manifest JSON") from None
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: split manifest is not a JSON object")
    for key in ("seed", "ratios", "partitions"):
        if key not in manifest:
            raise DataError(f"{path}: split manifest missing {key!r}")
    partitions = manifest["partitions"]
    for name in PARTITION_NAMES:
        words = partitions.get(name) if isinstance(partitions, dict) else None
        if not (isinstance(words, list) and all(isinstance(w, str) for w in words)):
            raise DataError(f"{path}: split manifest partition {name!r} must be a list of words")
    try:
        if integer(manifest["seed"]) < 0:
            raise ValueError(f"seed must be >= 0, got {manifest['seed']}")
        validate_ratios(manifest["ratios"])
    except (TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad split manifest seed or ratios: {exc}") from None
    try:
        word_index([w for name in PARTITION_NAMES for w in partitions[name]], "the partitions")
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    if manifest.get("test_digest") != word_list_digest(partitions["test"]):
        raise DataError(f"{path}: test_digest is missing or does not match the test partition")
    return manifest


def bundle_from_manifest(manifest: dict, data: LabeledSet) -> SplitBundle:
    """Take each partition's words out of ``data``, in manifest order."""
    parts = {
        name: data.take(data.rows(manifest["partitions"][name])) for name in PARTITION_NAMES
    }
    return SplitBundle(**parts, manifest=manifest)


def save_dataset_table(data: LabeledSet, path) -> None:
    """Write ``word<TAB>gender<TAB>frequency`` rows in dataset order.

    Vectors are not stored; they are rejoined from an embedding file.
    """
    genders = map(CLASSES.__getitem__, data.labels.tolist())
    write_rows(path, zip(data.words, genders, data.frequencies.tolist()))


def load_dataset_table(path) -> LabeledSet:
    """A dataset table as a LabeledSet with zero-width vectors."""
    words, labels, freqs = [], [], []
    for lineno, (word, gender, freq_text) in read_rows(path, 3, "word<TAB>gender<TAB>frequency"):
        if gender not in CLASSES:
            raise DataError(f"{path}:{lineno}: unknown gender {gender!r}")
        try:
            freqs.append(int(freq_text))
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-integer frequency") from None
        if freqs[-1] < 1:
            raise DataError(f"{path}:{lineno}: frequency must be >= 1, got {freq_text}")
        words.append(word)
        labels.append(CLASSES.index(gender))
    if not words:
        raise DataError(f"{path}: empty dataset table")
    try:
        return _unjoined(words, labels, freqs)
    except (DataError, OverflowError) as exc:
        raise DataError(f"{path}: {exc}") from None


def join_with_embedding(table: LabeledSet, embedding: EmbeddingMatrix) -> LabeledSet:
    """Attach vectors to a table's words; every word must be embedded."""
    return replace(table, vectors=embedding.matrix[embedding.rows(table.words)])


@dataclass(frozen=True)
class DecileReport(Record):
    """Class balance across ten frequency bands, highest frequency first."""

    group_sizes: tuple[int, ...]
    uter_shares: tuple[float, ...]
    mean_uter_share: float
    std_uter_share: float


def class_ratio_by_decile(data: LabeledSet) -> DecileReport:
    """Sort by descending frequency (ties by word) and report the uter
    share in each of ten near-equal groups."""
    if len(data) < 10:
        raise DataError(f"need at least 10 examples for deciles, got {len(data)}")
    order = np.lexsort((np.array(data.words), -data.frequencies))
    groups = np.array_split(data.labels[order] == CLASSES.index("uter"), 10)
    shares = np.array([group.mean() for group in groups])
    return DecileReport(
        group_sizes=tuple(len(group) for group in groups),
        uter_shares=tuple(shares.tolist()),
        mean_uter_share=float(shares.mean()),
        std_uter_share=float(shares.std()),
    )
