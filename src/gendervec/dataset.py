"""Labeled dataset assembly and deterministic stratified splitting.

A labeled example ties a word to its embedding vector, gender class and
corpus frequency.  The 80/10/10 split is stratified per class with
largest-remainder apportionment, so the same seed always yields the
same word partition regardless of which embedding produced the vectors.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import Vocabulary
from .embedding import EmbeddingMatrix
from .errors import ConfigurationError, DataError
from .lexicon import CODE_TO_CLASS, CORE_CODES, GenderLexicon
from .records import Record

CLASSES = ("uter", "neuter")

DEFAULT_RATIOS = (0.8, 0.1, 0.1)
PARTITION_NAMES = ("train", "dev", "test")


@dataclass(frozen=True, eq=False)
class LabeledExample:
    word: str
    vector: np.ndarray
    gender: str
    frequency: int


@dataclass(frozen=True, eq=False)
class SplitBundle:
    train: tuple
    dev: tuple
    test: tuple
    seed: int
    ratios: tuple[float, float, float]

    def word_partitions(self) -> dict[str, list[str]]:
        return {name: [ex.word for ex in getattr(self, name)] for name in PARTITION_NAMES}


def build_dataset(
    embedding: EmbeddingMatrix,
    lexicon: GenderLexicon,
    vocab: Vocabulary,
    min_freq: int = 0,
) -> list[LabeledExample]:
    """Intersect embedding, lexicon and vocabulary into labeled examples.

    Keeps words present in all three with corpus frequency strictly
    above ``min_freq``.  The lexicon must already be restricted to the
    two core genders.  Output order follows vocabulary ids (descending
    frequency), which downstream seeding relies on.
    """
    if min_freq < 0:
        raise ConfigurationError(f"min_freq must be >= 0, got {min_freq}")
    for word, code in lexicon.items():
        if code not in CORE_CODES:
            raise ConfigurationError(
                f"lexicon contains non-core code {code!r} for {word!r}; "
                "call restrict_to_core_genders first"
            )
        break  # items() is sorted, but any row suffices as a spot check
    examples: list[LabeledExample] = []
    for word, _, freq in vocab.entries():
        if freq <= min_freq or word not in lexicon or word not in embedding:
            continue
        code = lexicon.code_of(word)
        if code not in CORE_CODES:
            raise ConfigurationError(
                f"lexicon contains non-core code {code!r} for {word!r}; "
                "call restrict_to_core_genders first"
            )
        examples.append(
            LabeledExample(
                word=word,
                vector=embedding.vector(word),
                gender=CODE_TO_CLASS[code],
                frequency=freq,
            )
        )
    if not examples:
        raise DataError("no labeled examples: embedding, lexicon and vocabulary do not overlap")
    return examples


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


def _validate_ratios(ratios: Sequence[float]) -> tuple[float, float, float]:
    if len(ratios) != 3:
        raise ConfigurationError(f"expected 3 ratios, got {len(ratios)}")
    if any(r <= 0 for r in ratios):
        raise ConfigurationError(f"ratios must be positive, got {tuple(ratios)}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigurationError(f"ratios must sum to 1, got {tuple(ratios)}")
    return (float(ratios[0]), float(ratios[1]), float(ratios[2]))


def split_words_by_class(
    words_by_class: Mapping[str, Sequence[str]],
    ratios: Sequence[float] = DEFAULT_RATIOS,
    seed: int = 0,
) -> dict[str, list[str]]:
    """Partition words per class into train/dev/test word lists.

    This is the seed-deterministic core shared by every caller: classes
    are processed in sorted name order, each class list is shuffled by
    one generator seeded with ``seed``, and counts come from
    ``apportion``.  Identical inputs therefore give identical partitions.
    """
    ratios = _validate_ratios(ratios)
    rng = np.random.default_rng(seed)
    parts: dict[str, list[str]] = {name: [] for name in PARTITION_NAMES}
    for cls in sorted(words_by_class):
        words = list(words_by_class[cls])
        if len(words) < 3:
            raise DataError(
                f"class {cls!r} has only {len(words)} members; need at least 3 to split"
            )
        order = rng.permutation(len(words))
        shuffled = [words[i] for i in order]
        counts = apportion(len(words), ratios)
        start = 0
        for name, count in zip(PARTITION_NAMES, counts):
            parts[name].extend(shuffled[start : start + count])
            start += count
    return parts


def stratified_split(
    data: Iterable[LabeledExample],
    ratios: Sequence[float] = DEFAULT_RATIOS,
    seed: int = 0,
) -> SplitBundle:
    """Stratified 80/10/10 split (or custom ratios) over labeled examples."""
    data = list(data)
    by_word = {}
    words_by_class: dict[str, list[str]] = {}
    for ex in data:
        if ex.word in by_word:
            raise DataError(f"duplicate word in dataset: {ex.word!r}")
        by_word[ex.word] = ex
        words_by_class.setdefault(ex.gender, []).append(ex.word)
    parts = split_words_by_class(words_by_class, ratios, seed)
    return SplitBundle(
        train=tuple(by_word[w] for w in parts["train"]),
        dev=tuple(by_word[w] for w in parts["dev"]),
        test=tuple(by_word[w] for w in parts["test"]),
        seed=seed,
        ratios=_validate_ratios(ratios),
    )


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


def manifest_to_json(manifest: dict) -> str:
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def save_split_manifest(bundle: SplitBundle, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        manifest = split_manifest(bundle.word_partitions(), bundle.seed, bundle.ratios)
        fh.write(manifest_to_json(manifest))


def load_split_manifest(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError:
            raise DataError(f"{path}: malformed split manifest JSON") from None
    for key in ("seed", "ratios", "partitions"):
        if key not in manifest:
            raise DataError(f"{path}: split manifest missing {key!r}")
    missing = set(PARTITION_NAMES) - set(manifest["partitions"])
    if missing:
        raise DataError(f"{path}: split manifest missing partitions {sorted(missing)}")
    return manifest


def bundle_from_manifest(manifest: dict, data: Iterable[LabeledExample]) -> SplitBundle:
    """Rebuild a SplitBundle by looking manifest words up in ``data``."""
    by_word = {ex.word: ex for ex in data}
    parts = {}
    for name in PARTITION_NAMES:
        words = manifest["partitions"][name]
        absent = [w for w in words if w not in by_word]
        if absent:
            raise DataError(
                f"split manifest references {len(absent)} words missing from the "
                f"dataset, e.g. {absent[0]!r}"
            )
        parts[name] = tuple(by_word[w] for w in words)
    return SplitBundle(
        train=parts["train"],
        dev=parts["dev"],
        test=parts["test"],
        seed=int(manifest["seed"]),
        ratios=_validate_ratios(manifest["ratios"]),
    )


def save_dataset_table(data: Sequence[LabeledExample], path) -> None:
    """Write ``word<TAB>gender<TAB>frequency`` rows in dataset order.

    Vectors are not stored; they are rejoined from an embedding file.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for ex in data:
            fh.write(f"{ex.word}\t{ex.gender}\t{ex.frequency}\n")


def load_dataset_table(path) -> list[tuple[str, str, int]]:
    rows: list[tuple[str, str, int]] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected word<TAB>gender<TAB>frequency")
            word, gender, freq_text = parts
            if gender not in CLASSES:
                raise DataError(f"{path}:{lineno}: unknown gender {gender!r}")
            if word in seen:
                raise DataError(f"{path}:{lineno}: duplicate word {word!r}")
            seen.add(word)
            try:
                rows.append((word, gender, int(freq_text)))
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-integer frequency") from None
    if not rows:
        raise DataError(f"{path}: empty dataset table")
    return rows


def join_with_embedding(
    rows: Sequence[tuple[str, str, int]], embedding: EmbeddingMatrix
) -> list[LabeledExample]:
    """Attach vectors to dataset-table rows; every word must be embedded."""
    examples = []
    for word, gender, freq in rows:
        if word not in embedding:
            raise DataError(f"dataset word {word!r} missing from the embedding")
        examples.append(
            LabeledExample(word=word, vector=embedding.vector(word), gender=gender, frequency=freq)
        )
    return examples


@dataclass(frozen=True)
class DecileReport(Record):
    """Class balance across ten frequency bands, highest frequency first."""

    group_sizes: tuple[int, ...]
    uter_shares: tuple[float, ...]
    mean_uter_share: float
    std_uter_share: float


def class_ratio_by_decile(data: Sequence[LabeledExample]) -> DecileReport:
    """Sort by descending frequency (ties by word) and report the uter
    share in each of ten near-equal groups."""
    data = list(data)
    if len(data) < 10:
        raise DataError(f"need at least 10 examples for deciles, got {len(data)}")
    ordered = sorted(data, key=lambda ex: (-ex.frequency, ex.word))
    n = len(ordered)
    base, extra = divmod(n, 10)
    sizes = [base + 1 if i < extra else base for i in range(10)]
    shares = []
    start = 0
    for size in sizes:
        group = ordered[start : start + size]
        start += size
        shares.append(sum(1 for ex in group if ex.gender == "uter") / size)
    shares_arr = np.array(shares)
    return DecileReport(
        group_sizes=tuple(sizes),
        uter_shares=tuple(shares),
        mean_uter_share=float(shares_arr.mean()),
        std_uter_share=float(shares_arr.std()),
    )
