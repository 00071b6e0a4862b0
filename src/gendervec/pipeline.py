"""End-to-end orchestration: single runs, the context grid, manifests.

A run is fully determined by (corpus, lexicon, context config, embedding
config, training config, RunOptions), and the RunManifest captures
exactly that plus input digests, so a run can be replayed byte for
byte.  The context grid trains one model per (context type, window
size) cell on a word partition fixed before the grid starts; the
held-out test list is digest-pinned so the final evaluation can prove
it never leaked into tuning.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
from scipy import linalg

from .classifier import (
    MLPModel,
    Predictions,
    TrainConfig,
    correct_predictions,
    predict_records,
    save_model,
    save_prediction_records,
    train,
    train_stack,
)
from .cooccurrence import CONTEXT_TYPES, ContextConfig, combine, count_by_distance_from_file
from .corpus import Vocabulary, build_vocabulary_from_file, filter_by_frequency, row_lookup
from .dataset import (
    CLASSES,
    DEFAULT_RATIOS,
    NO_LABELED_EXAMPLES,
    DecileReport,
    LabeledSet,
    SplitBundle,
    build_dataset,
    bundle_from_manifest,
    class_ratio_by_decile,
    labeled_rows,
    save_split_manifest,
    split_manifest,
    split_words_by_class,
    stratified_split,
    validate_ratios,
    word_list_digest,
)
from .embedding import (
    EmbeddingConfig,
    _fix_signs,
    embed_counts,
    ritz_factors,
    scaled_vectors,
    singular_vectors,
    transformed_counts,
)
from .errors import ConfigurationError, DataError, GendervecError
from .lexicon import CORE_CODES, GenderLexicon, parse_lexicon
from .metrics import (
    EntropyFrequencyReport,
    EvalReport,
    build_eval_report,
    entropy_frequency_analysis,
)
from .records import OMIT, Record, load_record

# The sentence-level forms stay reachable here: perfbench/ reads through
# pipeline.read_sentences and wraps these names when it traces a run.
from .corpus import build_vocabulary, read_sentences  # noqa: F401
from .embedding import embed  # noqa: F401

# Tie-break order across context types when dev accuracies are equal.
_TYPE_RANK = {"asymmetric_backward": 0, "symmetric": 1, "asymmetric_forward": 2}


@dataclass(frozen=True)
class RunOptions(Record):
    """The run-level options beside the three configs: frequency filters,
    the split, and the permutation test of the final evaluation."""

    min_freq: int = 0
    vocab_min_freq: int = 0
    split_seed: int = 0
    ratios: tuple[float, float, float] = DEFAULT_RATIOS
    n_perm: int = 10_000
    stats_seed: int = 0

    def __post_init__(self):
        for name in ("min_freq", "vocab_min_freq", "split_seed", "stats_seed"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.n_perm < 1:
            raise ConfigurationError(f"n_perm must be >= 1, got {self.n_perm}")
        validate_ratios(self.ratios)


def prepare_inputs(
    corpus_path, lexicon_path, vocab_min_freq: int = RunOptions.vocab_min_freq
) -> tuple[Vocabulary, GenderLexicon]:
    """Vocabulary from the corpus, lexicon as parsed from the TSV."""
    vocab = build_vocabulary_from_file(corpus_path)
    vocab = filter_by_frequency(vocab, vocab_min_freq)
    if len(vocab) == 0:
        raise DataError(f"{corpus_path}: no vocabulary entries survive the frequency filter")
    lexicon = parse_lexicon(lexicon_path)
    if not any(lexicon.counts_by_code()[code] for code in CORE_CODES):
        raise DataError(f"{lexicon_path}: no u/n entries in lexicon")
    return vocab, lexicon


def project_2d(vectors: np.ndarray) -> np.ndarray:
    """Rank-2 view of mean-centered vectors along their top two right
    singular vectors, oriented as the embedding's are.

    Projection onto orthonormal directions never expands pairwise
    distances.  Vectors whose centered rank is below 2 (e.g. all
    identical) cannot be projected and raise.
    """
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2 or x.shape[1] < 2:
        raise DataError(f"need at least 2 vectors of dim >= 2, got shape {x.shape}")
    centered = x - x.mean(axis=0)
    _, sigma, vt = linalg.svd(centered, full_matrices=False)
    sigma, v = _fix_signs(sigma[:2], vt[:2].T)
    if sigma[0] <= 0.0 or sigma[1] <= sigma[0] * 1e-12:
        raise DataError("vectors have rank < 2 after centering; nothing to project")
    return centered @ v


@dataclass(frozen=True, eq=False)
class FinalEvaluation:
    predictions: Predictions
    report: EvalReport
    analysis: EntropyFrequencyReport
    test_digest: str


def final_evaluate(
    model: MLPModel,
    test_set: LabeledSet,
    expected_test_digest: str | None = None,
    n_perm: int = RunOptions.n_perm,
    stats_seed: int = RunOptions.stats_seed,
) -> FinalEvaluation:
    """Evaluate the chosen model exactly once on the held-out words.

    If a digest pinned before tuning is supplied, the test word list
    must hash to it; a mismatch means the held-out set was tampered
    with and aborts.
    """
    digest = word_list_digest(test_set.words)
    if expected_test_digest is not None and digest != expected_test_digest:
        raise DataError(
            f"test-set digest mismatch: expected {expected_test_digest}, got {digest}"
        )
    predictions = predict_records(model, test_set)
    return FinalEvaluation(
        predictions=predictions,
        report=build_eval_report(predictions),
        analysis=entropy_frequency_analysis(predictions, n_perm=n_perm, seed=stats_seed),
        test_digest=digest,
    )


def save_evaluation(evaluation: FinalEvaluation, out_dir) -> dict[str, str]:
    """Write eval's three files into ``out_dir``; returns a name -> path map."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, name) for name in (
        "eval_report.json", "records.csv", "stats.json",
    )}
    with open(paths["eval_report.json"], "w", encoding="utf-8") as fh:
        fh.write(evaluation.report.to_json())
    save_prediction_records(evaluation.predictions, paths["records.csv"])
    with open(paths["stats.json"], "w", encoding="utf-8") as fh:
        fh.write(evaluation.analysis.to_json())
    return paths


@dataclass(frozen=True)
class CellResult(Record):
    context: ContextConfig
    dev_accuracy: float | None
    per_class_dev_accuracy: dict | None
    error: str | None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True, eq=False)
class GridResult(Record):
    cells: tuple[CellResult, ...]
    best: ContextConfig
    split_seed: int
    test_digest: str
    # The split manifest pinned before any cell ran; grid.json omits it (None on load).
    split_manifest: dict | None = field(default=None, metadata=OMIT)

    def cell(self, context_type: str, window_size: int) -> CellResult:
        for c in self.cells:
            if (c.context.context_type, c.context.window_size) == (context_type, window_size):
                return c
        raise KeyError(f"no grid cell for ({context_type}, {window_size})")


def default_grid(
    context_types: Sequence[str] = CONTEXT_TYPES,
    window_sizes: Sequence[int] = (1, 2, 3, 4, 5),
) -> list[ContextConfig]:
    """The full tuning grid: every context type crossed with every window."""
    return [
        ContextConfig(context_type=t, window_size=w)
        for t in context_types
        for w in window_sizes
    ]


def _grid_key(config: ContextConfig) -> tuple[int, int]:
    return (config.window_size, _TYPE_RANK[config.context_type])


def grid_search(
    corpus_path,
    lexicon_path,
    grid: Sequence[ContextConfig] | None = None,
    embedding_config: EmbeddingConfig = EmbeddingConfig(),
    train_config: TrainConfig = TrainConfig(),
    options: RunOptions = RunOptions(),
) -> GridResult:
    """Train one model per grid cell and pick the best dev accuracy.

    The labeled word partition is computed once, before any cell runs,
    from the vocabulary and lexicon alone, so every cell trains and
    validates on identical word lists and the test digest is pinned up
    front.  The corpus is counted once, by distance up to the widest
    window.  The grid then runs stage by stage over every cell:
    ``ritz_factors`` (scipy) for each cell's combined counts, then
    ``singular_vectors`` (numpy), taking each cell's train and dev rows,
    then one ``train_stack`` for all probes.  Each cell's vectors, model
    and dev accuracy are bit for bit those of ``embed_counts``,
    ``build_dataset``, ``bundle_from_manifest`` and ``train`` on that
    cell alone.  A failing cell is recorded and skipped, not fatal.
    Ties on dev accuracy go to the smaller window, then backward before
    symmetric before forward.
    """
    cells = sorted(grid if grid is not None else default_grid(), key=_grid_key)
    if not cells:
        raise ConfigurationError("empty tuning grid")
    if len({(c.context_type, c.window_size) for c in cells}) != len(cells):
        raise ConfigurationError("duplicate grid cells")
    vocab, lexicon = prepare_inputs(corpus_path, lexicon_path, options.vocab_min_freq)
    labeled = labeled_rows(vocab, lexicon, options.min_freq)
    partitions = split_words_by_class(labeled, options.ratios, options.split_seed)
    manifest = split_manifest(partitions, options.split_seed, options.ratios)
    by_distance = count_by_distance_from_file(
        corpus_path, vocab, max(c.window_size for c in cells)
    )
    # numpy and scipy each bundle an OpenBLAS; switching pools cell by
    # cell costs more than the factorizations, so each stage runs all cells
    results: dict[int, CellResult] = {}

    def fail(i: int, exc: GendervecError) -> None:
        results[i] = CellResult(cells[i], None, None, f"{type(exc).__name__}: {exc}")

    factors = {}
    for i, context in enumerate(cells):
        try:
            counts = transformed_counts(combine(by_distance, context), vocab, embedding_config)
            factors[i] = ritz_factors(counts, embedding_config.k, seed=embedding_config.seed)
        except GendervecError as exc:
            fail(i, exc)
    split = bundle_from_manifest(manifest, labeled)
    train_ids, dev_ids = (row_lookup(vocab.ids, part.words, "the vocabulary")
                          for part in (split.train, split.dev))
    x_train = np.empty((len(factors), len(train_ids), embedding_config.k))
    x_dev = np.empty((len(factors), len(dev_ids), embedding_config.k))
    stacked = []
    for i in list(factors):
        try:
            sigma, v = singular_vectors(factors.pop(i), embedding_config.k)
            vectors = scaled_vectors(sigma, v, embedding_config)
            if not labeled:
                raise DataError(NO_LABELED_EXAMPLES)
        except GendervecError as exc:
            fail(i, exc)
            continue
        x_train[len(stacked)], x_dev[len(stacked)] = vectors[train_ids], vectors[dev_ids]
        stacked.append(i)
    try:
        models = train_stack(x_train[: len(stacked)], split.train.labels,
                             x_dev[: len(stacked)], split.dev.labels, train_config)
    except GendervecError as exc:
        models = [exc] * len(stacked)
    for i, x, model in zip(stacked, x_dev, models):
        if isinstance(model, GendervecError):
            fail(i, model)
            continue
        dev = replace(split.dev, vectors=x)
        hits, labels = correct_predictions(model, dev), dev.labels
        per_class = {
            cls: float(hits[labels == c].mean()) if np.any(labels == c) else None
            for c, cls in enumerate(CLASSES)
        }
        results[i] = CellResult(cells[i], float(hits.mean()), per_class, None)
    ordered = [results[i] for i in range(len(cells))]
    survivors = [c for c in ordered if c.ok]
    if not survivors:
        raise DataError(
            "every grid cell failed; first error: " + (ordered[0].error or "unknown")
        )
    best = min(survivors, key=lambda c: (-c.dev_accuracy, _grid_key(c.context)))
    return GridResult(
        cells=tuple(ordered),
        best=best.context,
        split_seed=options.split_seed,
        test_digest=manifest["test_digest"],
        split_manifest=manifest,
    )


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    dataset: LabeledSet
    bundle: SplitBundle
    model: MLPModel
    evaluation: FinalEvaluation
    decile_report: DecileReport | None


def run_experiment(
    corpus_path,
    lexicon_path,
    context: ContextConfig,
    embedding_config: EmbeddingConfig = EmbeddingConfig(),
    train_config: TrainConfig = TrainConfig(),
    options: RunOptions = RunOptions(),
) -> ExperimentResult:
    """One full pass: ingest, embed, label, split, train, evaluate."""
    vocab, lexicon = prepare_inputs(corpus_path, lexicon_path, options.vocab_min_freq)
    by_distance = count_by_distance_from_file(corpus_path, vocab, context.window_size)
    embedding = embed_counts(combine(by_distance, context), vocab, embedding_config)
    data = build_dataset(embedding, lexicon, vocab, options.min_freq)
    bundle = stratified_split(data, options.ratios, options.split_seed)
    model = train(bundle.train, bundle.dev, train_config)
    evaluation = final_evaluate(
        model, bundle.test, n_perm=options.n_perm, stats_seed=options.stats_seed
    )
    decile = class_ratio_by_decile(data) if len(data) >= 10 else None
    return ExperimentResult(
        dataset=data,
        bundle=bundle,
        model=model,
        evaluation=evaluation,
        decile_report=decile,
    )


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True, kw_only=True)
class RunManifest(RunOptions):
    """Everything needed to replay a run byte for byte: the inputs and
    their digests, the three configs, and the run options it inherits."""

    corpus_path: str
    corpus_sha256: str
    lexicon_path: str
    lexicon_sha256: str
    context: ContextConfig
    embedding: EmbeddingConfig
    training: TrainConfig


def build_manifest(
    corpus_path,
    lexicon_path,
    context: ContextConfig,
    embedding_config: EmbeddingConfig = EmbeddingConfig(),
    train_config: TrainConfig = TrainConfig(),
    **kwargs,
) -> RunManifest:
    """Manifest for the given inputs, hashing both files now."""
    return RunManifest(
        corpus_path=str(corpus_path),
        corpus_sha256=file_sha256(corpus_path),
        lexicon_path=str(lexicon_path),
        lexicon_sha256=file_sha256(lexicon_path),
        context=context,
        embedding=embedding_config,
        training=train_config,
        **kwargs,
    )


def save_manifest(manifest: RunManifest, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(manifest.to_json())


def load_manifest(path) -> RunManifest:
    return load_record(RunManifest, path)


def run_from_manifest(manifest: RunManifest, out_dir) -> dict:
    """Replay a manifest and write the core artifacts into ``out_dir``.

    Both input files must still hash to the manifest's digests.  Returns
    a name -> path map.  Identical manifests write identical bytes for
    the eval report and split manifest.
    """
    for label, path, expected in (
        ("corpus", manifest.corpus_path, manifest.corpus_sha256),
        ("lexicon", manifest.lexicon_path, manifest.lexicon_sha256),
    ):
        actual = file_sha256(path)
        if actual != expected:
            raise DataError(
                f"{label} digest mismatch for {path}: manifest has {expected}, file has {actual}"
            )
    result = run_experiment(
        manifest.corpus_path,
        manifest.lexicon_path,
        manifest.context,
        manifest.embedding,
        manifest.training,
        manifest,
    )
    paths = save_evaluation(result.evaluation, out_dir)
    for name in ("manifest.json", "split_manifest.json", "model.bin"):
        paths[name] = os.path.join(out_dir, name)
    save_manifest(manifest, paths["manifest.json"])
    save_split_manifest(result.bundle.manifest, paths["split_manifest.json"])
    save_model(result.model, paths["model.bin"])
    return paths
