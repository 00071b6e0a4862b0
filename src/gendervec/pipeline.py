"""End-to-end orchestration: single runs, the context grid, manifests.

A run is fully determined by (corpus, lexicon, context config, embedding
config, training config, RunOptions), and the RunManifest captures
exactly that plus input digests, so a run can be replayed byte for
byte.  The context grid trains one model per (context type, window
size) cell on a word partition fixed before the grid starts; the
held-out test list is digest-pinned so the final evaluation can prove
it never leaked into tuning.  A single run is the grid of its one cell
plus that evaluation.
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
    predict_records,
    save_model,
    save_prediction_records,
    train_stack,
)
from .cooccurrence import CONTEXT_TYPES, ContextConfig, combine, count_by_distance
from .corpus import Vocabulary, ingest_vocabulary, read_token_ids, row_lookup
from .dataset import (
    CLASSES,
    DEFAULT_RATIOS,
    NO_LABELED_EXAMPLES,
    DecileReport,
    LabeledSet,
    SplitBundle,
    class_ratio_by_decile,
    labeled_rows,
    stratified_split,
    validate_ratios,
    word_list_digest,
)
from .embedding import (
    EmbeddingConfig,
    _fix_signs,
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
from .records import OMIT, Record, bounds, load_record, write_json

# Names perfbench/ wraps when it traces a run, and reads through; split_words_by_class
# and bundle_from_manifest are kept here for perfbench/tracer.py, which patches
# both. They go with the run trace (ROADMAP item 4).
from .classifier import train  # noqa: F401
from .corpus import build_vocabulary, read_sentences  # noqa: F401
from .dataset import build_dataset, bundle_from_manifest, split_words_by_class  # noqa: F401
from .embedding import embed  # noqa: F401

# Tie-break order across context types when dev accuracies are equal.
_TYPE_RANK = {"asymmetric_backward": 0, "symmetric": 1, "asymmetric_forward": 2}


@dataclass(frozen=True)
class RunOptions(Record):
    """The run-level options beside the three configs: frequency filters,
    the split, and the permutation test of the final evaluation."""

    min_freq: int = field(default=0, metadata=bounds(0))
    vocab_min_freq: int = field(default=0, metadata=bounds(0))
    split_seed: int = field(default=0, metadata=bounds(0))
    ratios: tuple[float, float, float] = DEFAULT_RATIOS
    n_perm: int = field(default=10_000, metadata=bounds(1))
    stats_seed: int = field(default=0, metadata=bounds(0))

    def __post_init__(self):
        super().__post_init__()
        validate_ratios(self.ratios)


def prepare_inputs(
    corpus_path, lexicon_path, vocab_min_freq: int = RunOptions.vocab_min_freq
) -> tuple[Vocabulary, GenderLexicon]:
    """Vocabulary from the corpus, lexicon as parsed from the TSV."""
    vocab = ingest_vocabulary(corpus_path, vocab_min_freq)
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
    write_json(paths["eval_report.json"], evaluation.report)
    save_prediction_records(evaluation.predictions, paths["records.csv"])
    write_json(paths["stats.json"], evaluation.analysis)
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
    # grid.json omits these (None on load): the chosen model and its bundle.
    model: MLPModel | None = field(default=None, metadata=OMIT)
    bundle: SplitBundle | None = field(default=None, metadata=OMIT)

    # The pinned split's manifest, kept for perfbench/workloads.py, which reads
    # it here; it goes with the run trace (ROADMAP item 4). Read bundle.manifest.
    @property
    def split_manifest(self) -> dict | None:
        return self.bundle.manifest if self.bundle is not None else None

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
    front.  A K above the vocabulary size is a ConfigurationError, and a
    split with no labeled word or an empty train or dev partition a
    DataError, both raised before any counting.  The corpus is counted
    once, by distance up to the widest window.  The grid then runs stage
    by stage over every cell: ``ritz_factors`` (scipy) for each cell's
    combined counts, then ``singular_vectors`` (numpy), taking each
    cell's train, dev and test rows, then one ``train_stack`` for all
    probes.  One slot per cell, vocabulary x K floats, holds the cell's
    Ritz basis and then a stacked cell's rows, so the grid holds about
    cells x vocabulary x K x 8 bytes between stages.  Each cell's
    vectors, model and dev accuracy are bit for bit those of
    ``embed_counts``, ``build_dataset``, ``stratified_split`` and
    ``train`` on that cell alone.  A cell
    failing for a reason of its own (all-zero counts, an ARPACK failure,
    non-finite vectors, a diverged probe) is recorded and skipped; if all
    fail, the first one's error is a DataError.  Ties on dev accuracy go
    to the smaller window, then backward before symmetric before forward.
    The result carries the chosen cell's model and vector partitions.
    """
    cells = sorted(grid if grid is not None else default_grid(), key=_grid_key)
    if not cells:
        raise ConfigurationError("empty tuning grid")
    if len({(c.context_type, c.window_size) for c in cells}) != len(cells):
        raise ConfigurationError("duplicate grid cells")
    vocab, lexicon = prepare_inputs(corpus_path, lexicon_path, options.vocab_min_freq)
    labeled = labeled_rows(vocab, lexicon, options.min_freq)
    split = stratified_split(labeled, options.ratios, options.split_seed)
    # every cell factors a |V| x |V| matrix and trains on this one split
    if embedding_config.k > len(vocab):
        raise ConfigurationError(
            f"K must be <= {len(vocab)}, the vocabulary size; got {embedding_config.k}")
    empty = [name for name in ("train", "dev") if not len(getattr(split, name))]
    if empty:
        raise DataError(f"the split leaves the {empty[0]} partition empty" if labeled
                        else NO_LABELED_EXAMPLES)
    by_distance = count_by_distance(
        read_token_ids(corpus_path, vocab), len(vocab), max(c.window_size for c in cells)
    )
    # numpy and scipy each bundle an OpenBLAS; switching pools cell by
    # cell costs more than the factorizations, so each stage runs all cells
    results: dict[int, CellResult] = {}

    def fail(i: int, exc: GendervecError) -> None:
        results[i] = CellResult(cells[i], None, None, f"{type(exc).__name__}: {exc}")

    # one slot per cell holds its Ritz basis q.T (K x |V|, C order, as the
    # product in singular_vectors reads it), then the rows of a stacked cell;
    # np.empty leaves the pages no cell writes out of memory
    k, size = embedding_config.k, len(vocab)
    slots = np.empty((len(cells), size * k))
    factors = {}
    for i, context in enumerate(cells):
        try:
            counts = transformed_counts(combine(by_distance, context), vocab, embedding_config)
            s, w, q = ritz_factors(counts, k, seed=embedding_config.seed)
        except GendervecError as exc:
            fail(i, exc)
            continue
        if q is not None:
            basis = slots[len(factors)].reshape(k, size)
            basis[...] = q.T
            q = basis.T
        factors[i] = s, w, q
    parts = (split.train, split.dev, split.test)
    ids = [row_lookup(vocab.ids, part.words, "the vocabulary") for part in parts]
    labeled_ids = np.concatenate(ids)
    stacked = []
    for i in list(factors):
        try:
            sigma, v = singular_vectors(factors.pop(i), k)
            vectors = scaled_vectors(sigma, v, embedding_config)
        except GendervecError as exc:
            fail(i, exc)
            continue
        # the labeled words are vocabulary words, so their rows fit in a
        # slot, and every slot up to this cell's holds a used basis
        np.take(vectors, labeled_ids, axis=0,
                out=slots[len(stacked), : labeled_ids.size * k].reshape(-1, k))
        stacked.append(i)
    stacked_rows = slots[: len(stacked), : labeled_ids.size * k].reshape(
        len(stacked), labeled_ids.size, k)
    x_train, x_dev, _ = blocks = np.split(
        stacked_rows, np.cumsum([len(rows) for rows in ids[:2]]), axis=1)
    models = train_stack(x_train, split.train.labels, x_dev, split.dev.labels, train_config)
    for i, x, model in zip(stacked, x_dev, models):
        if isinstance(model, GendervecError):
            fail(i, model)
            continue
        dev = replace(split.dev, vectors=x)
        hits, labels = predict_records(model, dev).correct, dev.labels
        per_class = {
            cls: float(hits[labels == c].mean()) if np.any(labels == c) else None
            for c, cls in enumerate(CLASSES)
        }
        results[i] = CellResult(cells[i], float(hits.mean()), per_class, None)
    ordered = [results[i] for i in range(len(cells))]
    survivors = [i for i, c in enumerate(ordered) if c.ok]
    if not survivors:
        raise DataError(
            "every grid cell failed; first error: " + (ordered[0].error or "unknown")
        )
    best = min(survivors, key=lambda i: (-ordered[i].dev_accuracy, _grid_key(cells[i])))
    chosen = stacked.index(best)
    return GridResult(
        cells=tuple(ordered),
        best=cells[best],
        split_seed=options.split_seed,
        test_digest=split.manifest["test_digest"],
        model=models[chosen],
        # copies, so the result does not hold every cell's rows
        bundle=SplitBundle(*(replace(part, vectors=block[chosen].copy())
                             for part, block in zip(parts, blocks)), manifest=split.manifest),
    )


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """One run; ``dataset`` lists the train, dev and test words in that order."""

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
    """A one-cell ``grid_search`` on ``context``, then the test evaluation
    of its model and the decile report, bit for bit as ``embed_counts``,
    ``build_dataset``, ``stratified_split`` and ``train`` would run it.
    It fails as the grid does: a bad K or an empty train or dev partition
    before counting, and any failure of the cell, a diverged probe too, as
    the DataError ``every grid cell failed; first error: <type>: <msg>``.
    """
    grid = grid_search(corpus_path, lexicon_path, [context], embedding_config,
                       train_config, options)
    bundle = grid.bundle
    evaluation = final_evaluate(grid.model, bundle.test, grid.test_digest,
                                options.n_perm, options.stats_seed)
    parts = (bundle.train, bundle.dev, bundle.test)
    data = LabeledSet(sum((part.words for part in parts), ()), *(
        np.concatenate([getattr(part, name) for part in parts])
        for name in ("vectors", "labels", "frequencies")))
    decile = class_ratio_by_decile(data) if len(data) >= 10 else None
    return ExperimentResult(
        dataset=data,
        bundle=bundle,
        model=grid.model,
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
    write_json(path, manifest)


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
    write_json(paths["split_manifest.json"], result.bundle.manifest)
    save_model(result.model, paths["model.bin"])
    return paths
