"""Grid search, final evaluation, manifests, end-to-end determinism."""

import hashlib
import json
import re
from dataclasses import replace

import numpy as np
import pytest

import gendervec.pipeline as pipeline
from gendervec import cooccurrence, embedding
from gendervec.classifier import (
    MLPModel,
    TrainConfig,
    errors_by_entropy,
    predict_records,
    train,
)
from gendervec.cooccurrence import ContextConfig
from gendervec.corpus import read_token_ids
from gendervec.dataset import (
    CLASSES,
    NO_LABELED_EXAMPLES,
    LabeledSet,
    build_dataset,
    bundle_from_manifest,
    stratified_split,
)
from gendervec.embedding import EmbeddingConfig
from gendervec.errors import ConfigurationError, DataError, NumericalError
from gendervec.lexicon import save_lexicon
from gendervec.pipeline import (
    CellResult,
    GridResult,
    RunManifest,
    RunOptions,
    build_manifest,
    default_grid,
    file_sha256,
    final_evaluate,
    grid_search,
    load_manifest,
    project_2d,
    run_experiment,
    run_from_manifest,
    save_manifest,
)
from gendervec.synthetic import SyntheticSpec, generate_synthetic_language, write_corpus

EMB_CFG = EmbeddingConfig(k=8, seed=0)
TRAIN_CFG = TrainConfig(max_epochs=15, hidden_size=8, patience=5, seed=0)


@pytest.fixture(scope="module")
def language_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("synthlang")
    spec = SyntheticSpec(noun_count=100, filler_count=6, sentence_count=4000, seed=0)
    language = generate_synthetic_language(spec)
    corpus = tmp / "corpus.txt"
    lexicon = tmp / "lexicon.tsv"
    write_corpus(language, corpus)
    save_lexicon(language.lexicon, lexicon)
    return str(corpus), str(lexicon)


def test_project_2d_separates_orthogonal_clouds():
    rng = np.random.default_rng(0)
    a = np.zeros((15, 6))
    b = np.zeros((15, 6))
    a[:, 0] = 5.0 + rng.standard_normal(15) * 0.1
    b[:, 1] = 5.0 + rng.standard_normal(15) * 0.1
    coords = project_2d(np.vstack([a, b]))
    assert coords.shape == (30, 2)
    direction = coords[:15].mean(axis=0) - coords[15:].mean(axis=0)
    assert (coords[:15] @ direction).min() > (coords[15:] @ direction).max()


def test_project_2d_rejects_rank_deficient_input():
    with pytest.raises(DataError):
        project_2d(np.ones((10, 4)))
    with pytest.raises(DataError):
        project_2d(np.zeros((1, 4)))
    with pytest.raises(DataError):
        project_2d(np.zeros((4, 1)))


def test_project_2d_never_expands_distances():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((20, 10))
    coords = project_2d(x)
    for i in range(20):
        for j in range(i + 1, 20):
            before = np.linalg.norm(x[i] - x[j])
            after = np.linalg.norm(coords[i] - coords[j])
            assert after <= before + 1e-9


def test_default_grid_is_full_cross():
    grid = default_grid()
    assert len(grid) == 15
    assert len({(c.context_type, c.window_size) for c in grid}) == 15


def test_grid_search_orders_cells_and_breaks_ties(language_files):
    corpus, lexicon = language_files
    # jumbled input order; the result must come back in canonical order
    grid = [
        ContextConfig("asymmetric_forward", 1),
        ContextConfig("asymmetric_backward", 2),
        ContextConfig("symmetric", 1),
        ContextConfig("asymmetric_backward", 1),
    ]
    result = grid_search(corpus, lexicon, grid, EMB_CFG, TRAIN_CFG)
    order = [(c.context.context_type, c.context.window_size) for c in result.cells]
    assert order == [
        ("asymmetric_backward", 1),
        ("symmetric", 1),
        ("asymmetric_forward", 1),
        ("asymmetric_backward", 2),
    ]
    # backward w=1 and w=2 both reach dev accuracy 1.0 on this corpus;
    # the tie must resolve to the smaller window
    assert result.cell("asymmetric_backward", 1).dev_accuracy == 1.0
    assert result.cell("asymmetric_backward", 2).dev_accuracy == 1.0
    assert (result.best.context_type, result.best.window_size) == ("asymmetric_backward", 1)


def test_grid_search_backward_beats_forward_by_twenty_points(language_files):
    corpus, lexicon = language_files
    grid = [ContextConfig("asymmetric_backward", 1), ContextConfig("asymmetric_forward", 1)]
    result = grid_search(corpus, lexicon, grid, EMB_CFG, TRAIN_CFG)
    backward = result.cell("asymmetric_backward", 1).dev_accuracy
    forward = result.cell("asymmetric_forward", 1).dev_accuracy
    assert backward - forward >= 0.20


def test_grid_search_single_cell(language_files):
    corpus, lexicon = language_files
    cell = ContextConfig("symmetric", 2)
    result = grid_search(corpus, lexicon, [cell], EMB_CFG, TRAIN_CFG)
    assert len(result.cells) == 1
    assert result.best == cell
    assert result.cells[0].ok


def test_grid_search_shares_one_split_across_cells(language_files):
    corpus, lexicon = language_files
    grid = [ContextConfig("asymmetric_backward", 1), ContextConfig("symmetric", 3)]
    result = grid_search(corpus, lexicon, grid, EMB_CFG, TRAIN_CFG, RunOptions(split_seed=7))
    manifest = result.bundle.manifest
    # the read-only split_manifest kept for the benchmark is the bundle's
    assert result.split_manifest is manifest
    assert manifest["seed"] == 7
    parts = manifest["partitions"]
    words = parts["train"] + parts["dev"] + parts["test"]
    assert len(words) == len(set(words)) == 100
    from gendervec.dataset import word_list_digest

    assert result.test_digest == word_list_digest(parts["test"])
    assert manifest["test_digest"] == result.test_digest
    # grid.json leaves the split manifest to its own file
    d = result.to_dict()
    assert set(d) == {"split_seed", "test_digest", "best", "cells"}
    assert d["best"] == result.best.to_dict()
    assert set(d["cells"][0]) == {"context", "dev_accuracy", "per_class_dev_accuracy", "error"}


def test_grid_search_reads_corpus_twice_for_the_full_grid(language_files, chunk_reads):
    corpus, lexicon = language_files
    result = grid_search(corpus, lexicon, default_grid(), EMB_CFG, TRAIN_CFG)
    assert len(result.cells) == 15
    # once for the vocabulary, once for the counts every cell shares
    assert chunk_reads == [corpus, corpus]


@pytest.mark.parametrize("context", [
    ContextConfig("asymmetric_backward", 1), ContextConfig("symmetric", 3),
])
def test_embedding_from_sentences_matches_the_grid_cell(language_files, context):
    # perfbench's grid_small retrains the chosen cell through embed() on
    # read_sentences and requires the grid's dev accuracy exactly.
    corpus_path, lexicon = language_files
    vocab, _ = pipeline.prepare_inputs(corpus_path, lexicon)
    config = EmbeddingConfig()
    retrained = embedding.embed(pipeline.read_sentences(corpus_path), vocab, context, config)
    by_distance = cooccurrence.count_by_distance(read_token_ids(corpus_path, vocab), len(vocab), 5)
    cell = embedding.embed_counts(cooccurrence.combine(by_distance, context), vocab, config)
    assert retrained.words == cell.words
    assert retrained.matrix.dtype == cell.matrix.dtype
    assert retrained.matrix.tobytes() == cell.matrix.tobytes()


def test_grid_search_records_cell_failure_without_aborting(language_files, monkeypatch):
    corpus, lexicon = language_files
    real_transformed_counts = pipeline.transformed_counts

    def flaky_transformed_counts(cooc, vocab, emb_cfg):
        if cooc.config.window_size == 5:
            raise DataError("synthetic cell failure")
        return real_transformed_counts(cooc, vocab, emb_cfg)

    monkeypatch.setattr(pipeline, "transformed_counts", flaky_transformed_counts)
    grid = [ContextConfig("asymmetric_backward", 1), ContextConfig("asymmetric_backward", 5)]
    result = grid_search(corpus, lexicon, grid, EMB_CFG, TRAIN_CFG)
    failed = result.cell("asymmetric_backward", 5)
    assert not failed.ok
    assert "synthetic cell failure" in failed.error
    assert failed.dev_accuracy is None
    assert (result.best.context_type, result.best.window_size) == ("asymmetric_backward", 1)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_grid_cells_equal_each_cell_run_alone(language_files, monkeypatch):
    corpus, lexicon = language_files
    # sigma-scaled vectors of counts scaled by 1e60 overflow the probe
    emb_cfg = EmbeddingConfig(k=8, sigma_power=1.0, seed=0)
    diverging = ContextConfig("asymmetric_backward", 1)
    real_transformed_counts = embedding.transformed_counts

    def scaled_transformed_counts(cooc, vocab, config):
        counts = real_transformed_counts(cooc, vocab, config)
        return counts * 1e60 if cooc.config == diverging else counts

    for module in (pipeline, embedding):
        monkeypatch.setattr(module, "transformed_counts", scaled_transformed_counts)
    result = grid_search(corpus, lexicon, default_grid(), emb_cfg, TRAIN_CFG)
    vocab, lex = pipeline.prepare_inputs(corpus, lexicon)
    by_distance = cooccurrence.count_by_distance(read_token_ids(corpus, vocab), len(vocab), 5)
    for cell in result.cells:
        emb = embedding.embed_counts(cooccurrence.combine(by_distance, cell.context), vocab, emb_cfg)
        bundle = bundle_from_manifest(result.bundle.manifest, build_dataset(emb, lex, vocab))
        if cell.context == diverging:
            with pytest.raises(NumericalError) as alone:
                train(bundle.train, bundle.dev, TRAIN_CFG)
            assert cell.error == f"NumericalError: {alone.value}"
            assert cell.dev_accuracy is None and cell.per_class_dev_accuracy is None
            continue
        model = train(bundle.train, bundle.dev, TRAIN_CFG)
        hits = predict_records(model, bundle.dev).correct
        labels = bundle.dev.labels
        assert cell.ok and cell.dev_accuracy == float(hits.mean())
        assert cell.per_class_dev_accuracy == {
            cls: float(hits[labels == c].mean()) for c, cls in enumerate(CLASSES)
        }
        if cell.context == result.best:  # the grid returns this cell's model and rows
            assert result.model.flat.tobytes() == model.flat.tobytes()
            for name in ("train", "dev", "test"):
                ours, theirs = getattr(result.bundle, name), getattr(bundle, name)
                assert ours.vectors.tobytes() == theirs.vectors.tobytes()
    assert len(result.cells) == 15 and result.best != diverging


def test_grid_cells_after_a_singular_vectors_failure_equal_each_cell_run_alone(
        language_files, monkeypatch):
    corpus, lexicon = language_files
    real_scaled_vectors, calls = pipeline.scaled_vectors, []

    def scaled_vectors_failing_once(sigma, v, config):
        calls.append(None)
        if len(calls) == 8:  # the middle one of the fifteen cells
            raise NumericalError("synthetic singular-vectors failure")
        return real_scaled_vectors(sigma, v, config)

    real_train_stack, stacks = pipeline.train_stack, []

    def recorded_train_stack(x_train, y_train, x_dev, y_dev, config):
        models = real_train_stack(x_train, y_train, x_dev, y_dev, config)
        stacks.append((x_train.copy(), x_dev.copy(), models))
        return models

    monkeypatch.setattr(pipeline, "scaled_vectors", scaled_vectors_failing_once)
    monkeypatch.setattr(pipeline, "train_stack", recorded_train_stack)
    result = grid_search(corpus, lexicon, default_grid(), EMB_CFG, TRAIN_CFG)
    failed = [i for i, cell in enumerate(result.cells) if not cell.ok]
    assert failed == [7]
    assert result.cells[7].error == "NumericalError: synthetic singular-vectors failure"
    # every cell after the failed one writes its rows into the slot before its own
    (x_train, x_dev, models), = stacks
    vocab, lex = pipeline.prepare_inputs(corpus, lexicon)
    by_distance = cooccurrence.count_by_distance(read_token_ids(corpus, vocab), len(vocab), 5)
    ok = [cell for cell in result.cells if cell.ok]
    assert len(ok) == len(models) == 14
    for j, cell in enumerate(ok):
        emb = embedding.embed_counts(cooccurrence.combine(by_distance, cell.context), vocab,
                                     EMB_CFG)
        bundle = bundle_from_manifest(result.bundle.manifest, build_dataset(emb, lex, vocab))
        assert x_train[j].tobytes() == bundle.train.vectors.tobytes()
        assert x_dev[j].tobytes() == bundle.dev.vectors.tobytes()
        model = train(bundle.train, bundle.dev, TRAIN_CFG)
        assert models[j].flat.tobytes() == model.flat.tobytes()
        assert cell.dev_accuracy == float(predict_records(model, bundle.dev).correct.mean())
        if cell.context == result.best:
            for name in ("train", "dev", "test"):
                ours, theirs = getattr(result.bundle, name), getattr(bundle, name)
                assert ours.vectors.tobytes() == theirs.vectors.tobytes()


def test_grid_search_records_cells_without_counts(tmp_path):
    # Each x<k> occurs once and is filtered out, so no two vocabulary
    # words are adjacent: the w=1 cells have no count, the w=2 cells do.
    corpus, lexicon = tmp_path / "corpus.txt", tmp_path / "lexicon.tsv"
    nouns = [(f"{code}{i}", code) for i in range(20) for code in "un"]
    lines = [f"{'en' if code == 'u' else 'ett'} x{k} {noun}"
             for k, (noun, code) in enumerate(nouns * 3)]
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    lexicon.write_text("".join(f"{noun}\t{code}\n" for noun, code in nouns), encoding="utf-8")
    result = grid_search(corpus, lexicon, default_grid(window_sizes=[1, 2]), EMB_CFG, TRAIN_CFG,
                         RunOptions(vocab_min_freq=1))
    failed = [cell for cell in result.cells if not cell.ok]
    assert {(cell.context.context_type, cell.context.window_size) for cell in failed} == {
        (context_type, 1) for context_type in cooccurrence.CONTEXT_TYPES
    }
    assert all(cell.error.startswith("DataError: ") and "no nonzero count" in cell.error
               for cell in failed)
    assert len(result.cells) == 6
    assert result.best.window_size == 2


@pytest.mark.parametrize("bad", [
    {"n_perm": 0}, {"min_freq": -1}, {"vocab_min_freq": -1}, {"ratios": [0.8, 0.1, 0.2]},
], ids=json.dumps)
def test_manifest_run_options_out_of_range_are_data_errors(language_files, tmp_path, bad):
    corpus, lexicon = language_files
    manifest = build_manifest(corpus, lexicon, ContextConfig("asymmetric_backward", 1))
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({**manifest.to_dict(), **bad}), encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{path}: ") + ".*" + next(iter(bad))):
        load_manifest(path)


def test_grid_result_round_trips_through_its_dict():
    ok = CellResult(ContextConfig("asymmetric_backward", 1), 0.9, {"uter": 1.0, "neuter": 0.5}, None)
    failed = CellResult(ContextConfig("symmetric", 2), None, None, "DataError: boom")
    grid = GridResult((ok, failed), ok.context, split_seed=3, test_digest="abc")
    loaded = GridResult.from_dict(grid.to_dict())
    assert loaded.cells == grid.cells
    assert loaded.best == grid.best
    assert loaded.to_dict() == grid.to_dict()
    # grid.json leaves the bundle, and so the split manifest, out
    assert loaded.bundle is None
    assert loaded.split_manifest is None
    with pytest.raises(KeyError, match=re.escape("no grid cell for (symmetric, 3)")):
        loaded.cell("symmetric", 3)


def test_grid_search_all_cells_failing_is_fatal(language_files, monkeypatch):
    corpus, lexicon = language_files

    def failing_transformed_counts(cooc, vocab, emb_cfg):
        raise DataError("synthetic cell failure")

    monkeypatch.setattr(pipeline, "transformed_counts", failing_transformed_counts)
    with pytest.raises(DataError, match="every grid cell failed"):
        grid_search(
            corpus,
            lexicon,
            [ContextConfig("asymmetric_backward", 1), ContextConfig("symmetric", 2)],
            EMB_CFG,
            TRAIN_CFG,
        )


@pytest.mark.parametrize("words, k, error, message", [
    ("absent from the corpus", 8, DataError, re.escape(NO_LABELED_EXAMPLES)),
    # 80/10/10 of three words puts all three in train
    ("three a class", 8, DataError, "the split leaves the dev partition empty"),
    ("all", 5000, ConfigurationError, r"K must be <= \d+, the vocabulary size; got 5000"),
], ids=["no-labeled-word", "empty-dev", "k-above-vocabulary"])
def test_grid_search_fails_on_its_split_or_k_before_counting(
    language_files, tmp_path, monkeypatch, words, k, error, message
):
    corpus, lexicon = language_files
    with open(lexicon, encoding="utf-8") as fh:
        rows = fh.readlines()
    kept = {
        "absent from the corpus": ["xxx\tu\n", "yyy\tn\n"],
        "three a class": [r for r in rows if r.endswith("\tu\n")][:3]
        + [r for r in rows if r.endswith("\tn\n")][:3],
        "all": rows,
    }[words]
    small = tmp_path / "lexicon.tsv"
    small.write_text("".join(kept), encoding="utf-8")

    def never(*args, **kwargs):
        raise AssertionError("the grid counted or factored before failing")

    monkeypatch.setattr(pipeline, "count_by_distance", never)
    monkeypatch.setattr(pipeline, "ritz_factors", never)
    with pytest.raises(error, match=f"^{message}$"):
        grid_search(corpus, small, None, EmbeddingConfig(k=k), TRAIN_CFG)


def test_grid_search_rejects_bad_grids(language_files):
    corpus, lexicon = language_files
    with pytest.raises(ConfigurationError, match="empty"):
        grid_search(corpus, lexicon, [], EMB_CFG, TRAIN_CFG)
    cell = ContextConfig("symmetric", 1)
    with pytest.raises(ConfigurationError, match="duplicate"):
        grid_search(corpus, lexicon, [cell, cell], EMB_CFG, TRAIN_CFG)


def _labeled(n_uter, n_neuter, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    n = n_uter + n_neuter
    words = [f"u{i}" for i in range(n_uter)] + [f"n{i}" for i in range(n_neuter)]
    labels = np.repeat([0, 1], [n_uter, n_neuter])
    return LabeledSet(tuple(words), rng.standard_normal((n, dim)), labels, 1000 - np.arange(n))


def test_final_evaluate_zero_rule_stub_gives_majority_share():
    # an all-zero network outputs (0.5, 0.5); argmax ties resolve to the
    # first class, so it predicts uter everywhere
    model = MLPModel(np.zeros((4, 3)), np.zeros(3), np.zeros((3, 2)), np.zeros(2))
    test_set = _labeled(7, 3)
    evaluation = final_evaluate(model, test_set, n_perm=500)
    assert evaluation.report.accuracy == pytest.approx(0.7)
    assert evaluation.report.baseline_accuracy == pytest.approx(0.7)


def test_final_evaluate_digest_guard():
    model = MLPModel(np.zeros((4, 3)), np.zeros(3), np.zeros((3, 2)), np.zeros(2))
    test_set = _labeled(5, 5)
    from gendervec.dataset import word_list_digest

    good = word_list_digest(test_set.words)
    evaluation = final_evaluate(model, test_set, expected_test_digest=good, n_perm=200)
    assert evaluation.test_digest == good
    with pytest.raises(DataError, match="digest mismatch"):
        final_evaluate(model, test_set, expected_test_digest="0" * 64, n_perm=200)


def test_final_evaluate_empty_test_set():
    model = MLPModel(np.zeros((4, 3)), np.zeros(3), np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(DataError):
        final_evaluate(model, _labeled(0, 0))


def test_final_evaluate_sorts_errors_by_entropy():
    rng = np.random.default_rng(3)
    model = MLPModel(
        rng.standard_normal((4, 3)), rng.standard_normal(3),
        rng.standard_normal((3, 2)), rng.standard_normal(2),
    )
    evaluation = final_evaluate(model, _labeled(10, 10, seed=5), n_perm=200)
    errors = errors_by_entropy(evaluation.predictions)
    assert errors.entropy.tolist() == sorted(errors.entropy.tolist(), reverse=True)
    assert len(errors) and not errors.correct.any()


def test_file_sha256_matches_hashlib(tmp_path):
    path = tmp_path / "blob"
    path.write_bytes(b"abc")
    assert file_sha256(path) == hashlib.sha256(b"abc").hexdigest()


def test_manifest_build_save_load(language_files, tmp_path):
    corpus, lexicon = language_files
    manifest = build_manifest(
        corpus, lexicon, ContextConfig("asymmetric_backward", 1), EMB_CFG, TRAIN_CFG,
        split_seed=3, n_perm=500,
    )
    assert manifest.corpus_sha256 == file_sha256(corpus)
    assert manifest.lexicon_sha256 == file_sha256(lexicon)
    d = manifest.to_dict()
    assert set(d) == {
        "corpus_path", "corpus_sha256", "lexicon_path", "lexicon_sha256",
        "context", "embedding", "training", "min_freq", "vocab_min_freq",
        "split_seed", "ratios", "n_perm", "stats_seed",
    }
    assert d["embedding"]["K"] == EMB_CFG.k
    assert d["ratios"] == list(manifest.ratios)
    path = tmp_path / "manifest.json"
    save_manifest(manifest, path)
    assert load_manifest(path) == manifest
    with pytest.raises(DataError, match="corpus_sha256"):
        RunManifest.from_dict({k: v for k, v in d.items() if k != "corpus_sha256"})
    # a nested record's bad value names its own key
    with pytest.raises(DataError, match="window_size"):
        RunManifest.from_dict({**d, "context": {**d["context"], "window_size": "one"}})
    path.write_text("{ nope", encoding="utf-8")
    with pytest.raises(DataError):
        load_manifest(path)
    # a well-typed but out-of-range value is the file's fault, not the options'
    path.write_text(json.dumps({**d, "context": {**d["context"], "window_size": 9}}),
                    encoding="utf-8")
    with pytest.raises(DataError, match=re.escape("window_size must be in [1, 5], got 9")):
        load_manifest(path)
    # so is a NaN or an infinity, which a JSON file can hold, top-level or nested
    for bad, message in (
        ({"embedding": {**d["embedding"], "alpha": float("nan")}}, "alpha must be > 0, got nan"),
        ({"training": {**d["training"], "learning_rate": float("inf")}},
         "learning_rate must be finite, got inf"),
        ({"ratios": [float("nan"), 0.5, 0.5]}, "ratios must be positive, got (nan, 0.5, 0.5)"),
    ):
        path.write_text(json.dumps({**d, **bad}), encoding="utf-8")
        with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load_manifest(path)
    # a fixed-length tuple of another length is rejected, not cut to size
    path.write_text(json.dumps({**d, "ratios": [0.8, 0.1, 0.1, 0.5]}), encoding="utf-8")
    with pytest.raises(DataError, match="ratios"):
        load_manifest(path)
    # a negative seed, top-level or nested, is the file's fault too
    for bad in ({"split_seed": -1}, {"stats_seed": -2},
                {"embedding": {**d["embedding"], "seed": -1}},
                {"training": {**d["training"], "seed": -1}}):
        path.write_text(json.dumps({**d, **bad}), encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}: ") + ".*seed must be >= 0"):
            load_manifest(path)


def test_run_from_manifest_is_byte_identical(language_files, tmp_path):
    corpus, lexicon = language_files
    manifest = build_manifest(
        corpus, lexicon, ContextConfig("asymmetric_backward", 1), EMB_CFG, TRAIN_CFG,
        n_perm=2000,
    )
    first = run_from_manifest(manifest, tmp_path / "run1")
    second = run_from_manifest(manifest, tmp_path / "run2")
    assert set(first) == set(second)
    for name in first:
        with open(first[name], "rb") as fh:
            a = fh.read()
        with open(second[name], "rb") as fh:
            b = fh.read()
        assert a == b, f"{name} differs between identical replays"


def test_manifest_with_the_weighting_key_replays_only_when_it_is_false(language_files, tmp_path):
    corpus, lexicon = language_files
    manifest = build_manifest(
        corpus, lexicon, ContextConfig("asymmetric_backward", 1), EMB_CFG, TRAIN_CFG,
        n_perm=200,
    )
    fresh = run_from_manifest(manifest, tmp_path / "fresh")
    # the context as manifests carried it while counts could be weighted by distance
    data = manifest.to_dict()
    path = tmp_path / "manifest.json"
    for weighted in (True, False):
        context = {**data["context"], "distance_weighting": weighted}
        path.write_text(json.dumps({**data, "context": context}), encoding="utf-8")
        if weighted:
            message = f"{path}: ContextConfig: 'distance_weighting' must be false"
            with pytest.raises(DataError, match=re.escape(message)):
                load_manifest(path)
    loaded = load_manifest(path)
    assert loaded == manifest
    replay = run_from_manifest(loaded, tmp_path / "replay")
    assert set(replay) == set(fresh)
    for name in fresh:
        with open(fresh[name], "rb") as a, open(replay[name], "rb") as b:
            assert a.read() == b.read(), name


def test_run_from_manifest_checks_input_digests(language_files, tmp_path):
    corpus, lexicon = language_files
    manifest = build_manifest(
        corpus, lexicon, ContextConfig("asymmetric_backward", 1), EMB_CFG, TRAIN_CFG,
        n_perm=200,
    )
    data = manifest.to_dict()
    data["corpus_sha256"] = "0" * 64
    bad = RunManifest.from_dict(data)
    with pytest.raises(DataError, match="digest mismatch"):
        run_from_manifest(bad, tmp_path / "run")


def test_run_experiment_end_to_end(language_files):
    corpus, lexicon = language_files
    result = run_experiment(
        corpus, lexicon, ContextConfig("asymmetric_backward", 1), EMB_CFG, TRAIN_CFG,
        RunOptions(n_perm=500),
    )
    assert result.evaluation.report.n == len(result.bundle.test)
    assert result.evaluation.report.accuracy >= 0.9
    assert result.decile_report is not None
    assert sum(result.decile_report.group_sizes) == len(result.dataset)


def _rows(data: LabeledSet) -> list[tuple]:
    return sorted(zip(data.words, map(np.ndarray.tobytes, data.vectors),
                      data.labels.tolist(), data.frequencies.tolist()))


@pytest.mark.parametrize("context", [
    ContextConfig("asymmetric_backward", 1), ContextConfig("symmetric", 3),
])
def test_run_experiment_equals_the_single_run_building_blocks(language_files, context):
    corpus, lexicon = language_files
    result = run_experiment(corpus, lexicon, context, EMB_CFG, TRAIN_CFG, RunOptions(n_perm=100))
    vocab, lex = pipeline.prepare_inputs(corpus, lexicon)
    by_distance = cooccurrence.count_by_distance(
        read_token_ids(corpus, vocab), len(vocab), context.window_size
    )
    emb = embedding.embed_counts(cooccurrence.combine(by_distance, context), vocab, EMB_CFG)
    data = build_dataset(emb, lex, vocab)
    bundle = stratified_split(data)
    assert result.bundle.manifest == bundle.manifest
    assert result.model.flat.tobytes() == train(bundle.train, bundle.dev, TRAIN_CFG).flat.tobytes()
    for name in ("train", "dev", "test"):
        ours, theirs = getattr(result.bundle, name), getattr(bundle, name)
        assert ours.words == theirs.words
        assert ours.vectors.tobytes() == theirs.vectors.tobytes()
    # the same rows, in split order rather than vocabulary order
    assert _rows(result.dataset) == _rows(data)
    assert result.dataset.words == bundle.train.words + bundle.dev.words + bundle.test.words


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_run_experiment_fails_as_a_one_cell_grid(language_files, monkeypatch):
    corpus, lexicon = language_files
    context = ContextConfig("asymmetric_backward", 1)
    # sigma-scaled vectors of counts scaled by 1e60 overflow the probe,
    # which is the grid's error, not a bare NumericalError
    real_transformed_counts = pipeline.transformed_counts
    monkeypatch.setattr(pipeline, "transformed_counts",
                        lambda *args: real_transformed_counts(*args) * 1e60)
    message = "every grid cell failed; first error: NumericalError: non-finite training loss"
    with pytest.raises(DataError, match=rf"^{message} at epoch \d+$"):
        run_experiment(corpus, lexicon, context, replace(EMB_CFG, sigma_power=1.0), TRAIN_CFG)

    def never(*args, **kwargs):
        raise AssertionError("the run counted before failing")

    monkeypatch.setattr(pipeline, "count_by_distance", never)
    with pytest.raises(ConfigurationError, match="^K must be <= "):
        run_experiment(corpus, lexicon, context, EmbeddingConfig(k=5000), TRAIN_CFG)
