"""Command-line front end.

Subcommands mirror the pipeline stages: ingest, cooc, embed, label,
split, train, tune, eval, report, synth.  Every numeric option can come
from a JSON config file (--config) using the exact field names of the
underlying configs; explicit flags override the file.  Exit codes: 0 on
success, 2 for configuration problems, 3 for data problems, 4 for
numerical failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import pathlib
import sys

from . import classifier, cooccurrence, corpus, dataset, embedding, lexicon
from . import pipeline, records, report, synthetic
from .errors import ConfigurationError, DataError, GendervecError

logger = logging.getLogger(__name__)

# The fields of the three configs and of the run options.
CONFIG_KEYS = {
    k
    for cls in (
        cooccurrence.ContextConfig, embedding.EmbeddingConfig, classifier.TrainConfig,
        pipeline.RunOptions,
    )
    for _, k in records.json_fields(cls)
}


def _load_config(path) -> dict:
    try:
        with records.open_text(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: malformed JSON config: {exc}") from None
    except DataError as exc:  # invalid UTF-8
        raise ConfigurationError(str(exc)) from None
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path}: config must be a JSON object")
    unknown = set(data) - CONFIG_KEYS
    if unknown:
        raise ConfigurationError(f"{path}: unknown config keys {sorted(unknown)}")
    return data


class Options:
    """Flag-over-config-over-default resolution."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = _load_config(args.config) if getattr(args, "config", None) else {}

    def get(self, name: str):
        value = getattr(self.args, name, None)
        return self.config.get(name) if value is None else value

    def build(self, cls):
        """A config record from flags over the config file over field defaults."""
        data = {}
        for f, k in records.json_fields(cls):
            value = self.get(k)
            if value is not None:
                data[k] = value
            elif records.required(f):
                raise ConfigurationError(f"missing required option --{k.replace('_', '-')}")
        try:
            return cls.from_dict(data)
        except DataError as exc:
            raise ConfigurationError(str(exc)) from None


def _comma_list(text: str) -> list[str]:
    return text.split(",")


def _labeled_set(embedding_path, dataset_path) -> dataset.LabeledSet:
    emb = embedding.load_embedding(embedding_path)
    return dataset.join_with_embedding(dataset.load_dataset_table(dataset_path), emb)


def _check_out_dirs(*paths) -> None:
    """A missing directory fails before any output is written."""
    for path in filter(None, paths):
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise DataError(f"{path}: its directory does not exist")


def cmd_ingest(args) -> int:
    run = Options(args).build(pipeline.RunOptions)
    vocab = corpus.ingest_vocabulary(args.corpus, run.vocab_min_freq)
    corpus.save_vocabulary(vocab, args.out)
    logger.info("wrote %d vocabulary entries to %s", len(vocab), args.out)
    return 0


def cmd_cooc(args) -> int:
    config = Options(args).build(cooccurrence.ContextConfig)
    vocab = corpus.load_vocabulary(args.vocab)
    by_distance = cooccurrence.count_by_distance_from_file(args.corpus, vocab, config.window_size)
    cooc = cooccurrence.combine(by_distance, config)
    if cooc.nnz == 0:
        raise DataError(f"{args.corpus}: no two vocabulary words share a window")
    cooccurrence.save_cooccurrence(cooc, args.out)
    logger.info("wrote %d nonzero counts to %s", cooc.nnz, args.out)
    return 0


def cmd_embed(args) -> int:
    emb_config = Options(args).build(embedding.EmbeddingConfig)
    cooc = cooccurrence.load_cooccurrence(args.cooc)
    vocab = corpus.load_vocabulary(args.vocab)
    emb = embedding.embed_counts(cooc, vocab, emb_config)
    if args.binary:
        embedding.save_embedding_binary(emb, args.out)
    else:
        embedding.save_embedding_text(emb, args.out)
    logger.info("wrote %d vectors of dim %d to %s", len(emb), emb.k, args.out)
    return 0


def cmd_label(args) -> int:
    run = Options(args).build(pipeline.RunOptions)
    emb = embedding.load_embedding(args.embedding)
    vocab = corpus.load_vocabulary(args.vocab)
    lex = lexicon.parse_lexicon(args.lexicon)
    data = dataset.build_dataset(emb, lex, vocab, run.min_freq)
    deciles = dataset.class_ratio_by_decile(data) if args.deciles else None
    _check_out_dirs(args.out, args.summary, args.deciles)
    dataset.save_dataset_table(data, args.out)
    logger.info("wrote %d labeled words to %s", len(data), args.out)
    if args.summary:
        lexicon.save_code_summary(lex, args.summary)
    if deciles is not None:
        records.write_json(args.deciles, deciles)
    return 0


def cmd_split(args) -> int:
    run = Options(args).build(pipeline.RunOptions)
    data = dataset.load_dataset_table(args.dataset)
    parts = dataset.split_words_by_class(data, run.ratios, run.split_seed)
    manifest = dataset.split_manifest(parts, run.split_seed, run.ratios)
    dataset.save_split_manifest(manifest, args.out)
    sizes = {name: len(words) for name, words in parts.items()}
    logger.info("wrote split %s to %s", sizes, args.out)
    return 0


def cmd_train(args) -> int:
    config = Options(args).build(classifier.TrainConfig)
    data = _labeled_set(args.embedding, args.dataset)
    manifest = dataset.load_split_manifest(args.split)
    bundle = dataset.bundle_from_manifest(manifest, data)
    model = classifier.train(bundle.train, bundle.dev, config)
    classifier.save_model(model, args.out)
    acc = classifier.dev_accuracy(model, bundle.dev)
    logger.info("trained model (dev accuracy %.4f), wrote %s", acc, args.out)
    return 0


def cmd_tune(args) -> int:
    opts = Options(args)
    axes = {}
    if args.context_types:
        axes["context_types"] = args.context_types.split(",")
    if args.window_sizes:
        try:
            axes["window_sizes"] = [int(w) for w in args.window_sizes.split(",")]
        except ValueError:
            raise ConfigurationError(f"malformed --window-sizes {args.window_sizes!r}") from None
    result = pipeline.grid_search(
        args.corpus,
        args.lexicon,
        pipeline.default_grid(**axes),
        opts.build(embedding.EmbeddingConfig),
        opts.build(classifier.TrainConfig),
        opts.build(pipeline.RunOptions),
    )
    os.makedirs(args.out, exist_ok=True)
    grid_path = os.path.join(args.out, "grid.json")
    records.write_json(grid_path, result)
    split_path = os.path.join(args.out, "split_manifest.json")
    dataset.save_split_manifest(result.split_manifest, split_path)
    for cell in result.cells:
        label = f"{cell.context.context_type} w={cell.context.window_size}"
        if cell.ok:
            logger.info("cell %-28s dev accuracy %.4f", label, cell.dev_accuracy)
        else:
            logger.warning("cell %-28s failed: %s", label, cell.error)
    logger.info(
        "best config: %s w=%d; wrote %s",
        result.best.context_type, result.best.window_size, grid_path,
    )
    return 0


def cmd_eval(args) -> int:
    run = Options(args).build(pipeline.RunOptions)
    data = _labeled_set(args.embedding, args.dataset)
    manifest = dataset.load_split_manifest(args.split)
    bundle = dataset.bundle_from_manifest(manifest, data)
    model = classifier.load_model(args.model)
    expected = args.expected_test_digest or manifest["test_digest"]
    evaluation = pipeline.final_evaluate(
        model,
        bundle.test,
        expected_test_digest=expected,
        n_perm=run.n_perm,
        stats_seed=run.stats_seed,
    )
    pipeline.save_evaluation(evaluation, args.out)
    logger.info(
        "test accuracy %.4f (baseline %.4f) over %d words; wrote %s",
        evaluation.report.accuracy,
        evaluation.report.baseline_accuracy,
        evaluation.report.n,
        args.out,
    )
    return 0


def cmd_report(args) -> int:
    predictions = classifier.load_prediction_records(os.path.join(args.eval_dir, "records.csv"))
    projection = None
    if args.embedding:
        emb = embedding.load_embedding(args.embedding)
        projection = pipeline.project_2d(emb.matrix[emb.rows(predictions.words)])
    decile_report = None
    if args.dataset:
        decile_report = dataset.class_ratio_by_decile(dataset.load_dataset_table(args.dataset))
    grid = records.load_record(pipeline.GridResult, args.grid) if args.grid else None
    # eval already wrote the report and the statistics; carry them as they are
    names = ("eval_report.json", "stats.json")
    carried = [pathlib.Path(args.eval_dir, name).read_bytes() for name in names]
    os.makedirs(args.out, exist_ok=True)
    paths = [os.path.join(args.out, name) for name in names]
    for path, data in zip(paths, carried):
        pathlib.Path(path).write_bytes(data)
    paths += report.emit_report(
        args.out, predictions,
        projection=projection, decile_report=decile_report, grid=grid,
    )
    logger.info("wrote %d report files to %s", len(paths), args.out)
    return 0


def cmd_synth(args) -> int:
    # flags left out keep SyntheticSpec's defaults
    spec = synthetic.SyntheticSpec(**{
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(synthetic.SyntheticSpec)
        if getattr(args, f.name, None) is not None
    })
    _check_out_dirs(args.out_corpus, args.out_lexicon)
    language = synthetic.generate_synthetic_language(spec)
    synthetic.write_corpus(language, args.out_corpus)
    lexicon.save_lexicon(language.lexicon, args.out_lexicon)
    counts = language.lexicon.counts_by_code()
    logger.info(
        "wrote %d sentences to %s; lexicon %s with u=%d n=%d",
        len(language.sentence_lengths), args.out_corpus, args.out_lexicon,
        counts["u"], counts["n"],
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gendervec",
        description="Count-based word embeddings and a gender classifier probe.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p):
        p.add_argument("--config", help="JSON config file; flags override its fields")

    def add_embedding_opts(p):
        p.add_argument("--dim", dest="K", type=int, help="embedding dimensionality K")
        p.add_argument("--alpha", dest="alpha", type=float)
        p.add_argument("--sigma-power", dest="sigma_power", type=float)
        p.add_argument("--seed", dest="seed", type=int)

    def add_train_opts(p):
        p.add_argument("--learning-rate", dest="learning_rate", type=float)
        p.add_argument("--momentum", dest="momentum", type=float)
        p.add_argument("--batch-size", dest="batch_size", type=int)
        p.add_argument("--max-epochs", dest="max_epochs", type=int)
        p.add_argument("--patience", dest="patience", type=int)
        p.add_argument("--hidden-size", dest="hidden_size", type=int)

    p = sub.add_parser("ingest", help="build a vocabulary TSV from a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--vocab-min-freq", dest="vocab_min_freq", type=int)
    add_config(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("cooc", help="count windowed co-occurrences")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--context-type", dest="context_type", choices=cooccurrence.CONTEXT_TYPES)
    p.add_argument("--window-size", dest="window_size", type=int)
    p.add_argument("--distance-weighting", dest="distance_weighting",
                   action="store_const", const=True)
    add_config(p)
    p.set_defaults(func=cmd_cooc)

    p = sub.add_parser("embed", help="factor a cooc file into word vectors")
    p.add_argument("--cooc", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--binary", action="store_true")
    add_embedding_opts(p)
    add_config(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("label", help="join embedding, lexicon and vocabulary")
    p.add_argument("--embedding", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-freq", dest="min_freq", type=int)
    p.add_argument("--summary", help="write lexicon code counts as JSON")
    p.add_argument("--deciles", help="write the class-per-decile diagnostic as JSON")
    add_config(p)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("split", help="stratified train/dev/test split")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split-seed", dest="split_seed", type=int)
    p.add_argument("--ratios", type=_comma_list, help="comma-separated train,dev,test ratios")
    add_config(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train the gender classifier")
    p.add_argument("--embedding", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--out", required=True)
    add_train_opts(p)
    p.add_argument("--seed", dest="seed", type=int)
    add_config(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tune", help="grid search over context configurations")
    p.add_argument("--corpus", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--context-types", help="comma-separated subset of context types")
    p.add_argument("--window-sizes", help="comma-separated subset of window sizes")
    p.add_argument("--min-freq", dest="min_freq", type=int)
    p.add_argument("--vocab-min-freq", dest="vocab_min_freq", type=int)
    p.add_argument("--split-seed", dest="split_seed", type=int)
    p.add_argument("--ratios", type=_comma_list, help="comma-separated train,dev,test ratios")
    add_embedding_opts(p)
    add_train_opts(p)
    add_config(p)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("eval", help="final evaluation on the held-out test set")
    p.add_argument("--embedding", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--expected-test-digest", dest="expected_test_digest")
    p.add_argument("--n-perm", dest="n_perm", type=int)
    p.add_argument("--stats-seed", dest="stats_seed", type=int)
    add_config(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="emit SVG/CSV report files from an eval directory")
    p.add_argument("--eval-dir", dest="eval_dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--embedding", help="needed for the 2-D projection plot")
    p.add_argument("--dataset", help="needed for the decile diagnostic")
    p.add_argument("--grid", help="grid.json from tune, for the accuracy-by-window plot")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("synth", help="generate a synthetic agreement language")
    p.add_argument("--out-corpus", dest="out_corpus", required=True)
    p.add_argument("--out-lexicon", dest="out_lexicon", required=True)
    p.add_argument("--nouns", dest="noun_count", type=int)
    p.add_argument("--fillers", dest="filler_count", type=int)
    p.add_argument("--sentences", dest="sentence_count", type=int)
    p.add_argument("--seed", dest="seed", type=int)
    p.add_argument("--agreement-noise", dest="agreement_noise", type=float)
    p.add_argument("--ambiguous-fraction", dest="ambiguous_fraction", type=float)
    p.add_argument("--ambiguous-flip", dest="ambiguous_flip", type=float)
    p.add_argument("--zipf-exponent", dest="zipf_exponent", type=float)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    try:
        return args.func(args)
    except GendervecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, UnicodeDecodeError) as exc:
        # unreadable, missing or non-UTF-8 input and unwritable output
        # files count as data errors for exit-code purposes
        print(f"error: {exc}", file=sys.stderr)
        return DataError.exit_code


if __name__ == "__main__":
    sys.exit(main())
