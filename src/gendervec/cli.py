"""Command-line front end.

Subcommands mirror the pipeline stages: ingest, cooc, embed, label,
split, train, tune, eval, report, synth.  Each stage's option flags are
the fields of the records it builds: a flag is the field's JSON key with
``-`` for ``_``, takes the field's type and any choices its rule lists
(``FLAGS`` holds the few flag names and extras that differ), and the
same key sets it in a JSON config file (--config); explicit flags
override the file.  Each subparser declares the records its stage builds
(``builds``), the files it reads (``reads``) and the paths it writes
(``writes``); ``main`` builds the records, then checks every output path,
and only then calls the stage with its records, so a bad option or
output, or an output that would write over an input, fails before any
input is read.  Exit codes: 0 on success, 2 for configuration problems,
3 for data problems, 4 for numerical failures.
"""

from __future__ import annotations

import argparse
import logging
import os
import pathlib
import sys

from . import classifier, cooccurrence, corpus, dataset, embedding, lexicon, metrics
from . import pipeline, records, report, synthetic
from .errors import ConfigurationError, DataError, GendervecError

logger = logging.getLogger(__name__)

# The fields of the three configs and of the run options.
CONFIG_KEYS = {k for cls in (cooccurrence.ContextConfig, embedding.EmbeddingConfig,
                             classifier.TrainConfig, pipeline.RunOptions)
               for _, k in records.json_fields(cls)}


def _load_config(path) -> dict:
    try:
        data = records.read_json(path)
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}") from None
    except DataError as exc:  # malformed JSON or invalid UTF-8
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

    def build(self, cls):
        """A config record from flags over the config file over field defaults."""
        data = {}
        for f, k in records.json_fields(cls):
            value = getattr(self.args, k, None)
            value = self.config.get(k) if value is None else value
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


# By JSON key, each record field's flag that is not its key with dashes,
# and what its flag takes besides the field's type.
FLAGS = {
    "K": {"flag": "--dim", "help": "embedding dimensionality K"},
    "noun_count": {"flag": "--nouns"},
    "filler_count": {"flag": "--fillers"},
    "sentence_count": {"flag": "--sentences"},
    "ratios": {"type": _comma_list, "help": "comma-separated train,dev,test ratios"},
}


def _bundle(args) -> dataset.SplitBundle:
    """The ``--split`` partitions of the ``--dataset`` table, with ``--embedding`` vectors."""
    emb = embedding.load_embedding(args.embedding)
    data = dataset.join_with_embedding(dataset.load_dataset_table(args.dataset), emb)
    return dataset.bundle_from_manifest(dataset.load_split_manifest(args.split), data)


def _grid(args) -> list[cooccurrence.ContextConfig]:
    """The tuning grid, cut down to the ``--context-types`` and ``--window-sizes`` given."""
    axes = {}
    if args.context_types is not None:
        axes["context_types"] = args.context_types.split(",")
    if args.window_sizes is not None:
        try:
            axes["window_sizes"] = [int(w) for w in args.window_sizes.split(",")]
        except ValueError:
            raise ConfigurationError(f"malformed --window-sizes {args.window_sizes!r}") from None
    return pipeline.default_grid(**axes)


def _check_out_dirs(args) -> None:
    """Fail on an output file in a missing directory or that is a directory,
    on an output directory that cannot be made, on two outputs to one file
    and on an output that is an input file; ``args.writes`` names the output
    dests, a ``/`` ending a directory's, and ``args.reads`` the input dests."""
    inputs = {os.path.realpath(path): "--" + dest.replace("_", "-")
              for dest in (*args.reads, "config") if (path := getattr(args, dest, None))}
    flags = {}
    for dest in args.writes:
        path = getattr(args, dest.rstrip("/"))
        if path is None:
            continue
        if dest.endswith("/"):
            # makedirs makes a missing directory under its nearest existing ancestor
            ancestor = path
            while not os.path.exists(ancestor):
                ancestor = os.path.dirname(ancestor) or "."
            if not os.path.isdir(ancestor):
                raise DataError(f"{path}: exists and is not a directory" if ancestor == path
                                else f"{path}: {ancestor} is not a directory")
        elif not os.path.isdir(os.path.dirname(path) or "."):
            raise DataError(f"{path}: its directory does not exist")
        elif os.path.isdir(path):
            raise DataError(f"{path}: is a directory")
        flag = "--" + dest.rstrip("/").replace("_", "-")
        real = os.path.realpath(path)
        if real in inputs:
            raise DataError(f"{path}: {flag} would write over the input {inputs[real]}")
        other = flags.setdefault(real, flag)
        if other != flag:
            raise DataError(f"{path}: both {other} and {flag} write it")


def cmd_ingest(args, run: pipeline.RunOptions) -> int:
    vocab = corpus.ingest_vocabulary(args.corpus, run.vocab_min_freq)
    corpus.save_vocabulary(vocab, args.out)
    logger.info("wrote %d vocabulary entries to %s", len(vocab), args.out)
    return 0


def cmd_cooc(args, config: cooccurrence.ContextConfig) -> int:
    vocab = corpus.load_vocabulary(args.vocab)
    by_distance = cooccurrence.count_by_distance(
        corpus.read_token_ids(args.corpus, vocab), len(vocab), config.window_size
    )
    cooc = cooccurrence.combine(by_distance, config)
    if cooc.nnz == 0:
        raise DataError(f"{args.corpus}: no two vocabulary words share a window")
    cooccurrence.save_cooccurrence(cooc, args.out)
    logger.info("wrote %d nonzero counts to %s", cooc.nnz, args.out)
    return 0


def cmd_embed(args, emb_config: embedding.EmbeddingConfig) -> int:
    vocab = corpus.load_vocabulary(args.vocab)
    cooc = cooccurrence.load_cooccurrence(args.cooc, len(vocab), args.vocab)
    emb = embedding.embed_counts(cooc, vocab, emb_config)
    if args.binary:
        embedding.save_embedding_binary(emb, args.out)
    else:
        embedding.save_embedding_text(emb, args.out)
    logger.info("wrote %d vectors of dim %d to %s", len(emb), emb.k, args.out)
    return 0


def cmd_label(args, run: pipeline.RunOptions) -> int:
    emb = embedding.load_embedding(args.embedding)
    vocab = corpus.load_vocabulary(args.vocab)
    lex = lexicon.parse_lexicon(args.lexicon)
    data = dataset.build_dataset(emb, lex, vocab, run.min_freq)
    deciles = dataset.class_ratio_by_decile(data) if args.deciles else None
    dataset.save_dataset_table(data, args.out)
    logger.info("wrote %d labeled words to %s", len(data), args.out)
    if args.summary:
        lexicon.save_code_summary(lex, args.summary)
    if deciles is not None:
        records.write_json(args.deciles, deciles)
    return 0


def cmd_split(args, run: pipeline.RunOptions) -> int:
    data = dataset.load_dataset_table(args.dataset)
    bundle = dataset.stratified_split(data, run.ratios, run.split_seed)
    records.write_json(args.out, bundle.manifest)
    sizes = {name: len(getattr(bundle, name)) for name in dataset.PARTITION_NAMES}
    logger.info("wrote split %s to %s", sizes, args.out)
    return 0


def cmd_train(args, config: classifier.TrainConfig) -> int:
    bundle = _bundle(args)
    model = classifier.train(bundle.train, bundle.dev, config)
    classifier.save_model(model, args.out)
    acc = classifier.dev_accuracy(model, bundle.dev)
    logger.info("trained model (dev accuracy %.4f), wrote %s", acc, args.out)
    return 0


def cmd_tune(args, grid, run, emb_config, train_config) -> int:
    result = pipeline.grid_search(args.corpus, args.lexicon, grid, emb_config, train_config, run)
    os.makedirs(args.out, exist_ok=True)
    grid_path = os.path.join(args.out, "grid.json")
    records.write_json(grid_path, result)
    records.write_json(os.path.join(args.out, "split_manifest.json"), result.bundle.manifest)
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


def cmd_eval(args, run: pipeline.RunOptions) -> int:
    bundle = _bundle(args)
    model = classifier.load_model(args.model)
    # the manifest's own test_digest was checked when it was loaded
    evaluation = pipeline.final_evaluate(
        model, bundle.test, args.expected_test_digest, run.n_perm, run.stats_seed
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
    # eval already wrote the report and the statistics; carry them as they
    # are, once the report is the one the records score and the statistics
    # are a stats record as eval writes it
    names = ("eval_report.json", "stats.json")
    carried = [pathlib.Path(args.eval_dir, name).read_bytes() for name in names]
    report_path, stats_path = (os.path.join(args.eval_dir, name) for name in names)
    if carried[0] != records.json_text(metrics.build_eval_report(predictions)).encode():
        raise DataError(f"{report_path}: not the report of "
                        f"{os.path.join(args.eval_dir, 'records.csv')}")
    stats = records.load_record(metrics.EntropyFrequencyReport, stats_path)
    if carried[1] != records.json_text(stats).encode():
        raise DataError(f"{stats_path}: not a stats record as eval writes it")
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


def cmd_synth(args, spec: synthetic.SyntheticSpec) -> int:
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

    staged = []

    def stage(name, help, func, *inputs, writes=("out",)):
        """The subparser of stage ``name``: a required flag for each input,
        then --out; --config is added last, after the stage's own flags."""
        p = sub.add_parser(name, help=help)
        staged.append(p)
        for dest in inputs:
            p.add_argument(f"--{dest}", required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(func=func, reads=inputs, writes=writes)
        return p

    def add_builds(p, *builds):
        """Set the stage's ``builds``, with a flag for each field of each
        record among them, or for each of the ``keys`` of a ``(record,
        *keys)``; a key that two records share gets one flag."""
        builds = [b if isinstance(b, tuple) else (b,) for b in builds]
        p.set_defaults(builds=[b[0] for b in builds])
        seen = set()
        for cls, *keys in builds:
            for f, k in records.json_fields(cls) if isinstance(cls, type) else ():
                if k not in seen and (k in keys or not keys):
                    seen.add(k)
                    opts = {"dest": k, "type": records.field_types(cls)[f.name], **FLAGS.get(k, {}),
                            "choices": getattr(f.metadata.get("rule"), "choices", None)}
                    p.add_argument(opts.pop("flag", "--" + k.replace("_", "-")), **opts)

    p = stage("ingest", "build a vocabulary TSV from a corpus", cmd_ingest, "corpus")
    add_builds(p, (pipeline.RunOptions, "vocab_min_freq"))

    p = stage("cooc", "count windowed co-occurrences", cmd_cooc, "corpus", "vocab")
    add_builds(p, cooccurrence.ContextConfig)

    p = stage("embed", "factor a cooc file into word vectors", cmd_embed, "cooc", "vocab")
    p.add_argument("--binary", action="store_true")
    add_builds(p, embedding.EmbeddingConfig)

    p = stage("label", "join embedding, lexicon and vocabulary", cmd_label,
              "embedding", "lexicon", "vocab", writes=("out", "summary", "deciles"))
    add_builds(p, (pipeline.RunOptions, "min_freq"))
    p.add_argument("--summary", help="write lexicon code counts as JSON")
    p.add_argument("--deciles", help="write the class-per-decile diagnostic as JSON")

    p = stage("split", "stratified train/dev/test split", cmd_split, "dataset")
    add_builds(p, (pipeline.RunOptions, "split_seed", "ratios"))

    p = stage("train", "train the gender classifier", cmd_train, "embedding", "dataset", "split")
    add_builds(p, classifier.TrainConfig)

    p = stage("tune", "grid search over context configurations", cmd_tune,
              "corpus", "lexicon", writes=("out/",))
    p.add_argument("--context-types", help="comma-separated subset of context types")
    p.add_argument("--window-sizes", help="comma-separated subset of window sizes")
    # one --seed feeds the embedding and the training config
    add_builds(p, _grid, (pipeline.RunOptions, "min_freq", "vocab_min_freq", "split_seed",
                          "ratios"), embedding.EmbeddingConfig, classifier.TrainConfig)

    p = stage("eval", "final evaluation on the held-out test set", cmd_eval,
              "embedding", "dataset", "split", "model", writes=("out/",))
    p.add_argument("--expected-test-digest", dest="expected_test_digest")
    add_builds(p, (pipeline.RunOptions, "n_perm", "stats_seed"))

    p = sub.add_parser("report", help="emit SVG/CSV report files from an eval directory")
    p.add_argument("--eval-dir", dest="eval_dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--embedding", help="needed for the 2-D projection plot")
    p.add_argument("--dataset", help="needed for the decile diagnostic")
    p.add_argument("--grid", help="grid.json from tune, for the accuracy-by-window plot")
    p.set_defaults(func=cmd_report, builds=(), reads=("embedding", "dataset", "grid"),
                   writes=("out/",))

    p = sub.add_parser("synth", help="generate a synthetic agreement language")
    p.add_argument("--out-corpus", dest="out_corpus", required=True)
    p.add_argument("--out-lexicon", dest="out_lexicon", required=True)
    add_builds(p, synthetic.SyntheticSpec)
    p.set_defaults(func=cmd_synth, reads=(), writes=("out_corpus", "out_lexicon"))

    for p in staged:
        p.add_argument("--config", help="JSON config file; flags override its fields")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    try:
        opts = Options(args)
        built = [opts.build(b) if isinstance(b, type) else b(args) for b in args.builds]
        _check_out_dirs(args)
        return args.func(args, *built)
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
