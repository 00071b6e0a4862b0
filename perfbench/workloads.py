"""The benchmark's workloads: inputs made from a seed, the timed
operation, and the checks on its outputs.

Everything here runs inside a worker process (see ``worker.py``) that
has ``gendervec`` importable.  The program only ever sees the generated
corpus and lexicon files.
"""

from __future__ import annotations

import json
import os
import time

from gendervec import classifier, cli, dataset, embedding, pipeline
from gendervec.classifier import TrainConfig
from gendervec.cooccurrence import ContextConfig
from gendervec.embedding import EmbeddingConfig
from gendervec.lexicon import CODE_TO_CLASS, parse_lexicon, save_lexicon
from gendervec.metrics import zero_rule_baseline
from gendervec.synthetic import SyntheticSpec, generate_synthetic_language, write_corpus

from catalog import HEADLINE_CONTEXT, N_PERM, SETUP_REPS, SIZES

AGREEMENT_NOISE = 0.05
HEADLINE = ContextConfig(**HEADLINE_CONTEXT)


def input_paths(work_dir) -> dict[str, str]:
    return {
        name: os.path.join(work_dir, name)
        for name in ("corpus.txt", "lexicon.tsv")
    }


def setup(workload: str, seed: int, scale: str, work_dir) -> dict:
    """Generate and write the inputs ``SETUP_REPS`` times, timing each."""
    nouns, sentences = SIZES[scale][workload]
    spec = SyntheticSpec(
        noun_count=nouns, sentence_count=sentences,
        agreement_noise=AGREEMENT_NOISE, seed=seed,
    )
    paths = input_paths(work_dir)
    times: dict[str, list[float]] = {"setup_s": [], "generate_s": [], "write_s": []}
    tokens = 0
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        language = generate_synthetic_language(spec)
        generated = time.perf_counter()
        write_corpus(language, paths["corpus.txt"])
        save_lexicon(language.lexicon, paths["lexicon.tsv"])
        end = time.perf_counter()
        times["setup_s"].append(end - start)
        times["generate_s"].append(generated - start)
        times["write_s"].append(end - generated)
        tokens = sum(len(sentence) for sentence in language.sentences)
        del language
    return {**times, "tokens": tokens}


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _gold(work_dir) -> dict[str, str]:
    lexicon = parse_lexicon(input_paths(work_dir)["lexicon.tsv"]).restrict_to_core_genders()
    return {word: CODE_TO_CLASS[code] for word, code in lexicon.items()}


def at_baseline(accuracy: float, dev_labels: list[str]) -> bool:
    """Dev accuracy no more than one dev word above the zero-rule baseline.

    A probe that collapsed onto the majority class typically still gets
    one or two minority words right, so a strict ``<=`` would miss it.
    """
    return accuracy <= zero_rule_baseline(dev_labels) + 1.0 / len(dev_labels) + 1e-12


def _far_above_baseline(accuracy: float, baseline: float) -> bool:
    """At least half of the headroom between baseline and 1 is won."""
    return accuracy - baseline >= 0.5 * (1.0 - baseline)


def _quality(test_report: dict, dev_accuracy: float, dev_labels: list[str], failures: list):
    if not _far_above_baseline(test_report["accuracy"], test_report["baseline_accuracy"]):
        failures.append(
            f"backward w=1 test accuracy {test_report['accuracy']:.4f} is not far above "
            f"the baseline {test_report['baseline_accuracy']:.4f}"
        )
    return {
        "test_accuracy": test_report["accuracy"],
        "best_dev_accuracy": dev_accuracy,
        "grid_cells_at_baseline": int(at_baseline(dev_accuracy, dev_labels)),
        "pipeline.cells": 0,
        "pipeline.cells_failed": 0,
    }


def operation(name: str, work_dir, out_dir, tracer=None):
    """The timed operation as ``(run, check)``.

    ``run()`` is timed; ``check(result)`` returns ``(quality, failures,
    notes)``.  ``name`` is a workload or ``"replay"``, the manifest replay
    that ``cli_staged`` is checked against.
    """
    if name == "replay":
        return _replay(work_dir, out_dir)
    if name == "grid_small":
        return _grid(work_dir, out_dir)
    return _cli(work_dir, out_dir, tracer)


def _replay(work_dir, out_dir):
    paths = input_paths(work_dir)
    manifest = pipeline.build_manifest(
        paths["corpus.txt"], paths["lexicon.tsv"], HEADLINE,
        EmbeddingConfig(), TrainConfig(), n_perm=N_PERM,
    )

    def run():
        return pipeline.run_from_manifest(manifest, out_dir)

    return run, lambda paths: ({}, [], {})


def _grid(work_dir, out_dir):
    paths = input_paths(work_dir)

    def run():
        return pipeline.grid_search(paths["corpus.txt"], paths["lexicon.tsv"])

    def check(grid):
        failures: list[str] = []
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "grid.json"), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(grid.to_dict(), indent=2, sort_keys=True) + "\n")
        gold = _gold(work_dir)
        dev_labels = [gold[w] for w in grid.split_manifest["partitions"]["dev"]]
        cells = {}
        for cell in grid.cells:
            label = f"{cell.context.context_type} w={cell.context.window_size}"
            if not cell.ok:
                failures.append(f"grid cell {label} failed: {cell.error}")
                continue
            low = at_baseline(cell.dev_accuracy, dev_labels)
            cells[label] = {"dev_accuracy": cell.dev_accuracy, "at_baseline": low}
            if cell.context.context_type == "asymmetric_forward" and not low:
                failures.append(
                    f"forward cell {label} dev accuracy {cell.dev_accuracy:.4f} is above "
                    "the zero-rule baseline"
                )
        best = grid.cell(grid.best.context_type, grid.best.window_size)
        test_acc = _evaluate_best(grid, paths, best.dev_accuracy, failures)
        quality = {
            "test_accuracy": test_acc,
            "best_dev_accuracy": best.dev_accuracy,
            "grid_cells_at_baseline": sum(c["at_baseline"] for c in cells.values()),
            "pipeline.cells": len(grid.cells),
            "pipeline.cells_failed": sum(1 for c in grid.cells if not c.ok),
        }
        notes = {
            "best_cell": f"{grid.best.context_type} w={grid.best.window_size}",
            "dev_baseline": zero_rule_baseline(dev_labels),
            "cells": cells,
        }
        return quality, failures, notes

    return run, check


def _evaluate_best(grid, paths, grid_dev_accuracy, failures) -> float:
    """Retrain the chosen cell on the pinned split and evaluate it once on
    the pinned test words, as a user does after tuning."""
    vocab, lexicon = pipeline.prepare_inputs(paths["corpus.txt"], paths["lexicon.tsv"])
    emb = embedding.embed(
        pipeline.read_sentences(paths["corpus.txt"]), vocab, grid.best, EmbeddingConfig()
    )
    data = dataset.build_dataset(emb, lexicon, vocab)
    bundle = dataset.bundle_from_manifest(grid.split_manifest, data)
    model = classifier.train(bundle.train, bundle.dev, TrainConfig())
    retrained = classifier.dev_accuracy(model, bundle.dev)
    if retrained != grid_dev_accuracy:
        failures.append(
            f"retraining the chosen cell gave dev accuracy {retrained} != grid's {grid_dev_accuracy}"
        )
    evaluation = pipeline.final_evaluate(
        model, bundle.test, expected_test_digest=grid.test_digest, n_perm=N_PERM
    )
    return evaluation.report.accuracy


def cli_stages(work_dir, out_dir) -> list[tuple[str, list[str]]]:
    """The README's staged flow, one ``gendervec`` argv per stage."""
    inputs = input_paths(work_dir)
    p = {name: os.path.join(out_dir, name) for name in (
        "vocab.tsv", "cooc.txt", "emb.bin", "dataset.tsv", "split.json", "model.bin",
        "eval", "report",
    )}
    return [
        ("ingest", ["--corpus", inputs["corpus.txt"], "--out", p["vocab.tsv"]]),
        ("cooc", ["--corpus", inputs["corpus.txt"], "--vocab", p["vocab.tsv"],
                  "--out", p["cooc.txt"], "--context-type", HEADLINE.context_type,
                  "--window-size", str(HEADLINE.window_size)]),
        ("embed", ["--cooc", p["cooc.txt"], "--vocab", p["vocab.tsv"], "--out", p["emb.bin"],
                   "--binary", "--dim", str(EmbeddingConfig().k)]),
        ("label", ["--embedding", p["emb.bin"], "--lexicon", inputs["lexicon.tsv"],
                   "--vocab", p["vocab.tsv"], "--out", p["dataset.tsv"]]),
        ("split", ["--dataset", p["dataset.tsv"], "--out", p["split.json"], "--split-seed", "0"]),
        ("train", ["--embedding", p["emb.bin"], "--dataset", p["dataset.tsv"],
                   "--split", p["split.json"], "--out", p["model.bin"]]),
        ("eval", ["--embedding", p["emb.bin"], "--dataset", p["dataset.tsv"],
                  "--split", p["split.json"], "--model", p["model.bin"], "--out", p["eval"]]),
        ("report", ["--eval-dir", p["eval"], "--out", p["report"], "--embedding", p["emb.bin"],
                    "--dataset", p["dataset.tsv"]]),
    ]


def _cli(work_dir, out_dir, tracer):
    stages = cli_stages(work_dir, out_dir)

    def run():
        codes = {}
        for name, argv in stages:
            if tracer is not None:
                tracer.open(f"cli.{name}")
            try:
                codes[name] = cli.main([name, *argv])
            finally:
                if tracer is not None:
                    tracer.close()
        return codes

    def check(codes):
        failed = [f"cli {name} exited {code}" for name, code in codes.items() if code != 0]
        if failed:
            raise RuntimeError("; ".join(failed))
        failures: list[str] = []
        report_dir = os.path.join(out_dir, "report")
        if not os.listdir(report_dir):
            failures.append("cli report wrote no files")
        emb = embedding.load_embedding_binary(os.path.join(out_dir, "emb.bin"))
        rows = dataset.load_dataset_table(os.path.join(out_dir, "dataset.tsv"))
        examples = dataset.join_with_embedding(rows, emb)
        split = dataset.load_split_manifest(os.path.join(out_dir, "split.json"))
        dev = dataset.bundle_from_manifest(split, examples).dev
        model = classifier.load_model(os.path.join(out_dir, "model.bin"))
        dev_acc = classifier.dev_accuracy(model, dev)
        report = _read_json(os.path.join(out_dir, "eval", "eval_report.json"))
        quality = _quality(report, dev_acc, [ex.gender for ex in dev], failures)
        return quality, failures, {}

    return run, check
