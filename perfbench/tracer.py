"""Span tracer for the traced benchmark run.

The program itself is not instrumented.  ``instrument`` replaces public
gendervec functions at the module attributes through which the program
calls them, so every call opens a span, and ``restore`` puts the
originals back.  A layer's time is its self time: the span's duration
minus the time of the spans it caused.

``read_sentences`` returns a lazy generator that its consumers
(``build_vocabulary``, ``count_cooccurrences``) drive, so the wrapper
times every ``next()`` and books that time to ``corpus.read_sentences``
and out of the consumer's self time.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

_now = time.perf_counter

# metrics.permutation_method: which Fisher-Pitman variant ran (0 = none).
PERMUTATION_CODES = {"exhaustive": 1, "monte_carlo": 2}


class Tracer:
    """Span stack plus counters, kept in memory until the run ends."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.notes: dict[str, object] = {}
        # One row per span: [name, start, end, parent row or -1].
        self.spans: list[list] = []
        self._stack: list[list] = []  # open spans: [name, start, child_s, row]

    def open(self, name: str) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        start = _now()
        self.spans.append([name, start, None, parent])
        self._stack.append([name, start, 0.0, len(self.spans) - 1])

    def close(self) -> float:
        name, start, child_s, row = self._stack.pop()
        end = _now()
        duration = end - start
        self.spans[row][2] = end
        self.self_s[name] += duration - child_s
        self.total_s[name] += duration
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def book(self, name: str, seconds: float) -> None:
        """Leaf time measured by a wrapper, without a span row of its own."""
        self.self_s[name] += seconds
        if self._stack:
            self._stack[-1][2] += seconds

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] += value

    def span_rows(self) -> list[dict]:
        """Closed spans relative to the first span's start, for a trace file."""
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": name, "start_s": start - origin, "end_s": end - origin, "parent": parent}
            for name, start, end, parent in self.spans
            if end is not None
        ]


def _spanned(tracer: Tracer, name: str, fn, after=None):
    """Wrap ``fn`` in a span; ``after(result, args)`` records counters."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if after is not None:
            after(result, args)
        return result

    return wrapper


def _cell_label(config) -> str:
    return f"{config.context_type} w={config.window_size}"


def instrument(tracer: Tracer):
    """Patch the traced call sites; returns a function that undoes it."""
    from gendervec import (
        classifier, cooccurrence, corpus, dataset, embedding, metrics, pipeline, report,
    )
    from gendervec.errors import NumericalError

    patched: list[tuple[object, str, object]] = []

    def patch(owner, attr, replacement):
        patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def span(owners, attr, name, after=None):
        for owner in owners:
            patch(owner, attr, _spanned(tracer, name, getattr(owner, attr), after))

    # corpus
    def traced_read(read):
        @functools.wraps(read)
        def wrapper(path):
            sentences = read(path)
            while True:
                start = _now()
                try:
                    sentence = next(sentences)
                except StopIteration:
                    tracer.book("corpus.read_sentences", _now() - start)
                    tracer.count("corpus.passes")
                    return
                tracer.book("corpus.read_sentences", _now() - start)
                tracer.count("corpus.tokens", len(sentence))
                yield sentence

        return wrapper

    for owner in (pipeline, corpus):
        patch(owner, "read_sentences", traced_read(owner.read_sentences))

    def after_vocab(vocab, args):
        tracer.counts["corpus.vocab_size"] = len(vocab)

    span((pipeline, corpus), "build_vocabulary", "corpus.build_vocabulary", after_vocab)

    # cooccurrence
    def after_count(cooc, args):
        tracer.count("cooccurrence.count_calls")
        tracer.count("cooccurrence.nnz", cooc.nnz)
        tracer.count("cooccurrence.pairs", cooc.total)
        tracer.notes["cell"] = _cell_label(cooc.config)
        tracer.notes.setdefault("nnz_by_cell", {})[_cell_label(cooc.config)] = cooc.nnz

    span((embedding, cooccurrence), "count_cooccurrences", "cooccurrence.count", after_count)

    def after_save(file_key):
        def after(result, args):
            tracer.counts[file_key] = os.path.getsize(args[1])

        return after

    span((cooccurrence,), "save_cooccurrence", "cooccurrence.save",
         after_save("cooccurrence.file_bytes"))
    span((cooccurrence,), "load_cooccurrence", "cooccurrence.load")

    # embedding
    span((pipeline,), "embed", "embedding.embed")
    span((embedding,), "power_transform", "embedding.power_transform")

    svd = embedding.truncated_svd

    @functools.wraps(svd)
    def traced_svd(*args, **kwargs):
        tracer.open("embedding.truncated_svd")
        failed = False
        try:
            return svd(*args, **kwargs)
        except NumericalError:
            failed = True
            raise
        finally:
            seconds = tracer.close()
            tracer.count("embedding.svd_calls")
            tracer.count("embedding.svd_failed", int(failed))
            if seconds > tracer.counts["embedding.svd_max_s"]:
                tracer.counts["embedding.svd_max_s"] = seconds
                tracer.notes["svd_max_cell"] = tracer.notes.get("cell", "?")

    patch(embedding, "truncated_svd", traced_svd)
    span((embedding,), "save_embedding_binary", "embedding.save_binary",
         after_save("embedding.file_bytes"))
    span((embedding,), "load_embedding_binary", "embedding.load_binary")

    # dataset
    def after_build(examples, args):
        for gender in ("uter", "neuter"):
            tracer.counts[f"dataset.labeled_{gender}"] = sum(
                1 for ex in examples if ex.gender == gender
            )

    span((pipeline, dataset), "build_dataset", "dataset.build", after_build)
    span((dataset,), "join_with_embedding", "dataset.build", after_build)
    span((pipeline,), "stratified_split", "dataset.split")
    span((pipeline, dataset), "split_words_by_class", "dataset.split")
    span((pipeline, dataset), "bundle_from_manifest", "dataset.split")

    # classifier
    span((pipeline, classifier), "train", "classifier.train")
    span((pipeline, classifier), "predict_records", "classifier.predict")

    dev_accuracy = classifier.dev_accuracy

    @functools.wraps(dev_accuracy)
    def counted_dev_accuracy(*args, **kwargs):
        if tracer.inside("classifier.train"):
            tracer.count("classifier.epochs")
        return dev_accuracy(*args, **kwargs)

    patch(classifier, "dev_accuracy", counted_dev_accuracy)

    loss_and_gradients = classifier.MLPModel.loss_and_gradients

    @functools.wraps(loss_and_gradients)
    def counted_loss_and_gradients(self, *args, **kwargs):
        tracer.count("classifier.batches")
        return loss_and_gradients(self, *args, **kwargs)

    patch(classifier.MLPModel, "loss_and_gradients", counted_loss_and_gradients)

    # metrics
    span((pipeline, metrics), "entropy_frequency_analysis", "metrics.entropy_frequency")

    def after_tau(result, args):
        tracer.counts["metrics.tau_max_n"] = max(tracer.counts["metrics.tau_max_n"], result.n)

    span((metrics,), "kendall_tau_b", "metrics.kendall_tau_b", after_tau)

    def after_permutation(result, args):
        # method is "exhaustive[N]" or "monte_carlo[N]"
        kind, _, rest = result.method.partition("[")
        tracer.counts["metrics.permutation_method"] = PERMUTATION_CODES.get(kind, -1)
        tracer.counts["metrics.permutation_relabelings"] = int(rest.rstrip("]") or 0)

    span((metrics,), "fisher_pitman_permutation", "metrics.fisher_pitman", after_permutation)

    # pipeline and report
    span((pipeline,), "final_evaluate", "pipeline.final_evaluate")
    span((pipeline,), "project_2d", "pipeline.project_2d")
    span((pipeline,), "run_from_manifest", "pipeline.run_from_manifest")
    span((pipeline,), "grid_search", "pipeline.grid_search")
    span((report,), "emit_report", "report.emit_report")

    def restore() -> None:
        while patched:
            owner, attr, original = patched.pop()
            setattr(owner, attr, original)

    return restore


CLI_STAGES = ("ingest", "cooc", "embed", "label", "split", "train", "eval", "report")

# Per-layer metrics of the traced run: name -> (unit, self-time span or counter).
TIMES = {
    "corpus.read_sentences_s": "corpus.read_sentences",
    "corpus.build_vocabulary_s": "corpus.build_vocabulary",
    "cooccurrence.count_s": "cooccurrence.count",
    "cooccurrence.save_s": "cooccurrence.save",
    "cooccurrence.load_s": "cooccurrence.load",
    "embedding.power_transform_s": "embedding.power_transform",
    "embedding.truncated_svd_s": "embedding.truncated_svd",
    "embedding.save_binary_s": "embedding.save_binary",
    "embedding.load_binary_s": "embedding.load_binary",
    "dataset.build_s": "dataset.build",
    "dataset.split_s": "dataset.split",
    "classifier.train_s": "classifier.train",
    "classifier.predict_s": "classifier.predict",
    "metrics.entropy_frequency_s": "metrics.entropy_frequency",
    "metrics.kendall_tau_b_s": "metrics.kendall_tau_b",
    "metrics.fisher_pitman_s": "metrics.fisher_pitman",
    "pipeline.final_evaluate_s": "pipeline.final_evaluate",
    "pipeline.project_2d_s": "pipeline.project_2d",
    "pipeline.run_from_manifest_self_s": "pipeline.run_from_manifest",
    "report.emit_report_s": "report.emit_report",
    **{f"cli.{stage}_s": f"cli.{stage}" for stage in CLI_STAGES},
}

COUNTS = {
    "corpus.passes": "count",
    "corpus.tokens": "count",
    "corpus.vocab_size": "count",
    "cooccurrence.count_calls": "count",
    "cooccurrence.nnz": "count",
    "cooccurrence.file_bytes": "bytes",
    "embedding.svd_calls": "count",
    "embedding.svd_max_s": "s",
    "embedding.svd_failed": "count",
    "embedding.file_bytes": "bytes",
    "dataset.labeled_uter": "count",
    "dataset.labeled_neuter": "count",
    "classifier.epochs": "count",
    "classifier.batches": "count",
    "metrics.tau_max_n": "count",
    "metrics.permutation_method": "code",
    "metrics.permutation_relabelings": "count",
}


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, with the unattributed remainder."""
    out = {name: (tracer.self_s.get(span, 0.0), "s") for name, span in TIMES.items()}
    out.update({name: (tracer.counts.get(name, 0), unit) for name, unit in COUNTS.items()})
    count_s = out["cooccurrence.count_s"][0]
    pairs = tracer.counts.get("cooccurrence.pairs", 0.0)
    out["cooccurrence.pairs_per_s"] = (pairs / count_s if count_s > 0 else 0.0, "1/s")
    attributed = sum(value for name, (value, _) in out.items() if name in TIMES)
    out["trace.wall_s"] = (wall_s, "s")
    out["trace.unattributed_s"] = (wall_s - attributed, "s")
    return out
