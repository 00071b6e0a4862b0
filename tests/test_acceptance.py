"""Acceptance gate: one test per headline guarantee of the package.

Run with ``pytest -v tests/test_acceptance.py`` to get a pass/fail line
per guarantee.  The synthetic-language study is shared by the tests that
need a full pipeline run; everything here is seeded and deterministic.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np
import pytest

from gendervec import lexicon, pipeline, synthetic
from gendervec.classifier import MLPModel, TrainConfig, gradient_check
from gendervec.cooccurrence import ContextConfig
from gendervec.embedding import EmbeddingConfig, truncated_svd
from gendervec.metrics import (
    accuracy,
    fisher_pitman_permutation,
    kendall_tau_b,
    precision_recall_f,
    weighted_accuracy,
)


# ---------------------------------------------------------------------------
# Independent oracles, written before looking at the implementations.

def dense_sigma_oracle(matrix: np.ndarray, k: int) -> np.ndarray:
    return np.linalg.svd(matrix, compute_uv=False)[:k]


def tau_b_oracle(x, y):
    """Tau-b by explicit pairwise loops with textbook tie corrections."""
    n = len(x)
    s = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = (x[i] > x[j]) - (x[i] < x[j])
            dy = (y[i] > y[j]) - (y[i] < y[j])
            s += dx * dy
    n0 = n * (n - 1) // 2

    def tie_terms(values):
        counts = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        n1 = sum(t * (t - 1) // 2 for t in counts.values())
        vt = sum(t * (t - 1) * (2 * t + 5) for t in counts.values())
        simple = sum(t * (t - 1) for t in counts.values())
        triple = sum(t * (t - 1) * (t - 2) for t in counts.values())
        return n1, vt, simple, triple

    n1, vt, simple_x, triple_x = tie_terms(x)
    n2, vu, simple_y, triple_y = tie_terms(y)
    tau = s / math.sqrt((n0 - n1) * (n0 - n2))
    v0 = n * (n - 1) * (2 * n + 5)
    var_s = (v0 - vt - vu) / 18.0
    var_s += simple_x * simple_y / (2.0 * n * (n - 1))
    if n > 2:
        var_s += triple_x * triple_y / (9.0 * n * (n - 1) * (n - 2))
    z = s / math.sqrt(var_s)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return tau, z, p


# ---------------------------------------------------------------------------
# Shared synthetic-language study: three context configurations on one
# 1000-noun, 100k-sentence corpus.  Noise and ambiguity keep a handful of
# test errors around so the entropy contrast has both groups populated.

STUDY_SPEC = synthetic.SyntheticSpec(
    noun_count=1000,
    sentence_count=100_000,
    seed=3,
    filler_count=6,
    agreement_noise=0.10,
    ambiguous_fraction=0.05,
    ambiguous_flip=0.45,
    zipf_exponent=1.1,
)


@pytest.fixture(scope="module")
def synthetic_study(tmp_path_factory):
    root = tmp_path_factory.mktemp("study")
    corpus_path = root / "corpus.txt"
    lexicon_path = root / "lexicon.tsv"
    started = time.perf_counter()
    language = synthetic.generate_synthetic_language(STUDY_SPEC)
    synthetic.write_corpus(language, corpus_path)
    lexicon.save_lexicon(language.lexicon, lexicon_path)
    cells = {}
    for name, context_type, window in (
        ("backward_w1", "asymmetric_backward", 1),
        ("forward_w1", "asymmetric_forward", 1),
        ("backward_w5", "asymmetric_backward", 5),
    ):
        result = pipeline.run_experiment(
            corpus_path,
            lexicon_path,
            ContextConfig(context_type=context_type, window_size=window),
            EmbeddingConfig(k=50, seed=0),
            TrainConfig(),
            pipeline.RunOptions(split_seed=0, n_perm=10_000, stats_seed=0),
        )
        cells[name] = result.evaluation
    elapsed = time.perf_counter() - started
    return {"cells": cells, "elapsed": elapsed}


def test_confusion_counts_reproduce_headline_metrics():
    # fixed reference counts and the percentages they must reproduce,
    # each within 0.05 points
    # indexed [gold, predicted] over (uter, neuter)
    cm = np.array([[1430, 69], [102, 542]])
    assert abs(100.0 * accuracy(cm) - 92.02) <= 0.05
    p, r, f = precision_recall_f(cm, "neuter")
    assert abs(100.0 * p - 88.70) <= 0.05
    assert abs(100.0 * r - 84.16) <= 0.05
    assert abs(100.0 * f - 86.37) <= 0.05
    p, r, f = precision_recall_f(cm, "uter")
    assert abs(100.0 * p - 93.34) <= 0.05
    assert abs(100.0 * r - 95.40) <= 0.05
    assert abs(100.0 * f - 94.36) <= 0.05


def test_weighted_accuracy_formula():
    full = weighted_accuracy(
        {"neuter": 0.846, "uter": 0.971}, {"neuter": 0.29, "uter": 0.71}
    )
    assert abs(100.0 * full - 93.48) <= 0.05
    short_context = weighted_accuracy(
        {"neuter": 0.393, "uter": 0.946}, {"neuter": 0.29, "uter": 0.71}
    )
    assert abs(100.0 * short_context - 78.56) <= 0.05


def test_synthetic_backward_context_recovers_gender(synthetic_study):
    cells = synthetic_study["cells"]
    backward = cells["backward_w1"].report
    forward = cells["forward_w1"].report
    wide = cells["backward_w5"].report
    # the preceding-article window carries the class signal ...
    assert backward.accuracy >= 0.95
    # ... the following-word window carries none beyond the majority class ...
    assert abs(forward.accuracy - forward.baseline_accuracy) <= 0.03
    # ... and widening the window dilutes the signal
    assert backward.accuracy >= wide.accuracy
    assert synthetic_study["elapsed"] <= 180.0


def test_error_entropy_exceeds_correct_entropy(synthetic_study):
    analysis = synthetic_study["cells"]["backward_w1"].analysis
    assert analysis.mean_entropy_errors > analysis.mean_entropy_correct
    assert analysis.entropy_permutation is not None
    assert analysis.entropy_permutation.p < 0.01


def test_numerical_oracles_agree():
    # truncated SVD vs dense LAPACK singular values
    rng = np.random.default_rng(0)
    for trial in range(200):
        rows = int(rng.integers(2, 65))
        cols = int(rng.integers(2, 65))
        k = int(rng.integers(1, min(rows, cols) + 1))
        matrix = rng.standard_normal((rows, cols))
        if trial % 5 == 0:
            rank = max(1, min(rows, cols) // 2)
            matrix = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
        sigma, _ = truncated_svd(matrix, k, seed=trial)
        assert np.max(np.abs(sigma - dense_sigma_oracle(matrix, k))) <= 1e-6

    # classifier gradients vs central differences
    model = MLPModel.initialize(10, 8, np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((12, 10))
    y = np.random.default_rng(2).integers(0, 2, size=12)
    assert gradient_check(model, x, y) <= 1e-4

    # tau-b vs the O(n^2) pairwise oracle, exact equality
    rng = np.random.default_rng(1)
    done = 0
    while done < 100:
        n = int(rng.integers(5, 201))
        x = rng.integers(0, 12, size=n).astype(float)
        y = rng.integers(0, 12, size=n).astype(float)
        if len(set(x.tolist())) < 2 or len(set(y.tolist())) < 2:
            continue
        res = kendall_tau_b(x, y)
        t, z, p = tau_b_oracle(x.tolist(), y.tolist())
        assert res.statistic == t
        assert res.z == z
        assert res.p == p
        done += 1

    # exhaustive permutation test on a fully separated pair of groups
    res = fisher_pitman_permutation([0, 0, 0, 0], [10, 10, 10, 10])
    assert res.p == 2 / 70
    assert res.method.startswith("exhaustive")


def test_permutation_test_is_calibrated_under_the_null():
    hits = 0
    for trial in range(500):
        rng = np.random.default_rng(trial)
        a = rng.normal(size=30)
        b = rng.normal(size=30)
        res = fisher_pitman_permutation(a, b, n_perm=999, seed=trial)
        hits += res.p < 0.05
    rate = hits / 500
    assert 0.03 <= rate <= 0.07


def test_manifest_replay_is_byte_identical(tmp_path):
    spec = synthetic.SyntheticSpec(
        noun_count=300, sentence_count=20_000, seed=5, filler_count=6
    )
    language = synthetic.generate_synthetic_language(spec)
    corpus_path = tmp_path / "corpus.txt"
    lexicon_path = tmp_path / "lexicon.tsv"
    synthetic.write_corpus(language, corpus_path)
    lexicon.save_lexicon(language.lexicon, lexicon_path)
    manifest = pipeline.build_manifest(
        corpus_path,
        lexicon_path,
        ContextConfig(context_type="asymmetric_backward", window_size=1),
        EmbeddingConfig(k=50, seed=0),
        TrainConfig(),
    )
    first = pipeline.run_from_manifest(manifest, tmp_path / "run_a")
    second = pipeline.run_from_manifest(manifest, tmp_path / "run_b")
    for name in ("eval_report.json", "split_manifest.json", "records.csv",
                 "stats.json", "model.bin"):
        with open(first[name], "rb") as fh:
            bytes_a = fh.read()
        with open(second[name], "rb") as fh:
            bytes_b = fh.read()
        assert bytes_a == bytes_b, f"{name} differs between replays"


@pytest.mark.skipif(
    not (os.environ.get("GENDERVEC_CORPUS") and os.environ.get("GENDERVEC_LEXICON")),
    reason="full-scale inputs not supplied (set GENDERVEC_CORPUS and GENDERVEC_LEXICON)",
)
def test_full_scale_swedish_inputs():
    result = pipeline.run_experiment(
        os.environ["GENDERVEC_CORPUS"],
        os.environ["GENDERVEC_LEXICON"],
        ContextConfig(context_type="asymmetric_backward", window_size=1),
        EmbeddingConfig(k=50, seed=0),
        TrainConfig(),
        pipeline.RunOptions(
            min_freq=100, vocab_min_freq=100, split_seed=0, n_perm=10_000, stats_seed=0
        ),
    )
    n = len(result.dataset)
    assert abs(n - 21_162) <= 0.01 * 21_162
    uter_share = sum(ex.gender == "uter" for ex in result.dataset) / n
    assert abs(100.0 * uter_share - 70.89) <= 0.5
    assert result.decile_report is not None
    assert result.decile_report.std_uter_share < 0.02
    assert 0.90 <= result.evaluation.report.accuracy <= 0.94
