from __future__ import annotations

import logging
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from gendervec.classifier import Predictions
from gendervec.dataset import CLASSES
from gendervec.errors import ConfigurationError, DataError
from gendervec.metrics import (
    build_eval_report,
    confusion_matrix,
    entropy_frequency_analysis,
    fisher_pitman_permutation,
    kendall_tau_b,
    zero_rule_baseline,
)
from gendervec.records import write_json


# ---------------------------------------------------------------------------
# Independent oracle: tau-b by explicit pairwise loops.  Written against the
# textbook definition (concordant minus discordant over the geometric mean of
# non-tied pair counts, normal approximation with tie-corrected variance)
# before the vectorized implementation, so both routes must agree exactly.

def tau_b_oracle(x, y):
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


def _predictions(rows):
    """Predictions from (word, gold, p_uter, frequency) rows; p_neuter is
    1 - p_uter, so the more probable class is the predicted one."""
    words, gold, p_uter, frequency = zip(*rows)
    p_uter = np.array(p_uter)
    return Predictions(
        words, np.column_stack([p_uter, 1 - p_uter]),
        np.array([CLASSES.index(g) for g in gold]), np.array(frequency),
    )


def binary_entropy(p):
    """Entropy in nats of the distribution (p, 1 - p), for 0 < p < 1."""
    return -(p * math.log(p) + (1 - p) * math.log(1 - p))


def test_confusion_matrix_accessors():
    preds = _predictions(
        [(f"a{i}", "uter", 0.9, 5) for i in range(3)]
        + [("b", "uter", 0.4, 5)]
        + [(f"c{i}", "neuter", 0.1, 5) for i in range(2)]
    )
    cm = confusion_matrix(preds)
    # indexed [gold, predicted] in CLASSES order (uter, neuter)
    assert cm.tolist() == [[3, 1], [0, 2]]
    assert cm.sum() == 6
    assert np.trace(cm) == 5


# Confusion counts as published: n->n 542, n->u 102, u->u 1430, u->n 69,
# indexed [gold, predicted] in CLASSES order (uter, neuter).
PUBLISHED = np.array([[1430, 69], [102, 542]])


def test_accuracy_published_counts(report_from_confusion):
    cm = PUBLISHED
    assert cm.sum() == 2143
    assert np.trace(cm) == 1972
    assert abs(report_from_confusion(cm).accuracy - 0.9202) <= 0.0005


def test_precision_recall_f_published_counts(report_from_confusion):
    per_class = report_from_confusion(PUBLISHED).per_class
    neuter = per_class["neuter"]
    assert abs(neuter["precision"] - 0.8870) <= 0.0005
    assert abs(neuter["recall"] - 0.8416) <= 0.0005
    assert abs(neuter["f_score"] - 0.8637) <= 0.0005
    uter = per_class["uter"]
    assert abs(uter["precision"] - 0.9334) <= 0.0005
    assert abs(uter["recall"] - 0.9540) <= 0.0005
    assert abs(uter["f_score"] - 0.9436) <= 0.0005


def test_accuracy_empty_confusion(report_from_confusion):
    with pytest.raises(DataError):
        report_from_confusion(np.zeros((2, 2), dtype=np.int64))


def test_precision_degenerate_class_is_zero(report_from_confusion, caplog):
    cm = np.array([[5, 0], [0, 0]])
    with caplog.at_level(logging.WARNING):
        neuter = report_from_confusion(cm).per_class["neuter"]
    assert (neuter["precision"], neuter["recall"], neuter["f_score"]) == (0.0, 0.0, 0.0)
    assert any("neuter" in rec.message for rec in caplog.records)


@pytest.mark.parametrize("cm", [
    PUBLISHED, [[5, 0], [0, 0]], [[0, 0], [0, 5]], [[0, 3], [0, 4]], [[0, 1], [1, 0]], [[2, 1], [0, 7]],
])
def test_report_scores_equal_the_per_class_formulas(report_from_confusion, cm):
    # the textbook one-class-at-a-time formulas on Python ints, each
    # degenerate denominator giving 0.0: the report's arrays do the
    # same float operations, so the scores are equal, not just close
    cm = np.asarray(cm).tolist()
    report = report_from_confusion(cm)
    n = sum(map(sum, cm))
    expected = {}
    for c, cls in enumerate(CLASSES):
        tp, predicted, support = cm[c][c], cm[0][c] + cm[1][c], sum(cm[c])
        p = tp / predicted if predicted else 0.0
        r = tp / support if support else 0.0
        f = 2.0 * p * r / (p + r) if p + r else 0.0
        expected[cls] = {"precision": p, "recall": r, "f_score": f, "accuracy": r,
                         "support": support}
    assert report.per_class == expected
    assert report.accuracy == (cm[0][0] + cm[1][1]) / n
    for name in ("precision", "recall", "f_score"):
        weighted = sum(expected[cls][name] * expected[cls]["support"] for cls in CLASSES)
        assert report.overall[name] == weighted / n


def test_zero_rule_baseline():
    labels = ["u"] * 15002 + ["n"] * 6160
    assert abs(zero_rule_baseline(labels) - 15002 / 21162) < 1e-12
    with pytest.raises(DataError):
        zero_rule_baseline([])


def test_kendall_example_no_ties():
    res = kendall_tau_b([1, 2, 3, 4], [1, 3, 2, 4])
    assert abs(res.statistic - 4 / 6) < 1e-12
    t, z, p = tau_b_oracle([1, 2, 3, 4], [1, 3, 2, 4])
    assert res.statistic == t
    assert res.z == z
    assert res.p == p


def test_kendall_perfect_agreement():
    res = kendall_tau_b([1, 2, 3, 4, 5], [2, 4, 6, 8, 10])
    assert res.statistic == 1.0


def test_kendall_all_tied_side_error():
    with pytest.raises(DataError):
        kendall_tau_b([1, 1, 1], [1, 2, 3])
    with pytest.raises(DataError):
        kendall_tau_b([1, 2, 3], [4, 4, 4])


def test_kendall_rejects_unequal_or_short_input():
    for x, y in (([1, 2, 3], [1, 2]), ([[1, 2], [3, 4]], [[1, 2], [3, 4]])):
        with pytest.raises(DataError, match="must be 1-D and equally long"):
            kendall_tau_b(x, y)
    with pytest.raises(DataError, match="need at least 2 observations, got 1"):
        kendall_tau_b([1], [2])


def test_kendall_matches_pairwise_oracle_exactly():
    # Random vectors with heavy ties; implementation must equal the loop
    # oracle bit for bit since both use the same closed formulas.
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(3, 80))
        x = rng.integers(0, 8, size=n).astype(float)
        y = rng.integers(0, 8, size=n).astype(float)
        if len(set(x.tolist())) < 2 or len(set(y.tolist())) < 2:
            continue
        res = kendall_tau_b(x, y)
        t, z, p = tau_b_oracle(x.tolist(), y.tolist())
        assert res.statistic == t
        assert res.z == z
        assert res.p == p
    # one large pair shaped like the analysis input: rounded entropies
    # against log frequencies, both heavily tied
    n = 1500
    x = np.round(rng.uniform(0.0, 0.7, size=n), 2)
    y = np.log(rng.zipf(1.6, size=n).astype(float))
    res = kendall_tau_b(x, y)
    t, z, p = tau_b_oracle(x.tolist(), y.tolist())
    assert (res.statistic, res.z, res.p) == (t, z, p)


def test_kendall_memory_stays_linear():
    # the pairwise sign matrices of n=4000 took hundreds of MB
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=4000), rng.integers(0, 50, size=4000).astype(float)
    tracemalloc.start()
    try:
        kendall_tau_b(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4000 * 4000 // 8


def test_kendall_matches_scipy_tau():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(5, 60))
        x = rng.integers(0, 6, size=n).astype(float)
        y = rng.integers(0, 6, size=n).astype(float)
        if len(set(x.tolist())) < 2 or len(set(y.tolist())) < 2:
            continue
        res = kendall_tau_b(x, y)
        ref = scipy.stats.kendalltau(x, y)
        assert abs(res.statistic - ref.statistic) < 1e-12


def test_fisher_pitman_exhaustive_published_example():
    res = fisher_pitman_permutation([0, 0, 0, 0], [10, 10, 10, 10])
    assert res.p == 2 / 70
    assert res.method == "exhaustive[70]"
    assert res.statistic == -10.0


def test_fisher_pitman_identical_groups():
    res = fisher_pitman_permutation([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert res.p == 1.0


def test_fisher_pitman_rejects_an_empty_group_and_no_relabelings():
    for a, b in (([], [1.0, 2.0]), ([1.0, 2.0], [])):
        with pytest.raises(DataError, match="both groups must be non-empty"):
            fisher_pitman_permutation(a, b)
    with pytest.raises(ConfigurationError, match="n_perm must be >= 1, got 0"):
        fisher_pitman_permutation([1.0], [2.0], n_perm=0)


def test_fisher_pitman_constant_data_z_zero():
    res = fisher_pitman_permutation([5.0, 5.0, 5.0], [5.0, 5.0, 5.0])
    assert res.z == 0.0
    assert res.p == 1.0


def test_fisher_pitman_monte_carlo_close_to_exhaustive():
    rng = np.random.default_rng(3)
    a = rng.normal(0.0, 1.0, size=8).tolist()
    b = rng.normal(0.8, 1.0, size=8).tolist()
    exact = fisher_pitman_permutation(a, b)
    assert exact.method.startswith("exhaustive")
    # Force the sampled path by dropping the permutation budget under the
    # combination count is not possible (limit is fixed), so widen the data.
    big_a = a * 3
    big_b = b * 3
    mc = fisher_pitman_permutation(big_a, big_b, n_perm=20000, seed=0)
    assert mc.method == "monte_carlo[20000]"
    assert 0.0 < mc.p <= 1.0


def test_fisher_pitman_monte_carlo_two_sided_symmetry():
    # Swapping the groups flips the statistic's sign but the p-value,
    # computed from |diff|, stays put on the exhaustive path.
    a = [1.0, 2.0, 5.0]
    b = [4.0, 8.0, 9.0]
    r1 = fisher_pitman_permutation(a, b)
    r2 = fisher_pitman_permutation(b, a)
    assert r1.statistic == -r2.statistic
    assert r1.p == r2.p


def test_entropy_frequency_analysis_shapes():
    rng = np.random.default_rng(11)
    rows = []
    for i in range(60):
        correct = i % 5 != 0
        # uter words: the correct ones sure of uter, the errors near the tie
        p_u = float(rng.uniform(0.8, 0.99) if correct else rng.uniform(0.3, 0.49))
        freq = int(rng.integers(1, 5000))
        rows.append((f"w{i}", "uter", p_u, freq))
    preds = _predictions(rows)
    assert np.count_nonzero(~preds.correct) == 12
    rep = entropy_frequency_analysis(preds, n_perm=500, seed=0)
    assert rep.tau_overall.n == 60
    assert rep.entropy_permutation is not None
    assert rep.mean_entropy_errors > rep.mean_entropy_correct
    d = rep.to_dict()
    assert d["low_freq_share"] == rep.low_freq_share
    # the per-word points stay out of stats.json
    assert set(d) == {
        "log_freq_threshold", "low_freq_share", "mean_entropy_correct",
        "mean_entropy_errors", "tau_overall", "tau_correct", "tau_errors",
        "tau_correct_low_freq", "tau_errors_low_freq", "entropy_permutation",
        "warnings",
    }
    assert set(d["tau_overall"]) == {"name", "statistic", "z", "p", "n", "seed", "method"}
    assert d["entropy_permutation"] == rep.entropy_permutation.to_dict()


def test_entropy_frequency_analysis_rejects_bad_frequency():
    preds = _predictions([("w", "uter", 0.9, 0)])
    with pytest.raises(DataError):
        entropy_frequency_analysis(preds)
    with pytest.raises(DataError, match="no prediction records to analyze"):
        entropy_frequency_analysis(preds.take([]))


def test_entropy_frequency_analysis_all_correct_warns():
    preds = _predictions([(f"w{i}", "uter", 0.9 + 0.01 * (i % 7), 10 + i) for i in range(20)])
    assert preds.correct.all() and len(set(preds.entropy.tolist())) == 7
    rep = entropy_frequency_analysis(preds, n_perm=200, seed=0)
    assert rep.entropy_permutation is None
    assert rep.warnings


def test_build_eval_report_fields(tmp_path):
    preds = _predictions([
        ("a", "uter", 0.9, 50),
        ("b", "uter", 0.2, 3),
        ("c", "neuter", 0.1, 8),
    ])
    rep = build_eval_report(preds)
    assert rep.n == 3
    assert abs(rep.accuracy - 2 / 3) < 1e-12
    assert rep.per_class["uter"]["support"] == 2
    assert rep.per_class["uter"]["accuracy"] == rep.per_class["uter"]["recall"]
    assert rep.baseline_accuracy == 2 / 3
    for name in ("a.json", "b.json"):
        write_json(tmp_path / name, rep)
    js = (tmp_path / "a.json").read_text(encoding="utf-8")
    assert js == (tmp_path / "b.json").read_text(encoding="utf-8")
    assert js.endswith("\n")
    assert set(rep.to_dict()) == {
        "n", "confusion", "accuracy", "baseline_accuracy", "per_class", "overall",
        "entropy_summary",
    }
    summary = rep.entropy_summary
    assert summary["errors"]["count"] == 1
    assert abs(summary["correct"]["mean"] - binary_entropy(0.9)) < 1e-12
