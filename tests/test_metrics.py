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
    accuracy,
    build_eval_report,
    confusion_matrix,
    entropy_frequency_analysis,
    fisher_pitman_permutation,
    kendall_tau_b,
    precision_recall_f,
    weighted_accuracy,
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
    """Predictions from (word, gold, predicted, p_uter, p_neuter, entropy, frequency) rows."""
    words, gold, predicted, p_uter, p_neuter, entropy, frequency = zip(*rows)
    return Predictions(
        words, np.array([CLASSES.index(g) for g in gold]),
        np.array([CLASSES.index(p) for p in predicted]),
        np.column_stack([p_uter, p_neuter]), np.array(entropy), np.array(frequency),
    )


def test_confusion_matrix_accessors():
    preds = _predictions(
        [("a", "uter", "uter", 0.9, 0.1, 0.3, 5)] * 3
        + [("b", "uter", "neuter", 0.4, 0.6, 0.6, 5)]
        + [("c", "neuter", "neuter", 0.1, 0.9, 0.3, 5)] * 2
    )
    cm = confusion_matrix(preds)
    # indexed [gold, predicted] in CLASSES order (uter, neuter)
    assert cm.tolist() == [[3, 1], [0, 2]]
    assert cm.sum() == 6
    assert np.trace(cm) == 5


# Confusion counts as published: n->n 542, n->u 102, u->u 1430, u->n 69,
# indexed [gold, predicted] in CLASSES order (uter, neuter).
PUBLISHED = np.array([[1430, 69], [102, 542]])


def test_accuracy_published_counts():
    cm = PUBLISHED
    assert cm.sum() == 2143
    assert np.trace(cm) == 1972
    assert abs(accuracy(cm) - 0.9202) <= 0.0005


def test_precision_recall_f_published_counts():
    cm = PUBLISHED
    p_n, r_n, f_n = precision_recall_f(cm, "neuter")
    assert abs(p_n - 0.8870) <= 0.0005
    assert abs(r_n - 0.8416) <= 0.0005
    assert abs(f_n - 0.8637) <= 0.0005
    p_u, r_u, f_u = precision_recall_f(cm, "uter")
    assert abs(p_u - 0.9334) <= 0.0005
    assert abs(r_u - 0.9540) <= 0.0005
    assert abs(f_u - 0.9436) <= 0.0005


def test_accuracy_empty_confusion():
    with pytest.raises(DataError):
        accuracy(np.zeros((2, 2), dtype=np.int64))


def test_precision_degenerate_class_is_zero(caplog):
    cm = np.array([[5, 0], [0, 0]])
    with caplog.at_level(logging.WARNING):
        p, r, f = precision_recall_f(cm, "neuter")
    assert (p, r, f) == (0.0, 0.0, 0.0)
    assert any("neuter" in rec.message for rec in caplog.records)


def test_weighted_accuracy_published_values():
    # Dev-set per-class accuracies weighted by the 0.29/0.71 class priors.
    got = weighted_accuracy({"n": 0.846, "u": 0.971}, {"n": 0.29, "u": 0.71})
    assert abs(got - 0.9348) <= 0.0005
    got = weighted_accuracy({"n": 0.393, "u": 0.946}, {"n": 0.29, "u": 0.71})
    assert abs(got - 0.7856) <= 0.0005


def test_weighted_accuracy_validation():
    with pytest.raises(ConfigurationError):
        weighted_accuracy({"a": 0.5}, {"b": 0.5})
    with pytest.raises(ConfigurationError):
        weighted_accuracy({"a": 0.5, "b": 0.5}, {"a": 0.4, "b": 0.4})


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
        entropy = float(rng.uniform(0.05, 0.3 if correct else 0.69))
        freq = int(rng.integers(1, 5000))
        p_u = 1.0 - entropy / 2
        rows.append((f"w{i}", "uter", "uter" if correct else "neuter", p_u, 1 - p_u, entropy, freq))
    rep = entropy_frequency_analysis(_predictions(rows), n_perm=500, seed=0)
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
    preds = _predictions([("w", "uter", "uter", 0.9, 0.1, 0.1, 0)])
    with pytest.raises(DataError):
        entropy_frequency_analysis(preds)


def test_entropy_frequency_analysis_all_correct_warns():
    preds = _predictions([
        (f"w{i}", "uter", "uter", 0.9, 0.1, 0.1 + 0.01 * (i % 7), 10 + i)
        for i in range(20)
    ])
    rep = entropy_frequency_analysis(preds, n_perm=200, seed=0)
    assert rep.entropy_permutation is None
    assert rep.warnings


def test_build_eval_report_fields(tmp_path):
    preds = _predictions([
        ("a", "uter", "uter", 0.9, 0.1, 0.32, 50),
        ("b", "uter", "neuter", 0.2, 0.8, 0.5, 3),
        ("c", "neuter", "neuter", 0.1, 0.9, 0.32, 8),
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
    assert abs(summary["correct"]["mean"] - 0.32) < 1e-12
