"""Evaluation metrics and nonparametric statistics.

Everything here is a pure function of ``Predictions`` or plain
arrays: confusion counts, accuracy, per-class precision/recall/F,
prior-weighted accuracy, the majority-class baseline, Kendall tau-b
with a tie-adjusted normal approximation, a Fisher-Pitman two-sample
permutation test, and the entropy/frequency analysis that combines
them.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .classifier import Predictions
from .dataset import CLASSES
from .errors import ConfigurationError, DataError
from .records import Record

logger = logging.getLogger(__name__)

# Fisher-Pitman: enumerate every relabeling when the assignment count
# stays at or below this, otherwise sample.
EXHAUSTIVE_LIMIT = 100_000

# The entropy/frequency analysis reruns tau on words with ln(frequency)
# below this.
LOG_FREQ_THRESHOLD = 8.0


def confusion_matrix(predictions: Predictions) -> np.ndarray:
    """Counts indexed ``[gold, predicted]`` over the classes."""
    n = len(CLASSES)
    return np.bincount(predictions.gold * n + predictions.predicted, minlength=n * n).reshape(n, n)


def accuracy(confusion: np.ndarray) -> float:
    """Share of agreeing (gold, predicted) pairs."""
    total = int(confusion.sum())
    if total == 0:
        raise DataError("empty confusion matrix")
    return int(np.trace(confusion)) / total


def precision_recall_f(confusion: np.ndarray, cls: str) -> tuple[float, float, float]:
    """One-vs-rest precision, recall and F-score for ``cls``.

    Degenerate denominators yield 0.0 with a logged warning rather than
    an error, so an all-one-class prediction still produces a report.
    """
    if cls not in CLASSES:
        raise ConfigurationError(f"unknown class {cls!r}")
    c = CLASSES.index(cls)
    tp = int(confusion[c, c])
    predicted = int(confusion[:, c].sum())
    support = int(confusion[c].sum())
    if predicted == 0:
        logger.warning("no predictions for class %r; precision set to 0", cls)
        precision = 0.0
    else:
        precision = tp / predicted
    if support == 0:
        logger.warning("no gold members for class %r; recall set to 0", cls)
        recall = 0.0
    else:
        recall = tp / support
    if precision + recall == 0.0:
        f_score = 0.0
    else:
        f_score = 2.0 * precision * recall / (precision + recall)
    return precision, recall, f_score


def weighted_accuracy(per_class_accuracy: Mapping[str, float], priors: Mapping[str, float]) -> float:
    """Accuracy under externally supplied class priors.

    ``sum(priors[c] * acc[c])``; the priors must cover the same classes
    and sum to 1 within 1e-9.
    """
    if set(priors) != set(per_class_accuracy):
        raise ConfigurationError(
            f"priors cover {sorted(priors)} but accuracies cover {sorted(per_class_accuracy)}"
        )
    total = sum(priors.values())
    if abs(total - 1.0) > 1e-9:
        raise ConfigurationError(f"priors sum to {total!r}, not 1")
    return float(sum(per_class_accuracy[c] * priors[c] for c in priors))


def zero_rule_baseline(labels: Iterable[str]) -> float:
    """Accuracy of always predicting the most common label."""
    counts = np.unique(np.asarray(list(labels)), return_counts=True)[1]
    if counts.size == 0:
        raise DataError("empty label list")
    return int(counts.max()) / int(counts.sum())


@dataclass(frozen=True)
class StatResult(Record):
    """Shared result shape for the correlation and permutation tests."""

    name: str
    statistic: float  # tau for kendall, mean difference for the permutation test
    z: float
    p: float
    n: int
    seed: int | None = None
    method: str = ""


def _tie_terms(counts: np.ndarray) -> tuple[int, int, int, int]:
    """(sum t(t-1)/2, sum t(t-1)(2t+5), sum t(t-1), sum t(t-1)(t-2)) over tie-group sizes t."""
    t = counts.astype(np.int64)
    terms = (t * (t - 1) // 2, t * (t - 1) * (2 * t + 5), t * (t - 1), t * (t - 1) * (t - 2))
    return tuple(int(term.sum()) for term in terms)


def _discordant_pairs(ranks: np.ndarray) -> int:
    """Pairs i < j with ``ranks[i] > ranks[j]``, counted over merge-sort levels:
    at width w, each element of a right half counts the larger elements of its
    left half by binary search in the sorted left halves; O(n log^2 n) in all."""
    span = int(ranks.max()) + 1
    position = np.arange(ranks.size)
    count, width = 0, 1
    while width < ranks.size:
        block = position // (2 * width)
        right = position // width % 2 == 1
        # adding block * span keeps each block's keys below the next block's
        left = np.sort(block[~right] * span + ranks[~right])
        larger = np.searchsorted(left, (block[right] + 1) * span) - np.searchsorted(
            left, block[right] * span + ranks[right], side="right")
        count += int(larger.sum())
        width *= 2
    return count


def kendall_tau_b(x: Sequence[float], y: Sequence[float]) -> StatResult:
    """Kendall's tau-b with tie corrections and a normal-approximation p.

    ``z`` uses the tie-adjusted variance of the concordance count S and
    ``p`` is the two-sided normal tail.  Degenerate input (everything
    tied on either side) has no defined tau and raises.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.shape != y.shape:
        raise DataError(f"x and y must be 1-D and equally long, got {x.shape} and {y.shape}")
    n = x.size
    if n < 2:
        raise DataError(f"need at least 2 observations, got {n}")
    _, x_rank, x_counts = np.unique(x, return_inverse=True, return_counts=True)
    _, y_rank, y_counts = np.unique(y, return_inverse=True, return_counts=True)
    n0 = n * (n - 1) // 2
    n1, vt, t_simple, t_triple = _tie_terms(x_counts)
    n2, vu, u_simple, u_triple = _tie_terms(y_counts)
    if n0 == n1 or n0 == n2:
        raise DataError("tau undefined: all values tied on one side")
    # Knight's method: sorted by x, then y, a discordant pair is an
    # inversion of the y ranks.  The n0 - n1 - n2 + n3 pairs tied on
    # neither side (n3: tied on both) are concordant or discordant.
    n3 = _tie_terms(np.unique(x_rank * y_counts.size + y_rank, return_counts=True)[1])[0]
    discordant = _discordant_pairs(y_rank[np.lexsort((y_rank, x_rank))])
    s = n0 - n1 - n2 + n3 - 2 * discordant
    tau = s / math.sqrt((n0 - n1) * (n0 - n2))
    v0 = n * (n - 1) * (2 * n + 5)
    var_s = (v0 - vt - vu) / 18.0
    var_s += (t_simple * u_simple) / (2.0 * n * (n - 1))
    if n > 2:
        var_s += (t_triple * u_triple) / (9.0 * n * (n - 1) * (n - 2))
    z = s / math.sqrt(var_s)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return StatResult(name="kendall_tau_b", statistic=tau, z=z, p=p, n=n,
                      method="normal_approximation")


def fisher_pitman_permutation(
    a: Sequence[float],
    b: Sequence[float],
    n_perm: int = 10_000,
    seed: int = 0,
) -> StatResult:
    """Two-sample permutation test on the difference of group means.

    Enumerates every relabeling when ``C(n, |a|) <= 100000`` (p is then
    the exact share of relabelings with ``|stat| >= |observed|``);
    otherwise draws ``n_perm`` Monte-Carlo relabelings and applies the
    add-one-smoothed two-sided p ``(1 + count) / (1 + n_perm)``.  ``z``
    locates the observed statistic inside the permutation distribution.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size == 0 or b.size == 0:
        raise DataError("both groups must be non-empty")
    if n_perm < 1:
        raise ConfigurationError(f"n_perm must be >= 1, got {n_perm}")
    pooled = np.concatenate([a, b])
    n = pooled.size
    n_a, n_b = a.size, b.size
    total = pooled.sum()

    def stat_from_a_sum(a_sum):
        return a_sum / n_a - (total - a_sum) / n_b

    n_comb = math.comb(n, n_a)
    if n_comb <= EXHAUSTIVE_LIMIT:
        # Enumerate the smaller side; the identity relabeling reproduces
        # the observed statistic through the same arithmetic, so the
        # >= comparison is exact.
        if n_a <= n_b:
            pick = n_a
            to_a_sum = lambda s: s
        else:
            pick = n_b
            to_a_sum = lambda s: total - s
        sums = np.fromiter(
            (pooled[np.fromiter(idx, dtype=np.int64, count=pick)].sum()
             for idx in itertools.combinations(range(n), pick)),
            dtype=np.float64,
            count=n_comb,
        )
        stats = stat_from_a_sum(to_a_sum(sums))
        side = pooled[:n_a] if n_a <= n_b else pooled[n_a:]
        observed = stat_from_a_sum(to_a_sum(side.sum()))
        count = int(np.sum(np.abs(stats) >= abs(observed)))
        p = count / n_comb
        spread = float(stats.std())
        z = 0.0 if spread == 0.0 else float((observed - stats.mean()) / spread)
        return StatResult(name="fisher_pitman", statistic=float(observed), z=z, p=p,
                          n=n, seed=seed, method=f"exhaustive[{n_comb}]")

    observed = stat_from_a_sum(a.sum())
    rng = np.random.default_rng(seed)
    stats = np.empty(n_perm, dtype=np.float64)
    chunk_rows = max(1, int(5_000_000 / n))
    base = np.arange(n)
    done = 0
    while done < n_perm:
        rows = min(chunk_rows, n_perm - done)
        block = np.tile(base, (rows, 1))
        rng.permuted(block, axis=1, out=block)
        a_sums = pooled[block[:, :n_a]].sum(axis=1)
        stats[done : done + rows] = stat_from_a_sum(a_sums)
        done += rows
    count = int(np.sum(np.abs(stats) >= abs(observed)))
    p = (1 + count) / (1 + n_perm)
    spread = float(stats.std())
    z = 0.0 if spread == 0.0 else float((observed - stats.mean()) / spread)
    return StatResult(name="fisher_pitman", statistic=float(observed), z=z, p=p,
                      n=n, seed=seed, method=f"monte_carlo[{n_perm}]")


@dataclass(frozen=True)
class EntropyFrequencyReport(Record):
    """Entropy/frequency diagnostics over one set of predictions.

    Any statistic whose inputs are degenerate (an empty group, or ties
    everywhere) is None, with the reason recorded in ``warnings``.
    """

    log_freq_threshold: float
    low_freq_share: float
    mean_entropy_correct: float | None
    mean_entropy_errors: float | None
    tau_overall: StatResult | None
    tau_correct: StatResult | None
    tau_errors: StatResult | None
    tau_correct_low_freq: StatResult | None
    tau_errors_low_freq: StatResult | None
    entropy_permutation: StatResult | None
    warnings: tuple[str, ...]


def entropy_frequency_analysis(
    predictions: Predictions,
    n_perm: int = 10_000,
    seed: int = 0,
) -> EntropyFrequencyReport:
    """Correlate output entropy with log frequency, overall and per
    correctness group, plus a permutation test on the two entropy groups.

    The low-frequency reruns keep words with ``ln(frequency)`` below
    ``LOG_FREQ_THRESHOLD``.  The permutation statistic is mean(errors) -
    mean(correct), so a positive value means errors carry more entropy.
    """
    if not predictions:
        raise DataError("no prediction records to analyze")
    i = int(np.argmin(predictions.frequencies))
    if predictions.frequencies[i] < 1:
        raise DataError(
            f"non-positive frequency for {predictions.words[i]!r}: {predictions.frequencies[i]}"
        )
    entropy, ln_freq = predictions.entropy, np.log(predictions.frequencies)
    correct = predictions.correct
    has_correct, has_errors = bool(correct.any()), not correct.all()
    low = ln_freq < LOG_FREQ_THRESHOLD
    warnings: list[str] = []

    def guarded_tau(name: str, mask: np.ndarray):
        if np.count_nonzero(mask) < 2:
            warnings.append(f"{name}: fewer than 2 points, tau skipped")
            return None
        try:
            return kendall_tau_b(entropy[mask], ln_freq[mask])
        except DataError as exc:
            warnings.append(f"{name}: {exc}")
            return None

    if has_correct and has_errors:
        permutation = fisher_pitman_permutation(
            entropy[~correct], entropy[correct], n_perm=n_perm, seed=seed
        )
    else:
        permutation = None
        empty = "errors" if not has_errors else "correct"
        warnings.append(f"entropy permutation skipped: no {empty} predictions")

    return EntropyFrequencyReport(
        log_freq_threshold=LOG_FREQ_THRESHOLD,
        low_freq_share=int(np.count_nonzero(low)) / len(predictions),
        mean_entropy_correct=float(entropy[correct].mean()) if has_correct else None,
        mean_entropy_errors=float(entropy[~correct].mean()) if has_errors else None,
        tau_overall=guarded_tau("tau_overall", np.ones(len(predictions), dtype=bool)),
        tau_correct=guarded_tau("tau_correct", correct),
        tau_errors=guarded_tau("tau_errors", ~correct),
        tau_correct_low_freq=guarded_tau("tau_correct_low_freq", low & correct),
        tau_errors_low_freq=guarded_tau("tau_errors_low_freq", low & ~correct),
        entropy_permutation=permutation,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class EvalReport(Record):
    """Full evaluation summary, recomputable from the records alone."""

    n: int
    confusion: dict
    accuracy: float
    baseline_accuracy: float
    per_class: dict
    overall: dict
    entropy_summary: dict


def build_eval_report(predictions: Predictions) -> EvalReport:
    """Confusion-derived metrics plus entropy summaries per correctness group."""
    if not predictions:
        raise DataError("no prediction records to evaluate")
    confusion = confusion_matrix(predictions)
    counts = confusion.tolist()
    supports = {cls: sum(counts[c]) for c, cls in enumerate(CLASSES)}
    per_class = {}
    for cls in CLASSES:
        precision, recall, f_score = precision_recall_f(confusion, cls)
        per_class[cls] = {
            "precision": precision,
            "recall": recall,
            "f_score": f_score,
            # recall doubles as the class accuracy used by weighted accuracy
            "accuracy": recall,
            "support": supports[cls],
        }
    total = len(predictions)
    overall = {
        "aggregation": "support-weighted one-vs-rest average over classes",
        "precision": sum(per_class[c]["precision"] * supports[c] for c in CLASSES) / total,
        "recall": sum(per_class[c]["recall"] * supports[c] for c in CLASSES) / total,
        "f_score": sum(per_class[c]["f_score"] * supports[c] for c in CLASSES) / total,
    }

    def summary(values: np.ndarray):
        if not values.size:
            return {"count": 0, "mean": None, "median": None}
        return {
            "count": values.size,
            "mean": float(np.mean(values)),
            "median": float(np.median(values)),
        }

    correct = predictions.correct
    return EvalReport(
        n=total,
        confusion={
            g: {p: counts[i][j] for j, p in enumerate(CLASSES)} for i, g in enumerate(CLASSES)
        },
        accuracy=accuracy(confusion),
        baseline_accuracy=zero_rule_baseline(predictions.gold.tolist()),
        per_class=per_class,
        overall=overall,
        entropy_summary={
            "correct": summary(predictions.entropy[correct]),
            "errors": summary(predictions.entropy[~correct]),
        },
    )
