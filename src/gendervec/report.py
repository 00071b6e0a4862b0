"""Report emission: CSV data files plus standalone SVG charts.

Every chart gets a CSV twin carrying the plotted numbers, so the SVGs
are disposable and any external tool can re-render from the CSVs.
"""

from __future__ import annotations

import csv
import os
from typing import Sequence

import numpy as np

from .classifier import Predictions, errors_by_entropy, save_prediction_records
from .dataset import CLASSES, DecileReport
from .errors import DataError
from .pipeline import GridResult
from .svgplot import bars_svg, histogram_svg, lines_svg, scatter_svg


def _write_csv(path, header: Sequence[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def emit_entropy_frequency(out_dir, predictions: Predictions) -> list[str]:
    """Scatter of entropy against ln frequency, split by correctness,
    plus per-group entropy histograms."""
    paths = []
    entropy, correct = predictions.entropy, predictions.correct
    ln_freq = np.log(predictions.frequencies)
    scatter_csv = os.path.join(out_dir, "entropy_vs_frequency.csv")
    _write_csv(
        scatter_csv,
        ("word", "entropy", "ln_frequency", "correct"),
        zip(predictions.words, map(repr, entropy.tolist()), map(repr, ln_freq.tolist()),
            correct.astype(int).tolist()),
    )
    paths.append(scatter_csv)
    # (ln frequencies, entropies) per group
    groups = {
        name: (ln_freq[mask].tolist(), entropy[mask].tolist())
        for name, mask in (("correct", correct), ("errors", ~correct))
    }
    scatter_path = os.path.join(out_dir, "entropy_vs_frequency.svg")
    scatter_svg(groups, scatter_path, "Output entropy against word frequency",
                "ln frequency", "entropy (nats)")
    paths.append(scatter_path)

    hist_path = os.path.join(out_dir, "entropy_histogram.svg")
    histogram_svg({name: entropies for name, (_, entropies) in groups.items()},
                  hist_path, "Output entropy by correctness", "entropy (nats)")
    paths.append(hist_path)
    return paths


def emit_projection(out_dir, predictions: Predictions, projection: np.ndarray) -> list[str]:
    """2-D projection coordinates with gold/predicted labels."""
    if len(predictions) != projection.shape[0]:
        raise DataError(
            f"{len(predictions)} records but {projection.shape[0]} projected points"
        )
    gold, predicted = predictions.gold.tolist(), predictions.predicted.tolist()
    coords_csv = os.path.join(out_dir, "projection.csv")
    _write_csv(
        coords_csv,
        ("word", "gold", "predicted", "x", "y"),
        (
            (word, CLASSES[g], CLASSES[p], repr(x), repr(y))
            for word, g, p, (x, y) in zip(predictions.words, gold, predicted, projection.tolist())
        ),
    )
    # one group per gold class, in order of first appearance
    groups = {
        CLASSES[g]: tuple(projection[predictions.gold == g].T.tolist())
        for g in dict.fromkeys(gold)
    }
    svg_path = os.path.join(out_dir, "projection.svg")
    scatter_svg(groups, svg_path, "Rank-2 projection of test vectors",
                "component 1", "component 2")
    return [coords_csv, svg_path]


def emit_deciles(out_dir, decile_report: DecileReport) -> list[str]:
    """Class balance per frequency decile."""
    csv_path = os.path.join(out_dir, "deciles.csv")
    _write_csv(
        csv_path,
        ("decile", "size", "uter_share", "neuter_share"),
        (
            (i + 1, size, repr(share), repr(1.0 - share))
            for i, (size, share) in enumerate(
                zip(decile_report.group_sizes, decile_report.uter_shares)
            )
        ),
    )
    svg_path = os.path.join(out_dir, "deciles.svg")
    bars_svg(
        [str(i + 1) for i in range(10)],
        {
            "uter": list(decile_report.uter_shares),
            "neuter": [1.0 - s for s in decile_report.uter_shares],
        },
        svg_path,
        "Class share per frequency decile (1 = most frequent)",
        "share",
    )
    return [csv_path, svg_path]


def emit_grid(out_dir, grid: GridResult) -> list[str]:
    """Dev accuracy per cell, as a table and one line per context type."""
    csv_path = os.path.join(out_dir, "grid_accuracy.csv")
    _write_csv(
        csv_path,
        ("context_type", "window_size", "dev_accuracy", "error"),
        (
            (
                cell.context.context_type,
                cell.context.window_size,
                "" if cell.dev_accuracy is None else repr(cell.dev_accuracy),
                cell.error or "",
            )
            for cell in grid.cells
        ),
    )
    by_type: dict[str, dict[int, float]] = {}
    for cell in grid.cells:
        if cell.dev_accuracy is not None:
            ctx = cell.context
            by_type.setdefault(ctx.context_type, {})[ctx.window_size] = cell.dev_accuracy
    windows = sorted({w for cells in by_type.values() for w in cells})
    series = {
        t: [cells.get(w, float("nan")) for w in windows] for t, cells in by_type.items()
    }
    svg_path = os.path.join(out_dir, "grid_accuracy.svg")
    lines_svg([float(w) for w in windows], series, svg_path,
              "Dev accuracy by window size", "window size", "dev accuracy")
    return [csv_path, svg_path]


def emit_errors(out_dir, predictions: Predictions) -> list[str]:
    """Misclassified words, highest entropy first, for manual inspection;
    same columns as ``records.csv``."""
    csv_path = os.path.join(out_dir, "errors.csv")
    save_prediction_records(errors_by_entropy(predictions), csv_path)
    return [csv_path]


def emit_report(
    out_dir,
    predictions: Predictions,
    projection: np.ndarray | None = None,
    decile_report: DecileReport | None = None,
    grid: GridResult | None = None,
) -> list[str]:
    """Write every chart and table of the bundle that derives from the
    predictions and the optional extras; returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    paths = emit_entropy_frequency(out_dir, predictions)
    paths.extend(emit_errors(out_dir, predictions))
    if projection is not None:
        paths.extend(emit_projection(out_dir, predictions, projection))
    if decile_report is not None:
        paths.extend(emit_deciles(out_dir, decile_report))
    if grid is not None:
        paths.extend(emit_grid(out_dir, grid))
    return paths
