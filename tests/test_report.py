"""Report bundle emission: CSV contents and chart files."""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from gendervec.classifier import Predictions, save_prediction_records
from gendervec.cooccurrence import ContextConfig
from gendervec.dataset import LabeledSet, class_ratio_by_decile
from gendervec.errors import DataError
from gendervec.metrics import build_eval_report, entropy_frequency_analysis
from gendervec.pipeline import CellResult, FinalEvaluation, GridResult, save_evaluation
from gendervec.report import (
    emit_deciles,
    emit_errors,
    emit_grid,
    emit_projection,
    emit_report,
)


def _records(n=24, seed=0):
    rng = np.random.default_rng(seed)
    p_uter, frequencies = [], []
    for _ in range(n):
        p_uter.append(float(rng.uniform(0.05, 0.95)))
        frequencies.append(int(rng.integers(1, 5000)))
    p_u = np.array(p_uter)
    return Predictions(
        tuple(f"w{i:03d}" for i in range(n)),
        np.array([0 if i % 3 else 1 for i in range(n)]),
        (p_u < 0.5).astype(int),
        np.column_stack([p_u, 1 - p_u]),
        -(p_u * np.log(p_u) + (1 - p_u) * np.log(1 - p_u)),
        np.array(frequencies),
    )


def _grid(*cells):
    return GridResult(cells, cells[0].context, split_seed=0, test_digest="digest")


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_emit_report_writes_full_bundle(tmp_path):
    records = _records()
    report = build_eval_report(records)
    analysis = entropy_frequency_analysis(records, n_perm=200, seed=0)
    projection = np.stack(
        [np.arange(len(records), dtype=float), np.arange(len(records), dtype=float) ** 0.5],
        axis=1,
    )
    data = LabeledSet(records.words, np.zeros((len(records), 2)), records.gold, records.frequencies)
    deciles = class_ratio_by_decile(data)
    grid = _grid(*(
        CellResult(ContextConfig("asymmetric_backward", w), 1.0 - 0.05 * w, None, None)
        for w in (1, 2, 3)
    ))
    evaluation = FinalEvaluation(records, report, analysis, test_digest="digest")
    paths = list(save_evaluation(evaluation, tmp_path).values())
    paths += emit_report(
        tmp_path, records, projection=projection, decile_report=deciles, grid=grid,
    )
    names = {p.split("/")[-1] for p in paths}
    assert names == {
        "eval_report.json", "records.csv", "stats.json",
        "entropy_vs_frequency.csv", "entropy_vs_frequency.svg", "entropy_histogram.svg",
        "errors.csv", "projection.csv", "projection.svg",
        "deciles.csv", "deciles.svg", "grid_accuracy.csv", "grid_accuracy.svg",
    }
    loaded = json.loads((tmp_path / "eval_report.json").read_text(encoding="utf-8"))
    assert loaded["accuracy"] == pytest.approx(report.accuracy)
    stats = json.loads((tmp_path / "stats.json").read_text(encoding="utf-8"))
    assert "entropy_permutation" in stats

    rows = _read_csv(tmp_path / "entropy_vs_frequency.csv")
    assert rows[0] == ["word", "entropy", "ln_frequency", "correct"]
    assert len(rows) == len(records) + 1
    for i, (word, entropy, ln_freq, correct) in enumerate(rows[1:]):
        assert word == records.words[i]
        assert float(entropy) == pytest.approx(records.entropy[i])
        assert float(ln_freq) == pytest.approx(math.log(records.frequencies[i]))
        assert int(correct) == int(records.correct[i])


def test_emit_errors_sorted_by_entropy(tmp_path):
    # rounding the entropies makes ties, which the word order breaks
    records = _records()
    records = dataclasses.replace(records, entropy=np.round(records.entropy, 1))
    save_prediction_records(records, tmp_path / "records.csv")
    emit_errors(tmp_path, records)
    header, *rows = _read_csv(tmp_path / "records.csv")
    errors = _read_csv(tmp_path / "errors.csv")
    # errors.csv is exactly the misclassified records.csv rows, highest entropy first
    wrong = [r for r in rows if r[1] != r[2]]
    assert errors == [header] + sorted(wrong, key=lambda r: (-float(r[5]), r[0]))
    assert len({r[5] for r in wrong}) < len(wrong)


def test_emit_projection_checks_length(tmp_path):
    records = _records(6)
    with pytest.raises(DataError):
        emit_projection(tmp_path, records, np.zeros((5, 2)))
    paths = emit_projection(tmp_path, records, np.zeros((6, 2)))
    rows = _read_csv(tmp_path / "projection.csv")
    assert len(rows) == 7
    assert rows[0] == ["word", "gold", "predicted", "x", "y"]
    assert len(paths) == 2


def test_emit_deciles_table(tmp_path):
    data = LabeledSet(
        tuple(f"w{i}" for i in range(100)), np.zeros((100, 2)),
        (np.arange(100) >= 60).astype(np.int64), 1000 - np.arange(100),
    )
    emit_deciles(tmp_path, class_ratio_by_decile(data))
    rows = _read_csv(tmp_path / "deciles.csv")
    assert len(rows) == 11
    # top deciles are pure uter by construction, bottom pure neuter
    assert float(rows[1][2]) == 1.0
    assert float(rows[10][2]) == 0.0
    for row in rows[1:]:
        assert float(row[2]) + float(row[3]) == pytest.approx(1.0)


def test_emit_grid_skips_failed_cells_in_lines(tmp_path):
    grid = _grid(
        CellResult(ContextConfig("asymmetric_backward", 1), 0.95, None, None),
        CellResult(ContextConfig("asymmetric_backward", 2), None, None, "DataError: boom"),
        CellResult(ContextConfig("symmetric", 1), 0.9, None, None),
        CellResult(ContextConfig("symmetric", 2), 0.85, None, None),
    )
    paths = emit_grid(tmp_path, grid)
    rows = _read_csv(tmp_path / "grid_accuracy.csv")
    assert rows[1] == ["asymmetric_backward", "1", "0.95", ""]
    assert rows[2][2] == ""
    assert "boom" in rows[2][3]
    # the failed window has no point: the backward line stops at w=1
    svg = (tmp_path / "grid_accuracy.svg").read_text(encoding="utf-8")
    assert "nan" not in svg
    assert svg.count("<polyline") == 2
    assert svg.count("<circle") == 3
    assert len(paths) == 2
