"""Report bundle emission: CSV contents and chart files."""

import csv
import json
import math

import numpy as np
import pytest

from gendervec.classifier import PredictionRecord
from gendervec.dataset import CLASSES, LabeledSet, class_ratio_by_decile
from gendervec.errors import DataError
from gendervec.metrics import build_eval_report, entropy_frequency_analysis
from gendervec.report import (
    emit_deciles,
    emit_errors,
    emit_grid,
    emit_projection,
    emit_report,
)


def _records(n=24, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        gold = "uter" if i % 3 else "neuter"
        p_u = float(rng.uniform(0.05, 0.95))
        predicted = "uter" if p_u >= 0.5 else "neuter"
        entropy = float(-(p_u * math.log(p_u) + (1 - p_u) * math.log(1 - p_u)))
        records.append(
            PredictionRecord(
                word=f"w{i:03d}", gold=gold, predicted=predicted,
                p_uter=p_u, p_neuter=1 - p_u, entropy=entropy,
                frequency=int(rng.integers(1, 5000)),
            )
        )
    return records


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
    data = LabeledSet(
        tuple(r.word for r in records), np.zeros((len(records), 2)),
        np.array([CLASSES.index(r.gold) for r in records]),
        np.array([r.frequency for r in records]),
    )
    deciles = class_ratio_by_decile(data)
    grid_dict = {
        "cells": [
            {"context": {"context_type": "asymmetric_backward", "window_size": w},
             "dev_accuracy": 1.0 - 0.05 * w, "error": None}
            for w in (1, 2, 3)
        ]
    }
    paths = emit_report(
        tmp_path, records, report, analysis,
        projection=projection, decile_report=deciles, grid_dict=grid_dict,
    )
    names = {p.split("/")[-1] for p in paths}
    assert names == {
        "eval_report.json", "stats.json",
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
    by_word = {r.word: r for r in records}
    for word, entropy, ln_freq, correct in rows[1:]:
        rec = by_word[word]
        assert float(entropy) == pytest.approx(rec.entropy)
        assert float(ln_freq) == pytest.approx(math.log(rec.frequency))
        assert int(correct) == int(rec.correct)


def test_emit_errors_sorted_by_entropy(tmp_path):
    records = _records()
    errors = sorted(
        (r for r in records if not r.correct), key=lambda r: (-r.entropy, r.word)
    )
    emit_errors(tmp_path, errors)
    rows = _read_csv(tmp_path / "errors.csv")
    assert rows[0][:3] == ["word", "gold", "predicted"]
    entropies = [float(r[5]) for r in rows[1:]]
    assert entropies == sorted(entropies, reverse=True)
    assert len(rows) - 1 == len(errors)


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
    grid_dict = {
        "cells": [
            {"context": {"context_type": "asymmetric_backward", "window_size": 1},
             "dev_accuracy": 0.95, "error": None},
            {"context": {"context_type": "asymmetric_backward", "window_size": 2},
             "dev_accuracy": None, "error": "DataError: boom"},
        ]
    }
    paths = emit_grid(tmp_path, grid_dict)
    rows = _read_csv(tmp_path / "grid_accuracy.csv")
    assert rows[1] == ["asymmetric_backward", "1", "0.95", ""]
    assert rows[2][2] == ""
    assert "boom" in rows[2][3]
    assert (tmp_path / "grid_accuracy.svg").exists()
    assert len(paths) == 2
