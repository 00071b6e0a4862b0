"""Feed-forward gender classifier, written directly on numpy.

Architecture is fixed at [input, hidden, 2]: one ReLU hidden layer and
a softmax output over (uter, neuter).  Training is mini-batch gradient
descent with classical momentum and early stopping on dev accuracy.
All randomness flows from one seeded generator, so runs are bitwise
reproducible.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import CLASSES, LabeledSet
from .errors import ConfigurationError, DataError, NumericalError
from .records import Record


@dataclass(frozen=True)
class TrainConfig(Record):
    learning_rate: float = 0.05
    momentum: float = 0.9
    batch_size: int = 64
    max_epochs: int = 200
    patience: int = 10
    hidden_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigurationError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ConfigurationError(f"patience must be >= 1, got {self.patience}")
        if self.hidden_size < 1:
            raise ConfigurationError(f"hidden_size must be >= 1, got {self.hidden_size}")


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class MLPModel:
    """Parameters of the [input, hidden, 2] network."""

    PARAM_NAMES = ("w1", "b1", "w2", "b2")

    def __init__(self, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray, seed: int = 0):
        self.w1 = np.asarray(w1, dtype=np.float64)
        self.b1 = np.asarray(b1, dtype=np.float64)
        self.w2 = np.asarray(w2, dtype=np.float64)
        self.b2 = np.asarray(b2, dtype=np.float64)
        self.seed = seed
        k, h = self.w1.shape
        if self.b1.shape != (h,) or self.w2.shape != (h, len(CLASSES)) or self.b2.shape != (len(CLASSES),):
            raise ConfigurationError(
                f"inconsistent parameter shapes: {self.w1.shape} {self.b1.shape} "
                f"{self.w2.shape} {self.b2.shape}"
            )

    @classmethod
    def initialize(cls, input_dim: int, hidden_size: int, rng: np.random.Generator, seed: int = 0) -> "MLPModel":
        # He-scaled weights; small random biases keep hidden units off the
        # ReLU kink even for an all-zero input batch.
        w1 = rng.standard_normal((input_dim, hidden_size)) * math.sqrt(2.0 / input_dim)
        b1 = rng.standard_normal(hidden_size) * 0.01
        w2 = rng.standard_normal((hidden_size, len(CLASSES))) * math.sqrt(2.0 / hidden_size)
        b2 = rng.standard_normal(len(CLASSES)) * 0.01
        return cls(w1, b1, w2, b2, seed=seed)

    @property
    def layer_sizes(self) -> tuple[int, int, int]:
        return (self.w1.shape[0], self.w1.shape[1], len(CLASSES))

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.PARAM_NAMES}

    def copy_params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name).copy() for name in self.PARAM_NAMES}

    def set_params(self, params: dict[str, np.ndarray]) -> None:
        for name in self.PARAM_NAMES:
            getattr(self, name)[...] = params[name]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities for a (batch, input_dim) matrix."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.input_dim:
            raise DataError(f"input dim {x.shape[1]} does not match model dim {self.input_dim}")
        hidden = np.maximum(x @ self.w1 + self.b1, 0.0)
        return _softmax(hidden @ self.w2 + self.b2)

    def loss(self, x: np.ndarray, y: np.ndarray) -> float:
        """Mean cross-entropy of gold class indices ``y``."""
        proba = self.forward(x)
        picked = proba[np.arange(len(y)), y]
        return float(-np.log(np.maximum(picked, 1e-300)).mean())

    def loss_and_gradients(self, x: np.ndarray, y: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
        """Backprop: mean cross-entropy and gradients for every parameter."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.input_dim:
            raise DataError(f"input dim {x.shape[1]} does not match model dim {self.input_dim}")
        batch = x.shape[0]
        z1 = x @ self.w1 + self.b1
        a1 = np.maximum(z1, 0.0)
        proba = _softmax(a1 @ self.w2 + self.b2)
        picked = proba[np.arange(batch), y]
        loss = float(-np.log(np.maximum(picked, 1e-300)).mean())
        dlogits = proba.copy()
        dlogits[np.arange(batch), y] -= 1.0
        dlogits /= batch
        grads = {
            "w2": a1.T @ dlogits,
            "b2": dlogits.sum(axis=0),
        }
        da1 = dlogits @ self.w2.T
        dz1 = da1 * (z1 > 0.0)
        grads["w1"] = x.T @ dz1
        grads["b1"] = dz1.sum(axis=0)
        return loss, grads


def correct_predictions(model: MLPModel, data: LabeledSet) -> np.ndarray:
    """Per row, whether the model's most probable class is the gold one."""
    return np.argmax(model.forward(data.vectors), axis=1) == data.labels


def dev_accuracy(model: MLPModel, data: LabeledSet) -> float:
    return float(correct_predictions(model, data).mean())


def train(
    train_set: LabeledSet,
    dev_set: LabeledSet,
    config: TrainConfig = TrainConfig(),
) -> MLPModel:
    """Fit the network, returning the parameters of the best dev epoch.

    Stops after ``patience`` epochs without a strict dev-accuracy
    improvement, or at ``max_epochs``.
    """
    if not train_set or not dev_set:
        raise DataError("train and dev sets must be non-empty")
    x_train, y_train = train_set.vectors, train_set.labels
    k, k_dev = x_train.shape[1], dev_set.vectors.shape[1]
    if k_dev != k:
        raise DataError(f"train dim {k} does not match dev dim {k_dev}")
    rng = np.random.default_rng(config.seed)
    model = MLPModel.initialize(k, config.hidden_size, rng, seed=config.seed)
    velocity = {name: np.zeros_like(p) for name, p in model.params().items()}
    best_params = model.copy_params()
    best_acc = -1.0
    stale = 0
    n = len(train_set)
    for epoch in range(config.max_epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, grads = model.loss_and_gradients(x_train[batch], y_train[batch])
            if not math.isfinite(loss):
                raise NumericalError(f"non-finite training loss at epoch {epoch + 1}")
            for name, grad in grads.items():
                velocity[name] = config.momentum * velocity[name] - config.learning_rate * grad
                getattr(model, name)[...] += velocity[name]
        acc = dev_accuracy(model, dev_set)
        if acc > best_acc:
            best_acc = acc
            best_params = model.copy_params()
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
    model.set_params(best_params)
    return model


def predict(model: MLPModel, vector: np.ndarray) -> tuple[float, float]:
    """Class probabilities ``(p_uter, p_neuter)`` for one vector."""
    vector = np.asarray(vector, dtype=np.float64)
    if vector.ndim != 1 or vector.shape[0] != model.input_dim:
        raise DataError(
            f"expected a vector of dim {model.input_dim}, got shape {vector.shape}"
        )
    proba = model.forward(vector[None, :])[0]
    return (float(proba[0]), float(proba[1]))


def output_entropy(distribution: Sequence[float]) -> float:
    """Shannon entropy in nats, with ``0 * ln 0`` read as 0.

    Rejects negative components and distributions that do not sum to 1
    within 1e-8.
    """
    p = np.asarray(distribution, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise DataError(f"expected a 1-D distribution, got shape {p.shape}")
    if np.any(p < 0):
        raise DataError(f"negative probability in {p.tolist()}")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-8:
        raise DataError(f"distribution sums to {total!r}, not 1")
    nonzero = p[p > 0]
    return float(-(nonzero * np.log(nonzero)).sum())


def gradient_check(
    model: MLPModel,
    x: np.ndarray,
    y: np.ndarray,
    epsilon: float = 1e-5,
) -> float:
    """Largest relative gap between backprop and central differences.

    Perturbs every parameter component by ``+-epsilon`` and compares the
    two-sided slope with the analytic gradient; the return value is
    ``max |g_a - g_n| / max(|g_a| + |g_n|, 1e-8)`` over all components.
    """
    if epsilon <= 0:
        raise ConfigurationError(f"epsilon must be > 0, got {epsilon}")
    _, grads = model.loss_and_gradients(x, y)
    worst = 0.0
    for name in model.PARAM_NAMES:
        param = getattr(model, name)
        flat = param.reshape(-1)
        analytic = grads[name].reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + epsilon
            up = model.loss(x, y)
            flat[i] = original - epsilon
            down = model.loss(x, y)
            flat[i] = original
            numeric = (up - down) / (2.0 * epsilon)
            gap = abs(analytic[i] - numeric) / max(abs(analytic[i]) + abs(numeric), 1e-8)
            worst = max(worst, gap)
    return worst


@dataclass(frozen=True)
class PredictionRecord:
    word: str
    gold: str
    predicted: str
    p_uter: float
    p_neuter: float
    entropy: float
    frequency: int

    @property
    def correct(self) -> bool:
        return self.gold == self.predicted


def predict_records(model: MLPModel, data: LabeledSet) -> list[PredictionRecord]:
    """Forward every row and package per-word prediction rows."""
    if not data:
        raise DataError("cannot predict on an empty example list")
    return [
        PredictionRecord(
            word=ex.word,
            gold=ex.gender,
            predicted=CLASSES[int(np.argmax(row))],
            p_uter=float(row[0]),
            p_neuter=float(row[1]),
            entropy=output_entropy(row),
            frequency=ex.frequency,
        )
        for ex, row in zip(data, model.forward(data.vectors))
    ]


RECORD_FIELDS = ("word", "gold", "predicted", "p_uter", "p_neuter", "entropy", "frequency")


def errors_by_entropy(records: Sequence[PredictionRecord]) -> tuple[PredictionRecord, ...]:
    """Misclassified records, highest entropy first, ties by word."""
    return tuple(sorted((r for r in records if not r.correct), key=lambda r: (-r.entropy, r.word)))


def save_prediction_records(records: Sequence[PredictionRecord], path) -> None:
    """CSV dump: word,gold,predicted,p_uter,p_neuter,entropy,frequency."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_FIELDS)
        for r in records:
            writer.writerow(
                [r.word, r.gold, r.predicted, repr(r.p_uter), repr(r.p_neuter),
                 repr(r.entropy), r.frequency]
            )


def load_prediction_records(path) -> list[PredictionRecord]:
    records = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(RECORD_FIELDS):
            raise DataError(f"{path}: unexpected header {header}")
        for row in reader:
            if len(row) != len(RECORD_FIELDS):
                raise DataError(f"{path}: malformed row {row}")
            records.append(
                PredictionRecord(
                    word=row[0],
                    gold=row[1],
                    predicted=row[2],
                    p_uter=float(row[3]),
                    p_neuter=float(row[4]),
                    entropy=float(row[5]),
                    frequency=int(row[6]),
                )
            )
    return records


def save_model(model: MLPModel, path) -> None:
    """One JSON header line, then all parameters as little-endian float64."""
    header = {
        "layer_sizes": list(model.layer_sizes),
        "activation": "relu",
        "seed": model.seed,
        "params": list(model.PARAM_NAMES),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for name in model.PARAM_NAMES:
            fh.write(np.ascontiguousarray(getattr(model, name), dtype="<f8").tobytes())


def load_model(path) -> MLPModel:
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise DataError(f"{path}: malformed model header") from None
        k, h, out = header["layer_sizes"]
        if out != len(CLASSES):
            raise DataError(f"{path}: unsupported output size {out}")
        blob = fh.read()
    shapes = {"w1": (k, h), "b1": (h,), "w2": (h, out), "b2": (out,)}
    expected = sum(int(np.prod(s)) for s in shapes.values()) * 8
    if len(blob) != expected:
        raise DataError(f"{path}: parameter block is {len(blob)} bytes, expected {expected}")
    arrays = {}
    offset = 0
    for name in MLPModel.PARAM_NAMES:
        size = int(np.prod(shapes[name]))
        arrays[name] = (
            np.frombuffer(blob, dtype="<f8", count=size, offset=offset)
            .reshape(shapes[name])
            .copy()
        )
        offset += size * 8
    return MLPModel(seed=int(header.get("seed", 0)), **arrays)
