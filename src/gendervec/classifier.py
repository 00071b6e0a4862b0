"""Feed-forward gender classifier, written directly on numpy.

Architecture is fixed at [input, hidden, 2]: one ReLU hidden layer and
a softmax output over (uter, neuter).  Training is mini-batch gradient
descent with classical momentum and early stopping on dev accuracy.
All randomness flows from one seeded generator, so runs are bitwise
reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .dataset import CLASSES, LabeledSet
from .errors import ConfigurationError, DataError, NumericalError
from .records import Record, bounds, read_csv, write_csv


@dataclass(frozen=True)
class TrainConfig(Record):
    learning_rate: float = field(default=0.05, metadata=bounds(0, open_lo=True))
    momentum: float = field(default=0.9, metadata=bounds(0, 1, open_hi=True))
    batch_size: int = field(default=64, metadata=bounds(1))
    max_epochs: int = field(default=200, metadata=bounds(1))
    patience: int = field(default=10, metadata=bounds(1))
    hidden_size: int = field(default=64, metadata=bounds(1))
    seed: int = field(default=0, metadata=bounds(0))


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _cross_entropy(proba: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean cross-entropy of each stacked network's ``(c, batch, 2)`` probabilities."""
    picked = proba[:, np.arange(len(y)), y]
    return -np.log(np.maximum(picked, 1e-300)).mean(axis=-1)


def _split_params(flat: np.ndarray, input_dim: int, hidden: int) -> list[np.ndarray]:
    """``flat`` cut into ``w1, b1, w2, b2``, each a reshaped view; leading
    axes of ``flat`` stack networks and stay leading axes of each part."""
    shapes = ((input_dim, hidden), (hidden,), (hidden, len(CLASSES)), (len(CLASSES),))
    parts, start = [], 0
    for shape in shapes:
        end = start + math.prod(shape)
        parts.append(flat[..., start:end].reshape(flat.shape[:-1] + shape))
        start = end
    return parts


def _forward(params: list[np.ndarray], x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden ReLU output and class probabilities of ``c`` networks whose
    ``w1, b1, w2, b2`` stack on a leading axis, each on its own
    ``(batch, input_dim)`` slice of ``x``."""
    w1, b1, w2, b2 = params
    hidden_out = x @ w1
    hidden_out += b1[:, None]
    np.maximum(hidden_out, 0.0, out=hidden_out)
    logits = hidden_out @ w2
    logits += b2[:, None]
    return hidden_out, _softmax(logits)


def _backprop(params: list[np.ndarray], x: np.ndarray, y: np.ndarray,
              grad: list[np.ndarray]) -> np.ndarray:
    """Each stacked network's mean cross-entropy on gold classes ``y``; its
    gradient goes into ``grad``, the ``_split_params`` parts of a buffer
    laid out like ``flat``.  Training and ``gradient_check`` both run this."""
    hidden_out, proba = _forward(params, x)
    loss = _cross_entropy(proba, y)
    dlogits = proba
    dlogits[:, np.arange(len(y)), y] -= 1.0
    dlogits /= len(y)
    dz1 = dlogits @ params[2].swapaxes(-1, -2)
    # the ReLU passes gradient exactly where its output is positive
    dz1 *= hidden_out > 0.0
    np.matmul(x.swapaxes(-1, -2), dz1, out=grad[0])
    np.sum(dz1, axis=-2, out=grad[1])
    np.matmul(hidden_out.swapaxes(-1, -2), dlogits, out=grad[2])
    np.sum(dlogits, axis=-2, out=grad[3])
    return loss


class MLPModel:
    """Parameters of the [input, hidden, 2] network, as one float64 vector
    ``flat`` laid out ``w1, b1, w2, b2``; the named arrays are views into it."""

    PARAM_NAMES = ("w1", "b1", "w2", "b2")

    def __init__(self, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray, b2: np.ndarray, seed: int = 0):
        params = [np.asarray(p, dtype=np.float64) for p in (w1, b1, w2, b2)]
        k, h = params[0].shape
        if [p.shape for p in params[1:]] != [(h,), (h, len(CLASSES)), (len(CLASSES),)]:
            raise ConfigurationError(f"inconsistent parameter shapes: {[p.shape for p in params]}")
        self.flat = np.concatenate([p.reshape(-1) for p in params])
        self.w1, self.b1, self.w2, self.b2 = _split_params(self.flat, k, h)
        self.seed = seed

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

    def _stack_of_one(self, x: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """The parameters, and the input as a float64 matrix, each with a
        leading axis of one."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.input_dim:
            raise DataError(f"input dim {x.shape[1]} does not match model dim {self.input_dim}")
        return [p[None] for p in (self.w1, self.b1, self.w2, self.b2)], x[None]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Class probabilities for a (batch, input_dim) matrix."""
        return _forward(*self._stack_of_one(x))[1][0]

    def loss(self, x: np.ndarray, y: np.ndarray) -> float:
        """Mean cross-entropy of gold class indices ``y``."""
        return float(_cross_entropy(self.forward(x)[None], y)[0])

    def loss_and_gradients(self, x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
        """Backprop: mean cross-entropy and its gradient, laid out like ``flat``."""
        params, x = self._stack_of_one(x)
        grad = np.empty((1, self.flat.size))
        loss = _backprop(params, x, y, _split_params(grad, *self.w1.shape))
        return float(loss[0]), grad[0]


def dev_accuracy(model: MLPModel, data: LabeledSet) -> float:
    return float(predict_records(model, data).correct.mean())


def train(
    train_set: LabeledSet,
    dev_set: LabeledSet,
    config: TrainConfig = TrainConfig(),
) -> MLPModel:
    """Fit the network, returning the parameters of the best dev epoch.

    Stops after ``patience`` epochs without a strict dev-accuracy
    improvement, or at ``max_epochs``.  This is ``train_stack`` on a
    stack of one; a non-finite training loss raises its NumericalError.
    """
    (model,) = train_stack(
        train_set.vectors[None], train_set.labels, dev_set.vectors[None], dev_set.labels, config
    )
    if isinstance(model, NumericalError):
        raise model
    return model


def train_stack(
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_dev: np.ndarray,
    y_dev: np.ndarray,
    config: TrainConfig = TrainConfig(),
) -> list[MLPModel | NumericalError]:
    """Fit one network per slice of the leading axis of ``x_train`` and
    ``x_dev``, each bit for bit as ``train`` fits it alone.

    The ``c`` slices share the gold classes ``y_train`` and ``y_dev``.
    One generator seeded with ``config.seed`` gives every network the
    same initial parameters and batch order; each keeps its own momentum,
    best dev epoch and patience count, and leaves the stack when it
    stops.  Returns, per slice, the model of its best dev epoch, or the
    NumericalError of the epoch where its training loss went non-finite.
    """
    x_train = np.asarray(x_train, dtype=np.float64)
    x_dev = np.asarray(x_dev, dtype=np.float64)
    (c, n, k), (c_dev, m, k_dev) = x_train.shape, x_dev.shape
    if not n or not m:
        raise DataError("train and dev sets must be non-empty")
    if k_dev != k:
        raise DataError(f"train dim {k} does not match dev dim {k_dev}")
    if c_dev != c or len(y_train) != n or len(y_dev) != m:
        raise DataError(f"stacks of shape {x_train.shape} and {x_dev.shape} do not match "
                        f"{len(y_train)} train and {len(y_dev)} dev labels")
    rng = np.random.default_rng(config.seed)
    h = config.hidden_size
    flat = np.tile(MLPModel.initialize(k, h, rng).flat, (c, 1))
    live = _Live(np.arange(c), flat, np.zeros_like(flat), flat.copy(),
                 np.full(c, -1.0), np.zeros(c, dtype=np.int64))
    results: list = [None] * c
    for epoch in range(config.max_epochs):
        order = rng.permutation(n)
        grad = np.empty_like(live.flat)
        params, parts = _split_params(live.flat, k, h), _split_params(grad, k, h)
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            loss = _backprop(params, x_train[live.slot[:, None], batch], y_train[batch], parts)
            finite = np.isfinite(loss)
            if not finite.all():
                for slot, _ in live.drop(~finite):
                    results[slot] = NumericalError(f"non-finite training loss at epoch {epoch + 1}")
                grad = grad[finite]
                params, parts = _split_params(live.flat, k, h), _split_params(grad, k, h)
            live.velocity *= config.momentum
            grad *= config.learning_rate
            live.velocity -= grad
            live.flat += live.velocity
        proba = _forward(params, x_dev[live.slot])[1]
        hits = np.argmax(proba, axis=-1) == y_dev
        acc = hits.mean(axis=-1)
        improved = acc > live.best_acc
        live.best[improved] = live.flat[improved]
        live.best_acc[improved] = acc[improved]
        live.stale = np.where(improved, 0, live.stale + 1)
        stopped = (live.stale >= config.patience) | (epoch + 1 == config.max_epochs)
        for slot, best in live.drop(stopped):
            results[slot] = MLPModel(*_split_params(best, k, h), seed=config.seed)
        if not live.slot.size:
            break
    return results


@dataclass
class _Live:
    """The networks of a ``train_stack`` call still training: row ``i``
    of every array belongs to the network of result slot ``slot[i]``, and
    reads its inputs at ``x_train[slot[i]]`` and ``x_dev[slot[i]]``, so a
    network leaving the stack copies no rows."""

    slot: np.ndarray
    flat: np.ndarray
    velocity: np.ndarray
    best: np.ndarray
    best_acc: np.ndarray
    stale: np.ndarray

    def drop(self, stopped: np.ndarray) -> list[tuple[int, np.ndarray]]:
        """Remove the rows where ``stopped``; returns their slots and best parameters."""
        if not stopped.any():
            return []
        gone = list(zip(self.slot[stopped].tolist(), self.best[stopped]))
        for part in fields(self):
            setattr(self, part.name, getattr(self, part.name)[~stopped])
        return gone


# Central-difference step of gradient_check.
GRADIENT_EPSILON = 1e-5


def gradient_check(model: MLPModel, x: np.ndarray, y: np.ndarray) -> float:
    """Largest relative gap between backprop and central differences.

    Perturbs every parameter component by ``+-GRADIENT_EPSILON`` and
    compares the two-sided slope with the analytic gradient; the return value is
    ``max |g_a - g_n| / max(|g_a| + |g_n|, 1e-8)`` over all components.
    """
    _, analytic = model.loss_and_gradients(x, y)
    flat = model.flat
    worst = 0.0
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + GRADIENT_EPSILON
        up = model.loss(x, y)
        flat[i] = original - GRADIENT_EPSILON
        down = model.loss(x, y)
        flat[i] = original
        numeric = (up - down) / (2.0 * GRADIENT_EPSILON)
        gap = abs(analytic[i] - numeric) / max(abs(analytic[i]) + abs(numeric), 1e-8)
        worst = max(worst, gap)
    return worst


RECORD_FIELDS = ("word", "gold", "predicted", "p_uter", "p_neuter", "entropy", "frequency")


def output_entropy(proba) -> np.ndarray:
    """Shannon entropy in nats of each distribution along the last axis of
    ``proba``, with ``0 ln 0`` read as 0."""
    proba = np.asarray(proba, dtype=np.float64)
    # a zero probability takes ln 1 = 0 instead
    return -(proba * np.log(np.where(proba > 0, proba, 1.0))).sum(axis=-1)


class Predictions(LabeledSet):
    """Per-word predictions, one row per ``records.csv`` line: a
    ``LabeledSet`` whose vectors are the ``(n, 2)`` class probabilities
    ``(p_uter, p_neuter)``.  The predicted class and the output entropy
    derive from them.
    """

    gold = property(lambda self: self.labels, doc="Gold class indices into ``CLASSES``.")
    proba = property(lambda self: self.vectors, doc="The ``(p_uter, p_neuter)`` rows.")

    @property
    def predicted(self) -> np.ndarray:
        """The more probable class; a tie goes to uter."""
        return np.argmax(self.vectors, axis=1)

    @property
    def entropy(self) -> np.ndarray:
        return output_entropy(self.vectors)

    @property
    def correct(self) -> np.ndarray:
        return self.labels == self.predicted


def predict_records(model: MLPModel, data: LabeledSet) -> Predictions:
    """The model's class probabilities for every row of ``data``."""
    if not data:
        raise DataError("cannot predict on an empty example list")
    return Predictions(data.words, model.forward(data.vectors), data.labels, data.frequencies)


def errors_by_entropy(predictions: Predictions) -> Predictions:
    """Misclassified rows, highest entropy first, ties by word."""
    errors = predictions.take(np.flatnonzero(~predictions.correct))
    return errors.take(np.lexsort((np.array(errors.words, dtype=str), -errors.entropy)))


def save_prediction_records(predictions: Predictions, path) -> None:
    """CSV dump: word,gold,predicted,p_uter,p_neuter,entropy,frequency."""
    rows = zip(
        predictions.words, predictions.gold.tolist(), predictions.predicted.tolist(),
        predictions.proba.tolist(), predictions.entropy.tolist(),
        predictions.frequencies.tolist(),
    )
    write_csv(path, RECORD_FIELDS, (
        (word, CLASSES[gold], CLASSES[predicted], repr(p_uter), repr(p_neuter),
         repr(entropy), frequency)
        for word, gold, predicted, (p_uter, p_neuter), entropy, frequency in rows
    ))


def load_prediction_records(path) -> Predictions:
    """Read ``save_prediction_records`` output; a bad row, or a word's
    second row, is a ``DataError`` naming ``path:line``.  The predicted
    class and the entropy must be those of the probabilities."""
    rows = []
    lines: dict[str, int] = {}
    for line, row in read_csv(path, RECORD_FIELDS):
        where = f"{path}:{line}"
        if lines.setdefault(row[0], line) != line:
            raise DataError(f"{where}: {row[0]!r} repeats the row of line {lines[row[0]]}")
        try:
            gold, predicted = CLASSES.index(row[1]), CLASSES.index(row[2])
            p_uter, p_neuter, entropy, frequency = *map(float, row[3:6]), int(row[6])
        except ValueError:
            raise DataError(f"{where}: malformed row {row}") from None
        if frequency < 1:
            raise DataError(f"{where}: frequency must be >= 1, got {row[6]}")
        if not all(map(math.isfinite, (p_uter, p_neuter, entropy))):
            raise DataError(f"{where}: p_uter, p_neuter and entropy must be finite")
        if not (0 <= p_uter <= 1 and 0 <= p_neuter <= 1) or abs(p_uter + p_neuter - 1) > 1e-8:
            raise DataError(f"{where}: p_uter and p_neuter must be in [0, 1] and sum to 1")
        # a tie goes to uter, as Predictions.predicted's argmax breaks it
        if predicted != int(p_neuter > p_uter):
            raise DataError(f"{where}: predicted must be the more probable class, got {row[2]}")
        if abs(entropy - output_entropy((p_uter, p_neuter))) > 1e-8:
            raise DataError(f"{where}: entropy must be that of p_uter and p_neuter, "
                            f"got {row[5]}")
        rows.append((row[0], p_uter, p_neuter, gold, frequency))
    if not rows:
        raise DataError(f"{path}: no prediction rows")
    words, p_uter, p_neuter, gold, frequencies = zip(*rows)
    return Predictions(words, np.column_stack([p_uter, p_neuter]),
                       np.array(gold, dtype=np.int64), np.array(frequencies, dtype=np.int64))


def save_model(model: MLPModel, path) -> None:
    """One JSON header line, then ``model.flat`` as little-endian float64."""
    header = {
        "layer_sizes": list(model.layer_sizes),
        "activation": "relu",
        "seed": model.seed,
        "params": list(model.PARAM_NAMES),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        fh.write(model.flat.astype("<f8").tobytes())


def load_model(path) -> MLPModel:
    """Read ``save_model`` output; a malformed header or block is a ``DataError``."""
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise DataError(f"{path}: malformed model header") from None
        blob = fh.read()
    if not isinstance(header, dict):
        raise DataError(f"{path}: model header is not a JSON object")
    sizes, seed = header.get("layer_sizes"), header.get("seed", 0)
    # type(v) is int: JSON gives a bool or a float its own type
    if not (isinstance(sizes, list) and len(sizes) == 3 and sizes[2] == len(CLASSES)
            and all(type(s) is int and s >= 1 for s in sizes)):
        raise DataError(f"{path}: layer_sizes must be [input, hidden, 2] of positive ints, "
                        f"got {sizes!r}")
    fixed = {"activation": "relu", "params": list(MLPModel.PARAM_NAMES)}
    if type(seed) is not int or any(header.get(k, v) != v for k, v in fixed.items()):
        raise DataError(f"{path}: unsupported model header {header!r}")
    if seed < 0:
        raise DataError(f"{path}: seed must be >= 0, got {seed}")
    k, h, out = sizes
    expected = (k * h + h + h * out + out) * 8
    if len(blob) != expected:
        raise DataError(f"{path}: parameter block is {len(blob)} bytes, expected {expected}")
    flat = np.frombuffer(blob, dtype="<f8")
    if not np.all(np.isfinite(flat)):
        raise DataError(f"{path}: parameter block has a non-finite value")
    return MLPModel(*_split_params(flat, k, h), seed=seed)
