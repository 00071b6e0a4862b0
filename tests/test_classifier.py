"""Network forward/backward correctness, training behavior, model IO."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from gendervec.classifier import (
    MLPModel,
    TrainConfig,
    dev_accuracy,
    gradient_check,
    load_model,
    load_prediction_records,
    output_entropy,
    predict_records,
    save_model,
    save_prediction_records,
    train,
    train_stack,
)
from gendervec.dataset import LabeledSet
from gendervec.errors import ConfigurationError, DataError, NumericalError


# Oracle for backprop: central finite differences over model.loss,
# written against the definition of the derivative rather than the
# backward pass.  gradient_check repeats this internally; the explicit
# copy here keeps the two routes comparable in one place.
def fd_gradients(model, x, y, eps=1e-6):
    flat = model.flat
    out = np.empty_like(flat)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        up = model.loss(x, y)
        flat[i] = keep - eps
        down = model.loss(x, y)
        flat[i] = keep
        out[i] = (up - down) / (2.0 * eps)
    return out


def _toy_model(input_dim=3, hidden=4, seed=0):
    rng = np.random.default_rng(seed)
    return MLPModel.initialize(input_dim, hidden, rng, seed=seed)


def _blobs(n_per_class=20, dim=2, seed=0, spread=0.3):
    """Two linearly separable clouds around (+2, 0...) and (-2, 0...)."""
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((2 * n_per_class, dim)) * spread
    labels = np.repeat([0, 1], n_per_class)
    vectors[:, 0] += np.where(labels == 0, 2.0, -2.0)
    words = tuple(f"{cls}{i}" for cls in ("uter", "neuter") for i in range(n_per_class))
    return LabeledSet(words, vectors, labels, 100 - np.tile(np.arange(n_per_class), 2))


def test_backprop_matches_finite_differences():
    rng = np.random.default_rng(1)
    for seed in range(4):
        model = _toy_model(seed=seed)
        x = rng.standard_normal((5, 3))
        y = rng.integers(0, 2, size=5)
        _, analytic = model.loss_and_gradients(x, y)
        numeric = fd_gradients(model, x, y)
        gap = np.abs(analytic - numeric) / np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
        assert gap.max() <= 1e-6


def test_gradient_check_at_initialization():
    rng = np.random.default_rng(2)
    for seed in range(5):
        model = _toy_model(seed=seed)
        x = rng.standard_normal((6, 3))
        y = rng.integers(0, 2, size=6)
        assert gradient_check(model, x, y) <= 1e-4


def test_gradient_check_after_one_epoch():
    data = _blobs(10)
    cfg = TrainConfig(max_epochs=1, hidden_size=5)
    model = train(data, data, cfg)
    x = data.vectors[:8]
    y = np.array([0] * 4 + [1] * 4)
    assert gradient_check(model, x, y) <= 1e-4


def test_gradient_check_zero_batch():
    model = _toy_model()
    x = np.zeros((3, 3))
    y = np.array([0, 1, 0])
    assert gradient_check(model, x, y) <= 1e-4


def test_gradient_check_flags_corrupted_backprop():
    class BrokenModel(MLPModel):
        # drops the rectifier mask in the backward pass only
        def loss_and_gradients(self, x, y):
            x = np.atleast_2d(np.asarray(x, dtype=np.float64))
            batch = x.shape[0]
            z1 = x @ self.w1 + self.b1
            a1 = np.maximum(z1, 0.0)
            shifted = a1 @ self.w2 + self.b2
            shifted -= shifted.max(axis=1, keepdims=True)
            proba = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
            loss = float(-np.log(proba[np.arange(batch), y]).mean())
            dlogits = proba.copy()
            dlogits[np.arange(batch), y] -= 1.0
            dlogits /= batch
            da1 = dlogits @ self.w2.T
            return loss, np.concatenate([
                (x.T @ da1).reshape(-1), da1.sum(axis=0),
                (a1.T @ dlogits).reshape(-1), dlogits.sum(axis=0),
            ])

    rng = np.random.default_rng(3)
    base = _toy_model(seed=1)
    broken = BrokenModel(base.w1, base.b1, base.w2, base.b2)
    x = rng.standard_normal((8, 3))
    y = rng.integers(0, 2, size=8)
    assert gradient_check(broken, x, y) > 1e-4


def test_zero_weight_model_is_uniform():
    model = MLPModel(np.zeros((3, 4)), np.zeros(4), np.zeros((4, 2)), np.zeros(2))
    assert model.forward(np.array([[1.0, -2.0, 0.5]]))[0].tolist() == [0.5, 0.5]


def test_predictions_are_valid_distributions():
    rng = np.random.default_rng(4)
    model = _toy_model(seed=7)
    for _ in range(20):
        p_u, p_n = model.forward(rng.standard_normal((1, 3)) * 10)[0]
        assert 0.0 < p_u < 1.0 and 0.0 < p_n < 1.0
        assert abs(p_u + p_n - 1.0) <= 1e-9
        assert 0.0 <= output_entropy((p_u, p_n)) <= math.log(2.0) + 1e-12


def test_predict_dimension_checks():
    model = _toy_model()
    with pytest.raises(DataError):
        model.forward(np.zeros(5))
    with pytest.raises(DataError):
        model.forward(np.zeros((2, 7)))


def test_output_entropy_values():
    assert output_entropy((0.5, 0.5)) == pytest.approx(0.6931, abs=5e-5)
    assert output_entropy((1.0, 0.0)) == 0.0
    assert output_entropy((0.9, 0.1)) == pytest.approx(0.3251, abs=5e-5)


def test_output_entropy_validation():
    with pytest.raises(DataError):
        output_entropy((0.7, 0.2))
    with pytest.raises(DataError):
        output_entropy((1.2, -0.2))
    with pytest.raises(DataError):
        output_entropy(())


def test_separable_toy_reaches_perfect_dev_accuracy():
    data = _blobs(20)
    model = train(data, data, TrainConfig(max_epochs=50, hidden_size=8))
    assert dev_accuracy(model, data) == 1.0
    # a training point classifies as its own label
    p_u, p_n = model.forward(data.vectors[:1])[0]
    assert (p_u > p_n) == (data.labels[0] == 0)


def test_single_class_train_set_predicts_that_class():
    # dev vectors carry no class signal at all, so predicting uter
    # everywhere is the true dev optimum for a uter-only train set
    rng = np.random.default_rng(11)
    train_set = LabeledSet(
        tuple(f"t{i}" for i in range(12)), rng.standard_normal((12, 2)),
        np.zeros(12, dtype=np.int64), np.full(12, 50),
    )
    dev = LabeledSet(
        tuple(f"d{i}" for i in range(20)), rng.standard_normal((20, 2)),
        (np.arange(20) >= 14).astype(np.int64), np.full(20, 20),
    )
    model = train(train_set, dev, TrainConfig(max_epochs=40, hidden_size=4))
    assert np.all(predict_records(model, dev).predicted == 0)
    share = sum(1 for ex in dev if ex.gender == "uter") / len(dev)
    assert dev_accuracy(model, dev) == pytest.approx(share)


def test_training_is_bitwise_deterministic():
    data = _blobs(15, seed=2)
    cfg = TrainConfig(max_epochs=10, hidden_size=6, seed=42)
    m1 = train(data, data, cfg)
    m2 = train(data, data, cfg)
    for name in MLPModel.PARAM_NAMES:
        assert np.array_equal(getattr(m1, name), getattr(m2, name))


def test_full_batch_descent_has_non_increasing_loss():
    data = _blobs(20, seed=3)
    x, y = data.vectors, data.labels
    model = _toy_model(input_dim=2, hidden=6, seed=0)
    lr = 0.01
    losses = []
    for _ in range(60):
        loss, grad = model.loss_and_gradients(x, y)
        losses.append(loss)
        model.flat -= lr * grad
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_train_input_validation():
    data = _blobs(5)
    with pytest.raises(DataError):
        train(data.take([]), data)
    with pytest.raises(DataError):
        train(data, data.take([]))
    other = LabeledSet(("x", "y", "z"), np.zeros((3, 7)), np.zeros(3, dtype=np.int64), np.ones(3))
    with pytest.raises(DataError):
        train(data, other)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_exploding_learning_rate_is_numerical_error():
    data = _blobs(10)
    with pytest.raises(NumericalError):
        train(data, data, TrainConfig(learning_rate=1e30, max_epochs=20, hidden_size=4))


def _best_epoch(train_set, dev_set, cfg):
    """The epoch whose parameters ``train`` returns: the first
    ``max_epochs`` at which the result stops changing."""
    final = train(train_set, dev_set, cfg).flat
    return next(m for m in range(1, cfg.max_epochs + 1)
                if np.array_equal(train(train_set, dev_set, replace(cfg, max_epochs=m)).flat, final))


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_stack_trains_each_network_as_train_does_alone():
    cfg = TrainConfig(max_epochs=30, hidden_size=6, patience=3, batch_size=8, seed=4)
    # overlapping clouds, so dev accuracy peaks at a different epoch in each
    spreads = {i: 1.0 + 0.3 * i for i in (0, 6, 7, 2)}
    trains = [_blobs(20, dim=3, seed=i, spread=s) for i, s in spreads.items()]
    devs = [_blobs(8, dim=3, seed=10 + i, spread=s) for i, s in spreads.items()]
    # inputs large enough that the training loss overflows within a few steps
    trains[3] = replace(trains[3], vectors=trains[3].vectors * 1e150)
    with pytest.raises(NumericalError, match="non-finite training loss") as alone:
        train(trains[3], devs[3], cfg)
    stacked = train_stack(np.stack([t.vectors for t in trains]), trains[0].labels,
                          np.stack([d.vectors for d in devs]), devs[0].labels, cfg)
    assert isinstance(stacked[3], NumericalError) and str(stacked[3]) == str(alone.value)
    for i in range(3):
        model = train(trains[i], devs[i], cfg)
        assert stacked[i].flat.tobytes() == model.flat.tobytes()
        assert stacked[i].seed == cfg.seed
    # each stops at its own epoch; the third would still improve after
    # its stop, so training it on with the stack would change its bytes
    stops = [_best_epoch(trains[i], devs[i], cfg) + cfg.patience for i in range(3)]
    assert stops[2] < stops[1] <= cfg.max_epochs
    longer = train(trains[2], devs[2], replace(cfg, patience=cfg.max_epochs))
    assert longer.flat.tobytes() != stacked[2].flat.tobytes()


def test_stack_stops_each_network_on_patience_or_at_max_epochs():
    cfg = TrainConfig(max_epochs=6, hidden_size=6, patience=3, batch_size=8, seed=4)
    pairs = [(_blobs(20, dim=3, seed=i, spread=s), _blobs(8, dim=3, seed=10 + i, spread=s))
             for i, s in ((0, 1.0), (4, 1.6), (6, 1.0))]
    stacked = train_stack(np.stack([t.vectors for t, _ in pairs]), pairs[0][0].labels,
                          np.stack([d.vectors for _, d in pairs]), pairs[0][1].labels, cfg)
    for (train_set, dev_set), model in zip(pairs, stacked):
        assert model.flat.tobytes() == train(train_set, dev_set, cfg).flat.tobytes()
    # the first stops on patience; the other two are still training at the
    # last epoch, the third improving there, so more epochs change its bytes
    stops = [_best_epoch(t, d, cfg) + cfg.patience for t, d in pairs]
    assert stops[0] < cfg.max_epochs < min(stops[1:])
    longer = train(*pairs[2], replace(cfg, max_epochs=cfg.max_epochs + 10))
    assert longer.flat.tobytes() != stacked[2].flat.tobytes()


def test_train_config_validation_and_roundtrip():
    for kwargs in (
        {"learning_rate": 0.0},
        {"momentum": 1.0},
        {"momentum": -0.1},
        {"batch_size": 0},
        {"max_epochs": 0},
        {"patience": 0},
        {"hidden_size": 0},
    ):
        with pytest.raises(ConfigurationError):
            TrainConfig(**kwargs)
    cfg = TrainConfig(learning_rate=0.1, batch_size=16, seed=5)
    assert set(cfg.to_dict()) == {
        "learning_rate", "momentum", "batch_size", "max_epochs", "patience",
        "hidden_size", "seed",
    }
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg
    loaded = TrainConfig.from_dict({"learning_rate": 1, "unknown": 0})
    assert loaded == TrainConfig(learning_rate=1.0)
    assert type(loaded.learning_rate) is float
    for bad in ({"batch_size": True}, {"batch_size": 2.5}, {"momentum": False}):
        with pytest.raises(DataError, match=next(iter(bad))):
            TrainConfig.from_dict(bad)


def test_model_shape_validation():
    with pytest.raises(ConfigurationError):
        MLPModel(np.zeros((3, 4)), np.zeros(5), np.zeros((4, 2)), np.zeros(2))
    model = _toy_model(input_dim=6, hidden=9)
    assert model.layer_sizes == (6, 9, 2)
    assert model.input_dim == 6


def test_predict_records_fields():
    data = _blobs(4)
    model = train(data, data, TrainConfig(max_epochs=30, hidden_size=6))
    preds = predict_records(model, data)
    assert len(preds) == len(data)
    assert preds.words == data.words
    assert np.array_equal(preds.gold, data.labels)
    assert np.array_equal(preds.frequencies, data.frequencies)
    assert np.array_equal(preds.predicted, (preds.proba[:, 0] < preds.proba[:, 1]).astype(int))
    assert np.array_equal(preds.correct, preds.gold == preds.predicted)
    for row, entropy in zip(preds.proba, preds.entropy):
        assert entropy == output_entropy(row)
    # inputs large enough that a class probability underflows to exactly 0
    rng = np.random.default_rng(8)
    wide = LabeledSet(
        tuple(f"w{i}" for i in range(500)),
        rng.standard_normal((500, 2)) * 10.0 ** rng.integers(0, 4, (500, 1)),
        np.zeros(500, dtype=np.int64), np.ones(500, dtype=np.int64),
    )
    preds = predict_records(model, wide)
    assert np.any(preds.proba == 0.0) and np.any(preds.proba[:, 0] * preds.proba[:, 1] > 0)
    for row, entropy in zip(preds.proba, preds.entropy):
        assert entropy == output_entropy(row)
    with pytest.raises(DataError):
        predict_records(model, data.take([]))


def test_prediction_records_roundtrip(tmp_path):
    data = _blobs(3)
    model = _toy_model(input_dim=2, hidden=3)
    preds = predict_records(model, data)
    path = tmp_path / "records.csv"
    save_prediction_records(preds, path)
    back = load_prediction_records(path)
    assert back.words == preds.words
    for name in ("gold", "predicted", "proba", "entropy", "frequencies"):
        assert np.array_equal(getattr(back, name), getattr(preds, name)), name


def test_prediction_records_header_check(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("word,gold\nx,uter\n", encoding="utf-8")
    with pytest.raises(DataError, match="header"):
        load_prediction_records(path)
    path.write_text(
        "word,gold,predicted,p_uter,p_neuter,entropy,frequency\nx,uter\n", encoding="utf-8"
    )
    with pytest.raises(DataError, match="row"):
        load_prediction_records(path)


def test_model_roundtrip(tmp_path):
    model = _toy_model(input_dim=5, hidden=7, seed=3)
    path = tmp_path / "model.bin"
    save_model(model, path)
    back = load_model(path)
    assert back.layer_sizes == model.layer_sizes
    assert back.seed == model.seed
    for name in MLPModel.PARAM_NAMES:
        assert np.array_equal(getattr(back, name), getattr(model, name))


def test_named_params_are_views_of_flat(tmp_path):
    data = _blobs(5)
    trained = train(data, data, TrainConfig(max_epochs=3, hidden_size=4))
    path = tmp_path / "model.bin"
    save_model(trained, path)
    with open(path, "rb") as fh:
        fh.readline()
        assert fh.read() == trained.flat.tobytes()
    for model in (_toy_model(), trained, load_model(path)):
        named = [getattr(model, name) for name in MLPModel.PARAM_NAMES]
        assert all(np.shares_memory(p, model.flat) for p in named)
        assert np.array_equal(np.concatenate([p.reshape(-1) for p in named]), model.flat)
        model.flat[0] = 7.5
        assert model.w1[0, 0] == 7.5


def test_model_load_validation(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(b"\xff\xfe not json\n" + b"\x00" * 64)
    with pytest.raises(DataError, match="header"):
        load_model(path)
    model = _toy_model()
    save_model(model, path)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(DataError, match="bytes"):
        load_model(path)
    header, blob = data.split(b"\n", 1)
    header = json.loads(header)
    for bad in (
        {}, [], header | {"layer_sizes": [10, 64]}, header | {"layer_sizes": ["a", 64, 2]},
        header | {"layer_sizes": [10.0, 64, 2]}, header | {"seed": "x"},
        header | {"activation": "tanh"}, header | {"params": ["b2", "w2", "b1", "w1"]},
    ):
        path.write_bytes(json.dumps(bad).encode("utf-8") + b"\n" + blob)
        with pytest.raises(DataError, match="model header|layer_sizes|seed"):
            load_model(path)
    # a NaN parameter is bad data, not a model that predicts NaN
    path.write_bytes(data[:-8] + np.array([np.nan], dtype="<f8").tobytes())
    with pytest.raises(DataError, match="non-finite"):
        load_model(path)
