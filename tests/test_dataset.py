"""Dataset assembly, apportionment, stratified splitting, deciles."""

import json
import re

import numpy as np
import pytest

from gendervec.corpus import build_vocabulary
from gendervec.dataset import (
    DEFAULT_RATIOS,
    LabeledSet,
    apportion,
    build_dataset,
    bundle_from_manifest,
    class_ratio_by_decile,
    join_with_embedding,
    load_dataset_table,
    load_split_manifest,
    save_dataset_table,
    split_words_by_class,
    stratified_split,
    word_list_digest,
)
from gendervec.embedding import EmbeddingMatrix
from gendervec.errors import ConfigurationError, DataError
from gendervec.lexicon import GenderLexicon
from gendervec.records import write_json


def _examples(n_uter, n_neuter, k=4, seed=0):
    """Uter words, then neuter words, in descending frequency."""
    rng = np.random.default_rng(seed)
    n = n_uter + n_neuter
    words = [f"u{i:05d}" for i in range(n_uter)] + [f"n{i:05d}" for i in range(n_neuter)]
    labels = np.repeat([0, 1], [n_uter, n_neuter])
    return LabeledSet(tuple(words), rng.standard_normal((n, k)), labels, 10_000 - np.arange(n))


def test_apportion_exact_and_remainders():
    assert apportion(100, DEFAULT_RATIOS) == [80, 10, 10]
    assert apportion(70, DEFAULT_RATIOS) == [56, 7, 7]
    assert apportion(30, DEFAULT_RATIOS) == [24, 3, 3]
    # largest remainder gets the leftover unit
    assert apportion(5, (0.5, 0.25, 0.25)) == [3, 1, 1]
    # a remainder tie resolves to the earlier part
    assert apportion(2, (0.5, 0.25, 0.25)) == [1, 1, 0]
    assert apportion(1, DEFAULT_RATIOS) == [1, 0, 0]
    assert apportion(0, DEFAULT_RATIOS) == [0, 0, 0]


def test_apportion_always_sums_to_total():
    rng = np.random.default_rng(9)
    for _ in range(200):
        total = int(rng.integers(0, 500))
        raw = rng.random(3) + 1e-3
        ratios = tuple(raw / raw.sum())
        parts = apportion(total, ratios)
        assert sum(parts) == total
        assert all(p >= 0 for p in parts)


def test_split_sizes_per_class():
    bundle = stratified_split(_examples(70, 30), seed=0)
    for part, u_want, n_want in ((bundle.train, 56, 24), (bundle.dev, 7, 3), (bundle.test, 7, 3)):
        genders = [ex.gender for ex in part]
        assert genders.count("uter") == u_want
        assert genders.count("neuter") == n_want


def test_split_disjoint_covering_and_deterministic():
    rng = np.random.default_rng(17)
    for trial in range(6):
        n_u = int(rng.integers(5, 60))
        n_n = int(rng.integers(5, 60))
        data = _examples(n_u, n_n, seed=trial)
        seed = int(rng.integers(0, 1000))
        first = stratified_split(data, seed=seed)
        second = stratified_split(data, seed=seed)
        words = lambda part: [ex.word for ex in part]
        assert words(first.train) == words(second.train)
        assert words(first.dev) == words(second.dev)
        assert words(first.test) == words(second.test)
        all_words = words(first.train) + words(first.dev) + words(first.test)
        assert len(all_words) == len(set(all_words)) == n_u + n_n


def test_split_seed_changes_partition():
    data = _examples(40, 40)
    a = stratified_split(data, seed=0)
    b = stratified_split(data, seed=1)
    assert [ex.word for ex in a.test] != [ex.word for ex in b.test]


def test_split_preserves_class_balance():
    # class sizes divisible by 10 make the per-class apportionment exact,
    # so every partition reproduces the overall uter share exactly
    data = _examples(700, 300)
    bundle = stratified_split(data, seed=3)
    for part in (bundle.train, bundle.dev, bundle.test):
        share = sum(1 for ex in part if ex.gender == "uter") / len(part)
        assert share == pytest.approx(0.7)


def test_split_class_balance_within_one_point_at_scale():
    data = _examples(1403, 697)
    overall = 1403 / 2100
    bundle = stratified_split(data, seed=5)
    for part in (bundle.train, bundle.dev, bundle.test):
        share = sum(1 for ex in part if ex.gender == "uter") / len(part)
        assert abs(share - overall) < 0.01


def test_split_requires_three_per_class():
    with pytest.raises(DataError, match="at least 3"):
        stratified_split(_examples(2, 10))


def test_split_rejects_duplicate_words():
    data = _examples(5, 5)
    with pytest.raises(DataError, match="duplicate"):
        stratified_split(data.take(np.r_[np.arange(len(data)), 0]))
    with pytest.raises(DataError, match="duplicate"):
        LabeledSet(("a", "a"), np.zeros((2, 1)), np.array([0, 1]), np.array([2, 1]))


def test_labeled_set_rows_are_parallel():
    with pytest.raises(DataError, match="do not match"):
        LabeledSet(("a", "b"), np.zeros((3, 1)), np.array([0, 1]), np.array([2, 1]))
    data = _examples(3, 2)
    assert [(ex.word, ex.gender, ex.frequency) for ex in data][3] == ("n00000", "neuter", 9997)
    assert [data.words[i] for i in np.flatnonzero(data.labels == 0)] == [
        "u00000", "u00001", "u00002",
    ]
    assert [data.words[i] for i in np.flatnonzero(data.labels == 1)] == ["n00000", "n00001"]
    sub = data.take(data.rows(["n00001", "u00000"]))
    assert sub.words == ("n00001", "u00000")
    assert np.array_equal(sub.vectors, data.vectors[[4, 0]])
    assert sub.labels.tolist() == [1, 0]
    assert sub.frequencies.tolist() == [9996, 10_000]
    with pytest.raises(DataError, match="missing"):
        data.rows(["zzz"])


def test_ratio_validation():
    data = _examples(5, 5)
    with pytest.raises(ConfigurationError):
        stratified_split(data, ratios=(0.5, 0.5))
    with pytest.raises(ConfigurationError):
        stratified_split(data, ratios=(0.8, 0.3, -0.1))
    with pytest.raises(ConfigurationError):
        stratified_split(data, ratios=(0.8, 0.15, 0.1))
    nan, inf = float("nan"), float("inf")
    for ratios in ((nan, 0.5, 0.5), (0.5, 0.5, nan), (inf, 0.5, 0.5), (-inf, 0.5, 0.5)):
        with pytest.raises(ConfigurationError, match="^ratios must "):
            stratified_split(data, ratios=ratios)


def test_split_words_by_class_is_word_level():
    labeled = LabeledSet(
        ("a", "b", "c", "d", "x", "y", "z"), np.empty((7, 0)),
        np.array([0, 0, 0, 0, 1, 1, 1]), np.arange(7, 0, -1),
    )
    parts = split_words_by_class(labeled, seed=2)
    every = parts["train"] + parts["dev"] + parts["test"]
    assert sorted(every) == ["a", "b", "c", "d", "x", "y", "z"]


def test_split_words_by_class_pins_the_partition():
    # classes in name order (neuter first), each class's rows shuffled by
    # one generator seeded once; split manifests on disk were cut this way,
    # so the partition for a seed must not move
    words = tuple("abcdefghijkl") + tuple("stuvwxyz")
    labels = np.repeat([0, 1], [12, 8])
    labeled = LabeledSet(words, np.empty((20, 0)), labels, np.arange(20, 0, -1))
    assert split_words_by_class(labeled, seed=5) == {
        "train": list("twuvzxhidbajlgce"), "dev": ["y", "f"], "test": ["s", "k"],
    }


def _joined_fixture():
    corpus = [["hund"] * 5 + ["hus"] * 3 + ["bil"] * 2]
    vocab = build_vocabulary(corpus)
    emb = EmbeddingMatrix(["hund", "hus"], np.eye(2))
    lex = GenderLexicon({"hund": "u", "hus": "n", "bil": "u"})
    return vocab, emb, lex


def test_build_dataset_intersects_and_orders():
    vocab, emb, lex = _joined_fixture()
    data = build_dataset(emb, lex, vocab)
    assert [(ex.word, ex.gender, ex.frequency) for ex in data] == [
        ("hund", "uter", 5),
        ("hus", "neuter", 3),
    ]
    assert np.array_equal(data.vectors[0], emb.matrix[emb.rows(["hund"])[0]])


def test_build_dataset_min_freq_is_strict():
    vocab, emb, lex = _joined_fixture()
    data = build_dataset(emb, lex, vocab, min_freq=3)
    assert [ex.word for ex in data] == ["hund"]
    with pytest.raises(ConfigurationError):
        build_dataset(emb, lex, vocab, min_freq=-1)


def test_build_dataset_requires_core_lexicon():
    # words coded other than u/n are not labeled
    vocab, emb, _ = _joined_fixture()
    data = build_dataset(emb, GenderLexicon({"hund": "u", "hus": "p", "bil": "v"}), vocab)
    assert [ex.word for ex in data] == ["hund"]
    for entries in ({"hund": "p"}, {"hund": "p", "hus": "v", "bil": ""}):
        with pytest.raises(DataError):
            build_dataset(emb, GenderLexicon(entries), vocab)


def test_build_dataset_empty_intersection():
    vocab, emb, _ = _joined_fixture()
    with pytest.raises(DataError):
        build_dataset(emb, GenderLexicon({"okänd": "u"}), vocab)


def test_word_list_digest_order_insensitive():
    assert word_list_digest(["b", "a"]) == word_list_digest(["a", "b"])
    assert word_list_digest(["a"]) != word_list_digest(["a", "b"])


def test_manifest_roundtrip(tmp_path):
    data = _examples(8, 6)
    bundle = stratified_split(data, seed=13)
    path = tmp_path / "split.json"
    write_json(path, bundle.manifest)
    manifest = load_split_manifest(path)
    assert manifest["seed"] == 13
    assert manifest["test_digest"] == word_list_digest(ex.word for ex in bundle.test)
    rebuilt = bundle_from_manifest(manifest, data)
    for name in ("train", "dev", "test"):
        assert [ex.word for ex in getattr(rebuilt, name)] == [
            ex.word for ex in getattr(bundle, name)
        ]


def test_manifest_validation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json", encoding="utf-8")
    with pytest.raises(DataError):
        load_split_manifest(path)
    path.write_text(json.dumps({"seed": 0, "ratios": [0.8, 0.1, 0.1]}), encoding="utf-8")
    with pytest.raises(DataError, match="partitions"):
        load_split_manifest(path)
    path.write_text("[]", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{path}: split manifest is not a JSON object")):
        load_split_manifest(path)
    path.write_text(
        json.dumps({"seed": 0, "ratios": [0.8, 0.1, 0.1], "partitions": {"train": [], "dev": []}}),
        encoding="utf-8",
    )
    with pytest.raises(DataError, match="test"):
        load_split_manifest(path)
    # partitions must be disjoint, and test_digest must be the test words' digest
    parts = {"train": ["a", "b"], "dev": ["c"], "test": ["d"]}
    good = {"seed": 0, "ratios": [0.8, 0.1, 0.1], "partitions": parts,
            "test_digest": word_list_digest(["d"])}
    for bad, message in (
        ({"partitions": {**parts, "train": ["a", "d"]}}, "duplicate word in the partitions: 'd'"),
        ({"partitions": {**parts, "dev": ["c", "c"]}}, "duplicate word in the partitions: 'c'"),
        ({"test_digest": word_list_digest(["e"])}, "test_digest"),
        ({"test_digest": None}, "test_digest is missing"),
        ({"seed": -1}, "bad split manifest seed or ratios: seed must be >= 0, got -1"),
        ({"seed": 1.5}, "bad split manifest seed or ratios"),
    ):
        path.write_text(json.dumps({**good, **bad}), encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}: {message}")):
            load_split_manifest(path)
    del good["test_digest"]
    path.write_text(json.dumps(good), encoding="utf-8")
    with pytest.raises(DataError, match="test_digest is missing"):
        load_split_manifest(path)


def test_bundle_from_manifest_missing_word():
    data = _examples(4, 4)
    bundle = stratified_split(data, seed=0)
    manifest = bundle.manifest
    with pytest.raises(DataError, match="missing"):
        bundle_from_manifest(manifest, data.take(np.arange(len(data) - 1)))


def test_dataset_table_roundtrip(tmp_path):
    data = _examples(3, 3)
    path = tmp_path / "dataset.tsv"
    save_dataset_table(data, path)
    rows = load_dataset_table(path)
    assert rows.words == data.words
    assert np.array_equal(rows.labels, data.labels)
    assert np.array_equal(rows.frequencies, data.frequencies)
    assert rows.vectors.shape == (len(data), 0)
    emb = EmbeddingMatrix(list(reversed(data.words)), data.vectors[::-1])
    joined = join_with_embedding(rows, emb)
    assert joined.words == data.words
    assert np.array_equal(joined.vectors, data.vectors)


def test_dataset_table_validation(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("w\tcommon\t5\n", encoding="utf-8")
    with pytest.raises(DataError, match="gender"):
        load_dataset_table(path)
    path.write_text("w\tuter\t5\nw\tuter\t5\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"^{path}: duplicate"):
        load_dataset_table(path)
    path.write_text("w\tuter\tmany\n", encoding="utf-8")
    with pytest.raises(DataError, match="frequency"):
        load_dataset_table(path)
    for freq in ("0", "-3"):
        path.write_text(f"v\tneuter\t4\nw\tuter\t{freq}\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"{path}:2: frequency must be >= 1, got {freq}"):
            load_dataset_table(path)
    path.write_text(f"w\tuter\t{2**70}\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"^{path}: .*too large"):
        load_dataset_table(path)
    path.write_text("", encoding="utf-8")
    with pytest.raises(DataError, match="empty"):
        load_dataset_table(path)


def test_join_with_embedding_missing_word():
    emb = EmbeddingMatrix(["a"], np.ones((1, 2)))
    table = LabeledSet(("b",), np.empty((1, 0)), np.array([0]), np.array([3]))
    with pytest.raises(DataError, match="missing"):
        join_with_embedding(table, emb)


def test_deciles_equal_groups():
    data = _examples(50, 50)
    report = class_ratio_by_decile(data)
    assert report.group_sizes == (10,) * 10
    assert sum(report.group_sizes) == 100


def test_deciles_remainder_goes_to_top_groups():
    report = class_ratio_by_decile(_examples(55, 50))
    assert report.group_sizes == (11,) * 5 + (10,) * 5


def test_deciles_order_and_shares():
    # uter words get the highest frequencies in _examples, so the top
    # bands are pure uter and the bottom bands pure neuter
    report = class_ratio_by_decile(_examples(50, 50))
    assert report.uter_shares[0] == 1.0
    assert report.uter_shares[-1] == 0.0
    assert report.mean_uter_share == pytest.approx(0.5)
    # population standard deviation over the ten shares
    expected_std = float(np.std(np.array(report.uter_shares)))
    assert report.std_uter_share == pytest.approx(expected_std)
    d = report.to_dict()
    assert d == {
        "group_sizes": list(report.group_sizes),
        "uter_shares": list(report.uter_shares),
        "mean_uter_share": report.mean_uter_share,
        "std_uter_share": report.std_uter_share,
    }


def test_deciles_require_ten_examples():
    with pytest.raises(DataError):
        class_ratio_by_decile(_examples(4, 4))
