from __future__ import annotations

import json

import numpy as np
import pytest
from scipy import sparse

import gendervec.cooccurrence as cooccurrence
from gendervec.cooccurrence import (
    CONTEXT_TYPES,
    ContextConfig,
    combine,
    count_by_distance,
    count_cooccurrences,
    load_cooccurrence,
    save_cooccurrence,
)
from gendervec.corpus import Vocabulary, build_vocabulary
from gendervec.errors import ConfigurationError, DataError


def _vocab_and_corpus():
    corpus = [["en", "stor", "hund"], ["en", "katt"]]
    return build_vocabulary(corpus), corpus


def _pair_count(cooc, vocab, ctx, tgt):
    return float(cooc.matrix[vocab.ids[ctx], vocab.ids[tgt]])


def _reference_counts(corpus, vocab, config):
    """Token-by-token dict loop: the plain definition of windowed counts."""
    backward = config.context_type in ("asymmetric_backward", "symmetric")
    forward = config.context_type in ("asymmetric_forward", "symmetric")
    w = config.window_size
    counts = {}
    for sentence in corpus:
        ids = [vocab.ids[tok] if tok in vocab.ids else -1 for tok in sentence]
        for i, target in enumerate(ids):
            if target < 0:
                continue
            window = []
            if backward:
                window += range(max(0, i - w), i)
            if forward:
                window += range(i + 1, min(len(ids), i + w + 1))
            for j in window:
                if ids[j] < 0:
                    continue
                weight = 1.0 / abs(i - j) if config.distance_weighting else 1.0
                key = (ids[j], target)
                counts[key] = counts.get(key, 0.0) + weight
    n = len(vocab)
    keys = sorted(counts)
    rows = np.array([k[0] for k in keys], dtype=np.int64)
    cols = np.array([k[1] for k in keys], dtype=np.int64)
    data = np.array([counts[k] for k in keys], dtype=np.float64)
    return sparse.csr_array((data, (rows, cols)), shape=(n, n))


def _random_corpus(seed, n_sentences=80, n_words=15):
    """Seeded sentences of 1..9 tokens; the vocabulary leaves out a few
    words so OOV tokens occur, and one-token sentences are included."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(n_words)]
    corpus = [
        [words[int(i)] for i in rng.integers(0, n_words, size=rng.integers(1, 10))]
        for _ in range(n_sentences)
    ]
    corpus += [[words[0]], [words[-1]]]
    vocab = build_vocabulary(corpus)
    kept = [i for i, w in enumerate(vocab.words) if w not in ("w3", "w7")]
    return corpus, Vocabulary(tuple(vocab.words[i] for i in kept), vocab.frequencies[kept])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_counts_match_reference_loop(seed, monkeypatch):
    # a small block size splits the corpus into many blocks mid-stream,
    # so block boundaries must not lose or invent pairs
    monkeypatch.setattr(cooccurrence, "BLOCK_TOKENS", 16)
    corpus, vocab = _random_corpus(seed)
    assert any(tok not in vocab.ids for sentence in corpus for tok in sentence)
    by_distance = count_by_distance(corpus, vocab, 5)
    for weighting in (False, True):
        for context_type in CONTEXT_TYPES:
            for w in range(1, 6):
                cfg = ContextConfig(context_type, w, distance_weighting=weighting)
                expected = _reference_counts(corpus, vocab, cfg)
                grid_cell = combine(by_distance, cfg).matrix
                direct = count_cooccurrences(corpus, vocab, cfg).matrix
                for got in (grid_cell, direct):
                    assert np.array_equal(got.indptr, expected.indptr)
                    assert np.array_equal(got.indices, expected.indices)
                    if weighting:
                        assert np.allclose(got.data, expected.data, rtol=1e-12, atol=0)
                    else:
                        assert np.array_equal(got.data, expected.data)
                assert np.array_equal(grid_cell.data, direct.data)


def test_count_by_distance_counts_exact_offsets():
    corpus = [["a", "b", "c"], ["c", "a"]]
    vocab = build_vocabulary(corpus)
    d1, d2 = count_by_distance(corpus, vocab, 2)
    ids = vocab.ids
    assert d1[ids["a"], ids["b"]] == 1 and d1[ids["b"], ids["c"]] == 1
    assert d1[ids["c"], ids["a"]] == 1
    assert d1.sum() == 3
    # only a..c is two apart; nothing pairs across the sentence break
    assert d2[ids["a"], ids["c"]] == 1
    assert d2.sum() == 1


def test_combine_rejects_window_beyond_counted_distances():
    vocab, corpus = _vocab_and_corpus()
    by_distance = count_by_distance(corpus, vocab, 2)
    with pytest.raises(ConfigurationError):
        combine(by_distance, ContextConfig("symmetric", 3))


def test_context_config_validation():
    ContextConfig("symmetric", 5)
    with pytest.raises(ConfigurationError):
        ContextConfig("backward", 1)  # must be the full name
    with pytest.raises(ConfigurationError):
        ContextConfig("symmetric", 0)
    with pytest.raises(ConfigurationError):
        ContextConfig("symmetric", 6)


def test_context_config_dict_roundtrip():
    cfg = ContextConfig("asymmetric_forward", 3, distance_weighting=True)
    assert set(cfg.to_dict()) == {"context_type", "window_size", "distance_weighting"}
    assert ContextConfig.from_dict(cfg.to_dict()) == cfg
    # the cooc header carries the matrix dims next to the config
    header = {"rows": 4, "cols": 4, "context_type": "symmetric", "window_size": 2.0}
    loaded = ContextConfig.from_dict(header)
    assert loaded == ContextConfig("symmetric", 2)
    assert type(loaded.window_size) is int
    with pytest.raises(DataError, match="context_type"):
        ContextConfig.from_dict({})
    with pytest.raises(DataError, match="window_size"):
        ContextConfig.from_dict({"context_type": "symmetric"})
    with pytest.raises(ConfigurationError, match="exceeds"):
        ContextConfig.from_dict({"context_type": "symmetric", "window_size": 8})
    # a value that cannot take the field's type names its key
    # and so does an int field given a bool or a non-integral number
    for bad in ("x", [1], float("inf"), 2.7, True):
        with pytest.raises(DataError, match="window_size"):
            ContextConfig.from_dict({"context_type": "symmetric", "window_size": bad})
    # a flag is only ever true or false, never a truthy string
    with pytest.raises(DataError, match="distance_weighting"):
        ContextConfig.from_dict(
            {"context_type": "symmetric", "window_size": 1, "distance_weighting": "no"}
        )


def test_backward_window_1_by_hand():
    # "en stor hund": pairs (en->stor), (stor->hund); "en katt": (en->katt).
    vocab, corpus = _vocab_and_corpus()
    cooc = count_cooccurrences(corpus, vocab, ContextConfig("asymmetric_backward", 1))
    expect = {
        ("en", "stor"): 1,
        ("stor", "hund"): 1,
        ("en", "katt"): 1,
    }
    for (ctx, tgt), n in expect.items():
        assert _pair_count(cooc, vocab, ctx, tgt) == n
    assert cooc.total == 3


def test_backward_window_2_truncates_at_sentence_start():
    vocab, corpus = _vocab_and_corpus()
    cooc = count_cooccurrences(corpus, vocab, ContextConfig("asymmetric_backward", 2))
    # extra pair over w=1: en appears two before hund
    assert _pair_count(cooc, vocab, "en", "hund") == 1
    assert _pair_count(cooc, vocab, "stor", "hund") == 1
    assert cooc.total == 4


def test_forward_window_mirrors_backward():
    vocab, corpus = _vocab_and_corpus()
    back = count_cooccurrences(corpus, vocab, ContextConfig("asymmetric_backward", 2))
    fwd = count_cooccurrences(corpus, vocab, ContextConfig("asymmetric_forward", 2))
    # context/target swap roles between the two directions
    assert _pair_count(fwd, vocab, "hund", "en") == _pair_count(back, vocab, "en", "hund")
    assert _pair_count(fwd, vocab, "katt", "en") == _pair_count(back, vocab, "en", "katt")
    assert fwd.total == back.total


def test_symmetric_equals_backward_plus_forward():
    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(12)]
    corpus = [
        [words[int(i)] for i in rng.integers(0, len(words), size=rng.integers(1, 9))]
        for _ in range(40)
    ]
    vocab = build_vocabulary(corpus)
    for w in (1, 3, 5):
        back = count_cooccurrences(corpus, vocab, ContextConfig("asymmetric_backward", w))
        fwd = count_cooccurrences(corpus, vocab, ContextConfig("asymmetric_forward", w))
        sym = count_cooccurrences(corpus, vocab, ContextConfig("symmetric", w))
        lhs = sym.matrix.toarray()
        rhs = back.matrix.toarray() + fwd.matrix.toarray()
        assert np.array_equal(lhs, rhs)


def test_oov_tokens_hold_position_but_add_nothing():
    corpus = [["en", "stor", "hund"]]
    vocab = build_vocabulary([["en", "hund"]])  # "stor" is out of vocabulary
    cooc = count_cooccurrences(corpus, vocab, ContextConfig("asymmetric_backward", 1))
    # "stor" occupies the slot between en and hund, so no (en, hund) pair at w=1
    assert cooc.total == 0
    cooc2 = count_cooccurrences(corpus, vocab, ContextConfig("asymmetric_backward", 2))
    assert _pair_count(cooc2, vocab, "en", "hund") == 1
    assert cooc2.total == 1


def test_distance_weighting():
    corpus = [["a", "b", "c"]]
    vocab = build_vocabulary(corpus)
    cfg = ContextConfig("asymmetric_backward", 2, distance_weighting=True)
    cooc = count_cooccurrences(corpus, vocab, cfg)
    assert _pair_count(cooc, vocab, "b", "c") == pytest.approx(1.0)
    assert _pair_count(cooc, vocab, "a", "c") == pytest.approx(0.5)
    assert _pair_count(cooc, vocab, "a", "b") == pytest.approx(1.0)


def test_entries_sorted_and_complete(tmp_path):
    # the saved file lists every stored triplet once, in (row, col) order
    vocab, corpus = _vocab_and_corpus()
    cooc = count_cooccurrences(corpus, vocab, ContextConfig("symmetric", 2))
    path = tmp_path / "cooc.txt"
    save_cooccurrence(cooc, path)
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    entries = [(int(r), int(c), float(v)) for r, c, v in (line.split("\t") for line in lines)]
    assert entries == sorted(entries, key=lambda e: (e[0], e[1]))
    assert len(entries) == cooc.nnz
    assert all(cooc.matrix[r, c] == v for r, c, v in entries)
    assert sum(v for _, _, v in entries) == pytest.approx(cooc.total)


def test_save_load_roundtrip(tmp_path):
    vocab, corpus = _vocab_and_corpus()
    for weighting in (False, True):
        cfg = ContextConfig("symmetric", 2, distance_weighting=weighting)
        cooc = count_cooccurrences(corpus, vocab, cfg)
        path = tmp_path / f"cooc_{weighting}.txt"
        save_cooccurrence(cooc, path)
        loaded = load_cooccurrence(path)
        assert loaded.config == cfg
        assert np.array_equal(loaded.matrix.toarray(), cooc.matrix.toarray())


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "cooc.txt"
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_cooccurrence(path)
    for header in ({"cols": 3, "context_type": "symmetric", "window_size": 1}, [3]) + tuple(
        {"rows": rows, "cols": 444, "context_type": "symmetric", "window_size": 1}
        for rows in (444.7, "444", True)
    ):
        path.write_text(json.dumps(header) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="rows and cols"):
            load_cooccurrence(path)
    # a repeated (row, col) pair is ambiguous, not last-one-wins
    header = {"rows": 3, "cols": 3, "context_type": "symmetric", "window_size": 1}
    path.write_text(json.dumps(header) + "\n0\t1\t2\n1\t2\t1\n0\t1\t5\n", encoding="utf-8")
    with pytest.raises(DataError, match="more than one line"):
        load_cooccurrence(path)
    # counts must be finite and non-negative
    for count in ("-4", "nan", "inf"):
        path.write_text(json.dumps(header) + f"\n0\t1\t2\n1\t2\t{count}\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"{path}:3: count {count} "):
            load_cooccurrence(path)


def test_context_types_constant():
    assert CONTEXT_TYPES == ("asymmetric_backward", "asymmetric_forward", "symmetric")
