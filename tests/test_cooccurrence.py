from __future__ import annotations

import json
import random
import re

import numpy as np
import pytest
from scipy import sparse

import gendervec.cooccurrence as cooccurrence
from gendervec.cooccurrence import (
    CONTEXT_TYPES,
    ContextConfig,
    CoocMatrix,
    combine,
    count_by_distance,
    count_cooccurrences,
    load_cooccurrence,
    save_cooccurrence,
)
from gendervec.corpus import (
    Vocabulary,
    build_vocabulary,
    build_vocabulary_from_file,
    normalize_line,
    read_sentences,
    read_token_ids,
    token_ids,
)
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
                key = (ids[j], target)
                counts[key] = counts.get(key, 0) + 1
    n = len(vocab)
    keys = sorted(counts)
    rows = np.array([k[0] for k in keys], dtype=np.int64)
    cols = np.array([k[1] for k in keys], dtype=np.int64)
    data = np.array([counts[k] for k in keys], dtype=np.int64)
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
    by_distance = count_by_distance(token_ids(corpus, vocab), len(vocab), 5)
    for context_type in CONTEXT_TYPES:
        for w in range(1, 6):
            cfg = ContextConfig(context_type, w)
            expected = _reference_counts(corpus, vocab, cfg)
            grid_cell = combine(by_distance, cfg).matrix
            direct = count_cooccurrences(corpus, vocab, cfg).matrix
            for got in (grid_cell, direct):
                assert got.dtype == np.int64
                assert np.array_equal(got.indptr, expected.indptr)
                assert np.array_equal(got.indices, expected.indices)
                assert np.array_equal(got.data, expected.data)


def test_count_by_distance_counts_exact_offsets():
    corpus = [["a", "b", "c"], ["c", "a"]]
    vocab = build_vocabulary(corpus)
    d1, d2 = count_by_distance(token_ids(corpus, vocab), len(vocab), 2)
    ids = vocab.ids
    assert d1[ids["a"], ids["b"]] == 1 and d1[ids["b"], ids["c"]] == 1
    assert d1[ids["c"], ids["a"]] == 1
    assert d1.sum() == 3
    # only a..c is two apart; nothing pairs across the sentence break
    assert d2[ids["a"], ids["c"]] == 1
    assert d2.sum() == 1


def test_combine_rejects_window_beyond_counted_distances():
    vocab, corpus = _vocab_and_corpus()
    by_distance = count_by_distance(token_ids(corpus, vocab), len(vocab), 2)
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
    cfg = ContextConfig("asymmetric_forward", 3)
    assert cfg.to_dict() == {"context_type": "asymmetric_forward", "window_size": 3}
    assert ContextConfig.from_dict(cfg.to_dict()) == cfg
    # a record written before counts were only ever unweighted still
    # loads when it says so, and one weighted by distance never does
    assert ContextConfig.from_dict({**cfg.to_dict(), "distance_weighting": False}) == cfg
    for weighted in (True, "no", 1, None):
        with pytest.raises(DataError, match="'distance_weighting' must be false"):
            ContextConfig.from_dict({**cfg.to_dict(), "distance_weighting": weighted})
    # the cooc header carries the matrix dims next to the config
    header = {"rows": 4, "cols": 4, "context_type": "symmetric", "window_size": 2.0}
    loaded = ContextConfig.from_dict(header)
    assert loaded == ContextConfig("symmetric", 2)
    assert type(loaded.window_size) is int
    with pytest.raises(DataError, match="context_type"):
        ContextConfig.from_dict({})
    with pytest.raises(DataError, match="window_size"):
        ContextConfig.from_dict({"context_type": "symmetric"})
    with pytest.raises(ConfigurationError, match=re.escape("window_size must be in [1, 5], got 8")):
        ContextConfig.from_dict({"context_type": "symmetric", "window_size": 8})
    # a value that cannot take the field's type names its key
    # and so does an int field given a bool or a non-integral number
    for bad in ("x", [1], float("inf"), 2.7, True):
        with pytest.raises(DataError, match="window_size"):
            ContextConfig.from_dict({"context_type": "symmetric", "window_size": bad})


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


def test_entries_sorted_and_complete(tmp_path):
    # the saved file lists every stored triplet once, in (row, col) order
    vocab, corpus = _vocab_and_corpus()
    cooc = count_cooccurrences(corpus, vocab, ContextConfig("symmetric", 2))
    path = tmp_path / "cooc.txt"
    save_cooccurrence(cooc, path)
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    entries = [tuple(map(int, line.split("\t"))) for line in lines]
    assert entries == sorted(entries, key=lambda e: (e[0], e[1]))
    assert len(entries) == cooc.nnz
    assert all(cooc.matrix[r, c] == v for r, c, v in entries)
    assert sum(v for _, _, v in entries) == cooc.total


def test_save_load_roundtrip(tmp_path):
    vocab, corpus = _vocab_and_corpus()
    cfg = ContextConfig("symmetric", 2)
    cooc = count_cooccurrences(corpus, vocab, cfg)
    path = tmp_path / "cooc.txt"
    save_cooccurrence(cooc, path)
    loaded = load_cooccurrence(path)
    assert loaded.config == cfg
    assert loaded.matrix.dtype == np.int64
    assert np.array_equal(loaded.matrix.toarray(), cooc.matrix.toarray())
    # a count file written with the key still loads when the key is false
    lines = path.read_text(encoding="utf-8").split("\n", 1)
    for weighted, loads in ((False, True), (True, False)):
        header = {**json.loads(lines[0]), "distance_weighting": weighted}
        path.write_text(json.dumps(header) + "\n" + lines[1], encoding="utf-8")
        if loads:
            assert load_cooccurrence(path).config == cfg
        else:
            message = f"{path}: ContextConfig: 'distance_weighting' must be false"
            with pytest.raises(DataError, match=re.escape(message)):
                load_cooccurrence(path)


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
    path.write_text(json.dumps({"rows": 3, "cols": 4, "context_type": "symmetric",
                                "window_size": 1}) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: non-square dims in header$"):
        load_cooccurrence(path)
    # a repeated (row, col) pair is ambiguous, not last-one-wins
    header = {"rows": 3, "cols": 3, "context_type": "symmetric", "window_size": 1}
    path.write_text(json.dumps(header) + "\n0\t1\t2\n1\t2\t1\n0\t1\t5\n", encoding="utf-8")
    with pytest.raises(DataError, match="more than one line"):
        load_cooccurrence(path)
    # counts must be non-negative integers
    for count in ("-4", "nan", "inf"):
        path.write_text(json.dumps(header) + f"\n0\t1\t2\n1\t2\t{count}\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"{path}:3: count {count} "):
            load_cooccurrence(path)


_HEADER = {"rows": 3, "cols": 3, "context_type": "symmetric", "window_size": 1}


@pytest.mark.parametrize(
    "body, message",
    [
        ("0\t1\t2\n\n1\t2\n", "4: expected 3 tab-separated fields"),
        ("0\t1\t2\t3\n", "2: expected 3 tab-separated fields"),
        ("0\t1\t2\nx\t1\t2\n", "3: malformed triplet"),
        ("0\t1.5\t2\n", "2: malformed triplet"),
        ("0\t1\t2,5\n", "2: count 2,5 is not an int64 >= 0"),
        ("0\t1\t1.5\n", "2: count 1.5 is not an int64 >= 0"),
        ("0\t1\t2.0\n", "2: count 2.0 is not an int64 >= 0"),
        ("0\t1\t2\n1\t2\tnan\n", "3: count nan is not an int64 >= 0"),
        ("0\t1\tinf\n", "2: count inf is not an int64 >= 0"),
        ("0\t1\t9223372036854775807\n0\t2\t9223372036854775808\n",
         "3: count 9223372036854775808 is not an int64 >= 0"),
        ("0\t1\t2\n3\t0\t1\n", "3: index out of range"),
        ("0\t-1\t1\n", "2: index out of range"),
        ("99999999999999999999\t0\t1\n", "2: index out of range"),
        # the first bad line wins, and within a line the order of the checks
        ("0\t9\t1\n0\tx\t1\n1\t2\n", "2: index out of range"),
        ("x\t9\tnan\n", "2: malformed triplet"),
        ("9\t0\tnan\n", "2: index out of range"),
        ("1\t1\t-0.5\n0\t9\t1\n", "2: count -0.5 is not an int64 >= 0"),
    ],
)
def test_load_reports_the_first_bad_line(tmp_path, body, message):
    path = tmp_path / "cooc.txt"
    path.write_text(json.dumps(_HEADER) + "\n" + body, encoding="utf-8")
    with pytest.raises(DataError, match=f"^{re.escape(f'{path}:{message}')}$"):
        load_cooccurrence(path)


def test_total_sums_counts_past_the_int64_range():
    matrix = sparse.csr_array(np.array([[2**62, 2**62], [0, 1]], dtype=np.int64))
    assert CoocMatrix(matrix, ContextConfig("symmetric", 1)).total == 2**63 + 1


def test_cooc_matrix_must_be_square():
    matrix = sparse.csr_array(np.ones((2, 3), dtype=np.int64))
    with pytest.raises(ConfigurationError, match=re.escape("expected a square matrix, got (2, 3)")):
        CoocMatrix(matrix, ContextConfig("symmetric", 1))


@pytest.mark.parametrize("seed", range(6))
def test_count_files_load_in_bulk_and_line_by_line_alike(tmp_path, monkeypatch, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 30))
    # seed 0 writes no entry at all
    dense = rng.integers(0, 2**63 - 1, (n, n), dtype=np.int64, endpoint=True)
    dense[rng.random((n, n)) > (0.3 if seed else 0.0)] = 0
    if seed:
        dense[rng.integers(n), rng.integers(n)] = 2**63 - 1
    path = tmp_path / "cooc.txt"
    save_cooccurrence(CoocMatrix(sparse.csr_array(dense), ContextConfig("symmetric", 2)), path)
    parsed_by_line = []
    read_rows = cooccurrence.read_rows

    def spy(*args, **kwargs):
        parsed_by_line.append(args[0])
        return read_rows(*args, **kwargs)

    monkeypatch.setattr(cooccurrence, "read_rows", spy)
    header, body = path.read_bytes().split(b"\n", 1)
    twins = {
        "as saved": body,
        "blank lines and leading zeros": b"\n0" + body.replace(b"\n", b"\n\n0")[:-1] if body else b"\n",
        "CRLF": body.replace(b"\n", b"\r\n"),
    }
    for name, twin in twins.items():
        path.write_bytes(header + b"\n" + twin)
        parsed_by_line.clear()
        loaded = load_cooccurrence(path)
        assert loaded.matrix.dtype == np.int64, name
        assert np.array_equal(loaded.matrix.toarray(), dense), name
        # numpy's parser reads every twin with a row but the CRLF one
        assert parsed_by_line == ([] if dense.any() and name != "CRLF" else [path]), name


def test_context_types_constant():
    assert CONTEXT_TYPES == ("asymmetric_backward", "asymmetric_forward", "symmetric")


def test_save_writes_exact_bytes(tmp_path):
    # counts print as the integers they are, up to the int64 maximum
    values = np.array([2, 1, 3, 2**63 - 1], dtype=np.int64)
    rows, cols = np.array([0, 1, 2, 2]), np.array([1, 0, 0, 2])
    matrix = sparse.csr_array((values, (rows, cols)), shape=(3, 3))
    path = tmp_path / "cooc.txt"
    save_cooccurrence(CoocMatrix(matrix, ContextConfig("symmetric", 2)), path)
    assert path.read_bytes() == (
        b'{"cols": 3, "context_type": "symmetric", "rows": 3, "window_size": 2}\n'
        b"0\t1\t2\n"
        b"1\t0\t1\n"
        b"2\t0\t3\n"
        b"2\t2\t9223372036854775807\n"
    )
    assert np.array_equal(load_cooccurrence(path).matrix.toarray(), matrix.toarray())


# Pieces that normalize to one token or several, with case, numbers,
# punctuation and out-of-vocabulary words; and whitespace that str.split()
# separates on but that ends no line.
_FILE_PIECES = ["hund", "Hund", "hund.", "katt", "3d,", "12:30.", "3", "NUMBER", "?", "en",
                "ett", "åsna", "oov", "oovx", "«ja»"]
_FILE_SPACES = [" ", "  ", "\t", "\x1c", "\x85", "\xa0", "\u2003", "\u3000"]
_DROPPED = ("oov", "oovx", "?")


def _random_corpus_text(rng: random.Random) -> str:
    lines = []
    for _ in range(rng.randrange(60)):
        roll = rng.random()
        if roll < 0.15:
            line = rng.choice(["", " ", "\u3000"])
        elif roll < 0.3:
            line = rng.choice(_FILE_PIECES)
        else:
            line = "".join(
                rng.choice(_FILE_SPACES) + rng.choice(_FILE_PIECES)
                for _ in range(rng.randrange(1, 12))
            )
        lines.append(line + ("\r\n" if rng.random() < 0.3 else "\n"))
    text = "".join(lines)
    return text.rstrip("\n") if rng.random() < 0.5 else text


def _joined(chunks) -> tuple[np.ndarray, np.ndarray]:
    """The ids and the sizes of ``(ids, sizes)`` chunks, each concatenated."""
    ids, sizes = [np.empty(0, np.int64)], [np.empty(0, np.intp)]
    for chunk_ids, chunk_sizes in chunks:
        ids.append(chunk_ids)
        sizes.append(chunk_sizes)
    return np.concatenate(ids), np.concatenate(sizes)


@pytest.mark.parametrize("seed", range(8))
def test_file_path_matches_sentence_path(tmp_path, monkeypatch, seed):
    # Tiny chunks, batches and blocks, so every block holds several chunks
    # and a sentence path batch ends inside a block.
    monkeypatch.setattr("gendervec.corpus.READ_BYTES", 24)
    monkeypatch.setattr(cooccurrence, "BLOCK_TOKENS", 8)
    monkeypatch.setattr("gendervec.corpus.BATCH_SENTENCES", 3)
    rng = random.Random(seed)
    path = tmp_path / "c.txt"
    for text in (_random_corpus_text(rng), ""):
        path.write_bytes(text.encode("utf-8"))
        sentences = [s for s in map(normalize_line, text.split("\n")) if s]
        assert list(read_sentences(path)) == sentences
        vocab = build_vocabulary_from_file(path)
        expected = build_vocabulary(sentences)
        assert vocab.words == expected.words
        assert np.array_equal(vocab.frequencies, expected.frequencies)
        keep = [i for i, word in enumerate(vocab.words) if word not in _DROPPED]
        vocab = Vocabulary(tuple(vocab.words[i] for i in keep), vocab.frequencies[keep])
        got_ids, got_sizes = _joined(read_token_ids(path, vocab))
        want_ids, want_sizes = _joined(token_ids(read_sentences(path), vocab))
        assert np.array_equal(got_ids, want_ids)
        assert np.array_equal(got_sizes[got_sizes > 0], want_sizes)
        for max_window in range(1, 6):
            got = count_by_distance(read_token_ids(path, vocab), len(vocab), max_window)
            want = count_by_distance(token_ids(sentences, vocab), len(vocab), max_window)
            assert len(got) == len(want) == max_window
            for g, w in zip(got, want):
                assert np.array_equal(g.indptr, w.indptr)
                assert np.array_equal(g.indices, w.indices)
                assert np.array_equal(g.data, w.data)


def test_file_path_reports_the_bad_byte_offset(tmp_path, monkeypatch):
    monkeypatch.setattr("gendervec.corpus.READ_BYTES", 16)
    good = "en katt sover här\n".encode("utf-8")
    path = tmp_path / "c.txt"
    path.write_bytes(good * 5 + b"d\xe5lig rad\n" + good)
    vocab = build_vocabulary([["en", "katt"]])
    message = f"invalid UTF-8 at byte offset {5 * len(good) + 1}$"
    with pytest.raises(DataError, match=message):
        build_vocabulary_from_file(path)
    with pytest.raises(DataError, match=message):
        count_by_distance(read_token_ids(path, vocab), len(vocab), 2)
