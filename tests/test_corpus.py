from __future__ import annotations

import random

import numpy as np
import pytest

from gendervec.corpus import (
    NUMBER_TOKEN,
    Vocabulary,
    build_vocabulary,
    filter_by_frequency,
    load_vocabulary,
    normalize_line,
    read_sentences,
    save_vocabulary,
    word_index,
)
from gendervec.errors import ConfigurationError, DataError


def test_normalize_swedish_example():
    assert normalize_line("Han har 3 hundar.") == ["han", "har", "NUMBER", "hundar", "."]


def test_normalize_lowercases_words():
    assert normalize_line("Stockholm OCH Malmö") == ["stockholm", "och", "malmö"]


def test_normalize_number_with_separators():
    assert normalize_line("pi är 3,14") == ["pi", "är", "NUMBER"]
    assert normalize_line("kl 12:30") == ["kl", "NUMBER"]
    assert normalize_line("1.024 kronor") == ["NUMBER", "kronor"]


def test_normalize_digit_letter_mix_is_a_word():
    # The lookahead stops "3a" from matching as a number; it normalizes
    # as an ordinary word instead.
    assert normalize_line("3a") == ["3a"]


def test_normalize_splits_punctuation():
    assert normalize_line('Vad heter du?') == ["vad", "heter", "du", "?"]
    assert normalize_line('"citat", sa hon') == ['"', "citat", '"', ",", "sa", "hon"]


def test_normalize_preserves_number_token():
    # The literal placeholder must survive re-normalization, otherwise
    # normalizing an already-normalized corpus would corrupt it.
    assert normalize_line("NUMBER") == [NUMBER_TOKEN]
    assert normalize_line("number") == ["number"]


def test_normalize_idempotent():
    lines = [
        "Han har 3 hundar.",
        "NUMBER st, 4,5 kg!",
        "Ett äpple: 2 kronor",
    ]
    for line in lines:
        once = normalize_line(line)
        twice = normalize_line(" ".join(once))
        assert once == twice


def test_normalize_empty_line():
    assert normalize_line("") == []
    assert normalize_line("   ") == []


def test_read_sentences_skips_blank_lines(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("En hund.\n\nEtt hus.\n", encoding="utf-8")
    sentences = list(read_sentences(path))
    assert sentences == [["en", "hund", "."], ["ett", "hus", "."]]


def test_read_sentences_handles_crlf(tmp_path):
    path = tmp_path / "c.txt"
    path.write_bytes(b"rad ett\r\nrad tv\xc3\xa5\n")
    assert list(read_sentences(path)) == [["rad", "ett"], ["rad", "två"]]


def test_read_sentences_invalid_utf8(tmp_path):
    path = tmp_path / "c.txt"
    path.write_bytes(b"bra rad\nd\xe5lig rad\n")
    with pytest.raises(DataError) as err:
        list(read_sentences(path))
    assert "byte offset" in str(err.value)
    # offset of the bad byte: len("bra rad\n") + 1
    assert "9" in str(err.value)


def test_read_sentences_invalid_utf8_offset_counts_earlier_chunks(tmp_path, monkeypatch):
    monkeypatch.setattr("gendervec.corpus.READ_BYTES", 16)
    good = "en katt sover här\n".encode("utf-8")
    path = tmp_path / "c.txt"
    path.write_bytes(good * 5 + b"d\xe5lig rad\n" + good)
    with pytest.raises(DataError, match=f"invalid UTF-8 at byte offset {5 * len(good) + 1}$"):
        list(read_sentences(path))


# Whitespace that str.split() and the token regex both separate on,
# including \x1c, \x85 and \u2028, which str.splitlines() would take as
# line ends although the corpus format ends lines only at "\n".
_SPACES = ["\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2002", "\u2028", "\u3000", " ", "  "]
_PIECES = ["NUMBER", "number", "3d", "3.5d", "1.024,", "12:30.", "å", "ä", "ö", "İ", "²",
           "Han", "HUND", "3", "(x)", "a.b", "x²y", "٠١"]


def _random_line(rng: random.Random) -> str:
    parts = []
    for _ in range(rng.randrange(7)):
        parts.append(rng.choice(_SPACES) if rng.random() < 0.4 else "")
        parts.append("".join(rng.choice(_PIECES) for _ in range(rng.randrange(1, 3))))
    parts.append(rng.choice(_SPACES) if rng.random() < 0.3 else "")
    return "".join(parts)


@pytest.mark.parametrize("seed", range(4))
def test_read_sentences_equals_normalizing_whole_lines(tmp_path, monkeypatch, seed):
    # Small chunks and a tiny cache, so a file spans many chunks and
    # cached pieces are evicted and normalized again.
    monkeypatch.setattr("gendervec.corpus.READ_BYTES", 40)
    monkeypatch.setattr("gendervec.corpus.PIECE_CACHE_SIZE", 4)
    rng = random.Random(seed)
    lines = [_random_line(rng) for _ in range(300)]
    endings = ["\r\n" if rng.random() < 0.3 else "\n" for _ in lines]
    body = "".join(line + end for line, end in zip(lines, endings))
    cases = {
        "final newline": body,
        "no final newline": body.rstrip("\n"),
        "empty": "",
        "all blank": "\n \t\n\x85\r\n\u3000",
    }
    for name, text in cases.items():
        path = tmp_path / "c.txt"
        path.write_bytes(text.encode("utf-8"))
        # Split the way a binary line reader does: on "\n" only.
        expected = [s for s in map(normalize_line, text.split("\n")) if s]
        assert list(read_sentences(path)) == expected, name


def test_read_sentences_yields_unshared_lists(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("en hund .\nen hund .\n", encoding="utf-8")
    sentences = read_sentences(path)
    first = next(sentences)
    first.append("extra")
    assert next(sentences) == ["en", "hund", "."]


def test_build_vocabulary_orders_by_frequency_then_word():
    corpus = [["b", "a", "b"], ["a", "c", "b"]]
    vocab = build_vocabulary(corpus)
    # b:3, a:2, c:1
    assert vocab.ids["b"] == 0
    assert vocab.ids["a"] == 1
    assert vocab.ids["c"] == 2
    assert vocab.frequencies[vocab.ids["b"]] == 3
    assert vocab.frequencies.sum() == 6


def test_build_vocabulary_breaks_frequency_ties_alphabetically():
    vocab = build_vocabulary([["d", "c", "c", "d"]])
    assert vocab.ids["c"] == 0
    assert vocab.ids["d"] == 1


def test_filter_by_frequency_is_strict():
    vocab = build_vocabulary([["a"] * 5 + ["b"] * 3 + ["c"] * 3 + ["d"]])
    kept = filter_by_frequency(vocab, 3)
    assert "a" in kept.ids
    assert "b" not in kept.ids and "c" not in kept.ids and "d" not in kept.ids
    # ids are re-densified after filtering
    assert kept.ids["a"] == 0


def test_filter_by_frequency_zero_keeps_all():
    vocab = build_vocabulary([["a", "b"]])
    assert len(filter_by_frequency(vocab, 0)) == 2


def test_filter_by_frequency_negative():
    vocab = build_vocabulary([["a"]])
    with pytest.raises(ConfigurationError):
        filter_by_frequency(vocab, -1)


def test_vocabulary_rejects_duplicates_and_bad_freq():
    with pytest.raises(DataError):
        Vocabulary(("a", "a"), np.array([1, 2]))
    with pytest.raises(DataError):
        Vocabulary(("a",), np.array([0]))


def test_word_index_rejects_a_repeat_naming_the_source():
    assert word_index(("x", "y"), "the table") == {"x": 0, "y": 1}
    with pytest.raises(DataError, match="duplicate word in the table: 'y'"):
        word_index(("x", "y", "z", "y"), "the table")


def test_vocabulary_roundtrip(tmp_path):
    vocab = build_vocabulary([["en", "hund", "en", "katt"]])
    path = tmp_path / "vocab.tsv"
    save_vocabulary(vocab, path)
    loaded = load_vocabulary(path)
    assert loaded.words == vocab.words
    assert np.array_equal(loaded.frequencies, vocab.frequencies)


def test_load_vocabulary_validates_dense_ids(tmp_path):
    path = tmp_path / "vocab.tsv"
    path.write_text("word\tid\tfreq\na\t0\t5\nb\t2\t3\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_vocabulary(path)


def test_load_vocabulary_rejects_malformed_row(tmp_path):
    path = tmp_path / "vocab.tsv"
    path.write_text("word\tid\tfreq\na\t0\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_vocabulary(path)
    # a well-formed row of a bad value is an error naming the file
    for rows, message in (
        ("a\t0\t5\nb\t1\t0\n", "non-positive frequency for 'b'"),
        ("a\t0\t5\na\t1\t3\n", "duplicate word"),
        (f"a\t0\t{2**70}\n", "too large"),
    ):
        path.write_text(rows, encoding="utf-8")
        with pytest.raises(DataError, match=f"^{path}: .*{message}"):
            load_vocabulary(path)
