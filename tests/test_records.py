"""The tab-separated row rule that all four staged TSV readers share,
and the one invalid-UTF-8 rule of every text reader."""

import functools
import json

import pytest

from gendervec import cli
from gendervec.classifier import RECORD_FIELDS, load_prediction_records
from gendervec.cooccurrence import ContextConfig, load_cooccurrence
from gendervec.corpus import load_vocabulary
from gendervec.dataset import load_dataset_table, load_split_manifest
from gendervec.embedding import load_embedding_text
from gendervec.errors import ConfigurationError, DataError
from gendervec.lexicon import parse_lexicon
from gendervec.records import load_record

COOC_HEADER = json.dumps({"rows": 2, "cols": 2, **ContextConfig("symmetric", 1).to_dict()})

# reader, header lines, two good rows, the expected-fields message, and
# what a loaded file is compared by
READERS = {
    "vocabulary": (
        load_vocabulary, [], ["hus\t0\t5", "bil\t1\t3"], "3 tab-separated fields",
        lambda v: (v.words, v.frequencies.tolist()),
    ),
    "dataset": (
        load_dataset_table, [], ["hus\tneuter\t5", "bil\tuter\t3"],
        "word<TAB>gender<TAB>frequency",
        lambda d: (d.words, d.labels.tolist(), d.frequencies.tolist()),
    ),
    "lexicon": (
        parse_lexicon, [], ["hus\tn", "bil\tu"], "word<TAB>code",
        lambda lex: list(lex.items()),
    ),
    "cooccurrence": (
        load_cooccurrence, [COOC_HEADER], ["0\t1\t5", "1\t0\t3"], "3 tab-separated fields",
        lambda c: (c.matrix.toarray().tolist(), c.config),
    ),
}


def _write(tmp_path, lines, ending="\n", name="rows.tsv"):
    path = tmp_path / name
    path.write_bytes("".join(line + ending for line in lines).encode("utf-8"))
    return path


@pytest.mark.parametrize("bad_row", ["one-field", "a\tb\tc\td", "\t\t\t\t"])
@pytest.mark.parametrize("reader", sorted(READERS))
def test_wrong_field_count_names_its_line(tmp_path, reader, bad_row):
    load, header, good, expected, _ = READERS[reader]
    # blank lines count toward the line number
    lines = [*header, good[0], "", good[1], "", bad_row, good[0]]
    path = _write(tmp_path, lines)
    lineno = len(header) + 5
    with pytest.raises(DataError) as info:
        load(path)
    assert str(info.value) == f"{path}:{lineno}: expected {expected}"


@pytest.mark.parametrize("reader", sorted(READERS))
def test_crlf_file_loads_as_its_lf_twin(tmp_path, reader):
    load, header, good, _, contents = READERS[reader]
    lines = [*header, "", good[0], "", good[1], ""]
    lf = load(_write(tmp_path, lines, "\n", "lf.tsv"))
    crlf = load(_write(tmp_path, lines, "\r\n", "crlf.tsv"))
    assert contents(crlf) == contents(lf)
    assert len(contents(lf)[0]) == 2


@pytest.mark.parametrize("blank_lines", [0, 10_000])
@pytest.mark.parametrize("reader", sorted(READERS))
def test_invalid_utf8_names_its_file_offset(tmp_path, reader, blank_lines):
    load, header, good, _, _ = READERS[reader]
    # ten thousand blank lines put the bad byte past the text layer's first read
    head = "".join(line + "\n" for line in [*header, *good]).encode("utf-8")
    head += b"\n" * blank_lines
    path = tmp_path / "rows.tsv"
    path.write_bytes(head + b"h\xe5st\tu\n" + good[0].encode("utf-8") + b"\n")
    with pytest.raises(DataError) as info:
        load(path)
    assert str(info.value) == f"{path}: invalid UTF-8 at byte offset {len(head) + 1}"


# reader, the bytes before a run of spaces, the bytes after it (whose
# second byte is not UTF-8), and the error a config file's bad byte gives
TEXT_READERS = {
    "embedding text": (load_embedding_text, b"1 2\n", b"h\xe5st 0.5 0.5\n", DataError),
    "split manifest": (
        load_split_manifest, b'{"seed": 0, "ratios": [0.8, 0.1, 0.1], "partitions": {"train": [',
        b'"\xe5st"], "dev": [], "test": []}}', DataError,
    ),
    "record": (
        functools.partial(load_record, ContextConfig), b'{"context_type": ',
        b'"\xe5st", "window_size": 1}', DataError,
    ),
    "prediction records": (
        load_prediction_records, ",".join(RECORD_FIELDS).encode() + b"\n",
        b"h\xe5st,uter,uter,0.9,0.1,0.3,5\n", DataError,
    ),
    "cli config": (cli._load_config, b'{"context_type": ', b'"\xe5st"}', ConfigurationError),
}


@pytest.mark.parametrize("spaces", [0, 10_000])
@pytest.mark.parametrize("reader", sorted(TEXT_READERS))
def test_every_text_reader_names_the_bad_byte_offset(tmp_path, reader, spaces):
    load, head, tail, error = TEXT_READERS[reader]
    # ten thousand spaces put the bad byte past the text layer's first read
    head += b" " * spaces
    path = tmp_path / "file"
    path.write_bytes(head + tail)
    with pytest.raises(error) as info:
        load(path)
    assert str(info.value) == f"{path}: invalid UTF-8 at byte offset {len(head) + 1}"
