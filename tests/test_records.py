"""The tab-separated row rule that all four staged TSV readers share."""

import json

import pytest

from gendervec.cooccurrence import ContextConfig, load_cooccurrence
from gendervec.corpus import load_vocabulary
from gendervec.dataset import load_dataset_table
from gendervec.errors import DataError
from gendervec.lexicon import parse_lexicon

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
