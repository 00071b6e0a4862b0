"""The tab-separated row rule that all four staged TSV readers share,
the one invalid-UTF-8 rule of every reader of text or of words, and the
rule every config field declares."""

import functools
import json
import math

import numpy as np
import pytest

from gendervec import cli
from gendervec.classifier import RECORD_FIELDS, TrainConfig, load_prediction_records
from gendervec.cooccurrence import ContextConfig, load_cooccurrence
from gendervec.corpus import load_vocabulary
from gendervec.dataset import load_dataset_table, load_split_manifest
from gendervec.embedding import (
    EmbeddingConfig,
    EmbeddingMatrix,
    load_embedding,
    load_embedding_binary,
    load_embedding_text,
    save_embedding_binary,
)
from gendervec.errors import ConfigurationError, DataError
from gendervec.lexicon import parse_lexicon
from gendervec.pipeline import RunOptions
from gendervec.records import field_types, json_fields, load_record
from gendervec.synthetic import SyntheticSpec

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


@pytest.mark.parametrize("rows_before", [0, 1000])
def test_binary_embedding_names_the_bad_byte_offset(tmp_path, rows_before):
    # the bad word's length prefix and every row before it are read first
    words = [f"w{i}" for i in range(rows_before)] + ["hast"]
    path = tmp_path / "emb.bin"
    save_embedding_binary(EmbeddingMatrix(words, np.zeros((len(words), 2))), path)
    data = path.read_bytes()
    head = data[:data.rindex(b"hast")]
    path.write_bytes(head + b"h\xe5st" + data[len(head) + 4:])
    for load in (load_embedding_binary, load_embedding):
        with pytest.raises(DataError) as info:
            load(path)
        assert str(info.value) == f"{path}: invalid UTF-8 at byte offset {len(head) + 1}"


# each config record with one valid dict form
CONFIGS = {
    ContextConfig: {"context_type": "symmetric", "window_size": 1},
    EmbeddingConfig: {},
    TrainConfig: {},
    RunOptions: {},
    SyntheticSpec: {},
}


def _edges(rule, tp):
    """For each bound of ``rule``, the nearest ``tp`` value outside it and
    the nearest inside it, as an (outside, inside) pair."""
    step = {int: lambda v, d: v + d, float: lambda v, d: math.nextafter(v, d * math.inf)}[tp]
    pairs = []
    for bound, is_open, out in ((rule.lo, rule.open_lo, -1), (rule.hi, rule.open_hi, 1)):
        if bound is not None:
            pairs.append((tp(bound) if is_open else step(bound, out),
                          step(bound, -out) if is_open else tp(bound)))
    return pairs


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda cls: cls.__name__)
def test_every_config_number_declares_a_rule_that_nan_and_its_bounds_fail(cls):
    base = CONFIGS[cls]
    checked = 0
    for f, k in json_fields(cls):
        tp = field_types(cls)[f.name]
        rule = f.metadata.get("rule")
        if tp not in (int, float):
            assert rule is None or rule.choices is not None, k
            continue
        assert rule is not None and rule.choices is None, f"{cls.__name__}.{k} declares no range"
        # NaN fails the rule's own comparisons, so its rejection names the rule
        bad = [outside for outside, _ in _edges(rule, tp)] + [math.nan] * (tp is float)
        for value in bad:
            with pytest.raises(ConfigurationError) as info:
                cls.from_dict({**base, k: value})
            assert str(info.value) == f"{k} must be {rule}, got {value!r}"
        for value in [math.inf, -math.inf] * (tp is float):
            with pytest.raises(ConfigurationError, match=f"^{k} must be .*, got {value!r}$"):
                cls.from_dict({**base, k: value})
        for _, inside in _edges(rule, tp):
            assert getattr(cls.from_dict({**base, k: inside}), f.name) == inside
        checked += 1
    assert checked


def test_config_rejections_name_the_key_rule_and_value():
    for cls, data, message in (
        (ContextConfig, {"context_type": "up", "window_size": 1},
         "context_type must be one of ('asymmetric_backward', 'asymmetric_forward', "
         "'symmetric'), got 'up'"),
        (ContextConfig, {"context_type": "symmetric", "window_size": 6},
         "window_size must be in [1, 5], got 6"),
        (EmbeddingConfig, {"K": 0}, "K must be >= 1, got 0"),
        (EmbeddingConfig, {"alpha": 0}, "alpha must be > 0, got 0.0"),
        (EmbeddingConfig, {"alpha": math.inf}, "alpha must be finite, got inf"),
        (EmbeddingConfig, {"sigma_power": math.nan}, "sigma_power must be finite, got nan"),
        (TrainConfig, {"momentum": 1}, "momentum must be in [0, 1), got 1.0"),
        (SyntheticSpec, {"agreement_noise": math.nan}, "agreement_noise must be in [0, 1], got nan"),
        (SyntheticSpec, {"noun_count": 1}, "noun_count must be >= 2, got 1"),
        (RunOptions, {"ratios": [math.nan, 0.5, 0.5]}, "ratios must be positive, got (nan, 0.5, 0.5)"),
        (RunOptions, {"ratios": [math.inf, 0.5, 0.5]}, "ratios must sum to 1, got (inf, 0.5, 0.5)"),
    ):
        with pytest.raises(ConfigurationError) as info:
            cls.from_dict(data)
        assert str(info.value) == message
