"""End-to-end checks for the command-line front end.

A module fixture drives every subcommand once, in stage order, on a
small generated corpus; the remaining tests poke at exit codes and the
flag-over-config-over-default resolution.
"""

import json
import shutil
import struct

import pytest

from gendervec import cli, cooccurrence, corpus, embedding, pipeline, synthetic
from gendervec.classifier import TrainConfig
from gendervec.cli import main
from gendervec.cooccurrence import ContextConfig
from gendervec.embedding import EmbeddingConfig
from gendervec.errors import DataError


REPORT_FILES = {
    "eval_report.json", "stats.json",
    "entropy_vs_frequency.csv", "entropy_vs_frequency.svg",
    "entropy_histogram.svg", "errors.csv",
    "projection.csv", "projection.svg",
    "deciles.csv", "deciles.svg",
}


@pytest.fixture(scope="module")
def flow(tmp_path_factory):
    """Run synth through report once and hand back the artifact paths."""
    root = tmp_path_factory.mktemp("flow")
    p = {name: str(root / name) for name in (
        "corpus.txt", "lexicon.tsv", "vocab.tsv", "cooc.bin", "emb.bin",
        "dataset.tsv", "summary.json", "deciles.json", "split.json",
        "model.bin", "eval", "report",
    )}
    steps = [
        ["synth", "--out-corpus", p["corpus.txt"], "--out-lexicon", p["lexicon.tsv"],
         "--nouns", "60", "--fillers", "6", "--sentences", "2000", "--seed", "1"],
        ["ingest", "--corpus", p["corpus.txt"], "--out", p["vocab.tsv"]],
        ["cooc", "--corpus", p["corpus.txt"], "--vocab", p["vocab.tsv"],
         "--out", p["cooc.bin"],
         "--context-type", "asymmetric_backward", "--window-size", "1"],
        ["embed", "--cooc", p["cooc.bin"], "--vocab", p["vocab.tsv"],
         "--out", p["emb.bin"], "--binary", "--dim", "8", "--seed", "0"],
        ["label", "--embedding", p["emb.bin"], "--lexicon", p["lexicon.tsv"],
         "--vocab", p["vocab.tsv"], "--out", p["dataset.tsv"],
         "--summary", p["summary.json"], "--deciles", p["deciles.json"]],
        ["split", "--dataset", p["dataset.tsv"], "--out", p["split.json"],
         "--split-seed", "0"],
        ["train", "--embedding", p["emb.bin"], "--dataset", p["dataset.tsv"],
         "--split", p["split.json"], "--out", p["model.bin"],
         "--max-epochs", "30", "--hidden-size", "8", "--seed", "0"],
        ["eval", "--embedding", p["emb.bin"], "--dataset", p["dataset.tsv"],
         "--split", p["split.json"], "--model", p["model.bin"],
         "--out", p["eval"], "--n-perm", "500", "--stats-seed", "0"],
        ["report", "--eval-dir", p["eval"], "--out", p["report"],
         "--embedding", p["emb.bin"], "--dataset", p["dataset.tsv"]],
    ]
    for argv in steps:
        assert main(argv) == 0, f"stage {argv[0]} failed"
    return p


def test_flow_embedding_is_binary_with_requested_dim(flow):
    emb = embedding.load_embedding_binary(flow["emb.bin"])
    assert emb.k == 8
    assert len(emb) > 60  # nouns plus articles and fillers


def test_flow_label_summary_counts_lexicon_codes(flow):
    with open(flow["summary.json"], encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["u"] == 42
    assert summary["n"] == 18
    assert summary["total"] == 60


def test_label_summary_counts_every_code_and_labels_only_u_n(flow, tmp_path):
    # four vocabulary words outside the lexicon, coded p, p, v and unspecified
    with open(flow["lexicon.tsv"], encoding="utf-8") as fh:
        rows = fh.read()
    nouns = {line.split("\t")[0] for line in rows.splitlines()}
    with open(flow["vocab.tsv"], encoding="utf-8") as fh:
        others = [line.split("\t")[0] for line in fh if line.split("\t")[0] not in nouns]
    lexicon = tmp_path / "lexicon.tsv"
    extra = zip(others, ("p", "p", "v", ""))
    lexicon.write_text(rows + "".join(f"{w}\t{c}\n" for w, c in extra), encoding="utf-8")
    out, summary = tmp_path / "dataset.tsv", tmp_path / "summary.json"
    assert main(["label", "--embedding", flow["emb.bin"], "--lexicon", str(lexicon),
                 "--vocab", flow["vocab.tsv"], "--out", str(out),
                 "--summary", str(summary)]) == 0
    assert json.loads(summary.read_text(encoding="utf-8")) == {
        "u": 42, "n": 18, "p": 2, "v": 1, "unspecified": 1, "total": 64,
    }
    with open(flow["dataset.tsv"], encoding="utf-8") as fh:
        assert out.read_text(encoding="utf-8") == fh.read()


def test_flow_label_deciles_cover_the_dataset(flow):
    with open(flow["deciles.json"], encoding="utf-8") as fh:
        deciles = json.load(fh)
    assert sum(deciles["group_sizes"]) == 60
    assert len(deciles["uter_shares"]) == 10


def test_label_deciles_of_too_few_words_writes_nothing(flow, tmp_path, capsys):
    # eight labeled words, two short of what deciles need
    with open(flow["lexicon.tsv"], encoding="utf-8") as fh:
        rows = fh.readlines()[:8]
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("".join(rows), encoding="utf-8")
    outputs = [tmp_path / name for name in ("dataset.tsv", "summary.json", "deciles.json")]
    rc = main(["label", "--embedding", flow["emb.bin"], "--lexicon", str(lexicon),
               "--vocab", flow["vocab.tsv"], "--out", str(outputs[0]),
               "--summary", str(outputs[1]), "--deciles", str(outputs[2])])
    assert rc == 3
    assert "at least 10 examples" in capsys.readouterr().err
    assert not any(path.exists() for path in outputs)


@pytest.mark.parametrize("missing", ["--summary", "--deciles"])
def test_label_output_in_a_missing_directory_writes_nothing(flow, tmp_path, capsys, missing):
    outputs = {"--out": tmp_path / "dataset.tsv", "--summary": tmp_path / "summary.json",
               "--deciles": tmp_path / "deciles.json"}
    outputs[missing] = tmp_path / "missing" / outputs[missing].name
    rc = main(["label", "--embedding", flow["emb.bin"], "--lexicon", flow["lexicon.tsv"],
               "--vocab", flow["vocab.tsv"],
               *(arg for flag, path in outputs.items() for arg in (flag, str(path)))])
    assert rc == 3
    assert capsys.readouterr().err == f"error: {outputs[missing]}: its directory does not exist\n"
    assert not any(path.exists() for path in outputs.values())


def test_flow_split_manifest_partitions_the_dataset(flow):
    with open(flow["split.json"], encoding="utf-8") as fh:
        manifest = json.load(fh)
    parts = manifest["partitions"]
    assert sorted(parts) == ["dev", "test", "train"]
    assert sum(len(words) for words in parts.values()) == 60
    assert len(manifest["test_digest"]) == 64


def test_flow_eval_artifacts(flow):
    with open(f"{flow['eval']}/eval_report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    with open(flow["split.json"], encoding="utf-8") as fh:
        n_test = len(json.load(fh)["partitions"]["test"])
    assert report["n"] == n_test
    assert 0.0 <= report["accuracy"] <= 1.0
    with open(f"{flow['eval']}/records.csv", encoding="utf-8") as fh:
        assert len(fh.readlines()) == n_test + 1  # header
    with open(f"{flow['eval']}/stats.json", encoding="utf-8") as fh:
        stats = json.load(fh)
    assert "entropy_permutation" in stats
    assert "mean_entropy_correct" in stats


def test_flow_report_emits_expected_files(flow):
    import os
    assert set(os.listdir(flow["report"])) == REPORT_FILES


def test_flow_report_carries_eval_results_byte_for_byte(flow):
    for name in ("eval_report.json", "stats.json"):
        with open(f"{flow['eval']}/{name}", "rb") as fh:
            evaluated = fh.read()
        with open(f"{flow['report']}/{name}", "rb") as fh:
            assert fh.read() == evaluated, name


def test_tune_restricted_grid_and_grid_report(flow, tmp_path):
    out = tmp_path / "tune"
    rc = main([
        "tune", "--corpus", flow["corpus.txt"], "--lexicon", flow["lexicon.tsv"],
        "--out", str(out),
        "--context-types", "asymmetric_backward,asymmetric_forward",
        "--window-sizes", "1",
        "--dim", "8", "--max-epochs", "15", "--hidden-size", "8",
    ])
    assert rc == 0
    with open(out / "grid.json", encoding="utf-8") as fh:
        grid = json.load(fh)
    assert len(grid["cells"]) == 2
    types = [c["context"]["context_type"] for c in grid["cells"]]
    assert types == ["asymmetric_backward", "asymmetric_forward"]
    assert grid["best"]["context_type"] == "asymmetric_backward"
    assert (out / "split_manifest.json").exists()

    # feeding the grid back into report adds the accuracy-by-window plot
    report_dir = tmp_path / "report"
    rc = main([
        "report", "--eval-dir", flow["eval"], "--out", str(report_dir),
        "--grid", str(out / "grid.json"),
    ])
    assert rc == 0
    names = {f.name for f in report_dir.iterdir()}
    assert "grid_accuracy.csv" in names
    assert "grid_accuracy.svg" in names


def test_missing_input_file_exits_three(tmp_path, capsys):
    rc = main(["ingest", "--corpus", str(tmp_path / "nope.txt"),
               "--out", str(tmp_path / "vocab.tsv")])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_empty_vocabulary_exits_three(flow, tmp_path, capsys):
    rc = main(["ingest", "--corpus", flow["corpus.txt"],
               "--out", str(tmp_path / "vocab.tsv"),
               "--vocab-min-freq", "1000000"])
    assert rc == 3
    assert "frequency filter" in capsys.readouterr().err


def test_overflowing_alpha_exits_four(flow, tmp_path, capsys):
    rc = main(["embed", "--cooc", flow["cooc.bin"], "--vocab", flow["vocab.tsv"],
               "--out", str(tmp_path / "emb.txt"), "--dim", "8",
               "--alpha", "2000"])
    assert rc == 4
    assert "overflow" in capsys.readouterr().err


def test_embed_without_cooc_or_corpus_exits_two(flow, tmp_path):
    # --cooc is the one input route, so argparse rejects its absence
    with pytest.raises(SystemExit) as exc:
        main(["embed", "--vocab", flow["vocab.tsv"], "--out", str(tmp_path / "emb.txt")])
    assert exc.value.code == 2


def test_cooc_without_pairs_exits_three(tmp_path, capsys):
    # every sentence is one word, so no two vocabulary words share a window
    text, vocab = str(tmp_path / "c.txt"), str(tmp_path / "vocab.tsv")
    with open(text, "w", encoding="utf-8") as fh:
        fh.write("a\nb\nc\na\n")
    assert main(["ingest", "--corpus", text, "--out", vocab]) == 0
    out = tmp_path / "cooc.txt"
    assert main(["cooc", "--corpus", text, "--vocab", vocab, "--out", str(out),
                 "--context-type", "symmetric", "--window-size", "2"]) == 3
    assert "no two vocabulary words share a window" in capsys.readouterr().err
    assert not out.exists()


def test_embed_of_counts_without_pairs_exits_three(tmp_path, capsys):
    # a count file with no entries, as the library saves it for a corpus
    # whose sentences are all one word long
    text, vocab, cooc = (str(tmp_path / name) for name in ("c.txt", "vocab.tsv", "cooc.txt"))
    with open(text, "w", encoding="utf-8") as fh:
        fh.write("".join(f"w{i % 7}\n" for i in range(50)))
    assert main(["ingest", "--corpus", text, "--out", vocab]) == 0
    counts = cooccurrence.count_cooccurrences(
        corpus.read_sentences(text), corpus.load_vocabulary(vocab), ContextConfig("symmetric", 2)
    )
    assert counts.nnz == 0
    cooccurrence.save_cooccurrence(counts, cooc)
    out = tmp_path / "emb.bin"
    assert main(["embed", "--cooc", cooc, "--vocab", vocab, "--out", str(out),
                 "--binary", "--dim", "2"]) == 3
    assert "no nonzero count" in capsys.readouterr().err
    assert not out.exists()


def test_ingest_and_cooc_read_the_corpus_once_each(flow, tmp_path, chunk_reads):
    vocab = str(tmp_path / "vocab.tsv")
    assert main(["ingest", "--corpus", flow["corpus.txt"], "--out", vocab]) == 0
    assert chunk_reads == [flow["corpus.txt"]]
    assert main(["cooc", "--corpus", flow["corpus.txt"], "--vocab", vocab,
                 "--out", str(tmp_path / "cooc.txt"), "--context-type", "symmetric",
                 "--window-size", "3"]) == 0
    assert chunk_reads == [flow["corpus.txt"]] * 2


def test_cooc_without_context_exits_two(flow, tmp_path, capsys):
    rc = main(["cooc", "--corpus", flow["corpus.txt"], "--vocab", flow["vocab.tsv"],
               "--out", str(tmp_path / "cooc.txt")])
    assert rc == 2
    assert "missing required option --context-type" in capsys.readouterr().err


def test_tune_malformed_window_sizes_exits_two(flow, tmp_path, capsys):
    rc = main(["tune", "--corpus", flow["corpus.txt"],
               "--lexicon", flow["lexicon.tsv"], "--out", str(tmp_path / "t"),
               "--window-sizes", "1,x"])
    assert rc == 2
    assert "window-sizes" in capsys.readouterr().err


def test_tune_dim_above_the_vocabulary_exits_two(flow, tmp_path, capsys):
    out = tmp_path / "t"
    rc = main(["tune", "--corpus", flow["corpus.txt"], "--lexicon", flow["lexicon.tsv"],
               "--out", str(out), "--dim", "5000"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: K must be <= ")
    assert not out.exists()


def test_bad_context_type_choice_is_a_usage_error(flow, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["cooc", "--corpus", flow["corpus.txt"], "--vocab", flow["vocab.tsv"],
              "--out", str(tmp_path / "c.bin"),
              "--context-type", "sideways", "--window-size", "1"])
    assert exc.value.code == 2


def test_missing_required_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["split"])
    assert exc.value.code == 2


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_config_file_supplies_embedding_dim(flow, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"K": 4}), encoding="utf-8")
    out = tmp_path / "emb.txt"
    rc = main(["embed", "--cooc", flow["cooc.bin"], "--vocab", flow["vocab.tsv"],
               "--out", str(out), "--config", str(cfg)])
    assert rc == 0
    assert embedding.load_embedding_text(str(out)).k == 4


def test_flag_overrides_config_file(flow, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"K": 4}), encoding="utf-8")
    out = tmp_path / "emb.txt"
    rc = main(["embed", "--cooc", flow["cooc.bin"], "--vocab", flow["vocab.tsv"],
               "--out", str(out), "--config", str(cfg), "--dim", "6"])
    assert rc == 0
    assert embedding.load_embedding_text(str(out)).k == 6


def test_config_keys_are_the_config_fields():
    assert cli.CONFIG_KEYS == {
        "context_type", "window_size", "distance_weighting",
        "K", "alpha", "sigma_power", "seed",
        "learning_rate", "momentum", "batch_size", "max_epochs", "patience",
        "hidden_size",
        "min_freq", "vocab_min_freq", "split_seed", "ratios", "n_perm", "stats_seed",
    }


def test_options_build_from_config_file_and_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"context_type": "symmetric", "window_size": 3,
                               "alpha": 1, "seed": 7, "patience": 4}), encoding="utf-8")
    args = cli.build_parser().parse_args([
        "tune", "--corpus", "c", "--lexicon", "l", "--out", "o",
        "--config", str(cfg), "--dim", "6",
    ])
    opts = cli.Options(args)
    # tune has no context flags, so the file alone sets the context
    assert opts.build(ContextConfig) == ContextConfig("symmetric", 3)
    emb = opts.build(EmbeddingConfig)
    assert emb == EmbeddingConfig(k=6, alpha=1.0, seed=7)
    assert type(emb.alpha) is float
    # the one seed key feeds the embedding and the training config
    assert opts.build(TrainConfig) == TrainConfig(patience=4, seed=7)


def test_malformed_config_json_exits_two(flow, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{oops", encoding="utf-8")
    rc = main(["embed", "--cooc", flow["cooc.bin"], "--vocab", flow["vocab.tsv"],
               "--out", str(tmp_path / "e.txt"), "--config", str(cfg)])
    assert rc == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_unknown_config_keys_exit_two(flow, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"K": 4, "bogus": 1}), encoding="utf-8")
    rc = main(["embed", "--cooc", flow["cooc.bin"], "--vocab", flow["vocab.tsv"],
               "--out", str(tmp_path / "e.txt"), "--config", str(cfg)])
    assert rc == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_non_object_config_exits_two(flow, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]", encoding="utf-8")
    rc = main(["embed", "--cooc", flow["cooc.bin"], "--vocab", flow["vocab.tsv"],
               "--out", str(tmp_path / "e.txt"), "--config", str(cfg)])
    assert rc == 2
    assert "JSON object" in capsys.readouterr().err


def test_missing_config_file_exits_two(flow, tmp_path, capsys):
    rc = main(["embed", "--cooc", flow["cooc.bin"], "--vocab", flow["vocab.tsv"],
               "--out", str(tmp_path / "e.txt"),
               "--config", str(tmp_path / "absent.json")])
    assert rc == 2
    assert "config file not found" in capsys.readouterr().err


def _stage_inputs(flow, stage) -> list[str]:
    """The flow's input flags for ``stage``, all but ``--out``."""
    return {
        "ingest": ["--corpus", flow["corpus.txt"]],
        "cooc": ["--corpus", flow["corpus.txt"], "--vocab", flow["vocab.tsv"],
                 "--context-type", "symmetric"],
        "embed": ["--cooc", flow["cooc.bin"], "--vocab", flow["vocab.tsv"]],
        "label": ["--embedding", flow["emb.bin"], "--lexicon", flow["lexicon.tsv"],
                  "--vocab", flow["vocab.tsv"]],
        "split": ["--dataset", flow["dataset.tsv"]],
        "train": ["--embedding", flow["emb.bin"], "--dataset", flow["dataset.tsv"],
                  "--split", flow["split.json"]],
        "eval": ["--embedding", flow["emb.bin"], "--dataset", flow["dataset.tsv"],
                 "--split", flow["split.json"], "--model", flow["model.bin"]],
        "tune": ["--corpus", flow["corpus.txt"], "--lexicon", flow["lexicon.tsv"]],
    }[stage]


@pytest.mark.parametrize("stage, config", [
    ("cooc", {"window_size": "x"}),
    ("embed", {"K": [1]}),
    ("split", {"split_seed": "x"}),
    ("split", {"ratios": 5}),
    ("cooc", {"window_size": 2.7}),
    ("label", {"min_freq": 2.5}),
    ("split", {"split_seed": True}),
    ("cooc", {"window_size": 9}),
    ("split", {"ratios": [0.8, 0.1, 0.1, 0.0]}),
    ("embed", {"seed": -1}),
    ("train", {"seed": -1}),
    ("split", {"split_seed": -1}),
    ("eval", {"stats_seed": -1}),
])
def test_config_value_of_wrong_type_exits_two(flow, tmp_path, capsys, stage, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = str(tmp_path / "out")
    rc = main([stage, *_stage_inputs(flow, stage), "--out", out, "--config", str(cfg)])
    assert rc == 2
    assert next(iter(config)) in capsys.readouterr().err


@pytest.mark.parametrize("stage, flag", [
    ("embed", "--seed"), ("train", "--seed"), ("split", "--split-seed"),
    ("eval", "--stats-seed"), ("tune", "--split-seed"), ("synth", "--seed"),
])
def test_negative_seed_flag_exits_two(flow, tmp_path, capsys, stage, flag):
    out = tmp_path / "out"
    if stage == "synth":
        argv = ["--out-corpus", str(tmp_path / "c.txt"), "--out-lexicon", str(out)]
    else:
        argv = [*_stage_inputs(flow, stage), "--out", str(out)]
    rc = main([stage, *argv, flag, "-1"])
    assert rc == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_synth_more_words_than_exist_exits_two(tmp_path, capsys):
    out = tmp_path / "c.txt"
    rc = main(["synth", "--out-corpus", str(out), "--out-lexicon", str(tmp_path / "l.tsv"),
               "--nouns", "2400000"])
    assert rc == 2
    assert "distinct pseudo-words" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("stage, option", [
    ("cooc", ["--window-size", "0"]),
    ("embed", ["--seed", "-1"]),
    ("label", {"min_freq": 2.5}),
    ("split", ["--split-seed", "-1"]),
    ("train", ["--seed", "-1"]),
    ("tune", ["--split-seed", "-1"]),
    ("eval", ["--stats-seed", "-1"]),
    ("label", ["--min-freq", "-1"]),
    ("ingest", ["--vocab-min-freq", "-1"]),
    ("eval", ["--n-perm", "0"]),
    ("tune", ["--min-freq", "-2"]),
], ids=lambda value: value if isinstance(value, str) else json.dumps(value))
def test_bad_option_exits_two_before_a_missing_input(flow, tmp_path, capsys, stage, option):
    absent = str(tmp_path / "absent")
    if isinstance(option, dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(option), encoding="utf-8")
        option = ["--config", str(cfg)]
    inputs = [absent if arg in flow.values() else arg for arg in _stage_inputs(flow, stage)]
    assert absent in inputs
    rc = main([stage, *inputs, "--out", str(tmp_path / "out"), *option])
    assert rc == 2
    assert absent not in capsys.readouterr().err


@pytest.mark.parametrize("ratios", ["0.8,0.1,0.1,0.0", "a,b,c"])
def test_ratios_flag_of_wrong_length_or_type_exits_two(flow, tmp_path, capsys, ratios):
    out = tmp_path / "split.json"
    rc = main(["split", "--dataset", flow["dataset.tsv"], "--out", str(out), "--ratios", ratios])
    assert rc == 2
    assert "ratios" in capsys.readouterr().err
    assert not out.exists()


def test_tune_passes_given_axes_and_run_options(flow, tmp_path, monkeypatch):
    seen = []

    def capture(corpus, lexicon, grid, embedding_config, train_config, options):
        seen.append((grid, options))
        raise DataError("stop")

    monkeypatch.setattr(pipeline, "grid_search", capture)
    base = ["tune", "--corpus", flow["corpus.txt"], "--lexicon", flow["lexicon.tsv"],
            "--out", str(tmp_path / "t")]
    assert main(base) == 3
    assert main([*base, "--window-sizes", "2", "--ratios", "0.6,0.2,0.2",
                 "--split-seed", "4"]) == 3
    assert seen == [
        (pipeline.default_grid(), pipeline.RunOptions()),
        (pipeline.default_grid(window_sizes=[2]),
         pipeline.RunOptions(split_seed=4, ratios=(0.6, 0.2, 0.2))),
    ]


@pytest.mark.parametrize("missing", ["--out-corpus", "--out-lexicon"])
def test_synth_output_in_a_missing_directory_writes_nothing(tmp_path, monkeypatch, capsys, missing):
    generated = []
    monkeypatch.setattr(synthetic, "generate_synthetic_language", generated.append)
    outputs = {"--out-corpus": tmp_path / "corpus.txt", "--out-lexicon": tmp_path / "lexicon.tsv"}
    outputs[missing] = tmp_path / "missing" / outputs[missing].name
    rc = main(["synth", "--nouns", "60", "--sentences", "100",
               *(arg for flag, path in outputs.items() for arg in (flag, str(path)))])
    assert rc == 3
    assert capsys.readouterr().err == f"error: {outputs[missing]}: its directory does not exist\n"
    assert generated == []
    assert not any(path.exists() for path in outputs.values())


def test_synth_flags_left_out_keep_the_spec_defaults(tmp_path, monkeypatch):
    seen = []

    def capture(spec):
        seen.append(spec)
        raise DataError("stop")

    monkeypatch.setattr(synthetic, "generate_synthetic_language", capture)
    base = ["synth", "--out-corpus", str(tmp_path / "c"), "--out-lexicon", str(tmp_path / "l")]
    assert main(base) == 3
    assert main([*base, "--nouns", "60", "--agreement-noise", "0.1"]) == 3
    assert seen == [
        synthetic.SyntheticSpec(),
        synthetic.SyntheticSpec(noun_count=60, agreement_noise=0.1),
    ]


@pytest.mark.parametrize("count", ["-4", "nan", "inf"])
def test_cooc_count_negative_or_not_finite_exits_three(flow, tmp_path, capsys, count):
    with open(flow["cooc.bin"], encoding="utf-8") as fh:
        header, first, *rest = fh.read().splitlines()
    row, col, _ = first.split("\t")
    cooc = tmp_path / "cooc.txt"
    cooc.write_text("\n".join([header, f"{row}\t{col}\t{count}", *rest]) + "\n",
                    encoding="utf-8")
    rc = main(["embed", "--cooc", str(cooc), "--vocab", flow["vocab.tsv"],
               "--out", str(tmp_path / "e.txt")])
    assert rc == 3
    assert capsys.readouterr().err.startswith(f"error: {cooc}:2: count {count} ")


def test_cooc_header_value_of_wrong_type_exits_three(flow, tmp_path, capsys):
    with open(flow["cooc.bin"], encoding="utf-8") as fh:
        header, body = fh.readline(), fh.read()
    edited = json.loads(header) | {"window_size": "one"}
    cooc = tmp_path / "cooc.txt"
    cooc.write_text(json.dumps(edited) + "\n" + body, encoding="utf-8")
    rc = main(["embed", "--cooc", str(cooc), "--vocab", flow["vocab.tsv"],
               "--out", str(tmp_path / "e.txt")])
    assert rc == 3
    assert "window_size" in capsys.readouterr().err


def _out_of_range_input(flow, case, bad) -> list[str]:
    """Write a data file holding a well-typed but out-of-range value to
    ``bad``, and return the stage argv that reads it."""
    if case == "cooc header window_size 9":
        with open(flow["cooc.bin"], encoding="utf-8") as fh:
            header, body = fh.readline(), fh.read()
        bad.write_text(json.dumps(json.loads(header) | {"window_size": 9}) + "\n" + body,
                       encoding="utf-8")
        return ["embed", "--cooc", str(bad), "--vocab", flow["vocab.tsv"]]
    with open(flow["split.json"], encoding="utf-8") as fh:
        split = json.load(fh)
    parts = split["partitions"]
    if case == "split partition not a list":
        parts["test"] = 5
    elif case == "split test word also in train":
        parts["train"].append(parts["test"][0])
    elif case == "split test_digest missing":
        del split["test_digest"]
        parts["test"].pop()
    elif case == "split test_digest mismatch":
        parts["test"].pop()
    elif case == "split seed -1":
        split["seed"] = -1
    else:
        split["ratios"] = "x"
    bad.write_text(json.dumps(split), encoding="utf-8")
    return ["eval", "--embedding", flow["emb.bin"], "--dataset", flow["dataset.tsv"],
            "--split", str(bad), "--model", flow["model.bin"]]


@pytest.mark.parametrize("case", [
    "cooc header window_size 9", "split partition not a list", "split ratios not a list",
    "split test word also in train", "split test_digest missing", "split test_digest mismatch",
    "split seed -1",
])
def test_out_of_range_data_file_value_exits_three(flow, tmp_path, capsys, case):
    bad, out = tmp_path / "bad.json", tmp_path / "out"
    rc = main([*_out_of_range_input(flow, case, bad), "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")
    assert not out.exists()


def _malformed_embedding(flow, case) -> bytes:
    with open(flow["emb.bin"], "rb") as fh:
        blob = fh.read()
    if case == "short header":
        return blob[:20]
    if case == "rows beyond the file":
        return blob[:8] + struct.pack("<QQ", 10**9, 8) + blob[24:]
    if case == "not UTF-8":
        return b"2 2\n\xff\xfe 0.5 0.5\n"
    if case == "text rows beyond the file":
        return b"10000000000000 5\nhund 0.5 0.5 0.5 0.5 0.5\n"
    if case == "NaN row":
        # the first value of the first row, past the magic, the counts and the word
        (length,) = struct.unpack("<I", blob[24:28])
        start = 28 + length
        return blob[:start] + struct.pack("<d", float("nan")) + blob[start + 8:]
    if case == "text NaN row":
        with open(flow["dataset.tsv"], encoding="utf-8") as fh:
            first, second = (line.split("\t")[0] for line in fh.readlines()[:2])
        return f"2 2\n{first} 0.5 0.5\n{second} nan 0.5\n".encode("utf-8")
    return b"1 2\nhund 0.5 half\n"  # a text embedding with a non-float value


@pytest.mark.parametrize(
    "case", [
        "short header", "rows beyond the file", "non-float value", "not UTF-8",
        "text rows beyond the file", "NaN row", "text NaN row",
    ]
)
def test_malformed_embedding_exits_three(flow, tmp_path, capsys, case):
    emb = tmp_path / "emb"
    emb.write_bytes(_malformed_embedding(flow, case))
    rc = main(["label", "--embedding", str(emb), "--lexicon", flow["lexicon.tsv"],
               "--vocab", flow["vocab.tsv"], "--out", str(tmp_path / "d.tsv")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("stage, bad_file", [
    ("train", "embedding"), ("eval", "embedding"), ("eval", "model"),
])
def test_non_finite_embedding_or_model_exits_three(flow, tmp_path, capsys, stage, bad_file):
    with open(flow["split.json"], encoding="utf-8") as fh:
        word = json.load(fh)["partitions"][stage if stage == "train" else "test"][0]
    paths = {"embedding": flow["emb.bin"], "model": flow["model.bin"]}
    bad = paths[bad_file] = str(tmp_path / bad_file)
    if bad_file == "embedding":
        # a NaN row for a word the stage reads
        emb = embedding.load_embedding_binary(flow["emb.bin"])
        emb.matrix[emb.rows([word])[0], 0] = float("nan")
        embedding.save_embedding_binary(emb, bad)
    else:
        with open(flow["model.bin"], "rb") as fh:
            header, blob = fh.read().split(b"\n", 1)
        with open(bad, "wb") as fh:
            fh.write(header + b"\n" + struct.pack("<d", float("nan")) * (len(blob) // 8))
    argv = [stage, "--embedding", paths["embedding"], "--dataset", flow["dataset.tsv"],
            "--split", flow["split.json"], "--out", str(tmp_path / "out")]
    rc = main(argv + (["--model", paths["model"]] if stage == "eval" else []))
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ")
    assert bad_file == "model" or repr(word) in err


@pytest.mark.parametrize("case", [
    "dataset frequency 0", "dataset frequency -3",
    "cooc rows fractional", "cooc rows a string", "cooc rows and cols true",
])
def test_out_of_range_number_exits_three(flow, tmp_path, capsys, case):
    bad = tmp_path / "bad"
    if case.startswith("dataset"):
        with open(flow["dataset.tsv"], encoding="utf-8") as fh:
            first, *rest = fh.read().splitlines()
        word, gender, _ = first.split("\t")
        bad.write_text("\n".join([f"{word}\t{gender}\t{case.split()[-1]}", *rest]) + "\n",
                       encoding="utf-8")
        argv, where = ["split", "--dataset", str(bad)], f"{bad}:1: "
    else:
        with open(flow["cooc.bin"], encoding="utf-8") as fh:
            header, body = json.loads(fh.readline()), fh.read()
        n = header["rows"]
        edit = {
            "cooc rows fractional": {"rows": n + 0.7},
            "cooc rows a string": {"rows": str(n)},
            "cooc rows and cols true": {"rows": True, "cols": True},
        }[case]
        bad.write_text(json.dumps(header | edit) + "\n" + body, encoding="utf-8")
        argv, where = ["embed", "--cooc", str(bad), "--vocab", flow["vocab.tsv"]], f"{bad}: "
    rc = main([*argv, "--out", str(tmp_path / "out")])
    assert rc == 3
    assert capsys.readouterr().err.startswith(f"error: {where}")


def test_report_with_embedding_lacking_a_test_word_exits_three(flow, tmp_path, capsys):
    full = embedding.load_embedding_binary(flow["emb.bin"])
    with open(f"{flow['eval']}/records.csv", encoding="utf-8") as fh:
        test_word = fh.readlines()[1].split(",")[0]
    keep = [i for i, w in enumerate(full.words) if w != test_word]
    partial = embedding.EmbeddingMatrix([full.words[i] for i in keep], full.matrix[keep])
    emb = tmp_path / "emb.bin"
    embedding.save_embedding_binary(partial, emb)
    rc = main(["report", "--eval-dir", flow["eval"], "--out", str(tmp_path / "report"),
               "--embedding", str(emb)])
    assert rc == 3
    assert repr(test_word) in capsys.readouterr().err


@pytest.mark.parametrize("column, value", [("p_uter", "abc"), ("frequency", "0"), ("gold", "nope")])
def test_report_with_malformed_records_exits_three(flow, tmp_path, capsys, column, value):
    eval_dir = tmp_path / "eval"
    eval_dir.mkdir()
    for name in ("eval_report.json", "stats.json"):
        shutil.copyfile(f"{flow['eval']}/{name}", eval_dir / name)
    with open(f"{flow['eval']}/records.csv", encoding="utf-8") as fh:
        header, first, *rest = fh.read().splitlines()
    cells = first.split(",")
    cells[header.split(",").index(column)] = value
    (eval_dir / "records.csv").write_text(
        "\n".join([header, ",".join(cells), *rest]) + "\n", encoding="utf-8"
    )
    out = tmp_path / "report"
    rc = main(["report", "--eval-dir", str(eval_dir), "--out", str(out)])
    assert rc == 3
    assert "records.csv:2" in capsys.readouterr().err
    assert not out.exists()  # nothing written before the records are read


def test_report_with_missing_stats_exits_three(flow, tmp_path, capsys):
    eval_dir = tmp_path / "eval"
    eval_dir.mkdir()
    for name in ("eval_report.json", "records.csv"):
        shutil.copyfile(f"{flow['eval']}/{name}", eval_dir / name)
    out = tmp_path / "report"
    rc = main(["report", "--eval-dir", str(eval_dir), "--out", str(out)])
    assert rc == 3
    assert "stats.json" in capsys.readouterr().err
    assert not out.exists()  # nothing written before both eval files are read


def test_eval_with_a_non_utf8_split_manifest_exits_three(flow, tmp_path, capsys):
    with open(flow["split.json"], "rb") as fh:
        text = fh.read()
    head = text[: text.index(b'"train": [')] + b'"train": [\n"h'
    bad = tmp_path / "split.json"
    bad.write_bytes(head + b'\xe5st",' + text[len(head) - 3 :])
    out = tmp_path / "eval"
    rc = main(["eval", "--embedding", flow["emb.bin"], "--dataset", flow["dataset.tsv"],
               "--split", str(bad), "--model", flow["model.bin"], "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == f"error: {bad}: invalid UTF-8 at byte offset {len(head)}\n"
    assert not out.exists()


def _malformed_grid(case) -> str:
    context = ContextConfig("symmetric", 1)
    grid = pipeline.GridResult(
        (pipeline.CellResult(context, 0.9, None, None),), context, 0, "digest"
    ).to_dict()
    if case == "a cell of window_size 9":
        grid["cells"][0]["context"]["window_size"] = 9
    else:
        del grid["cells"][0]["context"]["context_type"]
    return {"not JSON": "{ nope", "a list": "[]", "null": "null"}.get(case, json.dumps(grid))


@pytest.mark.parametrize("case", [
    "not JSON", "a list", "null", "a cell without context_type", "a cell of window_size 9",
])
def test_report_with_malformed_grid_exits_three(flow, tmp_path, capsys, case):
    grid = tmp_path / "grid.json"
    grid.write_text(_malformed_grid(case), encoding="utf-8")
    out = tmp_path / "report"
    rc = main(["report", "--eval-dir", flow["eval"], "--out", str(out), "--grid", str(grid)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()  # nothing written before the grid is read


def test_flow_equals_manifest_replay(flow, tmp_path):
    # Two routes to one bundle: the staged flow joins the dataset table
    # with the embedding, reads the split manifest and trains one network;
    # a replay runs the one-cell grid, which trains its network in a stack.
    # Same configs, same bytes.
    manifest = pipeline.build_manifest(
        flow["corpus.txt"], flow["lexicon.tsv"], ContextConfig("asymmetric_backward", 1),
        EmbeddingConfig(k=8, seed=0), TrainConfig(max_epochs=30, hidden_size=8, seed=0),
        n_perm=500, stats_seed=0,
    )
    replay = pipeline.run_from_manifest(manifest, tmp_path / "replay")
    staged = {
        "eval_report.json": f"{flow['eval']}/eval_report.json",
        "records.csv": f"{flow['eval']}/records.csv",
        "stats.json": f"{flow['eval']}/stats.json",
        "split_manifest.json": flow["split.json"],
        "model.bin": flow["model.bin"],
    }
    for name, path in staged.items():
        with open(path, "rb") as a, open(replay[name], "rb") as b:
            assert a.read() == b.read(), name
