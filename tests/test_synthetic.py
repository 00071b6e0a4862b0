"""Synthetic agreement-language generator."""

from collections import Counter

import numpy as np
import pytest

from gendervec.errors import ConfigurationError
from gendervec.lexicon import save_lexicon
from gendervec.pipeline import file_sha256
from gendervec.synthetic import (
    BLOCK_SENTENCES,
    MAX_FILLERS,
    NOUN_CLASSES,
    WORD_CAPACITY,
    SyntheticSpec,
    generate_synthetic_language,
    write_corpus,
)


def measure_agreement(language):
    """Share of sentences whose article matches the noun's own class,
    recounted from the emitted sentences."""
    article_class = {a: code for code, articles, _ in NOUN_CLASSES for a in articles}
    noun_class = dict(language.lexicon.items())
    agree = 0
    for sentence in language.sentences:
        for pos, token in enumerate(sentence):
            if token in noun_class and pos > 0 and sentence[pos - 1] in article_class:
                if article_class[sentence[pos - 1]] == noun_class[token]:
                    agree += 1
                break
    return agree / len(language.sentences)


def _lookup_tables(language):
    article_class = {a: code for code, articles, _ in NOUN_CLASSES for a in articles}
    noun_class = {n: code for code, nouns in language.nouns_by_class.items() for n in nouns}
    return article_class, noun_class, set(language.fillers)


def test_default_spec_splits_nouns_700_300():
    spec = SyntheticSpec(sentence_count=50)
    language = generate_synthetic_language(spec)
    counts = language.lexicon.counts_by_code()
    assert counts["u"] == 700
    assert counts["n"] == 300
    assert len(language.lexicon) == 1000


def test_sentences_are_fillers_article_noun_fillers():
    spec = SyntheticSpec(noun_count=60, filler_count=12, sentence_count=400, seed=5)
    language = generate_synthetic_language(spec)
    article_class, noun_class, fillers = _lookup_tables(language)
    assert len(language.sentences) == 400
    for sentence in language.sentences:
        positions = [i for i, tok in enumerate(sentence) if tok in article_class]
        assert len(positions) == 1
        at = positions[0]
        assert sentence[at + 1] in noun_class
        assert all(tok in fillers for tok in sentence[:at])
        assert all(tok in fillers for tok in sentence[at + 2 :])
        assert at <= MAX_FILLERS
        assert len(sentence) - (at + 2) <= MAX_FILLERS


def test_clean_spec_agrees_everywhere():
    spec = SyntheticSpec(noun_count=40, sentence_count=500, seed=1)
    language = generate_synthetic_language(spec)
    assert measure_agreement(language) == 1.0
    article_class, noun_class, _ = _lookup_tables(language)
    for sentence in language.sentences:
        at = next(i for i, tok in enumerate(sentence) if tok in article_class)
        assert article_class[sentence[at]] == noun_class[sentence[at + 1]]


def test_agreement_noise_measured_post_hoc():
    spec = SyntheticSpec(noun_count=80, sentence_count=20_000, seed=2, agreement_noise=0.1)
    language = generate_synthetic_language(spec)
    assert measure_agreement(language) == pytest.approx(0.9, abs=0.01)


def test_both_articles_of_a_class_occur():
    spec = SyntheticSpec(noun_count=40, sentence_count=2000, seed=3)
    language = generate_synthetic_language(spec)
    used = Counter(tok for sentence in language.sentences for tok in sentence)
    for article in ("en", "denna", "ett", "detta"):
        assert used[article] > 0


def test_minimal_two_nouns_two_sentences():
    spec = SyntheticSpec(noun_count=2, sentence_count=2, filler_count=1)
    language = generate_synthetic_language(spec)
    assert len(language.sentences) == 2
    assert len(language.lexicon) == 2
    assert {len(nouns) for nouns in language.nouns_by_class.values()} == {1}


def test_seed_determinism():
    spec = SyntheticSpec(noun_count=30, sentence_count=300, seed=9)
    a = generate_synthetic_language(spec)
    b = generate_synthetic_language(spec)
    assert a.sentences == b.sentences
    assert dict(a.lexicon.items()) == dict(b.lexicon.items())
    c = generate_synthetic_language(SyntheticSpec(noun_count=30, sentence_count=300, seed=10))
    assert a.sentences != c.sentences


def test_zipf_exponent_skews_noun_frequencies():
    flat_spec = SyntheticSpec(noun_count=200, sentence_count=20_000, seed=4, zipf_exponent=0.0)
    skew_spec = SyntheticSpec(noun_count=200, sentence_count=20_000, seed=4, zipf_exponent=1.1)
    _, flat_nouns, _ = _lookup_tables(flat := generate_synthetic_language(flat_spec))
    _, skew_nouns, _ = _lookup_tables(skew := generate_synthetic_language(skew_spec))

    def max_over_mean(language, noun_class):
        counts = Counter(
            tok for sentence in language.sentences for tok in sentence if tok in noun_class
        )
        return max(counts.values()) / (sum(counts.values()) / len(noun_class))

    assert max_over_mean(flat, flat_nouns) < 2.0
    assert max_over_mean(skew, skew_nouns) > 5.0


def test_ambiguous_noun_bookkeeping():
    spec = SyntheticSpec(noun_count=200, sentence_count=50, seed=6, ambiguous_fraction=0.05)
    language = generate_synthetic_language(spec)
    assert len(language.ambiguous_nouns) == 10
    _, noun_class, _ = _lookup_tables(language)
    assert set(language.ambiguous_nouns) <= set(noun_class)
    clean = generate_synthetic_language(SyntheticSpec(noun_count=200, sentence_count=50))
    assert clean.ambiguous_nouns == ()


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        SyntheticSpec(noun_count=1)
    with pytest.raises(ConfigurationError):
        SyntheticSpec(filler_count=0)
    with pytest.raises(ConfigurationError):
        SyntheticSpec(sentence_count=0)
    with pytest.raises(ConfigurationError):
        SyntheticSpec(agreement_noise=1.5)
    with pytest.raises(ConfigurationError):
        SyntheticSpec(ambiguous_fraction=-0.1)
    with pytest.raises(ConfigurationError):
        SyntheticSpec(zipf_exponent=-1.0)
    # 39 syllables make 39**2 + 39**3 + 39**4 distinct 2- to 4-syllable words
    assert WORD_CAPACITY == 2_374_281
    SyntheticSpec(noun_count=WORD_CAPACITY - 40, filler_count=40)
    with pytest.raises(ConfigurationError, match="distinct pseudo-words"):
        SyntheticSpec(noun_count=WORD_CAPACITY - 39, filler_count=40)


def test_write_corpus_one_sentence_per_line(tmp_path):
    spec = SyntheticSpec(noun_count=10, sentence_count=25, seed=8)
    language = generate_synthetic_language(spec)
    path = tmp_path / "corpus.txt"
    write_corpus(language, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == [" ".join(sentence) for sentence in language.sentences]


PINNED_SPECS = {
    # Six of the 60 nouns are ambiguous, so both flip branches (noise and
    # ambiguity) are exercised.
    "pinned": (
        SyntheticSpec(
            noun_count=60, sentence_count=2000, seed=7, agreement_noise=0.1,
            ambiguous_fraction=0.1,
        ),
        "d15f379dcd519f9dc4340a806e6e825d0207462726cf8fd19a7f324ebd36ae34",
        "2e09f9224e880bbc35737dc0afb39a2f83265874ea62e88da55ab6a282fea435",
    ),
    # Every knob off its default, over more sentences than one block.
    "every-knob": (
        SyntheticSpec(
            noun_count=90, filler_count=7, sentence_count=20_000, seed=11,
            agreement_noise=0.3, ambiguous_fraction=0.2, ambiguous_flip=0.6,
            zipf_exponent=1.7,
        ),
        "9a01ee584deac375bec0cd9ab5d768842c9b458393029f4fff7420e010c0d190",
        "5ddefe23f8e2b8c5fb533907f7bba41e59266b305feade20f1cd00d6623f9d98",
    ),
    # One filler: its bound of 1 takes no draw.
    "one-filler": (
        SyntheticSpec(noun_count=2, filler_count=1, sentence_count=500, seed=3, agreement_noise=0.2),
        "fb0a6a90628da10df27813f422662de146af9d39d238e39751ed8a0360219915",
        "67f1c15e471f0b24bb485723d5797e10ee56f0bf5accf3852af684c7232172ec",
    ),
}


@pytest.mark.parametrize("name", PINNED_SPECS)
def test_draw_stream_is_pinned(tmp_path, name):
    """The generator's draw stream is part of its output: the same spec must
    give the same corpus and lexicon bytes, draw for draw.  Only a numpy
    change to the ``Generator`` streams justifies new digests here.
    """
    spec, corpus_digest, lexicon_digest = PINNED_SPECS[name]
    language = generate_synthetic_language(spec)
    write_corpus(language, tmp_path / "corpus.txt")
    save_lexicon(language.lexicon, tmp_path / "lexicon.tsv")
    assert file_sha256(tmp_path / "corpus.txt") == corpus_digest
    assert file_sha256(tmp_path / "lexicon.tsv") == lexicon_digest


def test_pinned_specs_cross_a_block():
    assert PINNED_SPECS["every-knob"][0].sentence_count > BLOCK_SENTENCES


def test_one_call_over_bounds_equals_one_call_per_bound():
    """The generator takes each block's article and filler draws in one
    ``integers`` call over an array of bounds.  That keeps the draw stream
    only while numpy draws every bound below 2**32 from one 32-bit output,
    with a bound of 1 and a size-0 call taking none."""
    bounds = [1, 2, 40, 2**31, 2, 40, 40, 40]
    whole = np.random.default_rng(5)
    one_call = whole.integers(0, np.array(bounds))
    alone = np.random.default_rng(5)
    per_call = [int(alone.integers(0, b)) for b in bounds[:5]]
    per_call += alone.integers(0, 40, size=3).tolist()
    alone.integers(0, 40, size=0)
    assert one_call.tolist() == per_call
    # the state includes the unused half of PCG64's last 64-bit word
    assert whole.bit_generator.state == alone.bit_generator.state
