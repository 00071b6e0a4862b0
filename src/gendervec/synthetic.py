"""Synthetic agreement-language generator.

Sentences follow ``filler* article noun filler*`` where the article
agrees deterministically with the noun's class, so a backward window of
one token carries the whole gender signal while the forward window sees
only class-blind fillers.  Knobs exist for global agreement noise, a
small share of "ambiguous" nouns whose article flips often (these play
the role real polysemous nouns play), and a Zipf-like noun frequency
profile so low-frequency effects are observable.

The generator emits a plain text corpus plus a gender lexicon for the
nouns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import apportion
from .errors import ConfigurationError
from .lexicon import GenderLexicon

_SYLLABLES = (
    "ba", "be", "bo", "da", "de", "do", "fa", "fe", "fo", "ga", "ge", "go",
    "ka", "ke", "ko", "la", "le", "lo", "ma", "me", "mo", "na", "ne", "no",
    "pa", "pe", "po", "ra", "re", "ro", "sa", "se", "so", "ta", "te", "to",
    "va", "ve", "vo",
)


@dataclass(frozen=True)
class SyntheticClass:
    """One noun class: its lexicon code and the articles that mark it."""

    code: str
    articles: tuple[str, ...]
    prior: float


@dataclass(frozen=True)
class SyntheticSpec:
    classes: tuple[SyntheticClass, ...] = (
        SyntheticClass(code="u", articles=("en", "denna"), prior=0.7),
        SyntheticClass(code="n", articles=("ett", "detta"), prior=0.3),
    )
    noun_count: int = 1000
    filler_count: int = 40
    sentence_count: int = 100_000
    seed: int = 0
    agreement_noise: float = 0.0
    ambiguous_fraction: float = 0.0
    ambiguous_flip: float = 0.45
    zipf_exponent: float = 1.0
    max_leading_fillers: int = 3
    max_trailing_fillers: int = 3

    def __post_init__(self):
        if len(self.classes) < 2:
            raise ConfigurationError("need at least 2 noun classes")
        articles = [a for cls in self.classes for a in cls.articles]
        if len(set(articles)) != len(articles) or not all(articles):
            raise ConfigurationError("article tokens must be distinct and non-empty")
        if not all(cls.articles for cls in self.classes):
            raise ConfigurationError("every class needs at least one article")
        codes = [cls.code for cls in self.classes]
        if len(set(codes)) != len(codes):
            raise ConfigurationError("class codes must be distinct")
        if abs(sum(cls.prior for cls in self.classes) - 1.0) > 1e-9:
            raise ConfigurationError("class priors must sum to 1")
        if any(cls.prior <= 0 for cls in self.classes):
            raise ConfigurationError("class priors must be positive")
        if self.noun_count < len(self.classes):
            raise ConfigurationError("need at least one noun per class")
        if self.filler_count < 1:
            raise ConfigurationError("need at least one filler word")
        if self.sentence_count < 1:
            raise ConfigurationError("sentence_count must be >= 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        for name in ("agreement_noise", "ambiguous_fraction", "ambiguous_flip"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
        if self.zipf_exponent < 0:
            raise ConfigurationError(f"zipf_exponent must be >= 0, got {self.zipf_exponent}")
        if self.max_leading_fillers < 0 or self.max_trailing_fillers < 0:
            raise ConfigurationError("filler span bounds must be >= 0")


@dataclass(frozen=True, eq=False)
class SyntheticLanguage:
    """Generated corpus plus its gold lexicon and bookkeeping."""

    sentences: tuple
    lexicon: GenderLexicon
    nouns_by_class: dict[str, tuple[str, ...]] = field(repr=False)
    fillers: tuple[str, ...] = field(repr=False)
    ambiguous_nouns: tuple[str, ...] = field(repr=False)


def _pseudo_words(rng: np.random.Generator, count: int, taken: set[str]) -> list[str]:
    """Distinct pronounceable lowercase words, deterministic given the rng state."""
    words: list[str] = []
    while len(words) < count:
        length = int(rng.integers(2, 5))
        pieces = rng.integers(0, len(_SYLLABLES), size=length)
        word = "".join(_SYLLABLES[i] for i in pieces)
        if word in taken:
            continue
        taken.add(word)
        words.append(word)
    return words


def generate_synthetic_language(spec: SyntheticSpec) -> SyntheticLanguage:
    """Build the corpus and lexicon described by ``spec``.

    Noun types are apportioned to classes by the priors (largest
    remainder, so 1000 nouns at 0.7/0.3 give exactly 700/300).  Per
    sentence the noun is drawn from a Zipf-like profile over all nouns,
    its article from the noun's class unless a noise or ambiguity flip
    redirects it to a uniformly chosen other class.
    """
    rng = np.random.default_rng(spec.seed)
    taken: set[str] = {a for cls in spec.classes for a in cls.articles}
    fillers = _pseudo_words(rng, spec.filler_count, taken)
    class_sizes = apportion(spec.noun_count, [cls.prior for cls in spec.classes])
    nouns_by_class = {}
    all_nouns: list[str] = []
    noun_class_index: list[int] = []
    for cls, size in zip(spec.classes, class_sizes):
        nouns = _pseudo_words(rng, size, taken)
        nouns_by_class[cls.code] = tuple(nouns)
        for noun in nouns:
            noun_class_index.append(len(nouns_by_class) - 1)
            all_nouns.append(noun)

    n_nouns = len(all_nouns)
    # Frequency profile: ranks are a seeded shuffle of the nouns so both
    # classes spread across the whole frequency range.
    rank_of = rng.permutation(n_nouns)
    weights = np.power(np.arange(1, n_nouns + 1, dtype=np.float64), -spec.zipf_exponent)
    probs = weights[rank_of]
    probs /= probs.sum()

    n_ambiguous = int(round(spec.ambiguous_fraction * n_nouns))
    ambiguous = set(rng.choice(n_nouns, size=n_ambiguous, replace=False).tolist())

    noun_draws = rng.choice(n_nouns, size=spec.sentence_count, p=probs)
    flip_rolls = rng.random(spec.sentence_count)
    other_rolls = rng.integers(0, len(spec.classes) - 1, size=spec.sentence_count)
    lead_counts = rng.integers(0, spec.max_leading_fillers + 1, size=spec.sentence_count)
    trail_counts = rng.integers(0, spec.max_trailing_fillers + 1, size=spec.sentence_count)

    sentences = []
    filler_pool = len(fillers)
    for i in range(spec.sentence_count):
        noun_idx = int(noun_draws[i])
        class_idx = noun_class_index[noun_idx]
        flip_prob = spec.ambiguous_flip if noun_idx in ambiguous else spec.agreement_noise
        if flip_rolls[i] < flip_prob:
            # redirect to a uniformly chosen other class
            shifted = int(other_rolls[i])
            class_idx = shifted if shifted < class_idx else shifted + 1
        articles = spec.classes[class_idx].articles
        article = articles[int(rng.integers(0, len(articles)))]
        tokens = [fillers[int(j)] for j in rng.integers(0, filler_pool, size=int(lead_counts[i]))]
        tokens.append(article)
        tokens.append(all_nouns[noun_idx])
        tokens.extend(fillers[int(j)] for j in rng.integers(0, filler_pool, size=int(trail_counts[i])))
        sentences.append(tokens)

    entries = {}
    for cls in spec.classes:
        for noun in nouns_by_class[cls.code]:
            entries[noun] = cls.code
    return SyntheticLanguage(
        sentences=tuple(sentences),
        lexicon=GenderLexicon(entries),
        nouns_by_class=nouns_by_class,
        fillers=tuple(fillers),
        ambiguous_nouns=tuple(sorted(all_nouns[i] for i in ambiguous)),
    )


def write_corpus(language: SyntheticLanguage, path) -> None:
    """One sentence per line, tokens space-separated."""
    with open(path, "w", encoding="utf-8") as fh:
        for sentence in language.sentences:
            fh.write(" ".join(sentence) + "\n")


def measure_agreement(language: SyntheticLanguage, spec: SyntheticSpec) -> float:
    """Share of sentences whose article matches the noun's own class,
    recounted from the emitted sentences."""
    article_class = {}
    for cls in spec.classes:
        for article in cls.articles:
            article_class[article] = cls.code
    noun_class = {}
    for code, nouns in language.nouns_by_class.items():
        for noun in nouns:
            noun_class[noun] = code
    agree = 0
    for sentence in language.sentences:
        for pos, token in enumerate(sentence):
            if token in noun_class and pos > 0 and sentence[pos - 1] in article_class:
                if article_class[sentence[pos - 1]] == noun_class[token]:
                    agree += 1
                break
    return agree / len(language.sentences)
