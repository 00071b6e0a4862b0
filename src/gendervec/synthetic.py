"""Synthetic agreement-language generator.

Sentences follow ``filler* article noun filler*`` where the article
agrees deterministically with the noun's class, so a backward window of
one token carries the whole gender signal while the forward window sees
only class-blind fillers.  The two classes are fixed (``NOUN_CLASSES``):
``u`` marked by en/denna on 70 % of the noun types and ``n`` marked by
ett/detta on 30 %; each side of the article-noun pair holds at most
``MAX_FILLERS`` fillers.  A spec sets global agreement noise, a small
share of "ambiguous" nouns whose article flips often (these play the
role real polysemous nouns play), and a Zipf-like noun frequency
profile so low-frequency effects are observable.

The generator emits a plain text corpus plus a gender lexicon for the
nouns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import apportion
from .errors import ConfigurationError
from .lexicon import CODE_NEUTER, CODE_UTER, GenderLexicon

_SYLLABLES = (
    "ba", "be", "bo", "da", "de", "do", "fa", "fe", "fo", "ga", "ge", "go",
    "ka", "ke", "ko", "la", "le", "lo", "ma", "me", "mo", "na", "ne", "no",
    "pa", "pe", "po", "ra", "re", "ro", "sa", "se", "so", "ta", "te", "to",
    "va", "ve", "vo",
)
_WORD_LENGTHS = range(2, 5)  # syllables per pseudo-word
# Distinct pseudo-words there are.  Every syllable opens with a consonant
# and every word has an even length, so no article is among them.
WORD_CAPACITY = sum(len(_SYLLABLES) ** n for n in _WORD_LENGTHS)

# (lexicon code, articles that mark the class, share of noun types), in
# generation order: the draw stream depends on this order.
NOUN_CLASSES = (
    (CODE_UTER, ("en", "denna"), 0.7),
    (CODE_NEUTER, ("ett", "detta"), 0.3),
)
MAX_FILLERS = 3  # bound on the fillers before the article and after the noun
BLOCK_SENTENCES = 1 << 13  # sentences whose article and filler draws are taken in one call


@dataclass(frozen=True)
class SyntheticSpec:
    noun_count: int = 1000
    filler_count: int = 40
    sentence_count: int = 100_000
    seed: int = 0
    agreement_noise: float = 0.0
    ambiguous_fraction: float = 0.0
    ambiguous_flip: float = 0.45
    zipf_exponent: float = 1.0

    def __post_init__(self):
        if self.noun_count < len(NOUN_CLASSES):
            raise ConfigurationError("need at least one noun per class")
        if self.filler_count < 1:
            raise ConfigurationError("need at least one filler word")
        if self.noun_count + self.filler_count > WORD_CAPACITY:
            raise ConfigurationError(
                f"noun_count + filler_count must be <= {WORD_CAPACITY}, the number of "
                f"distinct pseudo-words, got {self.noun_count + self.filler_count}"
            )
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
        length = int(rng.integers(_WORD_LENGTHS.start, _WORD_LENGTHS.stop))
        pieces = rng.integers(0, len(_SYLLABLES), size=length)
        word = "".join(_SYLLABLES[i] for i in pieces)
        if word in taken:
            continue
        taken.add(word)
        words.append(word)
    return words


def generate_synthetic_language(spec: SyntheticSpec) -> SyntheticLanguage:
    """Build the corpus and lexicon described by ``spec``.

    Noun types are apportioned to the classes by their shares (largest
    remainder, so 1000 nouns give exactly 700/300).  Per sentence the
    noun is drawn from a Zipf-like profile over all nouns, its article
    from the noun's class unless a noise or ambiguity flip redirects it
    to the other class.

    The draws come from one ``default_rng(spec.seed)`` in this order:
    the fillers, the nouns class by class, the frequency ranks, the
    ambiguous nouns, then per sentence its noun, its flip roll, its lead
    and its trail filler counts (one array each).  Last come each
    sentence's article and its lead and trail fillers, sentence by
    sentence; they are taken ``BLOCK_SENTENCES`` sentences at a time in
    one ``integers`` call over their bounds.  Every bound is below 2**32,
    so numpy draws each from one 32-bit output of the generator, and the
    values do not depend on how the draws are grouped into calls.
    """
    rng = np.random.default_rng(spec.seed)
    taken: set[str] = {a for _, articles, _ in NOUN_CLASSES for a in articles}
    fillers = _pseudo_words(rng, spec.filler_count, taken)
    class_sizes = apportion(spec.noun_count, [share for _, _, share in NOUN_CLASSES])
    nouns_by_class = {}
    all_nouns: list[str] = []
    for (code, _, _), size in zip(NOUN_CLASSES, class_sizes):
        nouns = _pseudo_words(rng, size, taken)
        nouns_by_class[code] = tuple(nouns)
        all_nouns.extend(nouns)

    n_nouns = len(all_nouns)
    # Frequency profile: ranks are a seeded shuffle of the nouns so both
    # classes spread across the whole frequency range.
    rank_of = rng.permutation(n_nouns)
    weights = np.power(np.arange(1, n_nouns + 1, dtype=np.float64), -spec.zipf_exponent)
    probs = weights[rank_of]
    probs /= probs.sum()

    n_ambiguous = int(round(spec.ambiguous_fraction * n_nouns))
    ambiguous = rng.choice(n_nouns, size=n_ambiguous, replace=False)

    noun_draws = rng.choice(n_nouns, size=spec.sentence_count, p=probs)
    flip_rolls = rng.random(spec.sentence_count)
    lead_counts = rng.integers(0, MAX_FILLERS + 1, size=spec.sentence_count)
    trail_counts = rng.integers(0, MAX_FILLERS + 1, size=spec.sentence_count)

    class_of = np.repeat(np.arange(len(NOUN_CLASSES)), class_sizes)
    flip_probs = np.full(n_nouns, spec.agreement_noise)
    flip_probs[ambiguous] = spec.ambiguous_flip
    article_counts = np.array([len(articles) for _, articles, _ in NOUN_CLASSES])

    sentences = []
    for start in range(0, spec.sentence_count, BLOCK_SENTENCES):
        block = slice(start, start + BLOCK_SENTENCES)
        noun_ids = noun_draws[block]
        # The class whose article each sentence carries, after its flip.
        classes = class_of[noun_ids] ^ (flip_rolls[block] < flip_probs[noun_ids])
        # Each sentence's bounds in draw order: its article, then a filler
        # per lead and per trail slot.
        widths = 1 + lead_counts[block] + trail_counts[block]
        bounds = np.full(int(widths.sum()), len(fillers))
        bounds[np.cumsum(widths) - widths] = article_counts[classes]
        draws = rng.integers(0, bounds).tolist()
        at = 0
        for noun_idx, class_idx, lead, trail in zip(
            noun_ids.tolist(), classes.tolist(),
            lead_counts[block].tolist(), trail_counts[block].tolist(),
        ):
            lead_end = at + 1 + lead
            tokens = [fillers[j] for j in draws[at + 1 : lead_end]]
            tokens.append(NOUN_CLASSES[class_idx][1][draws[at]])
            tokens.append(all_nouns[noun_idx])
            at = lead_end + trail
            tokens.extend(fillers[j] for j in draws[lead_end:at])
            sentences.append(tokens)
    # Free the per-sentence arrays before the tuple below copies the list.
    del noun_draws, flip_rolls, lead_counts, trail_counts

    return SyntheticLanguage(
        sentences=tuple(sentences),
        lexicon=GenderLexicon({n: code for code, nouns in nouns_by_class.items() for n in nouns}),
        nouns_by_class=nouns_by_class,
        fillers=tuple(fillers),
        ambiguous_nouns=tuple(sorted(all_nouns[i] for i in ambiguous)),
    )


def write_corpus(language: SyntheticLanguage, path) -> None:
    """One sentence per line, tokens space-separated."""
    with open(path, "w", encoding="utf-8") as fh:
        for sentence in language.sentences:
            fh.write(" ".join(sentence) + "\n")


def measure_agreement(language: SyntheticLanguage) -> float:
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
