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

The generator holds the corpus as token-id arrays and writes it as plain
text, one sentence per line, plus a gender lexicon for the nouns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import apportion
from .errors import ConfigurationError
from .lexicon import CODE_NEUTER, CODE_UTER, GenderLexicon
from .records import Record, bounds

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
WRITE_TOKENS = 1 << 16  # tokens joined and written at a time by write_corpus


@dataclass(frozen=True)
class SyntheticSpec(Record):
    noun_count: int = field(default=1000, metadata=bounds(len(NOUN_CLASSES)))
    filler_count: int = field(default=40, metadata=bounds(1))
    sentence_count: int = field(default=100_000, metadata=bounds(1))
    seed: int = field(default=0, metadata=bounds(0))
    agreement_noise: float = field(default=0.0, metadata=bounds(0, 1))
    ambiguous_fraction: float = field(default=0.0, metadata=bounds(0, 1))
    ambiguous_flip: float = field(default=0.45, metadata=bounds(0, 1))
    zipf_exponent: float = field(default=1.0, metadata=bounds(0))

    def __post_init__(self):
        super().__post_init__()
        if self.noun_count + self.filler_count > WORD_CAPACITY:
            raise ConfigurationError(
                f"noun_count + filler_count must be <= {WORD_CAPACITY}, the number of "
                f"distinct pseudo-words, got {self.noun_count + self.filler_count}"
            )


@dataclass(frozen=True, eq=False)
class SyntheticLanguage:
    """Generated corpus (``token_ids`` into ``words``) plus its gold lexicon and bookkeeping."""

    words: tuple[str, ...] = field(repr=False)
    token_ids: np.ndarray = field(repr=False)
    sentence_lengths: np.ndarray = field(repr=False)
    lexicon: GenderLexicon
    nouns_by_class: dict[str, tuple[str, ...]] = field(repr=False)
    ambiguous_nouns: tuple[str, ...] = field(repr=False)

    @property
    def sentences(self) -> tuple[list[str], ...]:
        """Each sentence as its list of tokens, built anew on every access."""
        tokens = np.asarray(self.words, dtype=object)[self.token_ids]
        return tuple(s.tolist() for s in np.split(tokens, np.cumsum(self.sentence_lengths)[:-1]))


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
    one ``integers`` call over their bounds and assembled into token ids
    with array steps.  Every bound is below 2**32, so numpy draws each
    from one 32-bit output of the generator, and the values do not depend
    on how the draws are grouped into calls.
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

    # The word table: fillers (a filler's id is its draw), articles, nouns.
    words = (*fillers, *(a for _, articles, _ in NOUN_CLASSES for a in articles), *all_nouns)
    article_base = len(fillers) + np.cumsum(article_counts) - article_counts
    sentence_lengths = (lead_counts + trail_counts + 2).astype(np.int32)
    offsets = np.concatenate(([0], np.cumsum(sentence_lengths)))
    token_ids = np.empty(offsets[-1], dtype=np.int32)
    for start in range(0, spec.sentence_count, BLOCK_SENTENCES):
        stop = min(start + BLOCK_SENTENCES, spec.sentence_count)
        noun_ids = noun_draws[start:stop]
        # The class whose article each sentence carries, after its flip.
        classes = class_of[noun_ids] ^ (flip_rolls[start:stop] < flip_probs[noun_ids])
        # Each sentence's first token, and its first draw (its article's).
        heads = offsets[start:stop] - offsets[start]
        firsts = heads - np.arange(stop - start)
        out = token_ids[offsets[start]:offsets[stop]]
        bounds = np.full(len(out) - len(heads), len(fillers))
        bounds[firsts] = article_counts[classes]
        draws = rng.integers(0, bounds)
        # Lead fillers, article, noun, trail fillers: fillers keep draw order.
        at = heads + lead_counts[start:stop]
        is_filler = np.ones(len(out), dtype=bool)
        is_filler[at] = is_filler[at + 1] = False
        out[is_filler] = np.delete(draws, firsts)
        out[at] = article_base[classes] + draws[firsts]
        out[at + 1] = len(words) - n_nouns + noun_ids

    return SyntheticLanguage(
        words, token_ids, sentence_lengths,
        lexicon=GenderLexicon({n: code for code, nouns in nouns_by_class.items() for n in nouns}),
        nouns_by_class=nouns_by_class,
        ambiguous_nouns=tuple(sorted(all_nouns[i] for i in ambiguous)),
    )


def write_corpus(language: SyntheticLanguage, path) -> None:
    """One sentence per line: each id maps to its word plus a space, or a newline at its end."""
    suffixed = [w + " " for w in language.words] + [w + "\n" for w in language.words]
    keys = language.token_ids.copy()
    keys[np.cumsum(language.sentence_lengths) - 1] += len(language.words)
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(keys), WRITE_TOKENS):
            fh.write("".join(map(suffixed.__getitem__, keys[start:start + WRITE_TOKENS].tolist())))
