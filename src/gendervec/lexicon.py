"""Gender lexicon: noun -> gender code.

The file format is ``word<TAB>code`` with codes ``u`` (uter), ``n``
(neuter), ``p`` (plurale tantum), ``v`` (vacklande, i.e. wavering) or an
empty field for unspecified.  Only ``u``/``n`` words enter the
classification task.
"""

from __future__ import annotations

import logging
from collections import Counter
from typing import Iterator

from .errors import DataError
from .records import read_rows, write_json, write_rows

logger = logging.getLogger(__name__)

CODE_UTER = "u"
CODE_NEUTER = "n"
CODE_PLURAL = "p"
CODE_WAVERING = "v"
CODE_UNSPECIFIED = ""

GENDER_CODES = (CODE_UTER, CODE_NEUTER, CODE_PLURAL, CODE_WAVERING, CODE_UNSPECIFIED)
# The labeled codes and their class names, which the dataset and the
# classifier use downstream.
CODE_TO_CLASS = {CODE_UTER: "uter", CODE_NEUTER: "neuter"}
CORE_CODES = tuple(CODE_TO_CLASS)


class GenderLexicon:
    """Mapping from word to gender code."""

    def __init__(self, entries: dict[str, str]):
        for word, code in entries.items():
            if code not in GENDER_CODES:
                raise DataError(f"unknown gender code {code!r} for {word!r}")
        self._entries = dict(entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, word: str) -> bool:
        return word in self._entries

    def code_of(self, word: str) -> str:
        return self._entries[word]

    def items(self) -> Iterator[tuple[str, str]]:
        """Yield ``(word, code)`` sorted by word."""
        yield from sorted(self._entries.items())

    def counts_by_code(self) -> dict[str, int]:
        """Entry count per code, all five codes always present."""
        counts = Counter(self._entries.values())
        return {code: counts.get(code, 0) for code in GENDER_CODES}

    def restrict_to_core_genders(self) -> "GenderLexicon":
        """Keep only words coded ``u`` or ``n``."""
        return GenderLexicon(
            {w: c for w, c in self._entries.items() if c in CORE_CODES}
        )


def parse_lexicon(path) -> GenderLexicon:
    """Read a ``word<TAB>code`` file.

    Unknown codes and malformed rows raise with the offending line
    number; a word listed twice keeps its last code and logs a warning.
    """
    entries: dict[str, str] = {}
    for lineno, (word, code) in read_rows(path, 2, "word<TAB>code"):
        if not word:
            raise DataError(f"{path}:{lineno}: empty word field")
        if code not in GENDER_CODES:
            raise DataError(f"{path}:{lineno}: unknown gender code {code!r}")
        if word in entries:
            logger.warning(
                "%s:%d: duplicate lexicon entry for %r, keeping last code %r",
                path, lineno, word, code,
            )
        entries[word] = code
    return GenderLexicon(entries)


def save_lexicon(lexicon: GenderLexicon, path) -> None:
    """Write ``word<TAB>code`` rows sorted by word."""
    write_rows(path, lexicon.items())


def save_code_summary(lexicon: GenderLexicon, path) -> None:
    """Write the per-code entry counts as JSON."""
    # The empty-string code needs a printable name in JSON output.
    counts = {code or "unspecified": n for code, n in lexicon.counts_by_code().items()}
    write_json(path, {**counts, "total": len(lexicon)})
