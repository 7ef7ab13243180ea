"""Twist words for 2-bridge links.

A 2-bridge link is encoded by a word in the letters R (vertical twist) and
L (horizontal twist), e.g. ``R^2LR``.  A *syllable* is a maximal run of one
letter together with its exponent, so words are stored as sequences of
(letter, exponent) pairs with adjacent letters distinct and all exponents
positive.  By convention words are normalised to start with R; the mirror
word (all letters swapped) describes a homeomorphic complement.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterator

_TOKEN = re.compile(r"([RL])(?:\^([0-9]+))?")


@dataclass(frozen=True)
class Word:
    """A twist word as a tuple of (letter, exponent) syllables; derived values are cached."""

    syllables: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if not self.syllables:
            raise ValueError("a word needs at least one syllable")
        for letter, exp in self.syllables:
            if letter not in ("R", "L"):
                raise ValueError(f"letter must be R or L, got {letter!r}")
            if exp < 1:
                raise ValueError(f"syllable exponent must be >= 1, got {exp}")
        for (a, _), (b, _) in zip(self.syllables, self.syllables[1:]):
            if a == b:
                raise ValueError("adjacent syllables must use distinct letters")

    @property
    def n(self) -> int:
        """Number of syllables."""
        return len(self.syllables)

    @cached_property
    def ell(self) -> int:
        """Total number of letters (= crossings), the sum of all exponents."""
        return sum(e for _, e in self.syllables)

    @cached_property
    def letters(self) -> str:
        """The word expanded into individual letters, e.g. ``RRLR``."""
        return "".join(letter * exp for letter, exp in self.syllables)

    @cached_property
    def exponents(self) -> tuple[int, ...]:
        return tuple(e for _, e in self.syllables)

    def __str__(self) -> str:
        return render(self)


def parse_word(text: str) -> Word:
    """Parse text like ``R^2LR`` into a word.

    An omitted exponent means 1, and runs of the same letter are merged
    into a single syllable (``RRLR`` parses the same as ``R^2LR``).
    Raises ValueError on empty input, stray characters or a zero exponent.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty word")
    pos = 0
    runs: list[tuple[str, int]] = []
    for match in _TOKEN.finditer(text):
        if match.start() != pos:
            raise ValueError(f"unexpected character at position {pos}: {text[pos]!r}")
        letter, exp_text = match.groups()
        exp = 1 if exp_text is None else int(exp_text)
        if exp < 1:
            raise ValueError(f"syllable exponent must be >= 1, got {exp}")
        if runs and runs[-1][0] == letter:
            runs[-1] = (letter, runs[-1][1] + exp)
        else:
            runs.append((letter, exp))
        pos = match.end()
    if pos != len(text):
        raise ValueError(f"unexpected character at position {pos}: {text[pos]!r}")
    return Word(tuple(runs))


def render(w: Word) -> str:
    """Inverse of parse_word; exponents are written only when >= 2."""
    return "".join(
        f"{letter}^{exp}" if exp >= 2 else letter for letter, exp in w.syllables
    )


def normalize(w: Word) -> Word:
    """Swap R and L throughout if the word starts with L.

    The mirror word describes the same link complement up to
    homeomorphism, so this fixes the convention that words start with R.
    """
    if w.syllables[0][0] == "R":
        return w
    swapped = tuple(("R" if l == "L" else "L", e) for l, e in w.syllables)
    return Word(swapped)


def is_hyperbolic(w: Word) -> bool:
    """True iff the associated link complement is hyperbolic.

    One-syllable words give torus links; two or more syllables give
    hyperbolic complements (Menasco's criterion for alternating 2-bridge
    diagrams).
    """
    return w.n >= 2


def inner_word(w: Word) -> Word:
    """The subword obtained by deleting the first and last letter.

    Requires at least three letters.  A stripped letter shortens its
    syllable by one and removes it when that leaves nothing.
    """
    if w.ell < 3:
        raise ValueError("word must have at least 3 letters to take its inner word")
    syllables = list(w.syllables)
    for end in (0, -1):
        letter, exp = syllables[end]
        if exp == 1:
            del syllables[end]
        else:
            syllables[end] = (letter, exp - 1)
    return Word(tuple(syllables))


def enumerate_words(
    max_inner_syllables: int,
    exponent_set: set[int] | frozenset[int] | tuple[int, ...],
    fixed_C: int | None = None,
) -> Iterator[Word]:
    """Enumerate the family R L^{a_1} R^{a_2} ... (L^{a_n}R | R^{a_n}L).

    The inner word alternates starting with L and has n <= max_inner_syllables
    syllables with exponents drawn from exponent_set; the terminal letter is
    the opposite of the inner word's last letter.  With fixed_C given, only
    words with sum(a_i) = n + fixed_C are produced.  Deterministic order:
    increasing n, then lexicographic in the exponent tuple.
    """
    exps = sorted(set(exponent_set))
    if not exps:
        raise ValueError("exponent set must be non-empty")
    if any(e < 1 for e in exps):
        raise ValueError("exponents must be >= 1")
    if max_inner_syllables < 1:
        raise ValueError("max_inner_syllables must be >= 1")
    for n in range(1, max_inner_syllables + 1):
        for combo in product(exps, repeat=n):
            if fixed_C is not None and sum(combo) != n + fixed_C:
                continue
            inner = tuple(("L" if i % 2 == 0 else "R", e) for i, e in enumerate(combo))
            terminal = "R" if inner[-1][0] == "L" else "L"
            yield Word((("R", 1),) + inner + ((terminal, 1),))
