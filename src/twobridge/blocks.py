"""Decomposition of inner words into the block grammar.

The inner word (full word minus its first and last letter) of a word with
all inner exponents in {1, 2} decomposes uniquely into blocks:

* B1: alternating single letters, e.g. LRL;
* B2 (start/end): alternating squared letters, e.g. L^2R^2, only at the
  extremes of the inner word;
* B3: single letters separated by runs of squared letters, e.g. LR^2L;
* UnfinishedB3: a B3-like tail ending in a lone squared syllable (the
  inner word ends with exponents ..., 1, 2);
* AllB2: the whole inner word consists of squared syllables.

The blocks are read off the maximal runs of equal exponents.  A leading
squared run is B2_start (AllB2 if it is the whole word).  A trailing squared
run is B2_end if it has two or more syllables, else it ends an UnfinishedB3;
every other squared run lies inside a B3.  A run of single letters gives its
first syllable to the B3 it closes, if one is open, and its last to the B3
it opens, if a squared run other than B2_end follows; any syllables in
between form a B1.  The exception is a lone single letter between two
squared runs: it stays inside the open B3.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import groupby
from typing import NamedTuple

from .word import Word

B1 = "B1"
B2_START = "B2_start"
B2_END = "B2_end"
B3 = "B3"
UNFINISHED_B3 = "UnfinishedB3"
ALL_B2 = "AllB2"

# The exponents an inner word may have.
INNER_EXPONENTS = frozenset((1, 2))


class Block(NamedTuple):
    """A block of consecutive syllables [start, end) of the inner word.

    Length bookkeeping: B1 and B2 blocks have length 2m + p syllables with
    p in {0, 1} and k equal to the syllable count.  For B3 and UnfinishedB3,
    k counts the contained squared runs (B2 sub-blocks), b2_lengths lists
    their syllable lengths, and m is their total.
    """

    kind: str
    start: int
    end: int
    m: int
    p: int
    k: int
    b2_lengths: tuple[int, ...] = ()


@dataclass(frozen=True)
class BlockDecomposition:
    inner: Word
    blocks: tuple[Block, ...]

    def to_json(self) -> str:
        return json.dumps(
            [
                {
                    "kind": b.kind,
                    "span": [b.start, b.end],
                    "m": b.m,
                    "p": b.p,
                    "k": b.k,
                }
                for b in self.blocks
            ]
        )


def _run_block(kind: str, start: int, end: int) -> Block:
    length = end - start
    return Block(kind, start, end, m=length // 2, p=length % 2, k=length)


def _b3_block(kind: str, start: int, end: int, b2_lengths: list[int]) -> Block:
    return Block(kind, start, end, m=sum(b2_lengths), p=0, k=len(b2_lengths), b2_lengths=tuple(b2_lengths))


def decompose(inner: Word) -> BlockDecomposition:
    """Decompose an inner word with exponents in {1, 2} into blocks."""
    exps = inner.exponents
    if not INNER_EXPONENTS.issuperset(exps):
        raise ValueError(f"inner word {inner} has an exponent outside {{1, 2}}")
    n = len(exps)
    runs: list[tuple[int, int, int]] = []  # (exponent, start, end)
    for e, group in groupby(exps):
        start = runs[-1][2] if runs else 0
        runs.append((e, start, start + len(list(group))))

    blocks: list[Block] = []
    if runs[0][0] == 2:
        blocks.append(_run_block(B2_START if len(runs) > 1 else ALL_B2, 0, runs.pop(0)[2]))
    tail = runs.pop() if runs and runs[-1][0] == 2 and runs[-1][2] - runs[-1][1] >= 2 else None
    open_b3: int | None = None  # start syllable of the B3 being assembled
    b2_lengths: list[int] = []
    for i, (e, start, end) in enumerate(runs):
        opens = i + 1 < len(runs)
        if e == 2:
            b2_lengths.append(end - start)
        elif open_b3 is None or end - start > 1 or not opens:
            if open_b3 is not None:
                blocks.append(_b3_block(B3, open_b3, start + 1, b2_lengths))
                start, b2_lengths = start + 1, []
            stop = end - 1 if opens else end
            if stop > start:
                blocks.append(_run_block(B1, start, stop))
            open_b3 = stop if opens else None
    if open_b3 is not None:
        blocks.append(_b3_block(UNFINISHED_B3, open_b3, n, b2_lengths))
    if tail is not None:
        blocks.append(_run_block(B2_END, tail[1], n))

    spans = [(b.start, b.end) for b in blocks]
    assert spans[0][0] == 0 and spans[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    return BlockDecomposition(inner, tuple(blocks))
