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
            [{"kind": b.kind, "span": [b.start, b.end], "m": b.m, "p": b.p, "k": b.k} for b in self.blocks]
        )


def decompose(inner: Word) -> BlockDecomposition:
    """Decompose an inner word with exponents in {1, 2} into blocks."""
    exps = inner.exponents
    if not INNER_EXPONENTS.issuperset(exps):
        raise ValueError(f"inner word {inner} has an exponent outside {{1, 2}}")
    n = len(exps)
    code = bytes(exps)  # bytes.find gives the end of each run
    end = code.find(1) % (n + 1) if exps[0] == 2 else 0  # of the leading squared run
    blocks = [Block(B2_START if end < n else ALL_B2, 0, end, end // 2, end % 2, end)] if end else []
    # Each block starts at pos, where the one before it ended, so they tile
    # [0, pos); a B3 is open from pos while b2, its squared runs, is not empty.
    start = pos = end  # start: of the current run of single letters
    b2 = ()
    while start < n:
        end = code.find(2, start) % (n + 1)  # find's -1, no squared run left, wraps to n
        after = code.find(1, end) % (n + 1)  # end of the squared run [end, after)
        opens = end < n and (after < n or after - end == 1)  # not B2_end
        if not b2 or end - start > 1 or not opens:
            if b2:
                blocks.append(Block(B3, pos, start + 1, sum(b2), 0, len(b2), b2))
                pos, b2 = start + 1, ()
            stop = end - 1 if opens else end
            if stop > pos:
                blocks.append(Block(B1, pos, stop, (stop - pos) // 2, (stop - pos) % 2, stop - pos))
                pos = stop
        if not opens:
            break
        b2 += (after - end,)
        start = after
    if b2:  # the word ends in a lone squared syllable
        blocks.append(Block(UNFINISHED_B3, pos, n, sum(b2), 0, len(b2), b2))
    elif pos < n:
        blocks.append(Block(B2_END, pos, n, (n - pos) // 2, (n - pos) % 2, n - pos))
    return BlockDecomposition(inner, tuple(blocks))
