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

Maximal runs of exponent-1 syllables determine the decomposition: a run of
length r in the interior contributes its first and last syllables to the
neighbouring B3 blocks and its middle r-2 syllables to a (possibly empty)
B1 block.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .word import Word

B1 = "B1"
B2_START = "B2_start"
B2_END = "B2_end"
B3 = "B3"
UNFINISHED_B3 = "UnfinishedB3"
ALL_B2 = "AllB2"


@dataclass(frozen=True)
class Block:
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

    @property
    def ends_with_unfinished_b3(self) -> bool:
        return bool(self.blocks) and self.blocks[-1].kind == UNFINISHED_B3

    @property
    def is_all_b2(self) -> bool:
        return len(self.blocks) == 1 and self.blocks[0].kind == ALL_B2

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


def decompose(inner: Word) -> BlockDecomposition:
    """Decompose an inner word with exponents in {1, 2} into blocks."""
    exps = inner.exponents
    if any(e not in (1, 2) for e in exps):
        raise ValueError(f"inner word {inner} has an exponent outside {{1, 2}}")
    n = len(exps)

    if all(e == 2 for e in exps):
        return BlockDecomposition(inner, (_run_block(ALL_B2, 0, n),))
    if all(e == 1 for e in exps):
        return BlockDecomposition(inner, (_run_block(B1, 0, n),))

    blocks: list[Block] = []
    pos = 0

    # Leading squared run: a B2 block at the start.
    if exps[0] == 2:
        while exps[pos] == 2:
            pos += 1
        blocks.append(_run_block(B2_START, 0, pos))

    # Trailing squared run: a B2 block at the end if it has length >= 2;
    # a lone trailing 2 instead closes an unfinished B3.
    tail_start = n
    while exps[tail_start - 1] == 2:
        tail_start -= 1
    trailing = n - tail_start
    unfinished = trailing == 1
    core_end = tail_start if (trailing >= 2 or unfinished) else n
    scan_end = core_end + 1 if unfinished else core_end

    # Scan the core: alternating runs of 1s and 2s, starting and ending
    # with a run of 1s (or, in the unfinished case, the final lone 2).
    open_b3: int | None = None   # start syllable of the B3 being assembled
    b2_lengths: list[int] = []
    while pos < scan_end:
        run_start = pos
        value = exps[pos]
        while pos < scan_end and exps[pos] == value:
            pos += 1
        run_len = pos - run_start
        if value == 2:
            # A squared run interior to the core always joins the open B3.
            b2_lengths.append(run_len)
            if unfinished and pos == scan_end:
                blocks.append(
                    Block(
                        UNFINISHED_B3,
                        open_b3,
                        pos,
                        m=sum(b2_lengths),
                        p=0,
                        k=len(b2_lengths),
                        b2_lengths=tuple(b2_lengths),
                    )
                )
                open_b3 = None
            continue
        # A run of single letters.  A lone single between squared runs is
        # absorbed into the enclosing B3; longer runs close the open B3
        # with their first syllable, open the next with their last, and
        # put whatever remains in between into a B1 block.
        followed_by_squares = pos < scan_end
        if open_b3 is not None:
            if run_len == 1 and followed_by_squares:
                continue  # B3 runs through this syllable
            blocks.append(
                Block(
                    B3,
                    open_b3,
                    run_start + 1,
                    m=sum(b2_lengths),
                    p=0,
                    k=len(b2_lengths),
                    b2_lengths=tuple(b2_lengths),
                )
            )
            open_b3 = None
            b2_lengths = []
            lo = run_start + 1
        else:
            lo = run_start
        if followed_by_squares:
            if pos - 1 > lo:
                blocks.append(_run_block(B1, lo, pos - 1))
            open_b3 = pos - 1
        elif pos > lo:
            blocks.append(_run_block(B1, lo, pos))

    if trailing >= 2:
        blocks.append(_run_block(B2_END, tail_start, n))

    blocks.sort(key=lambda b: b.start)
    spans = [(b.start, b.end) for b in blocks]
    assert spans[0][0] == 0 and spans[-1][1] == n
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    return BlockDecomposition(inner, tuple(blocks))
