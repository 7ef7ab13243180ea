import hashlib
import json
from itertools import product

import pytest

from twobridge.blocks import decompose
from twobridge.word import inner_word, parse_word


def kinds(text):
    return [(b.kind, b.start, b.end) for b in decompose(parse_word(text)).blocks]


def test_single_b1():
    dec = decompose(parse_word("LRL"))
    (b,) = dec.blocks
    assert b.kind == "B1" and b.m == 1 and b.p == 1


def test_single_b3():
    dec = decompose(parse_word("LR^2L"))
    (b,) = dec.blocks
    assert b.kind == "B3" and b.k == 1 and b.b2_lengths == (1,)


def test_all_b2():
    dec = decompose(parse_word("L^2"))
    (b,) = dec.blocks
    assert b.kind == "AllB2" and b.k == 1


def test_unfinished_tail():
    dec = decompose(parse_word("LR^2"))
    (b,) = dec.blocks
    assert b.kind == "UnfinishedB3" and b.k == 1


def test_b2_at_extremes_only():
    assert kinds("L^2RL") == [("B2_start", 0, 1), ("B1", 1, 3)]
    assert kinds("LRL^2R^2") == [("B1", 0, 2), ("B2_end", 2, 4)]
    assert kinds("L^2R^2LRL^2R^2") == [
        ("B2_start", 0, 2),
        ("B1", 2, 4),
        ("B2_end", 4, 6),
    ]


def test_b3_through_lone_singles():
    assert kinds("LR^2LR^2L") == [("B3", 0, 5)]
    dec = decompose(parse_word("LR^2LR^2L"))
    assert dec.blocks[0].b2_lengths == (1, 1)


def test_adjacent_b3_blocks():
    # a run of two single syllables separates two B3 blocks with no B1
    assert kinds("LR^2LRL^2R") == [("B3", 0, 3), ("B3", 3, 6)]


def test_b1_between_b3():
    assert kinds("LR^2LRLR^2L") == [("B3", 0, 3), ("B1", 3, 4), ("B3", 4, 7)]


def test_rejects_large_exponents():
    with pytest.raises(ValueError):
        decompose(parse_word("LR^3L"))


def test_partition_property_exhaustive():
    for n in range(1, 9):
        for combo in product((1, 2), repeat=n):
            letters = "".join(
                ("L" if i % 2 == 0 else "R") * e for i, e in enumerate(combo)
            )
            w = parse_word(letters)
            dec = decompose(w)
            spans = [(b.start, b.end) for b in dec.blocks]
            assert spans[0][0] == 0 and spans[-1][1] == w.n
            assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
            for i, b in enumerate(dec.blocks):
                if b.kind == "B2_start":
                    assert i == 0
                if b.kind in ("B2_end", "UnfinishedB3", "AllB2"):
                    assert i == len(dec.blocks) - 1
                exps = w.exponents[b.start : b.end]
                if b.kind == "B1":
                    assert all(e == 1 for e in exps)
                if b.kind in ("B2_start", "B2_end", "AllB2"):
                    assert all(e == 2 for e in exps)
                    assert b.k == len(exps)
                if b.kind == "B3":
                    assert exps[0] == 1 and exps[-1] == 1
                    assert b.k == len(b.b2_lengths) >= 1


def test_blocks_pinned():
    # Every block of every inner word with 1-12 syllables and exponents in
    # {1, 2}, down to each B3's span and b2_lengths, hashed in order.
    digest = hashlib.sha256()
    for n in range(1, 13):
        for combo in product((1, 2), repeat=n):
            letters = "".join(
                ("L" if i % 2 == 0 else "R") * e for i, e in enumerate(combo)
            )
            digest.update(repr(decompose(parse_word(letters)).blocks).encode())
    assert digest.hexdigest() == "91cf02c5bc645882a36eb7094629a93aff90f0a4d71bcfa83dc8d8e86d20638d"


def test_exponent_two_only_in_squared_blocks():
    for n in range(1, 8):
        for combo in product((1, 2), repeat=n):
            letters = "".join(
                ("L" if i % 2 == 0 else "R") * e for i, e in enumerate(combo)
            )
            w = parse_word(letters)
            for b in decompose(w).blocks:
                if any(e == 2 for e in w.exponents[b.start : b.end]):
                    assert b.kind in ("B2_start", "B2_end", "B3", "UnfinishedB3", "AllB2")


def test_decompose_idempotent():
    w = inner_word(parse_word("RLR^2L^2RLR^2L"))
    first = decompose(w)
    assert decompose(first.inner) == first


def test_json():
    doc = json.loads(decompose(parse_word("LR^2L")).to_json())
    assert doc == [{"kind": "B3", "span": [0, 3], "m": 1, "p": 0, "k": 1}]
