import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twobridge.angles import theorem_family
from twobridge.volume import bounds_report
from twobridge.word import (
    Word,
    enumerate_words,
    inner_word,
    is_hyperbolic,
    normalize,
    parse_word,
    render,
)


def test_parse_basic():
    assert parse_word("R^2LR").syllables == (("R", 2), ("L", 1), ("R", 1))


def test_parse_merges_runs():
    assert parse_word("RRLR") == parse_word("R^2LR")


def test_parse_explicit_exponent_one():
    assert parse_word("R^1L^1") == parse_word("RL")


@pytest.mark.parametrize("bad", ["", "R^0L", "Q", "R^", "RL R", "R2L", "^2"])
def test_parse_errors(bad):
    with pytest.raises(ValueError):
        parse_word(bad)


def test_word_invariants():
    with pytest.raises(ValueError):
        Word((("R", 2), ("R", 1)))
    with pytest.raises(ValueError):
        Word((("R", 0),))
    with pytest.raises(ValueError):
        Word(())
    with pytest.raises(ValueError, match="letter must be R or L"):
        Word((("X", 1),))
    for exp in (1.5, True, 2.0, "2"):  # an exponent must be an int, not merely compare like one
        with pytest.raises(ValueError, match="exponent must be an int"):
            Word((("R", exp), ("L", 1)))


def test_derived_quantities():
    w = parse_word("R^3L^2R")
    assert w.n == 3
    assert w.ell == 6
    assert w.letters == "RRRLLR"


def test_normalize():
    assert normalize(Word((("L", 2), ("R", 1)))) == Word((("R", 2), ("L", 1)))
    assert normalize(Word((("R", 2), ("L", 1)))) == Word((("R", 2), ("L", 1)))
    assert normalize(Word((("L", 1),))) == Word((("R", 1),))


def test_is_hyperbolic():
    assert not is_hyperbolic(parse_word("R^3"))
    assert is_hyperbolic(parse_word("RL"))
    assert is_hyperbolic(parse_word("R^2LR"))


def test_inner_word():
    assert inner_word(parse_word("RL^2R")) == parse_word("L^2")
    assert inner_word(parse_word("RLR^2L")) == parse_word("LR^2")
    assert inner_word(parse_word("RLR")) == parse_word("L")
    assert inner_word(parse_word("R^3")) == parse_word("R")
    with pytest.raises(ValueError):
        inner_word(parse_word("RL"))


def test_inner_word_strips_the_letter_string():
    # Against the letter string with its ends cut off, on every word of 3 to 10 letters.
    for ell in range(3, 11):
        for letters in itertools.product("RL", repeat=ell):
            text = "".join(letters)
            assert inner_word(parse_word(text)) == parse_word(text[1:-1]), text


def test_huge_exponent_values_leave_the_letters_unexpanded(monkeypatch):
    # R L^(10^20) R cannot be expanded into letters; everything that needs
    # only the syllables must still work, without reading Word.letters.
    def expand(self):
        raise AssertionError("letters expanded")

    monkeypatch.setattr(Word, "letters", property(expand))
    huge = 10**20
    w = parse_word(f"RL^{huge}R")
    assert w.ell == huge + 2 and w.exponents == (1, huge, 1)
    assert str(w) == f"RL^{huge}R"
    assert inner_word(w) == Word((("L", huge),))
    assert not theorem_family(w)
    report = bounds_report(w)
    assert report.tet_count == 2 * (huge + 1) and report.explicit_volume is None
    with pytest.raises(AssertionError, match="letters expanded"):
        w.letters


def test_render():
    assert render(parse_word("R^2LR")) == "R^2LR"
    assert render(parse_word("RL")) == "RL"
    assert str(parse_word("R^10L")) == "R^10L"


@given(
    st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=8),
    st.booleans(),
)
def test_render_parse_roundtrip(exponents, start_r):
    first = "R" if start_r else "L"
    second = "L" if start_r else "R"
    syllables = tuple(
        (first if i % 2 == 0 else second, e) for i, e in enumerate(exponents)
    )
    w = Word(syllables)
    assert parse_word(render(w)) == w


def test_enumerate_small():
    words = [str(w) for w in enumerate_words(1, {1, 2})]
    assert words == ["RLR", "RL^2R"]


def test_enumerate_last_letter_alternates():
    words = [str(w) for w in enumerate_words(2, {1})]
    assert words == ["RLR", "RLRL"]


def test_enumerate_fixed_C_zero():
    words = list(enumerate_words(3, {1, 2}, fixed_C=0))
    assert len(words) == 3
    assert all(all(e == 1 for e in inner_word(w).exponents) for w in words)


def test_enumerate_C_filter_exact():
    for C in range(4):
        for w in enumerate_words(5, {1, 2}, fixed_C=C):
            inner = inner_word(w)
            assert inner.ell - inner.n == C


def test_enumerate_inner_exponents():
    for w in enumerate_words(4, {1, 2}):
        assert set(inner_word(w).exponents) <= {1, 2}
        assert w.syllables[0] == ("R", 1)


def test_enumerate_errors():
    with pytest.raises(ValueError):
        list(enumerate_words(2, set()))
    with pytest.raises(ValueError):
        list(enumerate_words(0, {1}))
    with pytest.raises(ValueError):
        list(enumerate_words(2, {0, 1}))


@pytest.mark.parametrize(
    "args, message",
    [
        ((0, {1, 2}), "max_inner_syllables"),
        ((3, set()), "non-empty"),
        ((2, {0, 1}), ">= 1"),
        ((2, {1, 2}, -1), "fixed_C must be >= 0"),
        ((3, {1.5}), "ints >= 1"),
        ((2, {True}), "ints >= 1"),
    ],
)
def test_enumerate_checks_its_arguments_on_the_call(args, message):
    # no item is pulled: the error comes from the call itself
    with pytest.raises(ValueError, match=message):
        enumerate_words(*args)


@pytest.mark.parametrize("exponents", [{1, 2}, {1, 2, 3}])
def test_enumerated_words_are_checked_words(exponents):
    # enumerate_words builds its words without Word's checks; each is the
    # word those checks accept, with the same derived fields.
    words = list(enumerate_words(9, exponents))
    assert len(words) == sum(len(exponents) ** n for n in range(1, 10))
    for w in words:
        checked = Word(w.syllables)
        assert w == checked and w.exponents == checked.exponents and w.ell == checked.ell, str(w)
