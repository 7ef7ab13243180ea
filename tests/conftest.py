import itertools

import pytest

from twobridge.word import Word


def all_normalized_words(max_ell):
    """Every normalised hyperbolic word with at most max_ell letters."""
    out = []
    for ell in range(2, max_ell + 1):
        for n in range(2, ell + 1):
            for cuts in itertools.combinations(range(1, ell), n - 1):
                bounds = (0,) + cuts + (ell,)
                exps = tuple(b - a for a, b in zip(bounds, bounds[1:]))
                syllables = tuple(
                    ("R" if i % 2 == 0 else "L", e) for i, e in enumerate(exps)
                )
                out.append(Word(syllables))
    return out


@pytest.fixture(scope="session")
def words_ell8():
    return all_normalized_words(8)


@pytest.fixture(scope="session")
def words_ell10():
    return all_normalized_words(10)
