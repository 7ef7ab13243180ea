import itertools

import pytest

from twobridge.triangulation import Triangulation
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


def random_gluing(n, rng, unglued=0):
    """n tetrahedra with their 4n facets, but for `unglued` of them, paired
    at random by random permutations."""
    facets = [(t, f) for t in range(n) for f in range(4)]
    rng.shuffle(facets)
    del facets[:unglued]
    tri = Triangulation(n)
    for (t, f), (t2, f2) in zip(facets[::2], facets[1::2]):
        rest = [v for v in range(4) if v != f2]
        rng.shuffle(rest)
        perm = [0] * 4
        perm[f] = f2
        for v in range(4):
            if v != f:
                perm[v] = rest.pop()
        tri.glue(t, f, t2, tuple(perm))
    return tri


@pytest.fixture(scope="session")
def words_ell8():
    return all_normalized_words(8)


@pytest.fixture(scope="session")
def words_ell10():
    return all_normalized_words(10)
