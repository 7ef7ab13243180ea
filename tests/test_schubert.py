"""Schubert's classification as an independent oracle for the builder.

The 2-bridge link of the word with exponents a_1, ..., a_n is the link
p/q = [a_1 + 1, a_2, ..., a_{n-1}, a_n + 1], a continued fraction, and two
such links are equal iff they have the same p and q' = +-q^{+-1} mod p
(Schubert 1956).  The layered triangulation is canonical (Gueritaud 2006),
so equal links must give isomorphic triangulations, and equal volumes.
"""

import math
from fractions import Fraction

import mpmath

from twobridge.isosig import encode_isosig
from twobridge.triangulation import _labels, build_sakuma_weeks
from twobridge.volume import maximize_volume
from twobridge.word import parse_word


def fraction(w):
    """(p, q) with p/q = [a_1 + 1, a_2, ..., a_{n-1}, a_n + 1]."""
    terms = list(w.exponents)
    terms[0] += 1
    terms[-1] += 1
    value = Fraction(terms[-1])
    for a in reversed(terms[:-1]):
        value = a + 1 / value
    return value.numerator, value.denominator


def schubert_class(w):
    """(p, the smallest of +-q^{+-1} mod p): equal iff the links are equal."""
    p, q = fraction(w)
    inverse = pow(q, -1, p)
    return p, min(x % p for x in (q, -q, inverse, -inverse))


def test_fractions_of_known_links():
    # 4_1, 5_2, the Whitehead link and 6_3.
    assert [fraction(parse_word(text)) for text in ("RL", "R^2L", "RLR", "RLRL")] == [(5, 2), (7, 2), (8, 3), (13, 5)]


def test_two_cusps_iff_p_is_even(words_ell10):
    assert len(words_ell10) == 1013
    for w in words_ell10:
        cusps = len(_labels(build_sakuma_weeks(w), "vertex")[1])
        assert (cusps == 2) == (fraction(w)[0] % 2 == 0), str(w)


def test_one_signature_per_schubert_class(words_ell10):
    # The map from classes to signatures is well defined and one-to-one.
    signature_of = {}
    for w in words_ell10:
        key, sig = schubert_class(w), encode_isosig(build_sakuma_weeks(w))
        assert signature_of.setdefault(key, sig) == sig, str(w)
    assert len(signature_of) == len(set(signature_of.values())) == 548


def test_volumes_agree_within_each_schubert_class(words_ell8):
    # Equal links have equal hyperbolic volumes, whichever word gives them.
    volumes = {}
    for w in words_ell8:
        result = maximize_volume(build_sakuma_weeks(w))
        assert result.converged, str(w)
        volumes.setdefault(schubert_class(w), []).append(result.volume)
    assert (len(words_ell8), len(volumes), sum(len(v) >= 2 for v in volumes.values())) == (247, 142, 105)
    assert max(max(v) - min(v) for v in volumes.values()) <= 1e-12


def test_closed_form_volumes():
    # The figure-eight knot is two regular ideal tetrahedra, the Whitehead
    # link four Catalan's constants.
    v3 = float(3 * mpmath.clsin(2, 2 * mpmath.pi / 3) / 2)  # 3 Lobachevsky(pi/3)
    for text, exact in (("RL", 2 * v3), ("RLR", 4 * float(mpmath.catalan))):
        result = maximize_volume(build_sakuma_weeks(parse_word(text)))
        assert result.converged and math.isclose(result.volume, exact, rel_tol=0, abs_tol=1e-12), text
