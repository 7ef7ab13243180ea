"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Three sub-criteria are expected failures, marked xfail(strict) with
the analysis in the reason string: the degree-4 criterion at the single
word RLR, the reference 0.8720 ratio (an arithmetic slip; the consistent
value is 0.8625), and the additive-bound chain at C = 0 (where it exceeds
the actual normalised volume 2n + 1.3332 and holds only by integrality).
"""

import functools
import math
import random

import pytest

from twobridge.angles import assign_angles, expand_to_tetrahedra, verify_angle_structure
from twobridge.isosig import encode_isosig
from twobridge.moves import simplify
from twobridge.triangulation import build_sakuma_weeks, edge_classes
from twobridge.volume import assignment_volume, lobachevsky, maximize_volume, v3
from twobridge.word import Word, enumerate_words, normalize, parse_word

from conftest import SHAPES, move_44
from test_triangulation import TABLE_R2LR, TABLE_RL3R, triangulation_from_table
from test_volume import PRINTED_RATIOS, SHAPE_RATIOS, lobachevsky_quadrature, tet_volume, theorem_ratios


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:>2}: FAIL - {description}")
                raise
            print(f"criterion {number:>2}: PASS - {description}")

        return wrapper

    return deco


def mirrored(w):
    return Word(tuple(("R" if l == "L" else "L", e) for l, e in w.syllables))


def family(max_n):
    return list(enumerate_words(max_n, {1, 2}))


@criterion(1, "builder matches the two reference gluing tables up to isomorphism")
def test_criterion_1_golden_gluing_tables():
    assert encode_isosig(build_sakuma_weeks(parse_word("R^2LR"))) == encode_isosig(
        triangulation_from_table(TABLE_R2LR)
    )
    assert encode_isosig(build_sakuma_weeks(parse_word("RL^3R"))) == encode_isosig(
        triangulation_from_table(TABLE_RL3R)
    )


@criterion(2, "golden isomorphism signatures for the worked simplifications")
def test_criterion_2_golden_signatures():
    trace = simplify(build_sakuma_weeks(parse_word("R^2LR")))
    assert trace.final.tet_count == 5
    assert encode_isosig(trace.final) == "fLLQcbcdeeetsfxxh"

    tri = build_sakuma_weeks(parse_word("RL^3R"))
    sigs = {
        encode_isosig(move_44(tri, cls.index, axis))
        for cls in edge_classes(tri).classes
        if cls.degree == 4 and len({t for t, _ in cls.embeddings}) == 4
        for axis in (0, 1)
    }
    assert "iLLMLQcbcdefhghhmvftgafqa" in sigs

    trace = simplify(tri)
    assert trace.final.tet_count == 7
    assert encode_isosig(trace.final) == "hLLMPkbcdfggfgmvfafwkf"


@criterion(3, "edge classes = tetrahedra for every word with at most 8 letters")
def test_criterion_3_edge_count(words_ell8):
    count = 0
    for w in words_ell8:
        for variant in (w, mirrored(w)):
            tri = build_sakuma_weeks(normalize(variant))
            assert len(edge_classes(tri)) == tri.tet_count, str(variant)
            count += 1
    assert count == 2 * 247  # the ~500 words with ell <= 8


@criterion(4, "degree-3/4 criteria hold as an iff over the same enumeration")
def test_criterion_4_degree_lemmas(words_ell8):
    deg4_exceptions = []
    for w in words_ell8:
        degrees = edge_classes(build_sakuma_weeks(w)).degrees()
        exps = w.exponents
        assert (3 in degrees) == (exps[0] > 1 or exps[-1] > 1), str(w)
        printed = any(e >= 2 for e in exps[1:-1]) or exps[0] >= 3 or exps[-1] >= 3
        if (4 in degrees) != printed:
            deg4_exceptions.append(str(w))
        # corrected criterion, including the fold-to-fold boundary case
        assert (4 in degrees) == (printed or w.letters == "RLR"), str(w)
    assert deg4_exceptions == ["RLR"]


@pytest.mark.xfail(
    strict=True,
    reason="the reference degree-4 criterion misses the word RLR, whose vertical "
    "edge classes run fold-to-fold through both layers and have degree 4 with "
    "all exponents 1; the builder is pinned by the published gluing tables and "
    "the census figure-eight signature, so this is a defect of the criterion",
)
def test_criterion_4_degree4_as_printed(words_ell8):
    for w in words_ell8:
        degrees = edge_classes(build_sakuma_weeks(w)).degrees()
        exps = w.exponents
        printed = any(e >= 2 for e in exps[1:-1]) or exps[0] >= 3 or exps[-1] >= 3
        assert (4 in degrees) == printed, str(w)


@criterion(5, "exact angle structures verify for every family word with n <= 6")
def test_criterion_5_angle_structures():
    words = family(6)
    assert len(words) == 126
    for w in words:
        tri = build_sakuma_weeks(w)
        report = verify_angle_structure(tri, expand_to_tetrahedra(assign_angles(w), tri))
        assert report.passed, str(w)


@criterion(6, "catalogue shape volumes reproduce the reference table to 5e-4")
def test_criterion_6_shape_volumes():
    V3 = v3()
    assert abs(V3 - 1.0149) <= 5e-4
    for name, ratio in SHAPE_RATIOS.items():
        assert abs(tet_volume(SHAPES[name]) / V3 - ratio) <= 5e-4, name


@criterion(7, "reference block-family ratios to 1e-3; 0.8|T| <= V/v3 on the family")
def test_criterion_7_theorem_ratios():
    table = theorem_ratios()
    for label, value in PRINTED_RATIOS.items():
        assert abs(table[label] - value) <= 1e-3, label
    V3 = v3()
    for w in family(6):
        tri = build_sakuma_weeks(w)
        assert assignment_volume(assign_angles(w)) / v3() >= 0.8 * tri.tet_count, str(w)


@pytest.mark.xfail(
    strict=True,
    reason="the reference value 0.8720 for the revised single-squared-syllable "
    "assignment mixes absolute and v3-relative volumes; its own displayed "
    "formula (2*0.9604 + 0.6666)/3 evaluates to 0.8625",
)
def test_criterion_7_revised_ratio_as_printed():
    assert abs(theorem_ratios()["all B2, k=1, revised"] - 0.8720) <= 1e-3


@criterion(8, "minimal family certified: 2n+1.3332 <= c <= 2n+2 for n <= 8")
def test_criterion_8_minimal_family():
    V3 = v3()
    for n in range(1, 9):
        w = list(enumerate_words(n, {1}))[-1]
        lower = assignment_volume(assign_angles(w)) / V3
        assert abs(lower - (2 * n + 1.3332)) <= 1e-3
        upper = 2 * (n + 1)
        assert build_sakuma_weeks(w).tet_count == upper
        # the bounds pin the complexity exactly
        assert math.ceil(lower) == upper


@criterion(9, "additive bound chain for C in {1,2,3}, n <= 6, constants to 1e-3")
def test_criterion_9_corollary_bounds():
    V3 = v3()
    for C in (1, 2, 3):
        for w in enumerate_words(6, {1, 2}, fixed_C=C):
            n = len(w.syllables) - 2
            lower_additive = 2 * n + 1 + (0.9632 * C + 0.393)
            ratio = assignment_volume(assign_angles(w)) / V3
            assert lower_additive <= ratio + 1e-3, str(w)
    # displayed constants, recomputed coefficient-by-coefficient from
    # full-precision shape volumes
    vV = tet_volume(SHAPES["V"]) / V3
    vI = tet_volume(SHAPES["I"]) / V3
    vIII = tet_volume(SHAPES["III"]) / V3
    vVI = tet_volume(SHAPES["VI"]) / V3
    vVIII = tet_volume(SHAPES["VIII"]) / V3
    worst_slope = 2 * (2 * vIII + vVIII)          # V(theta*)/v3 per extra C
    worst_intercept = 2 * (vV + vI + vVI - vIII)
    assert abs(worst_slope - 4.9632) <= 1e-3
    assert abs(worst_intercept - 3.3930) <= 1e-3
    deficit_slope = 6 - worst_slope
    deficit_intercept = worst_intercept - 4 * vV
    # the deficit line appears in two 1-ulp-inconsistent reference forms
    assert abs(deficit_slope - 1.0369) <= 1e-3 and abs(deficit_slope - 1.0368) <= 1e-3
    assert abs(deficit_intercept - 0.0597) <= 1e-3 and abs(deficit_intercept - 0.0598) <= 1e-3
    # and the additive bound constants follow as 2 - deficit_slope etc.
    assert abs((2 - deficit_slope) - 0.9632) <= 1e-3
    assert abs((4 * vV - 2 - (-deficit_intercept) - 1) - 0.393) <= 1e-3


@pytest.mark.xfail(
    strict=True,
    reason="at C = 0 the additive bound 2n + 1.393 exceeds the actual "
    "normalised volume 2n + 1.3332 of the all-ones words, so the volume "
    "chain fails there (the reference bound still holds for the integer "
    "complexity, but only through integrality)",
)
def test_criterion_9_additive_chain_at_C0():
    V3 = v3()
    for w in enumerate_words(6, {1, 2}, fixed_C=0):
        n = len(w.syllables) - 2
        ratio = assignment_volume(assign_angles(w)) / V3
        assert 2 * n + 1 + 0.393 <= ratio + 1e-3, str(w)


@criterion(10, "volume maximisation: figure-eight to 1e-5; family n <= 5 bracketed")
def test_criterion_10_maximization():
    res = maximize_volume(build_sakuma_weeks(parse_word("RL")))
    assert abs(res.volume - 2.029883) <= 1e-5
    assert abs(res.volume - 6 * lobachevsky_quadrature(math.pi / 3)) <= 1e-5
    V3 = v3()
    for w in family(5):
        tri = build_sakuma_weeks(w)
        seed = assign_angles(w)
        res = maximize_volume(tri, seed=seed)
        assert res.gradient_norm <= 1e-8, str(w)
        assert assignment_volume(seed) - 1e-9 <= res.volume <= tri.tet_count * V3 + 1e-9


@criterion(11, "numerical hygiene: identities to 1e-10, gradient to 1e-5")
def test_criterion_11_numerical_hygiene():
    for k in range(1000):
        t = -8.0 + 16.0 * k / 999
        assert abs(lobachevsky(-t) + lobachevsky(t)) <= 1e-10
        assert abs(lobachevsky(t + math.pi) - lobachevsky(t)) <= 1e-10
        assert (
            abs(lobachevsky(2 * t) - 2 * lobachevsky(t) - 2 * lobachevsky(t + math.pi / 2))
            <= 1e-10
        )
    rng = random.Random(11)
    for _ in range(100):
        t = rng.uniform(0.02, math.pi - 0.02)
        h = 1e-6
        fd = (lobachevsky(t + h) - lobachevsky(t - h)) / (2 * h)
        assert abs(fd + math.log(abs(2 * math.sin(t)))) <= 1e-5
