import hashlib
from collections import Counter
from fractions import Fraction as F

import pytest

from twobridge.angles import (
    _ARRANGEMENTS,
    _SLOT,
    SHAPES,
    _chains,
    _orient_layers,
    _shape_sequence,
    assign_angles,
    boundary_deficits,
    expand_to_tetrahedra,
    shape_catalog,
    theorem_family,
    verify_angle_structure,
)
from twobridge.blocks import decompose
from twobridge.triangulation import (
    BOTTOM_DIAGONAL_EVEN,
    BOTTOM_DIAGONAL_ODD,
    HORIZONTAL_EDGES,
    VERTICAL_EDGES,
    build_sakuma_weeks,
    edge_classes,
)
from twobridge.volume import bounds_report
from twobridge.word import Word, enumerate_words, inner_word, parse_word


def family(max_n):
    return list(enumerate_words(max_n, {1, 2}))


def test_catalog_contents():
    catalog = shape_catalog()
    assert [s.name for s in catalog] == ["0", "I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X2"]
    for s in catalog:
        assert sum(s.angles) == 1
        assert all(0 < a < 1 for a in s.angles)
    assert SHAPES["0"].angles == (F(1, 3), F(1, 3), F(1, 3))
    assert SHAPES["IX"].angles == (F(1, 12), F(7, 12), F(1, 3))
    assert SHAPES["X2"].angles == (F(2, 3), F(1, 6), F(1, 6))


def test_rl2r_theorem_assignment():
    a = assign_angles(parse_word("RL^2R"))
    assert [la.shape for la in a.layers] == ["II", "X2", "II"]
    assert a.layers[0].triple == (F(5, 12), F(1, 4), F(1, 3))
    assert a.layers[1].triple == (F(1, 6), F(2, 3), F(1, 6))
    assert a.layers[2].triple == a.layers[0].triple
    # the squared-run angle 2pi/3 sits on the horizontal pair
    assert a.layers[1].h == F(2, 3)


def test_rl2r_general_pattern_variant():
    a = assign_angles(parse_word("RL^2R"), k1_override=False)
    assert [la.shape for la in a.layers] == ["VII", "III", "VII"]
    tri = build_sakuma_weeks(parse_word("RL^2R"))
    assert verify_angle_structure(tri, expand_to_tetrahedra(a, tri)).passed


def test_all_ones_words_are_nearly_regular():
    for n in range(1, 9):
        w = list(enumerate_words(n, {1}))[-1]  # the all-ones word with n inner syllables
        assert inner_word(w).n == n
        a = assign_angles(w)
        shapes = [la.shape for la in a.layers]
        assert shapes[0] == "V" and shapes[-1] == "V"
        assert all(s == "0" for s in shapes[1:-1])


def test_end_layer_orientation():
    # R-ending words put pi/2 on the vertical pair of the last layer,
    # L-ending words on the horizontal pair.
    a = assign_angles(parse_word("RLRLR"))
    assert a.layers[-1].triple == (F(1, 2), F(1, 6), F(1, 3))
    a = assign_angles(parse_word("RLRL"))
    assert a.layers[-1].triple == (F(1, 6), F(1, 2), F(1, 3))


def test_b3_at_word_end_golden():
    # the final block's last two layers absorb the fold as III, VIII
    a = assign_angles(parse_word("RLR^2LR"))
    assert [la.shape for la in a.layers] == ["V", "I", "VI", "III", "VIII"]
    assert a.layers[1].triple == (F(3, 8), F(7, 24), F(1, 3))
    assert a.layers[2].triple == (F(7, 12), F(1, 6), F(1, 4))


def test_b3_mid_word_golden():
    # away from the fold the same block closes with IV, II
    a = assign_angles(parse_word("RLR^2LRLR"))
    assert [la.shape for la in a.layers][:5] == ["V", "I", "VI", "IV", "II"]
    assert a.layers[3].triple == (F(7, 24), F(5, 24), F(1, 2))
    assert a.layers[4].triple == (F(5, 12), F(1, 4), F(1, 3))


def test_assign_errors():
    with pytest.raises(ValueError):
        assign_angles(parse_word("RL"))  # no inner word
    with pytest.raises(ValueError):
        assign_angles(parse_word("RL^3R"))  # exponent 3
    with pytest.raises(ValueError):
        assign_angles(parse_word("L^2R"))  # not normalised
    dec = decompose(parse_word("LRL"))
    with pytest.raises(ValueError):
        assign_angles(parse_word("RL^2R"), dec)  # mismatched decomposition


def test_exhaustive_verification_n6():
    words = family(6)
    assert len(words) == 126
    for w in words:
        tri = build_sakuma_weeks(w)
        a = assign_angles(w)
        report = verify_angle_structure(tri, expand_to_tetrahedra(a, tri))
        assert report.passed, (str(w), report.bad_edge_classes)


def test_assigned_triples_are_catalog_shapes():
    for w in family(5):
        for la in assign_angles(w).layers:
            assert sorted(la.triple) == sorted(SHAPES[la.shape].angles)


def test_expand_shape_zero_regular():
    w = parse_word("RLRLR")
    tri = build_sakuma_weeks(w)
    amap = expand_to_tetrahedra(assign_angles(w), tri)
    for t in range(tri.tet_count):
        if tri.layer_of[t] in (1, 2):
            assert all(amap[(t, e)] == F(1, 3) for e in range(6))


def test_expand_total_angle_mass():
    for word in ("RLR", "RL^2R", "RLR^2LR"):
        w = parse_word(word)
        tri = build_sakuma_weeks(w)
        amap = expand_to_tetrahedra(assign_angles(w), tri)
        assert sum(amap.values()) == 2 * tri.tet_count  # units of pi


def test_expand_requires_layer_metadata():
    w = parse_word("RL^2R")
    tri = build_sakuma_weeks(w)
    tri.layer_of = None
    with pytest.raises(ValueError):
        expand_to_tetrahedra(assign_angles(w), tri)


def test_perturbation_fails_locally():
    w = parse_word("RLRLR")
    tri = build_sakuma_weeks(w)
    amap = expand_to_tetrahedra(assign_angles(w), tri)
    target_pair = (2, 1)  # tetrahedron 2, vertical pair (edges 1 and 4)
    amap[(2, 1)] += F(1, 24)
    amap[(2, 4)] += F(1, 24)
    report = verify_angle_structure(tri, amap)
    assert not report.passed
    table = edge_classes(tri)
    touched = {table.class_of[(2, 1)], table.class_of[(2, 4)]}
    assert set(report.bad_edge_classes) == touched
    assert report.bad_tets == [2]


def test_verify_catches_a_48th_of_pi_on_one_class():
    # 1/48 is not a multiple of pi/24: the check must fall back to exact
    # Fractions rather than miss the difference.
    w = parse_word("RLRLR")
    tri = build_sakuma_weeks(w)
    amap = expand_to_tetrahedra(assign_angles(w), tri)
    amap[(3, 0)] += F(1, 48)
    report = verify_angle_structure(tri, amap)
    assert not report.passed
    assert report.bad_edge_classes == [edge_classes(tri).class_of[(3, 0)]]
    assert report.bad_tets == [3] and report.range_ok


def test_verify_exact_for_denominators_outside_24():
    # On RL the edge equations 4h + 2d = 4v + 2d = 2 hold for v = h = (1 - d)/2.
    tri = build_sakuma_weeks(parse_word("RL"))

    def layer_map(v, h, d):
        angle = {**{e: v for e in VERTICAL_EDGES}, **{e: h for e in HORIZONTAL_EDGES}}
        return {(t, e): angle.get(e, d) for t in range(tri.tet_count) for e in range(6)}

    assert verify_angle_structure(tri, layer_map(F(2, 5), F(2, 5), F(1, 5))).passed
    report = verify_angle_structure(tri, layer_map(F(3, 7), F(13, 35), F(1, 5)))
    assert report.range_ok and report.tet_sums_ok
    assert not report.edge_sums_ok and len(report.bad_edge_classes) == 2


def test_all_regular_fails_for_squared_word():
    w = parse_word("RL^2R")
    tri = build_sakuma_weeks(w)
    amap = {(t, e): F(1, 3) for t in range(tri.tet_count) for e in range(6)}
    report = verify_angle_structure(tri, amap)
    assert report.tet_sums_ok
    assert not report.edge_sums_ok


def test_verify_float_fallback():
    import math

    w = parse_word("RL^2R")
    tri = build_sakuma_weeks(w)
    amap = expand_to_tetrahedra(assign_angles(w), tri)
    floats = {k: float(v) * math.pi for k, v in amap.items()}
    assert verify_angle_structure(tri, floats).passed
    floats[(0, 0)] += 1e-6
    floats[(0, 5)] += 1e-6
    assert not verify_angle_structure(tri, floats).passed


def shape_counts(word_text):
    w = parse_word(word_text)
    a = assign_angles(w)
    dec = decompose(inner_word(w))
    exps = inner_word(w).exponents
    out = []
    for b in dec.blocks:
        lo = 1 + sum(exps[: b.start])
        hi = 1 + sum(exps[: b.end])
        counts = {}
        for la in a.layers[lo:hi]:
            counts[la.shape] = counts.get(la.shape, 0) + 1
        out.append((b, counts))
    return a, out


def test_layer_counts_match_block_table():
    # B1 of length k: k regular layers (one V at the word end)
    _, [(b, counts)] = shape_counts("RLRLRLR")
    assert counts == {"0": b.k - 1, "V": 1}
    # B2 at start, length k: 2(k-1) of III plus VI, I
    _, blocks = shape_counts("RL^2R^2LRLR")
    b, counts = blocks[0]
    assert b.kind == "B2_start" and counts == {"III": 2 * (b.k - 1), "VI": 1, "I": 1}
    # B2 at end, k = 2: one IX and three V
    _, blocks = shape_counts("RLRL^2R^2L")
    b, counts = blocks[-1]
    assert b.kind == "B2_end" and counts == {"IX": 1, "V": 3}
    # B2 at end, k = 3: one IX, 2k-5 of III, four V
    _, blocks = shape_counts("RLR^2L^2R^2L")
    b, counts = blocks[-1]
    assert b.kind == "B2_end" and counts == {"IX": 1, "III": 1, "V": 4}
    # B3 with one squared run of length m: I, VI, IV, II and 2(m-1) of III
    _, blocks = shape_counts("RLR^2L^2RLR")
    b, counts = blocks[0]
    assert b.kind == "B3" and counts == {"I": 1, "VI": 1, "III": 2, "IV": 1, "II": 1}
    # unfinished B3 with a single lone squared syllable: I, VI, VII
    _, blocks = shape_counts("RLRL^2R")
    b, counts = blocks[-1]
    assert b.kind == "UnfinishedB3" and counts == {"I": 1, "VI": 1, "VII": 1}
    # all squared syllables: III everywhere except the two fold layers
    w = parse_word("RL^2R^2L^2R")
    a = assign_angles(w)
    assert [la.shape for la in a.layers] == ["VII"] + ["III"] * 5 + ["VII"]


def test_layer_counts_corrected_corner_cases():
    # Longer unfinished blocks end with VII (the reference pattern, ending
    # with a fourth III, admits no consistent orientation).
    _, blocks = shape_counts("RLR^2LR^2L")
    b, counts = blocks[-1]
    assert b.kind == "UnfinishedB3" and b.k == 2
    assert counts == {"I": 1, "VI": 1, "III": 2, "VIII": 1, "VII": 1}
    # B2-end blocks of length >= 4 interleave III and V after the IX.
    _, blocks = shape_counts("RLR^2L^2R^2L^2R")
    b, counts = blocks[-1]
    assert b.kind == "B2_end" and b.k == 4
    assert counts == {"IX": 1, "III": 2, "V": 5}


@pytest.mark.xfail(
    strict=True,
    reason="reference shape pattern for longer unfinished blocks (final layer III, "
    "2l-1 layers of III in total) admits no orientation satisfying the edge "
    "equations; the implementation ends these blocks with VII instead",
)
def test_printed_unfinished_pattern_is_realisable():
    from twobridge.angles import _orient_layers

    w = parse_word("RLR^2LR^2L")
    shapes = ["V", "I", "VI", "III", "III", "VIII", "III"]
    assert _orient_layers(w.letters, shapes) is not None


@pytest.mark.xfail(
    strict=True,
    reason="reference shape pattern for B2-end blocks of length >= 4 (IX, 2k-5 "
    "layers of III, then four V) admits no orientation satisfying the edge "
    "equations; the implementation interleaves III and V instead",
)
def test_printed_b2_end_pattern_is_realisable():
    from twobridge.angles import _orient_layers

    w = parse_word("RLR^2L^2R^2L^2R")
    shapes = ["V", "0", "IX", "III", "III", "III", "V", "V", "V", "V"]
    assert _orient_layers(w.letters, shapes) is not None


def test_boundary_deficit_tables():
    # single B1 starting with L
    w = parse_word("RLRLRLR")
    a = assign_angles(w)
    (b,) = decompose(inner_word(w)).blocks
    delta, _ = boundary_deficits(b, a)
    assert tuple(delta) == (F(1, 3), F(1, 1), F(5, 3))
    # B3 starting L and ending L, mid-word
    w = parse_word("RLRLR^2LRLR")
    a = assign_angles(w)
    b3 = decompose(inner_word(w)).blocks[1]
    assert b3.kind == "B3"
    delta, eps = boundary_deficits(b3, a)
    assert tuple(delta) == (F(1, 3), F(1, 1), F(5, 3))
    assert tuple(eps) == (F(1, 1), F(1, 3), F(5, 3))
    # B3 starting R and ending R, mid-word
    w = parse_word("RLRL^2RLR")
    a = assign_angles(w)
    b3 = decompose(inner_word(w)).blocks[1]
    assert b3.kind == "B3"
    delta, eps = boundary_deficits(b3, a)
    assert tuple(delta) == (F(1, 1), F(1, 3), F(5, 3))
    assert tuple(eps) == (F(1, 3), F(1, 1), F(5, 3))


def test_junction_compatibility_everywhere():
    two = F(2)
    for w in family(6):
        a = assign_angles(w)
        inner = inner_word(w)
        dec = decompose(inner)
        for b_prev, b_next in zip(dec.blocks, dec.blocks[1:]):
            _, eps = boundary_deficits(b_prev, a)
            delta, _ = boundary_deficits(b_next, a)
            junction = inner.letters[sum(inner.exponents[: b_next.start])]
            if junction == "R":
                sums = (
                    eps.horizontal + delta.horizontal,
                    eps.vertical + delta.diagonal,
                    eps.diagonal + delta.vertical,
                )
            else:
                sums = (
                    eps.horizontal + delta.diagonal,
                    eps.vertical + delta.vertical,
                    eps.diagonal + delta.horizontal,
                )
            assert sums == (two, two, two), (str(w), b_prev.kind, b_next.kind)


def test_theorem_family_predicate():
    assert theorem_family(parse_word("RL^2R"))
    assert not theorem_family(parse_word("RL^3R"))
    assert not theorem_family(parse_word("RL"))
    assert not theorem_family(parse_word("R^3"))
    assert not theorem_family(parse_word("R^2LR"))  # first exponent 2
    assert not theorem_family(parse_word("RL^2"))  # last exponent 2


def test_assign_angles_succeeds_exactly_on_the_family(words_ell10):
    for w in words_ell10:
        if theorem_family(w):
            assert len(assign_angles(w).layers) == w.ell - 1
        else:
            with pytest.raises(ValueError):
                assign_angles(w)


def gluing_classes(w):
    """Edge classes of the builder output as multisets of ((layer, role), multiplicity)."""
    tri = build_sakuma_weeks(w)
    out = Counter()
    for cls in edge_classes(tri).classes:
        counts = Counter()
        for t, e in cls.embeddings:
            if e in VERTICAL_EDGES:
                role = "v"
            elif e in HORIZONTAL_EDGES:
                role = "h"
            else:
                bottom = BOTTOM_DIAGONAL_EVEN if t % 2 == 0 else BOTTOM_DIAGONAL_ODD
                role = "bottom d" if e == bottom else "top d"
            counts[t // 2, role] += 1
        out[frozenset(counts.items())] += 1
    return out


def chain_classes(w):
    """The same multiset read off _chains: a fold chain (target pi) is one class
    with doubled multiplicities, any other chain (target 2 pi) two classes."""
    out = Counter()
    for terms, target in _chains(w.letters):
        assert target in (24, 48)
        counts = Counter()
        for i, (layer, slot, weight) in enumerate(terms):
            role = slot
            if slot == "d":
                # Up a layer a chain meets the bottom diagonal, then h or v,
                # then the top diagonal, so the neighbouring term tells which.
                if i == 0:
                    bottom = terms[1][0] == layer
                else:
                    bottom = terms[i - 1][0] < layer
                role = "bottom d" if bottom else "top d"
            counts[layer, role] += weight
        fold = target == 24
        out[frozenset((key, 2 * c if fold else c) for key, c in counts.items())] += 1 if fold else 2
    return out


def test_chains_match_union_find(words_ell10):
    assert len(words_ell10) == 1013
    for w in words_ell10:
        assert chain_classes(w) == gluing_classes(w), str(w)


def test_orientation_and_deficits_unchanged_n9():
    # Digests recorded from the recursive Fraction search and the letter-scan
    # deficits that the chain model replaced.
    triples, deficits = [], []
    for w in family(9):
        a = assign_angles(w)
        triples.append(f"{w}:" + ";".join(f"{la.shape},{la.v},{la.h},{la.d}" for la in a.layers))
        for b in decompose(inner_word(w)).blocks:
            delta, eps = boundary_deficits(b, a)
            deficits.append(f"{w} {b.kind} {b.start} {b.end}: {tuple(map(str, delta))} {tuple(map(str, eps))}")
    assert len(triples) == 1022 and len(deficits) == 2783
    digest = hashlib.sha256("\n".join(triples).encode()).hexdigest()
    assert digest == "64cbf02a617b283a382e2f736d1df3fced1aea7e432f1f3d6869ee2ec9f420a8"
    digest = hashlib.sha256("\n".join(deficits).encode()).hexdigest()
    assert digest == "3e662c901214e2a36345f5aa9848c7ff45f2809bd630ec0619bb63909b0fc701"


def reference_orient(letters, shapes):
    """The plain backtracking search that _orient_layers prunes: every
    closing chain re-summed for each candidate, no look-ahead."""
    closing = [[] for _ in shapes]
    for terms, target in _chains(letters):
        indexed = [(layer, _SLOT[slot], weight) for layer, slot, weight in terms]
        closing[terms[-1][0]].append((indexed, target))
    chosen, resume, start = [], [], 0
    while len(chosen) < len(shapes):
        k = len(chosen)
        options = _ARRANGEMENTS[shapes[k]]
        for i in range(start, len(options)):
            chosen.append(options[i])
            if all(
                sum(weight * chosen[layer][slot] for layer, slot, weight in terms) == target
                for terms, target in closing[k]
            ):
                resume.append(i + 1)
                start = 0
                break
            chosen.pop()
        else:
            if not chosen:
                return None
            chosen.pop()
            start = resume.pop()
    return chosen


@pytest.mark.parametrize("k1_override", [True, False])
def test_forward_checked_search_matches_plain_backtracking(words_ell10, k1_override):
    family_words = [w for w in words_ell10 if theorem_family(w)]
    assert len(family_words) == 87
    for w in family_words:
        shapes = _shape_sequence(decompose(inner_word(w)), k1_override)
        found = _orient_layers(w.letters, shapes)
        assert found is not None and found == reference_orient(w.letters, shapes), str(w)


def test_long_family_word():
    # 5002 letters: far past the depth at which a recursive search overflows.
    inner = tuple(("LR"[i % 2], 2 if i % 3 == 1 else 1) for i in range(3750))
    w = Word((("R", 1),) + inner + (("R" if inner[-1][0] == "L" else "L", 1),))
    assert w.ell == 5002 and theorem_family(w)
    a = assign_angles(w)
    assert len(a.layers) == w.ell - 1
    assert all(sum(la.triple) == 1 for la in a.layers)
    report = bounds_report(w)
    assert report.explicit_volume is not None and report.tet_count == 2 * (w.ell - 1)
