import hashlib
import math
import random
from collections import Counter
from fractions import Fraction as F
from functools import cache
from typing import NamedTuple

import pytest

from conftest import SHAPES
from twobridge import angles
from twobridge.angles import (
    _ARRANGEMENTS,
    _UNITS,
    D,
    H,
    V,
    _orient_layers,
    _shape_sequence,
    assign_angles,
    expand_to_tetrahedra,
    theorem_family,
    verify_angle_structure,
)
from twobridge.blocks import B1, Block, decompose
from twobridge.triangulation import build_sakuma_weeks, edge_classes
from twobridge.volume import bounds_report
from twobridge.word import Word, enumerate_words, inner_word, parse_word

# Roles of the in-tetrahedron edges in builder output.
HORIZONTAL_EDGES = (0, 5)
VERTICAL_EDGES = (1, 4)
DIAGONAL_EDGES = (2, 3)
BOTTOM_DIAGONAL_EVEN = 2  # edge 03 of even tetrahedra
BOTTOM_DIAGONAL_ODD = 3  # edge 12 of odd tetrahedra


@cache
def family(max_n):
    return tuple(enumerate_words(max_n, {1, 2}))


def test_catalog_contents():
    assert list(SHAPES) == ["0", "I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X2"]
    for triple in SHAPES.values():
        assert sum(triple) == 1
        assert all(0 < a < 1 for a in triple)
    assert SHAPES["0"] == (F(1, 3), F(1, 3), F(1, 3))
    assert SHAPES["IX"] == (F(1, 12), F(7, 12), F(1, 3))
    assert SHAPES["X2"] == (F(2, 3), F(1, 6), F(1, 6))


def test_rl2r_theorem_assignment():
    a = assign_angles(parse_word("RL^2R"))
    assert [la.shape for la in a.layers] == ["II", "X2", "II"]
    assert a.layers[0].triple == (F(1, 4), F(5, 12), F(1, 3))
    assert a.layers[1].triple == (F(2, 3), F(1, 6), F(1, 6))
    assert a.layers[2].triple == a.layers[0].triple
    # the squared-run angle 2pi/3 sits on the horizontal pair
    assert a.layers[1].triple[H] == F(2, 3)


def test_rl2r_general_pattern_variant():
    # The generic squared-run pattern that X2 replaces on RL^2R is an angle
    # structure too, of lower volume.
    w = parse_word("RL^2R")
    shapes = ["VII", "III", "VII"]
    oriented = _orient_layers(w.letters, shapes)
    assert [sorted(units) for units in oriented] == [sorted(_UNITS[s]) for s in shapes]
    tri = build_sakuma_weeks(w)
    triples = [tuple(F(x, 24) for x in oriented[k]) for k in tri.layer_of]
    assert verify_angle_structure(tri, triples).passed


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
    assert a.layers[-1].triple == (F(1, 6), F(1, 2), F(1, 3))
    a = assign_angles(parse_word("RLRL"))
    assert a.layers[-1].triple == (F(1, 2), F(1, 6), F(1, 3))


def test_b3_at_word_end_golden():
    # the final block's last two layers absorb the fold as III, VIII
    a = assign_angles(parse_word("RLR^2LR"))
    assert [la.shape for la in a.layers] == ["V", "I", "VI", "III", "VIII"]
    assert a.layers[1].triple == (F(7, 24), F(3, 8), F(1, 3))
    assert a.layers[2].triple == (F(1, 6), F(7, 12), F(1, 4))


def test_b3_mid_word_golden():
    # away from the fold the same block closes with IV, II
    a = assign_angles(parse_word("RLR^2LRLR"))
    assert [la.shape for la in a.layers][:5] == ["V", "I", "VI", "IV", "II"]
    assert a.layers[3].triple == (F(5, 24), F(7, 24), F(1, 2))
    assert a.layers[4].triple == (F(1, 4), F(5, 12), F(1, 3))


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
            assert sorted(la.triple) == sorted(SHAPES[la.shape])


def test_expand_shape_zero_regular():
    w = parse_word("RLRLR")
    tri = build_sakuma_weeks(w)
    angles = expand_to_tetrahedra(assign_angles(w), tri)
    for t in range(tri.tet_count):
        if tri.layer_of[t] in (1, 2):
            assert angles[t] == (F(1, 3),) * 3


def test_expand_total_angle_mass():
    for word in ("RLR", "RL^2R", "RLR^2LR"):
        w = parse_word(word)
        tri = build_sakuma_weeks(w)
        angles = expand_to_tetrahedra(assign_angles(w), tri)
        assert len(angles) == tri.tet_count
        assert sum(map(sum, angles)) == tri.tet_count  # units of pi


def test_expand_pair_order_follows_the_edge_roles():
    # Pair p holds edges p and 5 - p: in builder output the horizontal,
    # vertical and diagonal pair, the layer's (h, v, d) triple as it is.
    w = parse_word("RL^2RLR")
    tri = build_sakuma_weeks(w)
    a = assign_angles(w)
    angles = expand_to_tetrahedra(a, tri)
    for t, triple in enumerate(angles):
        assert triple is a.layers[tri.layer_of[t]].triple
        h, v, d = triple
        for edges, angle in ((HORIZONTAL_EDGES, h), (VERTICAL_EDGES, v), (DIAGONAL_EDGES, d)):
            for e in edges:
                assert triple[min(e, 5 - e)] == angle, (t, e)
    assert all(angles[2 * k] is angles[2 * k + 1] for k in range(len(a.layers)))  # one tuple per layer


def test_expand_requires_layer_metadata():
    w = parse_word("RL^2R")
    tri = build_sakuma_weeks(w)
    with pytest.raises(ValueError, match="different layer counts"):
        expand_to_tetrahedra(assign_angles(parse_word("RLR^2LR")), tri)
    tri.layer_of = None
    with pytest.raises(ValueError):
        expand_to_tetrahedra(assign_angles(w), tri)


def test_perturbation_fails_locally():
    w = parse_word("RLRLR")
    tri = build_sakuma_weeks(w)
    angles = [list(triple) for triple in expand_to_tetrahedra(assign_angles(w), tri)]
    angles[2][1] += F(1, 24)  # tetrahedron 2, vertical pair (edges 1 and 4)
    report = verify_angle_structure(tri, angles)
    assert not report.passed
    touched = {c.index for c in edge_classes(tri).classes if {(2, 1), (2, 4)} & set(c.embeddings)}
    assert set(report.bad_edge_classes) == touched
    assert report.bad_tets == [2]


def test_verify_rejects_missing_and_zero_angles():
    w = parse_word("RLRLR")
    tri = build_sakuma_weeks(w)
    angles = expand_to_tetrahedra(assign_angles(w), tri)
    flat = [list(triple) for triple in angles]
    flat[2][1] = F(0)  # the sums fail too, but the range check is its own
    report = verify_angle_structure(tri, flat)
    assert not report.range_ok and report.bad_angles == [(2, 1)]
    for missing in (angles[:-1], angles[:2] + [angles[2][:2]] + angles[3:]):
        with pytest.raises(ValueError, match="need 8 triples"):
            verify_angle_structure(tri, missing)


def test_verify_catches_a_48th_of_pi_on_one_class():
    # 1/48 is not a multiple of pi/24: the check must fall back to exact
    # Fractions rather than miss the difference.
    w = parse_word("RLRLR")
    tri = build_sakuma_weeks(w)
    angles = [list(triple) for triple in expand_to_tetrahedra(assign_angles(w), tri)]
    angles[3][0] += F(1, 48)  # edges 0 and 5 of tetrahedron 3
    report = verify_angle_structure(tri, angles)
    assert not report.passed
    touched = {c.index for c in edge_classes(tri).classes if {(3, 0), (3, 5)} & set(c.embeddings)}
    assert report.bad_edge_classes == sorted(touched)
    assert report.bad_tets == [3] and report.range_ok


def test_verify_exact_for_denominators_outside_24():
    # On RL the edge equations 4h + 2d = 4v + 2d = 2 hold for v = h = (1 - d)/2.
    tri = build_sakuma_weeks(parse_word("RL"))

    def layer_map(*triple):  # pairs 0/5, 1/4, 2/3: horizontal, vertical, diagonal
        return [triple] * tri.tet_count

    assert verify_angle_structure(tri, layer_map(F(2, 5), F(2, 5), F(1, 5))).passed
    report = verify_angle_structure(tri, layer_map(F(13, 35), F(3, 7), F(1, 5)))
    assert report.range_ok and report.tet_sums_ok
    assert not report.edge_sums_ok and len(report.bad_edge_classes) == 2


def test_all_regular_fails_for_squared_word():
    w = parse_word("RL^2R")
    tri = build_sakuma_weeks(w)
    report = verify_angle_structure(tri, [(F(1, 3),) * 3] * tri.tet_count)
    assert report.tet_sums_ok
    assert not report.edge_sums_ok


def test_verify_float_fallback():
    w = parse_word("RL^2R")
    tri = build_sakuma_weeks(w)
    angles = expand_to_tetrahedra(assign_angles(w), tri)
    floats = [[float(a) * math.pi for a in triple] for triple in angles]
    assert verify_angle_structure(tri, floats).passed
    floats[0][0] += 1e-6  # edges 0 and 5 of tetrahedron 0
    assert not verify_angle_structure(tri, floats).passed


def reference_verdicts(tri, angles):
    """The bad angles, tetrahedra and edge classes by their definitions,
    summing over the embeddings of the EdgeClassTable."""
    pi_val, tol = math.pi, 1e-9
    values = [x for triple in angles for x in triple]
    if all(isinstance(x, F) for x in values):
        pi_val, tol = math.lcm(*(x.denominator for x in values)), 0
        angles = [[x * pi_val for x in triple] for triple in angles]
    n = tri.tet_count
    bad_angles = [(t, p) for t in range(n) for p in range(3) if not 0 < angles[t][p] < pi_val]
    bad_tets = [t for t in range(n) if abs(sum(angles[t]) - pi_val) > tol]
    bad_classes = [
        c.index
        for c in edge_classes(tri).classes
        if abs(sum(angles[t][min(e, 5 - e)] for t, e in c.embeddings) - 2 * pi_val) > tol
    ]
    return bad_angles, bad_tets, bad_classes


def test_verify_reads_every_value_for_the_arithmetic():
    # Every one of the 3n values decides between exact and float arithmetic
    # and enters the common denominator; there is no room for a value
    # outside the triangulation: a triple too many is a ValueError.
    w = parse_word("RL^2RLR")
    tri = build_sakuma_weeks(w)
    n = tri.tet_count
    exact = expand_to_tetrahedra(assign_angles(w), tri)

    def edited(triples, changes):  # changes: {(t, p): the new angle on pair p of tetrahedron t}
        out = [list(triple) for triple in triples]
        for (t, p), x in changes.items():
            out[t][p] = x
        return out

    radians = [[float(x) * math.pi for x in triple] for triple in exact]
    broken = edited(exact, {(3, 0): exact[3][0] + F(1, 48), (2, 1): F(0)})
    angle_sets = {
        "exact": exact,
        "broken": broken,
        "sevenths": edited(broken, {(4, 2): exact[4][2] + F(1, 7)}),
        "one float angle": edited(exact, {(1, 2): float(exact[1][2])}),  # Fractions then count as radians
        "radians": edited(radians, {(0, 0): radians[0][0] + 1e-6}),
    }
    for name, angles in angle_sets.items():
        report = verify_angle_structure(tri, angles)
        verdicts = (report.bad_angles, report.bad_tets, report.bad_edge_classes)
        assert verdicts == reference_verdicts(tri, angles), name
        assert report.passed == (verdicts == ([], [], [])), name
    assert verify_angle_structure(tri, angle_sets["sevenths"]).bad_tets == [2, 3, 4]
    assert verify_angle_structure(tri, angle_sets["one float angle"]).bad_tets == list(range(n))
    for wrong in (exact + [exact[0]], exact[:-1] + [exact[-1] + (F(0),)]):
        with pytest.raises(ValueError, match=f"need {n} triples"):
            verify_angle_structure(tri, wrong)


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


class DeficitTriple(NamedTuple):
    """Angle deficits on the three boundary edge classes of a block end."""

    horizontal: F
    vertical: F
    diagonal: F


def boundary_deficits(block, assignment):
    """Angle deficits on the three boundary classes at each end of a block.

    Deficits are what the rest of the complex must contribute for the edge
    sums through the block boundary to reach 2*pi.  At the block's first
    layer the horizontal and vertical deficits are the sums of the chains
    through that layer's h and v terms up to those terms; at its last layer
    they are the sums after them.  Raises ValueError unless the block lies
    within the inner word.
    """
    exps = inner_word(assignment.word).exponents
    if not 0 <= block.start < block.end <= len(exps):
        raise ValueError(f"block spans syllables {block.start}..{block.end}, outside 0..{len(exps)}")
    first = 1 + sum(exps[: block.start])  # first and last layer of the block
    last = sum(exps[: block.end])
    units = [la.units for la in assignment.layers]
    before, after = {}, {}
    for terms, _ in chains(assignment.word.letters):
        values = [weight * units[layer][slot] for layer, slot, weight in terms]
        for i, (layer, slot, _) in enumerate(terms):
            if slot != D and layer in (first, last):
                before[layer, slot] = sum(values[:i])
                after[layer, slot] = sum(values[i + 1 :])
    delta = (before[first, H], before[first, V], 48 - units[first][D])
    epsilon = (after[last, H], after[last, V], 48 - units[last][D])
    return DeficitTriple(*(F(x, 24) for x in delta)), DeficitTriple(*(F(x, 24) for x in epsilon))


def test_boundary_deficit_tables():
    # single B1 starting with L
    w = parse_word("RLRLRLR")
    a = assign_angles(w)
    (b,) = decompose(inner_word(w)).blocks
    delta, _ = boundary_deficits(b, a)
    assert delta == DeficitTriple(horizontal=F(1, 3), vertical=F(1, 1), diagonal=F(5, 3))
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


def test_boundary_deficits_reject_blocks_outside_the_inner_word():
    w = parse_word("RLRLR")  # inner word LRL: syllables 0..3
    a = assign_angles(w)
    (b,) = decompose(inner_word(w)).blocks
    assert (b.start, b.end) == (0, 3)
    boundary_deficits(b, a)
    for start, end in ((0, 9), (2, 1), (1, 1), (-1, 2), (0, 4), (3, 3)):
        with pytest.raises(ValueError, match="outside 0..3"):
            boundary_deficits(Block(B1, start, end, 0, 0, 0), a)


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


def chains(letters):
    """Every edge class of the layered complex as a chain of terms, by the
    rules of the angles module docstring: (terms, target) pairs, terms
    (layer, slot, weight) in order up the layers, target the sum the
    weighted angles must reach in units of pi/24."""
    n = len(letters) - 1
    out = []
    open_terms = [[(0, D, 1)], []]  # the open horizontal and vertical chains
    target = [24, 48]  # theirs: 24 once a chain touches a fold
    for k in range(n):
        if k:
            slot = H if letters[k] == "L" else V
            open_terms[slot].append((k, D, 1))
            out.append((open_terms[slot], target[slot]))
            open_terms[slot], target[slot] = [(k - 1, D, 1)], 48
        open_terms[H].append((k, H, 2))
        open_terms[V].append((k, V, 2))
    slot = H if letters[-1] == "R" else V
    open_terms[slot].append((n - 1, D, 1))
    target[slot] = 24
    return out + [(open_terms[H], target[H]), (open_terms[V], target[V])]


def chain_classes(w):
    """The same multiset read off chains: a fold chain (target pi) is one class
    with doubled multiplicities, any other chain (target 2 pi) two classes."""
    out = Counter()
    for terms, target in chains(w.letters):
        assert target in (24, 48)
        counts = Counter()
        for i, (layer, slot, weight) in enumerate(terms):
            role = "hvd"[slot]
            if slot == D:
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
    # deficits that the chain model replaced; the triples print in the
    # (v, h, d) order they were then stored in.
    triples, deficits = [], []
    for w in family(9):
        a = assign_angles(w)
        triples.append(f"{w}:" + ";".join(f"{la.shape},{la.triple[V]},{la.triple[H]},{la.triple[D]}" for la in a.layers))
        for b in decompose(inner_word(w)).blocks:
            delta, eps = boundary_deficits(b, a)
            deficits.append(f"{w} {b.kind} {b.start} {b.end}: {tuple(map(str, delta))} {tuple(map(str, eps))}")
    assert len(triples) == 1022 and len(deficits) == 2783
    digest = hashlib.sha256("\n".join(triples).encode()).hexdigest()
    assert digest == "64cbf02a617b283a382e2f736d1df3fced1aea7e432f1f3d6869ee2ec9f420a8"
    digest = hashlib.sha256("\n".join(deficits).encode()).hexdigest()
    assert digest == "3e662c901214e2a36345f5aa9848c7ff45f2809bd630ec0619bb63909b0fc701"


def test_survey_layer_triples_unchanged():
    # Every word of `twobridge survey --max-n 11`: each layer's shape and its
    # angles in units of pi/24, the Fractions of LayerAngles.triple being
    # read from the same shared table.  Digest recorded before the
    # check-before-apply search on integer chain slots, when the units were
    # stored, and are still printed, in (v, h, d) order.
    words = family(11)
    lines = [
        f"{w}: {[(la.shape, (la.units[V], la.units[H], la.units[D])) for la in assign_angles(w).layers]}"
        for w in words
    ]
    assert len(words) == 4094
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "5e34ab0bb1cd674241851e37a61b60068663e56e1ba89984c725a6a267a69c39"


def reference_orient(letters, shapes):
    """Plain backtracking over chains, the model that _orient_layers walks:
    every closing chain re-summed for each candidate, no look-ahead."""
    closing = [[] for _ in shapes]
    for terms, target in chains(letters):
        closing[terms[-1][0]].append((terms, target))
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


def test_state_walk_matches_plain_backtracking(words_ell10):
    family_words = [w for w in words_ell10 if theorem_family(w)]
    assert len(family_words) == 87
    for w in family_words:
        shapes = _shape_sequence(decompose(inner_word(w)))
        found = _orient_layers(w.letters, shapes)
        assert found is not None and found == reference_orient(w.letters, shapes), str(w)


def test_state_walk_matches_plain_backtracking_on_random_shapes():
    # Random letters and shapes mostly admit no orientation, so this covers
    # the sweep's emptied frontiers, its pruning and its merging of paths.
    rng = random.Random(26)
    names = list(SHAPES)
    outcomes = Counter()
    for _ in range(3000):
        n = rng.randint(1, 8)
        letters = "".join(rng.choice("LR") for _ in range(n + 1))
        shapes = [rng.choice(names) for _ in range(n)]
        found = _orient_layers(letters, shapes)
        assert found == reference_orient(letters, shapes), (letters, shapes)
        outcomes[found is None] += 1
    assert outcomes[True] > 0 and outcomes[False] > 0, outcomes


def test_state_walk_matches_plain_backtracking_on_perturbed_family(words_ell10):
    rng = random.Random(9)
    names = list(SHAPES)
    family_words = [w for w in words_ell10 if w.ell <= 9 and theorem_family(w)]
    assert len(family_words) == 53
    for w in family_words:
        base = _shape_sequence(decompose(inner_word(w)))
        for _ in range(5):
            shapes = list(base)
            for _ in range(rng.randint(1, 3)):
                shapes[rng.randrange(len(shapes))] = rng.choice(names)
            assert _orient_layers(w.letters, shapes) == reference_orient(w.letters, shapes), (str(w), shapes)


def long_family_word():
    inner = tuple(("LR"[i % 2], 2 if i % 3 == 1 else 1) for i in range(3750))
    return Word((("R", 1),) + inner + (("R" if inner[-1][0] == "L" else "L", 1),))


def test_long_family_word():
    # 5002 letters: far past the depth at which a recursive search overflows.
    w = long_family_word()
    assert w.ell == 5002 and theorem_family(w)
    a = assign_angles(w)
    assert len(a.layers) == w.ell - 1
    assert all(sum(la.triple) == 1 for la in a.layers)
    report = bounds_report(w)
    assert report.explicit_volume is not None and report.tet_count == 2 * (w.ell - 1)


@pytest.mark.parametrize("shape", ["0", "X2", "IX"])
def test_long_word_fails_at_the_last_layer(shape):
    # Every layer but the last still fits, so the sweep carries its frontier
    # through 5000 layers and fails only at the end.
    w = long_family_word()
    shapes = _shape_sequence(decompose(inner_word(w)))
    shapes[-1] = shape
    assert _orient_layers(w.letters, shapes) is None


def count_advances(monkeypatch):
    advance, calls = angles._advance, []
    monkeypatch.setattr(angles, "_advance", lambda *key: calls.append(key) or advance(*key))
    return calls


def test_failing_sweep_advances_once_per_layer(monkeypatch):
    # The V layers of R (LRLR)^k R admit paths that meet again in one state,
    # and the final II fits none of them: a search that forgot the states it
    # had left would take 65,530 steps here, doubling with each LRLR.
    k = 10
    letters = "R" + "LRLR" * k + "R"
    shapes = ["II"] + ["V"] * (4 * k - 1) + ["II"]
    calls = count_advances(monkeypatch)
    assert _orient_layers(letters, shapes) is None
    assert len(calls) <= len(shapes) - 1


class CountingTable(dict):
    """A transition table that counts the sweep's steps through it."""

    steps = 0

    def get(self, key, default=None):
        self.steps += 1
        return super().get(key, default)


def test_family_sweep_advances_once_per_interior_layer(monkeypatch):
    # From an empty table, each word steps through it once per layer after
    # the first, whatever the frontier holds, and _advance runs once per
    # distinct transition.
    calls, table = count_advances(monkeypatch), CountingTable()
    monkeypatch.setattr(angles, "_STEPS", table)
    for w in family(11):  # the words of test_survey_layer_triples_unchanged
        shapes = _shape_sequence(decompose(inner_word(w)))
        steps = table.steps
        assert _orient_layers(w.letters, shapes) is not None, str(w)
        assert table.steps - steps == len(shapes) - 1, str(w)
    assert len(calls) == len(set(calls)) == len(table) == 75
