import hashlib

import pytest

from twobridge import moves
from twobridge.isosig import encode_isosig
from twobridge.moves import _degrees_after_44, move_44, pachner_23, pachner_32, simplify, triangle_pairs
from twobridge.triangulation import Triangulation, build_sakuma_weeks, edge_classes, validate
from twobridge.word import Word, parse_word


def applicable_32_classes(tri):
    return [
        c.index
        for c in edge_classes(tri).classes
        if c.degree == 3 and len({t for t, _ in c.embeddings}) == 3
    ]


def degree4_classes(tri):
    return [
        c.index
        for c in edge_classes(tri).classes
        if c.degree == 4 and len({t for t, _ in c.embeddings}) == 4
    ]


def test_pachner_23_counts_and_validity():
    tri = build_sakuma_weeks(parse_word("RL"))
    out = pachner_23(tri, (0, 0))
    assert out.tet_count == tri.tet_count + 1
    assert validate(out).passed
    assert applicable_32_classes(out)


def test_pachner_roundtrip_23_32():
    for word in ("RL", "RLR", "R^2LR"):
        tri = build_sakuma_weeks(parse_word(word))
        sig = encode_isosig(tri)
        for face, _ in triangle_pairs(tri)[:4]:
            bigger = pachner_23(tri, face)
            # undo along the new degree-3 edge
            restored = None
            for cls in applicable_32_classes(bigger):
                candidate = pachner_32(bigger, cls)
                if encode_isosig(candidate) == sig:
                    restored = candidate
                    break
            assert restored is not None


def test_pachner_32_counts():
    tri = build_sakuma_weeks(parse_word("R^2LR"))
    cls = applicable_32_classes(tri)[0]
    n_edges = len(edge_classes(tri))
    out = pachner_32(tri, cls)
    assert out.tet_count == tri.tet_count - 1
    # For closed ideal triangulations the edge count always equals the
    # tetrahedron count, so a 3-2 move removes exactly one edge class.
    assert len(edge_classes(out)) == n_edges - 1
    assert validate(out).passed


def test_pachner_32_preconditions():
    tri = build_sakuma_weeks(parse_word("R^2LR"))
    bad = next(c.index for c in edge_classes(tri).classes if c.degree != 3)
    with pytest.raises(ValueError):
        pachner_32(tri, bad)


def test_pachner_23_rejects_self_gluing():
    tri = Triangulation(1)
    tri.glue(0, 0, 0, (1, 0, 3, 2))  # face glued within one tetrahedron
    tri.glue(0, 2, 0, (0, 1, 3, 2))
    with pytest.raises(ValueError):
        pachner_23(tri, (0, 0))


def test_move_44_golden_signature():
    tri = build_sakuma_weeks(parse_word("RL^3R"))
    results = set()
    for cls in degree4_classes(tri):
        for axis in (0, 1):
            out = move_44(tri, cls, axis)
            assert out.tet_count == tri.tet_count
            assert validate(out).passed
            results.add(encode_isosig(out))
    assert "iLLMLQcbcdefhghhmvftgafqa" in results


def test_move_44_involution():
    tri = build_sakuma_weeks(parse_word("RL^3R"))
    sig = encode_isosig(tri)
    cls = degree4_classes(tri)[0]
    for axis in (0, 1):
        once = move_44(tri, cls, axis)
        # the same move along the same axis undoes itself, up to isomorphism
        undone = {
            encode_isosig(move_44(once, c, axis)) for c in degree4_classes(once)
        }
        assert sig in undone


def test_move_44_edge_count_preserved():
    tri = build_sakuma_weeks(parse_word("RL^3R"))
    out = move_44(tri, degree4_classes(tri)[0], 0)
    assert len(edge_classes(out)) == len(edge_classes(tri))


def test_move_44_preconditions():
    tri = build_sakuma_weeks(parse_word("RL^3R"))
    cls = degree4_classes(tri)[0]
    with pytest.raises(ValueError):
        move_44(tri, cls, 2)
    not4 = next(c.index for c in edge_classes(tri).classes if c.degree != 4)
    with pytest.raises(ValueError):
        move_44(tri, not4, 0)


def test_simplify_r2lr_golden():
    trace = simplify(build_sakuma_weeks(parse_word("R^2LR")))
    assert trace.final.tet_count == 5
    assert encode_isosig(trace.final) == "fLLQcbcdeeetsfxxh"
    assert [m.kind for m in trace.moves] == ["3-2"]


def test_simplify_rl3r_golden():
    trace = simplify(build_sakuma_weeks(parse_word("RL^3R")))
    assert trace.final.tet_count == 7
    assert encode_isosig(trace.final) == "hLLMPkbcdfggfgmvfafwkf"
    assert [m.kind for m in trace.moves] == ["4-4", "3-2"]


def test_simplify_trace_json():
    trace = simplify(build_sakuma_weeks(parse_word("R^2LR"))).to_json()
    assert '"move": "3-2"' in trace
    assert '"tets_after": 5' in trace


def test_simplify_fixed_points():
    # Words whose ends are single letters and whose inner exponents lie in
    # {1, 2} admit no simplifying move.
    from twobridge.word import enumerate_words

    for w in enumerate_words(4, {1, 2}):
        tri = build_sakuma_weeks(w)
        trace = simplify(tri)
        assert trace.moves == [], str(w)
        assert trace.final.tet_count == tri.tet_count


def test_simplify_strictly_reduces(words_ell8):
    for w in words_ell8:
        if w.ell > 7:
            continue
        exps = w.exponents
        if exps[0] > 1 or exps[-1] > 1:
            trace = simplify(build_sakuma_weeks(w))
            assert trace.final.tet_count < 2 * (w.ell - 1), str(w)
            assert validate(trace.final).passed


def test_simplify_never_increases(words_ell8):
    for w in words_ell8[:60]:
        trace = simplify(build_sakuma_weeks(w))
        counts = [2 * (w.ell - 1)] + [m.tets_after for m in trace.moves]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_simplify_replays_through_public_moves(words_ell8):
    # Every recorded move is the one the greedy rule picks: the smallest
    # 3-2 class, else the first (class, axis) in scan order whose 4-4
    # result admits a 3-2 move.
    def first_useful_44(tri):
        return next(
            (
                (cls, axis)
                for cls in degree4_classes(tri)
                for axis in (0, 1)
                if applicable_32_classes(move_44(tri, cls, axis))
            ),
            None,
        )

    for w in words_ell8:
        if w.ell > 7:
            continue
        tri = build_sakuma_weeks(w)
        trace = simplify(tri)
        current = tri
        for m in trace.moves:
            ready = applicable_32_classes(current)
            if m.kind == "3-2":
                assert ready and m.target == ready[0], str(w)
                current = pachner_32(current, m.target)
            else:
                assert not ready, str(w)
                assert (m.target, m.axis) == first_useful_44(current), str(w)
                current = move_44(current, m.target, m.axis)
            assert current.tet_count == m.tets_after, str(w)
        assert current == trace.final, str(w)
        assert not applicable_32_classes(current) and first_useful_44(current) is None, str(w)


def with_pachner_23_copies(words):
    """Each word's triangulation, then its 2-3 moves across the first and
    the last internal triangle: other edge-degree patterns than the
    builder's."""
    for w in words:
        tri = build_sakuma_weeks(w)
        pairs = triangle_pairs(tri)
        yield str(w), tri
        for face in (pairs[0][0], pairs[-1][0]):
            yield f"{w} + 2-3 at {face}", pachner_23(tri, face)


def phase_44_states(tri):
    """The triangulations simplify(tri) searches for a 4-4 move: the one
    before each 4-4 move it makes, and the final one."""
    trace = simplify(tri)
    current = tri
    for m in trace.moves:
        if m.kind == "4-4":
            yield current
        current = pachner_32(current, m.target) if m.kind == "3-2" else move_44(current, m.target, m.axis)
    yield trace.final


def test_degree_screen_matches_rebuilt_4_4_moves(words_ell8):
    # The degrees read off the octahedron are the rebuilt move's degrees,
    # so the screen lets through every 4-4 move that exposes a 3-2 move.
    checked = exposing = 0
    for name, tri in with_pachner_23_copies(words_ell8):
        for state in phase_44_states(tri):
            table = edge_classes(state)
            assert not any(c.degree == 3 and len({t for t, _ in c.embeddings}) == 3 for c in table.classes)
            for cls in table.classes:
                if cls.degree != 4 or len({t for t, _ in cls.embeddings}) != 4:
                    continue
                for axis in (0, 1):
                    after = _degrees_after_44(state, table, cls.index, axis)
                    assert after[cls.index] == 0, name
                    predicted = [after.get(c.index, c.degree) for c in table.classes if c is not cls] + [4]
                    rebuilt = edge_classes(moves._move_44(state, table, cls.index, axis))
                    assert sorted(predicted) == sorted(rebuilt.degrees()), (name, cls.index, axis)
                    if moves._applicable_32(rebuilt) is not None:
                        assert 3 in after.values(), (name, cls.index, axis)
                        exposing += 1
                    checked += 1
    assert checked > 3000 and exposing > 1000


def test_simplify_digest_over_ell8(words_ell8):
    # Trace JSON and final isosig of every word with at most 8 letters and
    # of its two 2-3 copies, as simplify gave them before the degree screen.
    digest = hashlib.sha256()
    for _, tri in with_pachner_23_copies(words_ell8):
        trace = simplify(tri)
        digest.update(f"{trace.to_json()} {encode_isosig(trace.final)}\n".encode())
    assert digest.hexdigest() == "cb026784b95c37c20c98ba75a4e15e32178c6d66d5b1e5831f0cb499d47203a2"


def test_simplify_builds_no_trial_on_long_word(monkeypatch):
    # R (L^2 R^2 ..., 60 inner syllables) L: 242 tetrahedra, no move applies,
    # and no trial 4-4 move gets past the degree screen.
    inner = tuple(("LR"[i % 2], 2) for i in range(60))
    tri = build_sakuma_weeks(Word((("R", 1),) + inner + (("L", 1),)))
    calls = []
    core = moves._move_44
    monkeypatch.setattr(moves, "_move_44", lambda *args: calls.append(args[2:]) or core(*args))
    trace = simplify(tri)
    assert tri.tet_count == 242 and trace.moves == [] and calls == []
    # RL^3R: the one trial built is the 4-4 move kept.
    trace = simplify(build_sakuma_weeks(parse_word("RL^3R")))
    assert calls == [(trace.moves[0].target, trace.moves[0].axis)]
