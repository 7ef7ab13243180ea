import ast
import hashlib
import random
from pathlib import Path

import pytest

from conftest import (
    CountingRow,
    all_normalized_words,
    edge_fan,
    link_corners,
    move_44,
    pachner_23,
    pachner_32,
    random_gluing,
    triangle_pairs,
)
from twobridge import moves
from twobridge.angles import theorem_family
from twobridge.isosig import encode_isosig
from twobridge.moves import _degrees_after_44, simplify
from twobridge.triangulation import EDGE_VERTS, Triangulation, build_sakuma_weeks, edge_classes, validate
from twobridge.word import Word, enumerate_words, parse_word


def movable_classes(tri, n):
    """Degree-n edge classes on n distinct tetrahedra with no boundary face
    around them, whose two ends lie in different link-corner classes (an
    edge identified with itself reversed has them in one)."""
    corners = link_corners(tri)

    def ends_apart(t, e):
        a, b = EDGE_VERTS[e]
        return corners.find(16 * t + 4 * a + b) != corners.find(16 * t + 4 * b + a)

    return [
        c.index
        for c in edge_classes(tri).classes
        if c.degree == n
        and len({t for t, _ in c.embeddings}) == n
        and all(tri.gluing(t, f) is not None for t, e in c.embeddings for f in set(range(4)) - set(EDGE_VERTS[e]))
        and ends_apart(*c.embeddings[0])
    ]


def applicable_32_classes(tri):
    return movable_classes(tri, 3)


def degree4_classes(tri):
    return movable_classes(tri, 4)


def seeded_gluing(seed):
    """1-5 tetrahedra glued at random from random.Random(seed); for every
    fifth seed two facets stay unglued."""
    rng = random.Random(seed)
    return random_gluing(rng.randint(1, 5), rng, unglued=2 if seed % 5 == 0 else 0)


def opened(tri):
    """A copy of tri with facet (0, 0) and facet 1 of the last tetrahedron unglued."""
    cut = {(0, 0), (tri.tet_count - 1, 1)}
    cut |= {(g[0], g[1][f]) for t, f in cut if (g := tri.gluing(t, f)) is not None}
    out = Triangulation(tri.tet_count)
    for t in range(tri.tet_count):
        for f in range(4):
            g = tri.gluing(t, f)
            if g is not None and (t, f) not in cut and out.gluing(t, f) is None:
                out.glue(t, f, *g)
    return out


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


def test_moves_stop_at_a_boundary_face():
    # Each face pair of small words left unglued in turn: a class of the
    # move's degree on distinct tetrahedra with an unglued facet around it
    # passes the degree and distinctness checks, and its walk stops there.
    found = {3: 0, 4: 0}
    for text in ("RLR", "R^2L", "RL^2R", "R^2LR"):
        tri = build_sakuma_weeks(parse_word(text))
        pairs = triangle_pairs(tri)
        for cut, _ in pairs:
            copy = Triangulation(tri.tet_count)
            for face, _ in pairs:
                if face != cut:
                    copy.glue(*face, *tri.gluing(*face))
            for c in edge_classes(copy).classes:
                n = c.degree
                if n not in found or len({t for t, _ in c.embeddings}) != n or all(
                    copy.gluing(t, f) is not None for t, e in c.embeddings for f in set(range(4)) - set(EDGE_VERTS[e])
                ):
                    continue
                with pytest.raises(ValueError, match="boundary face"):
                    pachner_32(copy, c.index) if n == 3 else move_44(copy, c.index, 0)
                found[n] += 1
    assert found[3] and found[4]


def test_pachner_23_rejects_self_gluing():
    tri = Triangulation(1)
    tri.glue(0, 0, 0, (1, 0, 3, 2))  # face glued within one tetrahedron
    with pytest.raises(ValueError, match="not glued"):
        pachner_23(tri, (0, 2))
    tri.glue(0, 2, 0, (0, 1, 3, 2))
    with pytest.raises(ValueError, match="two distinct tetrahedra"):
        pachner_23(tri, (0, 0))


@pytest.mark.parametrize("face", [(-1, 0), (6, 0), (5, 4), (5, -1)])
def test_pachner_23_rejects_faces_out_of_range(face):
    # (-1, 0) would alias facet (5, 0), whose 2-3 move gives 7 tetrahedra.
    tri = build_sakuma_weeks(parse_word("R^2LR"))
    assert pachner_23(tri, (5, 0)).tet_count == 7 and validate(pachner_23(tri, (5, 0))).passed
    with pytest.raises(ValueError, match="no facet"):
        pachner_23(tri, face)


@pytest.mark.parametrize("index", [-5, -1, 6, 100])
def test_pachner_32_rejects_classes_out_of_range(index):
    # R^2LR has 6 edge classes; -5 would alias class 1, which admits a 3-2 move.
    tri = build_sakuma_weeks(parse_word("R^2LR"))
    assert len(edge_classes(tri)) == 6 and 1 in applicable_32_classes(tri)
    with pytest.raises(ValueError, match="no edge class"):
        pachner_32(tri, index)


@pytest.mark.parametrize("index", [-2, -4, 8, 100])
def test_move_44_rejects_classes_out_of_range(index):
    # RL^3R has 8 edge classes; -2 and -4 would alias classes 6 and 4, which admit 4-4 moves.
    tri = build_sakuma_weeks(parse_word("RL^3R"))
    assert len(edge_classes(tri)) == 8 and {4, 6} <= set(degree4_classes(tri))
    for axis in (0, 1):
        with pytest.raises(ValueError, match="no edge class"):
            move_44(tri, index, axis)


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

    closed = [(str(w), build_sakuma_weeks(w)) for w in words_ell8 if w.ell <= 7]
    opened_copies = [(f"{w} opened", opened(build_sakuma_weeks(w))) for w in enumerate_words(4, {1, 2, 3})]
    # Random gluings: on 74 of them simplify meets an edge with every face
    # around it glued that is identified with itself reversed, and that no
    # move may take.
    gluings = [(f"seed {seed}", seeded_gluing(seed)) for seed in range(2000)]
    for w, tri in closed + opened_copies + gluings:
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


def test_simplify_raises_nothing_on_random_gluings():
    # On 745 of these gluings simplify meets an edge with every face around
    # it glued that is identified with itself reversed.
    moved = sum(bool(simplify(seeded_gluing(seed)).moves) for seed in range(20000))
    assert moved == 613


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
                    after = _degrees_after_44(moves._Table(state), edge_fan(state, cls.index, 4), axis)
                    assert after[cls.index] == 0, name
                    predicted = [after.get(c.index, c.degree) for c in table.classes if c is not cls] + [4]
                    moved = move_44(state, cls.index, axis)
                    rebuilt = edge_classes(moved)
                    assert sorted(predicted) == sorted(rebuilt.degrees()), (name, cls.index, axis)
                    if moves._Table(moved).movable[3]:
                        assert 3 in after.values(), (name, cls.index, axis)
                        exposing += 1
                    checked += 1
    assert checked > 3000 and exposing > 1000


def test_simplify_digest_over_ell10(words_ell10):
    # Trace JSON and final gluings of every normalised word with at most
    # 10 letters, as simplify gave them when each move rebuilt the whole
    # triangulation: 3711 moves.
    digest = hashlib.sha256()
    moved = 0
    for w in words_ell10:
        trace = simplify(build_sakuma_weeks(w))
        moved += len(trace.moves)
        digest.update(f"{trace.to_json()} {trace.final.to_json()}\n".encode())
    assert len(words_ell10) == 1013 and moved == 3711
    assert digest.hexdigest() == "02abe5667706044629c7abb57709e9506054598ccdd1bd668f9d5d8c1fcb48bc"


def test_simplify_never_shrinks_the_family():
    # The paper's family admits no simplifying move: simplify leaves each of
    # the 231 theorem-family words with at most 12 letters as built, in line
    # with the paper's minimality claim for it.
    family = [w for w in all_normalized_words(12) if theorem_family(w)]
    assert len(family) == 231
    for w in family:
        tri = build_sakuma_weeks(w)
        assert simplify(tri).final is tri, str(w)


def test_simplify_digest_over_ell8(words_ell8):
    # Trace JSON and final isosig of every word with at most 8 letters and
    # of its two 2-3 copies, as simplify gave them before the degree screen.
    digest = hashlib.sha256()
    for _, tri in with_pachner_23_copies(words_ell8):
        trace = simplify(tri)
        digest.update(f"{trace.to_json()} {encode_isosig(trace.final)}\n".encode())
    assert digest.hexdigest() == "cb026784b95c37c20c98ba75a4e15e32178c6d66d5b1e5831f0cb499d47203a2"


def long_word_triangulation():
    """R (L^2 R^2 ..., 60 inner syllables) L: 242 tetrahedra, and no move applies."""
    inner = tuple(("LR"[i % 2], 2) for i in range(60))
    return build_sakuma_weeks(Word((("R", 1),) + inner + (("L", 1),)))


def test_simplify_builds_no_trial_on_long_word(monkeypatch):
    # No trial 4-4 move gets past the degree screen.
    tri = long_word_triangulation()
    calls = []
    core = moves._retriangulate
    monkeypatch.setattr(moves, "_retriangulate", lambda glue, old, new: calls.append(new) or core(glue, old, new))
    trace = simplify(tri)
    assert tri.tet_count == 242 and trace.moves == [] and calls == []
    # RL^3R: the one trial made is the 4-4 move kept, then the 3-2 move it exposes.
    trace = simplify(build_sakuma_weeks(parse_word("RL^3R")))
    assert [m.kind for m in trace.moves] == ["4-4", "3-2"]
    assert calls == [moves._OCTAHEDRA[trace.moves[0].axis], moves._PAIR]


class CountingRows(list):
    """simplify's gluing rows, counting each row read or written."""

    def __init__(self, rows):
        super().__init__(rows)
        self.count = 0

    def __getitem__(self, t):
        self.count += 1
        return super().__getitem__(t)

    def __setitem__(self, t, row):
        self.count += 1
        super().__setitem__(t, row)

    def __iter__(self):
        self.count += len(self)
        return super().__iter__()


def test_simplify_work_per_move_does_not_grow(monkeypatch):
    # On R (L^3 R^3)^k L, half the moves 4-4 and half 3-2, no move reads or
    # writes more gluing rows, or takes more walk steps, at k = 10 than at
    # k = 5: each move walks again only the classes around it.  The rows
    # are counted from the copy that the table makes.
    init, move, walk = moves._Table.__init__, moves._Table.move, moves._walk_classes

    def counting_init(table, tri):
        init(table, tri)
        table.glue = CountingRows(table.glue)

    def count(table):
        return len(steps) + table.glue.count

    def counting_move(table, *args):
        before = count(table)
        kept = move(table, *args)
        work.append(count(table) - before)
        return kept

    def counting_walk(glue, label, cells, ends, walks):
        before = len(walks)
        walk(glue, label, cells, ends, walks)
        steps.extend(x for states, _ in walks[before:] for x in states)

    monkeypatch.setattr(moves._Table, "__init__", counting_init)
    monkeypatch.setattr(moves._Table, "move", counting_move)
    monkeypatch.setattr(moves, "_walk_classes", counting_walk)
    most = []
    for k in (5, 10):
        work, steps = [], []
        trace = simplify(build_sakuma_weeks(Word((("R", 1),) + (("L", 3), ("R", 3)) * k + (("L", 1),))))
        assert len(trace.moves) == len(work) == 4 * k and sum(m.kind == "4-4" for m in trace.moves) == 2 * k
        most.append(max(work))
    assert most[1] <= most[0]


def test_simplify_reads_each_gluing_once_on_long_word():
    # The moves read their fans off the edge walk of the triangulation, so
    # the pass reads one gluing per edge embedding and walks no class again.
    tri = long_word_triangulation()
    rows = tri._glue = [CountingRow(row) for row in tri._glue]
    assert simplify(tri).moves == []
    assert sum(row.reads for row in rows) == 6 * tri.tet_count == 1452


@pytest.mark.parametrize("text", ["RL^3R", "RL^3R^3L^3R^3L^3R^3L", "RL^2R"])
def test_simplify_leaves_its_input_untouched(text):
    # simplify moves its own copy of the rows and of the edge walk: the
    # input's rows, edge labels and cached walks read the same after the
    # pass, and a pass with no move returns the input itself.
    tri = build_sakuma_weeks(parse_word(text))
    walks = moves._labels(tri, "walks")
    glue, label = [list(row) for row in tri._glue], moves._labels(tri, "edge")[0][:]
    before = [(states[:], closed) for states, closed in walks]
    trace = simplify(tri)
    assert len(trace.moves) == {"RL^3R": 2, "RL^3R^3L^3R^3L^3R^3L": 12, "RL^2R": 0}[text]
    assert (trace.final is tri) == (not trace.moves)
    assert tri._glue == glue and moves._labels(tri, "edge")[0] == label
    assert moves._labels(tri, "walks") is walks and walks == before


def test_only_the_ball_builders_read_gluings():
    # Every other function of moves reads the edge walk of the triangulation.
    readers = {
        top.name
        for top in ast.parse(Path(moves.__file__).read_text()).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "gluing"
    }
    assert readers <= {"_retriangulate"}


def every_move(tri):
    """Each 2-3 move across an internal triangle, then each 3-2 and 4-4 move
    on each edge class, as the result's JSON or the precondition's error."""
    def outcome(move, *args):
        try:
            return move(*args).to_json()
        except ValueError as err:
            return f"ValueError: {err}"

    for face, _ in triangle_pairs(tri):
        yield outcome(pachner_23, tri, face)
    for cls in range(len(edge_classes(tri))):
        yield outcome(pachner_32, tri, cls)
        for axis in (0, 1):
            yield outcome(move_44, tri, cls, axis)


def test_every_move_digest_over_ell6(words_ell8):
    # Every move on every word with at most 6 letters, on its simplify
    # final and on its two 2-3 copies, as the moves gave them before they
    # were rebuilt on one symbol-matching rule.  The builder's fold faces,
    # where two tetrahedra share a second face, are among the 2-3 moves.
    digest = hashlib.sha256()
    for _, tri in with_pachner_23_copies(w for w in words_ell8 if w.ell <= 6):
        final = simplify(tri).final
        for state in (tri,) if final is tri else (tri, final):
            for line in every_move(state):
                digest.update(f"{line}\n".encode())
    assert digest.hexdigest() == "b5301ccecfc20f1679928d73949e66a76396302497382500f04b1e23a0debfce"
