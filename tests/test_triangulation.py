import ast
import hashlib
import random
from dataclasses import FrozenInstanceError
from itertools import combinations
from pathlib import Path

import pytest

import twobridge
import twobridge.angles as angles
import twobridge.triangulation as triangulation
from conftest import (
    CountingRow,
    all_normalized_words,
    disjoint_union,
    is_closed,
    is_connected,
    link_corners,
    oracle_components,
    pachner_23,
    random_gluing,
    triangle_pairs,
    triangulation_from_json,
    union_find_labels,
)
from test_isosig import open_copy
from twobridge.angles import assign_angles, expand_to_tetrahedra, verify_angle_structure
from twobridge.isosig import encode_isosig
from twobridge.moves import simplify
from twobridge.volume import maximize_volume
from twobridge.triangulation import (
    EDGE_INDEX,
    IDENTITY,
    ORDERED_S4,
    Triangulation,
    VerificationError,
    build_sakuma_weeks,
    degree_predicates,
    edge_classes,
    gluing_table,
    validate,
)
from twobridge.word import Word, parse_word

# Regina-convention gluing tables for the complexes of R^2LR and RL^3R,
# entered verbatim: one row per tetrahedron, entries for faces
# 012 / 013 / 023 / 123 as (adjacent tetrahedron, images of the three
# face vertices in order).
TABLE_R2LR = [
    [(3, "102"), (1, "213"), (1, "021"), (2, "023")],
    [(0, "032"), (2, "103"), (3, "123"), (0, "103")],
    [(4, "032"), (1, "103"), (0, "123"), (5, "321")],
    [(0, "102"), (4, "031"), (5, "021"), (1, "023")],
    [(5, "032"), (3, "031"), (2, "021"), (5, "103")],
    [(3, "032"), (4, "213"), (4, "021"), (2, "321")],
]

TABLE_RL3R = [
    [(2, "032"), (1, "213"), (1, "021"), (3, "321")],
    [(0, "032"), (2, "031"), (3, "021"), (0, "103")],
    [(4, "032"), (1, "031"), (0, "021"), (5, "321")],
    [(1, "032"), (4, "031"), (5, "021"), (0, "321")],
    [(6, "032"), (3, "031"), (2, "021"), (7, "321")],
    [(3, "032"), (6, "031"), (7, "021"), (2, "321")],
    [(7, "032"), (5, "031"), (4, "021"), (7, "103")],
    [(5, "032"), (6, "213"), (6, "021"), (4, "321")],
]

FACE_VERTS = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))

BUILDER_SHA256 = "d86497e1340a0489f8bb6e25791418fc47c8c8e82a46b2cdb3445a8ce8d72a4d"
VALIDATE_SHA256 = "207ecaf83d02073b2f62cf5de20a38d9121d8459c54f22df0d530c875cea9fc2"


def triangulation_from_table(rows):
    tri = Triangulation(len(rows))
    for t, row in enumerate(rows):
        for verts, (t2, images) in zip(FACE_VERTS, row):
            f = next(v for v in range(4) if v not in verts)
            if tri.gluing(t, f) is not None:
                continue
            perm = [None] * 4
            for v, img in zip(verts, images):
                perm[v] = int(img)
            perm[f] = next(x for x in range(4) if x not in perm)
            tri.glue(t, f, t2, tuple(perm))
    return tri


def table_rows(tri):
    rows = []
    for t in range(tri.tet_count):
        row = []
        for verts in FACE_VERTS:
            f = next(v for v in range(4) if v not in verts)
            t2, perm = tri.gluing(t, f)
            row.append((t2, "".join(str(perm[v]) for v in verts)))
        rows.append(row)
    return rows


def test_builder_reproduces_table_r2lr_verbatim():
    tri = build_sakuma_weeks(parse_word("R^2LR"))
    assert tri.tet_count == 6
    assert table_rows(tri) == TABLE_R2LR


def test_builder_reproduces_table_rl3r_verbatim():
    tri = build_sakuma_weeks(parse_word("RL^3R"))
    assert tri.tet_count == 8
    assert table_rows(tri) == TABLE_RL3R


def family_words():
    """Twelve paper-family words R L^a1 R^a2 ... X, ell 60 to 247, whose
    inner exponents a_i run cyclically over a fixed pattern of 1s and 2s,
    each word from its own offset; the closing letter X starts a syllable."""
    pattern = (2, 1, 1, 2, 2, 1, 2)
    words = []
    for k in range(12):
        ell, inner, letters = 60 + 17 * k, [], 0
        while letters < ell - 2:
            exp = min(pattern[(k + len(inner)) % len(pattern)], ell - 2 - letters)
            inner.append(("LR"[len(inner) % 2], exp))
            letters += exp
        words.append(Word((("R", 1), *inner, ("R" if inner[-1][0] == "L" else "L", 1))))
    return words


def test_builder_tables_are_pinned():
    # Every gluing and layer the builder writes, for every normalised word
    # of at most 10 letters and twelve family words of 118 to 492 tetrahedra;
    # the digest was recorded from the builder that glued face by face.
    words = all_normalized_words(10) + family_words()
    assert len(words) == 1025 and [w.ell for w in words[-12:]] == list(range(60, 248, 17))
    text = "\n".join(build_sakuma_weeks(w).to_json() for w in words)
    assert hashlib.sha256(text.encode()).hexdigest() == BUILDER_SHA256


def test_builder_isomorphic_to_entered_tables():
    for word, table in (("R^2LR", TABLE_R2LR), ("RL^3R", TABLE_RL3R)):
        assert encode_isosig(build_sakuma_weeks(parse_word(word))) == encode_isosig(triangulation_from_table(table))


def test_builder_size_formula(words_ell8):
    for w in words_ell8[:40]:
        assert build_sakuma_weeks(w).tet_count == 2 * (w.ell - 1)


def test_builder_rejects_bad_words():
    with pytest.raises(ValueError):
        build_sakuma_weeks(parse_word("R^4"))
    with pytest.raises(ValueError):
        build_sakuma_weeks(parse_word("L^2R"))  # not normalised


def test_figure_eight():
    tri = build_sakuma_weeks(parse_word("RL"))
    assert tri.tet_count == 2
    assert sorted(edge_classes(tri).degrees()) == [6, 6]
    assert encode_isosig(tri) == "cPcbbbiht"


def test_edge_classes_r2lr():
    tri = build_sakuma_weeks(parse_word("R^2LR"))
    table = edge_classes(tri)
    assert len(table) == 6
    assert sorted(table.degrees()).count(3) == 2


def test_validate_builder_output(words_ell8):
    for w in words_ell8[:30]:
        report = validate(build_sakuma_weeks(w))
        assert report.passed, (str(w), report.failures)
        assert report.vertex_link_eulers and all(x == 0 for x in report.vertex_link_eulers)


def oracle_edge_labels(tri):
    def pairs(f, perm):
        for a, b in combinations([v for v in range(4) if v != f], 2):
            yield EDGE_INDEX[(a, b)], EDGE_INDEX[(perm[a], perm[b])]

    return union_find_labels(tri, 6, pairs)


def oracle_vertex_labels(tri):
    return union_find_labels(tri, 4, lambda f, perm: [(v, perm[v]) for v in range(4) if v != f])


def oracle_link_eulers(tri):
    """Euler characteristic of each vertex link, from its triangles and corners."""
    corners = link_corners(tri)
    vertex = oracle_vertex_labels(tri)
    eulers = []
    for cls in range(max(vertex, default=-1) + 1):
        triangles = [x for x, c in enumerate(vertex) if c == cls]
        roots = {
            corners.find(16 * (x // 4) + 4 * (x % 4) + w)
            for x in triangles
            for w in range(4)
            if w != x % 4
        }
        # V - E + F with E = 3F/2: every link edge is shared by two triangles.
        eulers.append(len(roots) - 3 * len(triangles) // 2 + len(triangles))
    return eulers


def assert_matches_union_find(tri):
    edge = oracle_edge_labels(tri)
    expected = [[] for _ in range(max(edge, default=-1) + 1)]
    for x, c in enumerate(edge):
        expected[c].append(divmod(x, 6))
    table = edge_classes(tri)
    assert [(c.index, list(c.embeddings)) for c in table.classes] == list(enumerate(expected))
    assert triangulation._labels(tri, "vertex")[0] == oracle_vertex_labels(tri)
    if 0 < tri.tet_count < 63:  # encode_isosig rejects exactly the disconnected ones
        if is_connected(tri):
            encode_isosig(tri)
        else:
            with pytest.raises(ValueError, match="^triangulation is disconnected$"):
                encode_isosig(tri)
    report = validate(tri)
    assert report.edge_class_count == len(expected)
    assert report.vertex_link_eulers == (oracle_link_eulers(tri) if is_closed(tri) else [])


def test_classes_match_union_find_on_words_and_simplified(words_ell8):
    for w in words_ell8:
        tri = build_sakuma_weeks(w)
        assert_matches_union_find(tri)
        assert_matches_union_find(simplify(tri).final)


def test_classes_match_union_find_after_pachner_23(words_ell8):
    for w in words_ell8:
        tri = build_sakuma_weeks(w)
        for face, _ in triangle_pairs(tri)[::11]:
            assert_matches_union_find(pachner_23(tri, face))


def test_classes_match_union_find_with_gluings_removed(words_ell8):
    rng = random.Random(5)
    for w in words_ell8:
        tri = open_copy(build_sakuma_weeks(w), rng)
        assert not is_closed(tri)
        assert_matches_union_find(tri)


def test_classes_match_union_find_on_random_closed_gluings():
    rng = random.Random(11)
    mixed_links = disconnected = 0
    for _ in range(300):
        tri = random_gluing(rng.randint(1, 4), rng)
        assert_matches_union_find(tri)
        mixed_links += len(set(validate(tri).vertex_link_eulers)) > 1
        disconnected += not is_connected(tri)
    assert mixed_links  # links that tell the vertex classes apart
    assert disconnected == 16


def test_components_match_union_find_on_disconnected_gluings():
    # Opened copies of builder output side by side with one tetrahedron left
    # alone; the empty triangulation, and one and two lone tetrahedra.
    rng = random.Random(3)
    parts = [open_copy(build_sakuma_weeks(parse_word(w)), rng) for w in ("RL", "R^2LR", "RLR")]
    tri = disjoint_union(*parts, Triangulation(1))
    assert oracle_components(tri) == [0] * 2 + [1] * 6 + [2] * 4 + [3]
    for t in (tri, Triangulation(0), Triangulation(1), Triangulation(2)):
        assert_matches_union_find(t)


def test_validate_rejects_doubled_tetrahedron():
    # Two tetrahedra glued by the identity on all four faces: a closed
    # complex whose four vertex links are spheres, and whose every edge of
    # tetrahedron 0 meets only the same edge of tetrahedron 1, giving 6 edge
    # classes for 2 tetrahedra.
    tri = Triangulation(2)
    for f in range(4):
        tri.glue(0, f, 1, IDENTITY)
    assert is_closed(tri)
    report = validate(tri)
    assert report.involution_ok and report.all_faces_glued
    assert report.edge_class_count == 6 and not report.edge_count_ok
    assert report.vertex_link_eulers == [2, 2, 2, 2] and not report.vertex_links_ok
    assert not report.passed
    assert_matches_union_find(tri)


def test_validate_detects_missing_gluing():
    # Each gluing of RLR in turn removed from both sides, among them the
    # ones that join facet 3 to facet 3.
    base = build_sakuma_weeks(parse_word("RLR"))
    for (t, f), (t2, f2) in triangle_pairs(base):
        tri = triangulation_from_json(base.to_json())
        tri._glue[t][f] = tri._glue[t2][f2] = None
        report = validate(tri)
        assert report.involution_ok and not report.all_faces_glued, (t, f)
        assert "not all faces are glued" in report.failures and not report.passed


def test_validate_detects_a_one_sided_gluing():
    # One half of a gluing edited behind glue's back: the partner facet
    # still names the old tetrahedron or the old inverse permutation.
    for edit in ("tetrahedron", "permutation"):
        tri = build_sakuma_weeks(parse_word("RL^2R"))
        t2, i = tri._glue[0][2]
        if edit == "tetrahedron":
            t2 = next(t for t in range(tri.tet_count) if t != t2)
        else:  # another permutation onto the same facet
            i = next(j for j, p in enumerate(ORDERED_S4) if j != i and p[2] == ORDERED_S4[i][2])
        tri._glue[0][2] = (t2, i)
        report = validate(tri)
        # The classes on such a table depend on the direction of the walk: no count or Euler is checked.
        assert report.failures == [
            "gluing map is not an involution",
            "edge classes and vertex links not checked: gluing map is not an involution",
        ], edit
        assert not (report.involution_ok or report.edge_count_ok or report.vertex_links_ok), edit
        assert report.vertex_link_eulers == [], edit
        # Facet 3 emptied on this side alone: its partner still names it,
        # and the row holds both faults, the involution first.
        tri._glue[0][3] = None
        assert validate(tri).failures == [
            "gluing map is not an involution",
            "not all faces are glued",
            "edge classes and vertex links not checked: gluing map is not an involution",
        ], edit


def one_sided_edits():
    """Every one-sided edit of facet 2 of tetrahedron 0 of RL^2R's table."""
    base = build_sakuma_weeks(parse_word("RL^2R"))
    for t2 in range(base.tet_count):
        for i in range(24):
            tri = triangulation_from_json(base.to_json())
            tri._glue[0][2] = (t2, i)
            yield tri


def test_validate_reports_are_pinned():
    # Every field of the report, failures in order, on builder output, on
    # broken tables and on the empty and unglued triangulations (the empty
    # one passes vacuously); the digest was recorded from the validate that
    # checked the involution and the closure in two passes.
    doubled = Triangulation(2)
    for f in range(4):
        doubled.glue(0, f, 1, IDENTITY)
    tris = [build_sakuma_weeks(w) for w in all_normalized_words(8)]
    tris += [*one_sided_edits(), doubled, Triangulation(0), Triangulation(1), Triangulation(2)]
    assert len(tris) == 395 and validate(Triangulation(0)).passed
    text = "\n".join(repr(validate(tri)) for tri in tris)
    assert hashlib.sha256(text.encode()).hexdigest() == VALIDATE_SHA256


def test_checks_use_nothing_from_the_synthesis():
    # validate, verify_angle_structure and degree_predicates check the
    # builder and assign_angles by a search over the gluings: neither they
    # nor any function they reach in either module may use the synthesis.
    synthesis = {
        "_chains", "_orient_layers", "_advance", "_STEPS", "_FIRST", "_FRONTIER_IDS", "_interned",
        "assign_angles", "layer_of", "build_sakuma_weeks",
    }
    defs: dict[str, list] = {}
    for module in (triangulation, angles):
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, []).append(node)
    reached, todo, used = set(), ["validate", "verify_angle_structure", "degree_predicates"], set()
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for node in (x for fn in defs[name] for x in ast.walk(fn)):
            word = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if word is not None:
                used.add(word)
                todo += [word] if word in defs else []
    assert {"_labels", "_closure"} <= reached
    assert used & synthesis == set()


def test_glue_after_a_class_query_changes_the_answers():
    # One face of two tetrahedra glued by the identity identifies three
    # pairs of edges and three of vertices; all four faces leave the six
    # edges and four vertices of a doubled tetrahedron.
    tri = Triangulation(2)
    tri.glue(0, 0, 1, IDENTITY)
    assert len(edge_classes(tri)) == 9 and len(triangulation._labels(tri, "vertex")[1]) == 5
    assert validate(tri).failures[0] == "not all faces are glued"
    for f in (1, 2, 3):
        tri.glue(0, f, 1, IDENTITY)
    assert len(edge_classes(tri)) == 6 and triangulation._labels(tri, "vertex") == ([0, 1, 2, 3] * 2, [2] * 4)
    report = validate(tri)
    assert report.all_faces_glued and report.edge_class_count == 6
    assert report.vertex_link_eulers == [2, 2, 2, 2]


def test_shared_edge_class_table_is_read_only():
    tri = build_sakuma_weeks(parse_word("R^2LR"))
    table = edge_classes(tri)
    assert edge_classes(tri) is table
    with pytest.raises(FrozenInstanceError):
        table.classes = ()
    assert edge_classes(tri) == edge_classes(build_sakuma_weeks(parse_word("R^2LR")))


def test_one_gluing_search_per_cell_kind(monkeypatch):
    # The analyses of one word share the classes of its triangulation: one
    # search over vertices and one walk around the edges, which also gives
    # the vertices of the links.
    searches = []
    search, walk = triangulation._closure, triangulation._walk_edges
    monkeypatch.setattr(triangulation, "_closure", lambda tri: searches.append("vertex search") or search(tri))
    monkeypatch.setattr(triangulation, "_walk_edges", lambda tri: searches.append("edge walk") or walk(tri))
    w = parse_word("RL^2RLR")
    tri = build_sakuma_weeks(w)
    assert validate(tri).passed
    degree_predicates(tri, w)
    assert verify_angle_structure(tri, expand_to_tetrahedra(assign_angles(w), tri)).passed
    assert maximize_volume(tri, seed=assign_angles(w)).converged
    assert sorted(searches) == ["edge walk", "vertex search"]


@pytest.mark.parametrize("word", ["RL", "R^2LR", "RL^2RLR", "RL^3R^2L^2R"])
def test_edge_walk_reads_one_gluing_per_edge_embedding(word):
    # A closed triangulation has 6n edge embeddings; the walk reads the
    # gluing that leaves each one once.
    tri = build_sakuma_weeks(parse_word(word))
    rows = tri._glue = [CountingRow(row) for row in tri._glue]
    label, count = triangulation._labels(tri, "edge")
    assert sum(row.reads for row in rows) == 6 * tri.tet_count
    assert count == tri.tet_count and label == oracle_edge_labels(tri)
    # All of validate on a fresh copy, the walk included, reads at most 22
    # entries per tetrahedron: 4 checking the involution, 6 walking, 12
    # searching the vertices.
    tri = build_sakuma_weeks(parse_word(word))
    rows = tri._glue = [CountingRow(row) for row in tri._glue]
    assert validate(tri).passed
    assert sum(row.reads for row in rows) <= 22 * tri.tet_count


def test_edge_walk_ends_on_a_gluing_table_that_is_not_an_involution():
    # Every one-sided edit of one facet: the walk stops at the first cell
    # it has labelled, so it ends even where no walk comes back to its start.
    base = build_sakuma_weeks(parse_word("RL^2R"))
    for tri in one_sided_edits():
        label, count = triangulation._labels(tri, "edge")
        assert min(label) == 0 and max(label) == count - 1
        report = validate(tri)
        assert report.involution_ok == (tri._glue == base._glue) and report.edge_class_count == count


def test_only_triangulation_methods_assign_into_glue():
    # The stored classes stay right only while every change of the gluings
    # goes through Triangulation.glue, which clears them.
    mutators = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse", "__setitem__"}
    offenders = []
    for path in sorted(Path(twobridge.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        inside = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "Triangulation"
            for method in cls.body
            if isinstance(method, ast.FunctionDef)
            for node in ast.walk(method)
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in mutators:
                targets = [node.func.value]
            else:
                continue
            touches = any(isinstance(x, ast.Attribute) and x.attr == "_glue" for t in targets for x in ast.walk(t))
            if touches and id(node) not in inside:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_only_triangulation_encode_isosig_and_the_moves_read_glue():
    # The stored gluings hold ORDERED_S4 indices; every other reader goes
    # through Triangulation.gluing, which returns the permutation tuple,
    # but for simplify's working table, which copies the rows and
    # retriangulates them in place.
    readers = set()
    for path in sorted(Path(twobridge.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if any(isinstance(x, ast.Attribute) and x.attr == "_glue" for x in ast.walk(top)):
                readers.add(path.name if path.name == "triangulation.py" else f"{path.name}:{getattr(top, 'name', top.lineno)}")
    assert readers == {"triangulation.py", "isosig.py:encode_isosig", "moves.py:_Table"}


def test_no_self_face_gluings(words_ell8):
    for w in words_ell8[:30]:
        tri = build_sakuma_weeks(w)
        for t in range(tri.tet_count):
            for f in range(4):
                assert tri.gluing(t, f)[0] != t


def test_opposite_layer_edges_have_equal_degree(words_ell8):
    # Same-role edges of a layer land in classes of the same degree: all
    # four horizontals agree, all four verticals agree, and the two bottom
    # (resp. top) diagonals agree across the layer's two tetrahedra.
    for w in words_ell8[:30]:
        tri = build_sakuma_weeks(w)
        table = edge_classes(tri)
        degree_of = {emb: len(cls.embeddings) for cls in table.classes for emb in cls.embeddings}
        for i in range(tri.tet_count // 2):
            e_t, o_t = 2 * i, 2 * i + 1
            horiz = {degree_of[(t, e)] for t in (e_t, o_t) for e in (0, 5)}
            vert = {degree_of[(t, e)] for t in (e_t, o_t) for e in (1, 4)}
            assert len(horiz) == 1 and len(vert) == 1
            assert degree_of[(e_t, 2)] == degree_of[(o_t, 3)]  # bottom diagonals
            assert degree_of[(e_t, 3)] == degree_of[(o_t, 2)]  # top diagonals


def test_degree_predicates_examples():
    assert degree_predicates(build_sakuma_weeks(parse_word("R^2LR")), parse_word("R^2LR")) == (True, False)
    # RL^3R has a_1 = a_n = 1, so no degree-3 edge; its interior exponent 3
    # gives degree-4 edges (the simplification there starts with a 4-4 move).
    assert degree_predicates(build_sakuma_weeks(parse_word("RL^3R")), parse_word("RL^3R")) == (False, True)
    # RLR is the boundary case: its fold-to-fold vertical classes have
    # degree 4 even though every exponent is 1.
    assert degree_predicates(build_sakuma_weeks(parse_word("RLR")), parse_word("RLR")) == (False, True)


def test_degree_predicates_raise_on_forged_word():
    tri = build_sakuma_weeks(parse_word("R^2LR"))
    with pytest.raises(VerificationError):
        degree_predicates(tri, parse_word("RLRL"))


def test_min_degree_three(words_ell8):
    for w in words_ell8:
        assert min(edge_classes(build_sakuma_weeks(w)).degrees()) >= 3


def test_gluing_table_text_golden():
    text = gluing_table(build_sakuma_weeks(parse_word("R^2LR")))
    lines = text.splitlines()
    assert lines[0].split() == ["Tetrahedron", "Face", "012", "Face", "013", "Face", "023", "Face", "123"]
    assert lines[1].split() == ["0", "3", "(102)", "1", "(213)", "1", "(021)", "2", "(023)"]
    text2 = gluing_table(build_sakuma_weeks(parse_word("RL^3R")))
    assert text2.splitlines()[8].split() == ["7", "5", "(032)", "6", "(213)", "6", "(021)", "4", "(321)"]


def test_gluing_table_empty():
    assert gluing_table(Triangulation(0)).splitlines()[1:] == []
    tri = Triangulation(1)
    tri.glue(0, 0, 0, (1, 0, 3, 2))  # facets 2 and 3, faces 013 and 012, stay unglued
    assert gluing_table(tri).splitlines()[1].split() == ["0", "boundary", "boundary", "0", "(132)", "0", "(032)"]
    with pytest.raises(ValueError, match="non-negative"):
        Triangulation(-1)


def test_json_roundtrip():
    # The document `build --json` prints holds every gluing and the layers.
    tri = build_sakuma_weeks(parse_word("RL^3R"))
    back = triangulation_from_json(tri.to_json())
    assert back == tri
    assert back.layer_of == tri.layer_of


@pytest.mark.parametrize("layer_of", [(0,), (0, 0, 5, 5), (0, 0, -1, -1)])
def test_constructor_rejects_layers_outside_the_triangulation(layer_of):
    assert Triangulation(4, layer_of=(0, 0, 1, 1)).layer_of == (0, 0, 1, 1)
    with pytest.raises(ValueError, match="layer_of"):
        Triangulation(4, layer_of=layer_of)


@pytest.mark.parametrize(
    "args", [(0, 4, 1, IDENTITY), (0, -1, 1, IDENTITY), (-1, 0, 1, IDENTITY), (0, 0, 1, (0, 1, 2, 2)), (0, 0, 1, [1, 0, 2, 3])]
)
def test_glue_rejects_malformed_gluings(args):
    tri = Triangulation(2)
    with pytest.raises(ValueError, match="need tetrahedra below 2"):
        tri.glue(*args)
    assert tri == Triangulation(2)
