"""Ideal triangulations: data model, layered builder and combinatorial checks.

Tetrahedron vertices are labelled 0..3.  Facet i is the face opposite
vertex i, and edges within a tetrahedron are numbered 0..5 for the vertex
pairs 01, 02, 03, 12, 13, 23 (so edges e and 5-e are opposite pairs).
A face gluing is (adjacent tetrahedron, permutation) where the
permutation maps vertex labels of this tetrahedron to vertex labels of the
adjacent one; facet f is glued to facet perm[f].  Gluings are kept
involutive at all times.  They are stored by the permutation's index in
ORDERED_S4, Regina's lexicographic numbering, whose composition and
inverse tables live here too; gluing() returns the tuple.

The layered builder assembles the standard triangulation of a 2-bridge
link complement from its twist word: one layer of two ideal tetrahedra per
letter transition, with the outermost and innermost four faces folded up
in pairs, writing both sides of each gluing into fresh rows from a template
per letter and per fold.  In builder output every tetrahedron carries the
same edge-role pattern: edges 02/13 form the vertical pair, 01/23 the
horizontal pair and 03/12 the diagonal pair (in even tetrahedra 03 faces
the previous layer and 12 the next, in odd ones the other way round).

Vertex classes (cusps) are found by a search over the gluings
(_closure); edge classes, the ends of each edge that become link
vertices, and the fan of tetrahedra around each edge that the moves read,
by one oriented walk around each edge (_walk_edges, by _walk_classes,
which simplify reruns on the classes a move touches).  Each runs once per
triangulation: a Triangulation keeps the classes found until glue, its only
mutator, clears them, and hands them out read-only.  validate checks the
involution and that every face is glued in one pass over the rows.  No
search finds components: the isosig labelling reaches exactly the component of its
start, so encode_isosig rejects disconnected input by itself.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import permutations

from .word import Word, is_hyperbolic

Perm = tuple[int, int, int, int]

IDENTITY: Perm = (0, 1, 2, 3)

EDGE_VERTS: tuple[tuple[int, int], ...] = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
EDGE_INDEX: dict[tuple[int, int], int] = {}
for _i, (_a, _b) in enumerate(EDGE_VERTS):
    EDGE_INDEX[(_a, _b)] = _i
    EDGE_INDEX[(_b, _a)] = _i


def compose(p: Perm, q: Perm) -> Perm:
    """The permutation applying q first, then p."""
    return (p[q[0]], p[q[1]], p[q[2]], p[q[3]])


def invert(p: Perm) -> Perm:
    inv = [0, 0, 0, 0]
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


# The 24 permutations in lexicographic order, as permutations() emits them.
ORDERED_S4: tuple[Perm, ...] = tuple(permutations(range(4)))
ORDERED_S4_INDEX: dict[Perm, int] = {p: i for i, p in enumerate(ORDERED_S4)}

# S4 arithmetic on ORDERED_S4 indices: _COMPOSE[i][j] applies j first,
# then i; _INVERSE[i] is the inverse of i.
_COMPOSE = tuple(tuple(ORDERED_S4_INDEX[compose(p, q)] for q in ORDERED_S4) for p in ORDERED_S4)
_INVERSE = tuple(ORDERED_S4_INDEX[invert(p)] for p in ORDERED_S4)
# _IMAGE[v][i] is ORDERED_S4[i][v]: where index i takes vertex (or facet) v.
_IMAGE = tuple(tuple(p[v] for p in ORDERED_S4) for v in range(4))


class VerificationError(RuntimeError):
    """An internal consistency check failed (signals a bug, not bad input)."""


class Triangulation:
    """A generalised triangulation given by face gluings between tetrahedra."""

    def __init__(self, tet_count: int, layer_of: tuple[int, ...] | None = None):
        if tet_count < 0:
            raise ValueError("tet_count must be non-negative")
        if layer_of is not None and (len(layer_of) != tet_count or not all(
            type(x) is int and 0 <= x < tet_count // 2 for x in layer_of
        )):
            raise ValueError("layer_of needs one layer in range(tet_count // 2) per tetrahedron")
        self.tet_count = tet_count
        # (adjacent tetrahedron, ORDERED_S4 index) per facet, None if unglued.
        self._glue: list[list[tuple[int, int] | None]] = [
            [None] * 4 for _ in range(tet_count)
        ]
        # For builder output: 0-based layer index per tetrahedron.
        self.layer_of = None if layer_of is None else tuple(layer_of)
        # Cell classes found so far (_labels, edge_classes); glue clears them.
        self._classes: dict = {}

    def glue(self, t: int, f: int, t2: int, perm: Perm) -> None:
        """Glue facet f of tetrahedron t to tetrahedron t2 via perm."""
        in_range = 0 <= t < self.tet_count and 0 <= t2 < self.tet_count and 0 <= f < 4
        try:
            i = ORDERED_S4_INDEX.get(perm) if in_range else None
        except TypeError:  # an unhashable perm, such as a list
            i = None
        if i is None:
            raise ValueError(f"gluing ({t}, {f}) to {t2} by {perm}: need tetrahedra below {self.tet_count}, "
                             "a facet 0..3 and a permutation of 0..3")
        f2 = perm[f]
        if t == t2 and f == f2:
            raise ValueError("cannot glue a facet to itself")
        if self._glue[t][f] is not None or self._glue[t2][f2] is not None:
            raise ValueError(f"facet already glued: ({t},{f}) or ({t2},{f2})")
        self._glue[t][f] = (t2, i)
        self._glue[t2][f2] = (t, _INVERSE[i])
        self._classes.clear()

    @classmethod
    def _adopt(cls, glue: list, layer_of: tuple[int, ...] | None = None) -> Triangulation:
        """The triangulation that takes over these involutive rows and in-range layers, unchecked."""
        out = cls.__new__(cls)
        out.tet_count, out._glue, out.layer_of, out._classes = len(glue), glue, layer_of, {}
        return out

    @classmethod
    def _compacted(cls, glue: list) -> Triangulation:
        """The triangulation of rows stored as in _glue, None rows (holes) left out."""
        index = {t: i for i, t in enumerate(t for t, row in enumerate(glue) if row is not None)}
        return cls._adopt([[None if g is None else (index[g[0]], g[1]) for g in glue[t]] for t in index])

    def gluing(self, t: int, f: int) -> tuple[int, Perm] | None:
        g = self._glue[t][f]
        return None if g is None else (g[0], ORDERED_S4[g[1]])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Triangulation)
            and self.tet_count == other.tet_count
            and self._glue == other._glue
        )

    def to_json(self) -> str:
        gluings = [
            [None if g is None else [g[0], "".join(map(str, ORDERED_S4[g[1]]))] for g in row]
            for row in self._glue
        ]
        doc = {
            "schema_version": 1,
            "tet_count": self.tet_count,
            "gluings": gluings,
        }
        if self.layer_of is not None:
            doc["layer_of"] = list(self.layer_of)
        return json.dumps(doc)


# Junction and folding rules for the layered builder, fitted to the
# standard construction.  Within layer i the even tetrahedron E = 2i and
# odd tetrahedron O = 2i+1 share edges but no faces.  A letter L between
# two layers exchanges horizontal and diagonal edges, a letter R exchanges
# vertical and diagonal edges.  A template holds both sides (t, facet, t2,
# ORDERED_S4 index) of the gluings (t, f, t2, perm) of one step, counted
# from its E: the outermost fold (the first letter is always R), a letter
# between the ends (faces E 012, E 123, O 013, O 023 to the next layer's
# E 032, O 321, E 031, O 021 by L, O 102, E 023, E 103, O 123 by R), or
# the innermost fold by the final letter.

_SWAP01: Perm = (1, 0, 2, 3)
_SWAP02: Perm = (2, 1, 0, 3)
_SWAP13: Perm = (0, 3, 2, 1)
_SWAP23: Perm = (0, 1, 3, 2)


def _template(*gluings: tuple[int, int, int, Perm]) -> tuple[tuple[int, int, int, int], ...]:
    return tuple(side for t, f, t2, p in gluings for side in (
        (t, f, t2, ORDERED_S4_INDEX[p]), (t2, p[f], t, ORDERED_S4_INDEX[invert(p)])))


_OUTER_FOLD = _template((0, 2, 1, _SWAP02), (0, 1, 1, _SWAP13))
_LAYER = {"L": _template((0, 3, 2, _SWAP13), (0, 0, 3, _SWAP13), (1, 2, 2, _SWAP13), (1, 1, 3, _SWAP13)),
          "R": _template((0, 3, 3, _SWAP01), (0, 0, 2, _SWAP01), (1, 2, 2, _SWAP01), (1, 1, 3, _SWAP01))}
_INNER_FOLD = {"R": _template((0, 3, 1, _SWAP13), (0, 0, 1, _SWAP02)),
               "L": _template((0, 3, 1, _SWAP23), (0, 0, 1, _SWAP01))}


def build_sakuma_weeks(w: Word) -> Triangulation:
    """Build the layered triangulation of the 2-bridge link complement of w.

    The word must be normalised (start with R) and hyperbolic (at least two
    syllables).  The result has 2(ell-1) tetrahedra arranged in ell-1 layers
    of two; layer i holds tetrahedra 2i and 2i+1 (0-based).
    """
    if not is_hyperbolic(w):
        raise ValueError(f"{w} is not hyperbolic (needs at least two syllables)")
    if w.syllables[0][0] != "R":
        raise ValueError("word must be normalised to start with R")
    letters = w.letters
    n_layers = len(letters) - 1
    glue: list[list] = [[None] * 4 for _ in range(2 * n_layers)]
    steps = [(0, _OUTER_FOLD), *((2 * i, _LAYER[c]) for i, c in enumerate(letters[1:-1])),
             (2 * n_layers - 2, _INNER_FOLD[letters[-1]])]
    for base, template in steps:
        for t, f, t2, i in template:
            glue[base + t][f] = (base + t2, i)
    return Triangulation._adopt(glue, tuple(sorted([*range(n_layers)] * 2)))


# The vertex search's steps: per vertex v, each facet f that holds it
# (f != v), with the vertex that v becomes under each ORDERED_S4 index.
_VERTEX_STEPS = tuple(tuple((f, _IMAGE[v]) for f in range(4) if f != v) for v in range(4))


def _closure(tri: Triangulation) -> tuple[list[int], list[int]]:
    """Vertex classes (cusps), as (label, sizes).

    Vertex v of tetrahedron t gets label[4t + v]; a search over the
    gluings, growing each class's list of members 4t + v, numbers the
    classes in order of their smallest member.  sizes[c] is the number of
    members of class c.
    """
    glue, steps = tri._glue, _VERTEX_STEPS
    label = [-1] * (4 * tri.tet_count)
    sizes: list[int] = []
    for start in range(len(label)):
        if label[start] >= 0:
            continue
        c = label[start] = len(sizes)
        members = [start]
        for x in members:  # members grows while it is walked
            row = glue[x >> 2]
            for f, image in steps[x & 3]:
                g = row[f]
                if g is not None:
                    y = 4 * g[0] + image[g[1]]
                    if label[y] < 0:
                        label[y] = c
                        members.append(y)
        sizes.append(len(members))
    return label, sizes


# Edge walk states: the ordering (a, b, f, g) of the four vertices, by its
# ORDERED_S4 index, stands at edge ab oriented from a to b, about to leave by
# facet f.  Crossing f by gluing permutation p enters facet p[f] of the next
# tetrahedron at edge p[a]p[b], to be left by facet p[g].  Per state, its
# facet f, its edge ab and its tail a.
_FACET, _EDGE, _TAIL = zip(*((s[2], EDGE_INDEX[s[:2]], s[0]) for s in ORDERED_S4))
_NEXT = tuple(tuple(ORDERED_S4_INDEX[(p[a], p[b], p[g], p[f])] for p in ORDERED_S4) for a, b, f, g in ORDERED_S4)
# The two states of edge e = ab, a < b: one per facet that holds it.
_START = tuple(tuple(s for s, p in enumerate(ORDERED_S4) if p[:2] == ab) for ab in EDGE_VERTS)


def _walk_classes(glue: list, label: list[int], cells, ends: list[int], walks: list) -> None:
    """Walk each class from its first cell x = 6t + e in `cells` that is
    not labelled, by _START[e][0], labelling it len(walks); none of its
    cells may be labelled.  Appends its link vertices 4t + v to ends, and
    (states, why) to walks: the states 24t + s walked, one per cell and
    x's first, and None if the walk came back to its start, else why not.

    Each edge lies in two facets, so a class is a cycle, or a path that the
    walk finishes from its start the other way.  Stopping at the first cell
    labelled, it reads one gluing per cell of a closed triangulation and ends
    on any table.  A class back at its start reversed has one link vertex.
    """
    facet, edge, nxt = _FACET, _EDGE, _NEXT
    for x in cells:
        if label[x] >= 0:
            continue
        key = label[x] = len(walks)
        t0, e = divmod(x, 6)
        y = -1
        walk = [24 * t0 + _START[e][0]]
        for start in _START[e]:
            t, s = t0, start
            while (g := glue[t][facet[s]]) is not None:
                t, i = g
                s = nxt[s][i]
                y = 6 * t + edge[s]
                if label[y] >= 0:
                    break
                label[y] = key
                walk.append(24 * t + s)
            if g is not None:  # else an unglued facet: walk the other way from the start
                break
        a, b = EDGE_VERTS[e]
        ends += (4 * t0 + a,) if y == x and _TAIL[s] == b else (4 * t0 + a, 4 * t0 + b)
        walks.append((walk, "edge has a boundary face; cannot walk around it" if start != _START[e][0]
                      else None if s == start and t == t0 else "edge walk failed to close"))


def _walk_edges(tri: Triangulation) -> tuple[tuple[list[int], int], list[int], list]:
    """((label, count), ends, walks): edge e of tetrahedron t in class
    label[6t + e], numbered by smallest member; 4t + v for each link vertex
    at vertex v; per class, the (states, why) of _walk_classes."""
    label = [-1] * (6 * tri.tet_count)
    ends: list[int] = []
    walks: list[tuple[list[int], str | None]] = []
    _walk_classes(tri._glue, label, range(len(label)), ends, walks)
    return (label, len(walks)), ends, walks


def _labels(tri: Triangulation, kind: str):
    """tri's "vertex" classes from _closure, or its "edge" labels,
    link-vertex "ends" or class "walks" from _walk_edges, each found once;
    shared, not to be mutated."""
    if kind not in tri._classes:
        if kind == "vertex":
            tri._classes[kind] = _closure(tri)
        else:
            tri._classes["edge"], tri._classes["ends"], tri._classes["walks"] = _walk_edges(tri)
    return tri._classes[kind]


@dataclass(frozen=True)
class EdgeClass:
    """One edge of the quotient complex, as a set of in-tetrahedron edges."""

    index: int
    embeddings: tuple[tuple[int, int], ...]  # (tetrahedron, edge 0..5), ascending

    @property
    def degree(self) -> int:
        return len(self.embeddings)


@dataclass(frozen=True)
class EdgeClassTable:
    """The edge classes of one triangulation, shared until its next glue, hence read-only."""

    classes: tuple[EdgeClass, ...]

    def __len__(self) -> int:
        return len(self.classes)

    def degrees(self) -> list[int]:
        return [c.degree for c in self.classes]


def edge_classes(tri: Triangulation) -> EdgeClassTable:
    """Edge classes: in-tetrahedron edges identified across glued faces."""
    if "table" not in tri._classes:
        label, count = _labels(tri, "edge")
        members: list[list[tuple[int, int]]] = [[] for _ in range(count)]
        for x, c in enumerate(label):
            members[c].append(divmod(x, 6))
        tri._classes["table"] = EdgeClassTable(tuple(EdgeClass(i, tuple(m)) for i, m in enumerate(members)))
    return tri._classes["table"]


@dataclass
class ValidationReport:
    """Checks that a closed ideal triangulation with torus cusps must pass."""

    involution_ok: bool
    all_faces_glued: bool
    edge_count_ok: bool
    vertex_links_ok: bool
    edge_class_count: int
    vertex_link_eulers: list[int]
    failures: list[str]

    @property
    def passed(self) -> bool:
        return not self.failures


def validate(tri: Triangulation) -> ValidationReport:
    failures = []

    # One pass over the rows: each entry is glued, and its partner names it back.
    glue, image, inverse = tri._glue, _IMAGE, _INVERSE
    involution_ok = all_glued = True
    for t, row in enumerate(glue):
        for f, g in enumerate(row):
            if g is None:
                all_glued = False
            else:
                t2, i = g
                if glue[t2][image[f][i]] != (t, inverse[i]):
                    involution_ok = False
    if not involution_ok:
        failures.append("gluing map is not an involution")
    if not all_glued:
        failures.append("not all faces are glued")

    edge_count = _labels(tri, "edge")[1]
    edge_count_ok = involution_ok and edge_count == tri.tet_count
    if not involution_ok:
        failures.append("edge classes and vertex links not checked: gluing map is not an involution")
    elif not edge_count_ok:
        failures.append(
            f"edge class count {edge_count} differs from tetrahedron count {tri.tet_count}"
        )

    eulers: list[int] = []
    links_ok = involution_ok
    if involution_ok and all_glued and tri.tet_count:
        # The link of an ideal vertex is glued from one triangle per
        # (tetrahedron, vertex) incidence, whose corners are the ends of
        # edges.  Each link edge is shared by two triangles, so the Euler
        # characteristic V - E + F is the number of link vertices - F/2.
        vertex, sizes = _labels(tri, "vertex")
        corners = Counter(map(vertex.__getitem__, _labels(tri, "ends")))
        eulers = [corners[v] - size // 2 for v, size in enumerate(sizes)]
        links_ok = not any(eulers)
        if not links_ok:
            failures.append(f"vertex links have Euler characteristics {eulers}, expected all 0")
    elif involution_ok and tri.tet_count:
        links_ok = False
        failures.append("vertex links not checked: triangulation has unglued faces")

    return ValidationReport(
        involution_ok=involution_ok,
        all_faces_glued=all_glued,
        edge_count_ok=edge_count_ok,
        vertex_links_ok=links_ok,
        edge_class_count=edge_count,
        vertex_link_eulers=eulers,
        failures=failures,
    )


def degree_predicates(tri: Triangulation, w: Word) -> tuple[bool, bool]:
    """(has degree-3 edge, has degree-4 edge) for builder output of w.

    Cross-checked against the syllable criteria: a degree-3 edge exists iff
    a_1 > 1 or a_n > 1, and a degree-4 edge exists iff some interior
    exponent is >= 2, an end exponent is >= 3, or the word is the
    three-letter RLR.  (RLR is a boundary case: its vertical edge classes
    run fold-to-fold through both layers without meeting a diagonal, giving
    degree 2(ell-1) = 4 even though every exponent is 1.)  A mismatch with
    the criteria means the builder is broken and raises VerificationError.
    """
    degrees = {len(states) for states, _ in _labels(tri, "walks")}
    has3 = 3 in degrees
    has4 = 4 in degrees
    exps = w.exponents
    lemma3 = exps[0] > 1 or exps[-1] > 1
    lemma4 = (
        any(e >= 2 for e in exps[1:-1])
        or exps[0] >= 3
        or exps[-1] >= 3
        or w.letters == "RLR"
    )
    if (has3, has4) != (lemma3, lemma4):
        raise VerificationError(
            f"degree predicates {(has3, has4)} disagree with syllable criteria "
            f"{(lemma3, lemma4)} for {w}"
        )
    return has3, has4


_FACE_COLUMNS = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))


def gluing_table(tri: Triangulation) -> str:
    """Regina-style gluing table with columns Face 012 / 013 / 023 / 123."""
    header = ["Tetrahedron"] + [f"Face {''.join(map(str, c))}" for c in _FACE_COLUMNS]
    rows = [header]
    for t in range(tri.tet_count):
        row = [str(t)]
        for verts in _FACE_COLUMNS:
            f = next(v for v in range(4) if v not in verts)
            g = tri.gluing(t, f)
            if g is None:
                row.append("boundary")
            else:
                t2, perm = g
                row.append(f"{t2} ({''.join(str(perm[v]) for v in verts)})")
        rows.append(row)
    widths = [max(len(r[c]) for r in rows) for c in range(5)]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip() for r in rows
    )
