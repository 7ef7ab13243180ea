import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from twobridge import _solver, moves
from twobridge.angles import _UNITS
from twobridge.triangulation import EDGE_VERTS, IDENTITY, ORDERED_S4, Triangulation, _labels, invert
from twobridge.volume import MaximizeResult
from twobridge.word import Word

# The catalogue shapes' angles as Fractions of pi, from the synthesis's units of pi/24.
SHAPES = {name: tuple(Fraction(x, 24) for x in units) for name, units in _UNITS.items()}


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


class UnionFind:
    """Plain union-find with path halving; the root of each set is its smallest member."""

    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def union(self, a, b):
        a, b = self.find(a), self.find(b)
        if a < b:
            self.parent[b] = a
        elif b < a:
            self.parent[a] = b


class CountingRow(list):
    """A row of Triangulation._glue that counts its reads."""

    def __init__(self, row):
        super().__init__(row)
        self.reads = 0

    def __getitem__(self, f):
        self.reads += 1
        return super().__getitem__(f)


def triangle_pairs(tri):
    """All internal triangles as ((tet, facet), (tet, facet)) pairs, sorted."""
    pairs = []
    for t in range(tri.tet_count):
        for f in range(4):
            g = tri.gluing(t, f)
            if g is not None and (g[0], g[1][f]) > (t, f):  # listed at its smaller end
                pairs.append(((t, f), (g[0], g[1][f])))
    return pairs


def is_closed(tri):
    """Whether every facet of tri is glued."""
    return all(tri.gluing(t, f) is not None for t in range(tri.tet_count) for f in range(4))


def moved(tri, old, new):
    """A new triangulation: tri with the tetrahedra of `old` swapped for
    `new` by simplify's retriangulation rule, on a copy of the rows."""
    glue = [list(row) for row in tri._glue]
    moves._retriangulate(glue, old, new)
    return Triangulation._compacted(glue)


def pachner_23(tri, face):
    """2-3 move across the internal triangle containing facet `face`.

    Both old tetrahedra name the face's vertices c_0 < c_1 < c_2 and the
    apex f0 by their labels in t0, and the other apex 4; the new
    tetrahedra are (f0, 4, c_k, c_{k+1}).
    """
    t0, f0 = face
    if t0 not in range(tri.tet_count) or f0 not in range(4):
        raise ValueError(f"no facet {f0} of tetrahedron {t0}")
    g = tri.gluing(t0, f0)
    if g is None:
        raise ValueError("facet is not glued")
    t1, glu = g
    if t1 == t0:
        raise ValueError("2-3 move needs the face glued between two distinct tetrahedra")
    c = [v for v in range(4) if v != f0]
    old = {t0: IDENTITY, t1: tuple(4 if v == f0 else v for v in invert(glu))}
    return moved(tri, old, tuple((f0, 4, c[k], c[(k + 1) % 3]) for k in range(3)))


def edge_fan(tri, edge_class, n):
    """The (tetrahedron, symbols) fan of simplify around a degree-n edge
    class; ValueError unless the class admits the move."""
    walks = _labels(tri, "walks")
    if edge_class not in range(len(walks)):
        raise ValueError(f"no edge class {edge_class}")
    degree = len(walks[edge_class][0])
    if degree != n:
        raise ValueError(f"edge class {edge_class} has degree {degree}, need {n}")
    states, closed = walks[edge_class]
    if len({x // 24 for x in states}) != degree:
        move = "3-2 move needs three" if degree == 3 else "4-4 move needs four"
        raise ValueError(f"{move} distinct tetrahedra around the edge")
    if not closed:
        # A walk that met an unglued facet holding the edge went round it the other way.
        if any(tri.gluing(x // 24, f) is None for x in states for f in ORDERED_S4[x % 24][2:]):
            raise ValueError("edge has a boundary face; cannot walk around it")
        raise ValueError("edge walk failed to close")
    return moves._fan(states)


def pachner_32(tri, edge_class):
    """3-2 move along a degree-3 edge class with three distinct tetrahedra."""
    return moved(tri, dict(edge_fan(tri, edge_class, 3)), moves._PAIR)


def move_44(tri, edge_class, axis):
    """4-4 move along a degree-4 edge class, re-diagonalising the octahedron.

    The octahedron's equator E0 E1 E2 E3 is read off the one walk around
    the edge that also finds the edge classes: it starts at the edge's
    smallest embedding, oriented from its smaller vertex, and leaves by the
    smaller of the two facets that hold it.  Axis 0 uses the new diagonal
    E0-E2 and axis 1 uses E1-E3; repeating the move with the same axis
    restores the triangulation up to isomorphism.
    """
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    return moved(tri, dict(edge_fan(tri, edge_class, 4)), moves._OCTAHEDRA[axis])


def disjoint_union(*parts):
    """The disjoint union of the parts, numbered in order."""
    out = Triangulation(sum(p.tet_count for p in parts))
    base = 0
    for part in parts:
        for t in range(part.tet_count):
            for f in range(4):
                g = part.gluing(t, f)
                if g is not None and out.gluing(base + t, f) is None:
                    out.glue(base + t, f, base + g[0], g[1])
        base += part.tet_count
    return out


def triangulation_from_json(text):
    """The triangulation that Triangulation.to_json wrote, glued again entry by entry."""
    doc = json.loads(text)
    tri = Triangulation(doc["tet_count"], doc.get("layer_of"))
    for t, row in enumerate(doc["gluings"]):
        for f, g in enumerate(row):
            if g is not None and tri.gluing(t, f) is None:  # each gluing once, from its first entry
                tri.glue(t, f, g[0], tuple(map(int, g[1])))
    return tri


def union_find(tri, size, cell_pairs):
    """Union-find over the cells size*t + c of tri.

    cell_pairs(f, perm) lists the (cell, image) pairs that a gluing of
    facet f by perm identifies.
    """
    uf = UnionFind(size * tri.tet_count)
    for t in range(tri.tet_count):
        for f in range(4):
            g = tri.gluing(t, f)
            if g is not None and (g[0], g[1][f]) >= (t, f):  # each glued pair once, from its smaller end
                for a, b in cell_pairs(f, g[1]):
                    uf.union(size * t + a, size * g[0] + b)
    return uf


def union_find_labels(tri, size, cell_pairs):
    """Class label of every cell size*t + c, numbered by smallest member."""
    uf = union_find(tri, size, cell_pairs)
    number = {}
    return [number.setdefault(uf.find(x), len(number)) for x in range(len(uf.parent))]


def oracle_components(tri):
    """Component label of every tetrahedron: a gluing joins its two tetrahedra."""
    return union_find_labels(tri, 1, lambda f, perm: [(0, 0)])


def is_connected(tri):
    return len(set(oracle_components(tri))) <= 1


# The ordered edges vw of a tetrahedron in each facet f.
FACET_CORNERS = [[(v, w) for v in range(4) for w in range(4) if f not in (v, w) and v != w] for f in range(4)]


def link_corners(tri):
    """Union-find over the link corners: corner 16t + 4v + w is the end at
    vertex v of edge vw of tetrahedron t, and a gluing of facet f identifies
    the corners whose edges lie in the facet."""
    return union_find(tri, 16, lambda f, perm: [(4 * v + w, 4 * perm[v] + perm[w]) for v, w in FACET_CORNERS[f]])


def constraint_system(tri):
    """The equations A x = b for angle structures on the gluing table, as (rows, b).

    Variable 3t + p is the angle on the opposite-edge pair p of
    tetrahedron t (pairs are edges (0,5), (1,4), (2,3)).  Rows 0..n-1 are
    the tetrahedra (sum pi), then one row per edge class (sum 2 pi).
    rows[3t + p] holds the rows of A with a 1 in column 3t + p: row t and
    the class rows of the pair's two edges, twice the same one where both
    are in one class.
    """
    n = tri.tet_count
    label, count = _labels(tri, "edge")  # class of edge e of tetrahedron t at 6t + e
    edge_row = n + np.array(label, dtype=np.int64).reshape(n, 6)
    rows = np.empty((n, 3, 3), dtype=np.int64)  # rows[t, p] is rows[3t + p]
    rows[:, :, 0], rows[:, :, 1], rows[:, :, 2] = np.arange(n)[:, None], edge_row[:, :3], edge_row[:, :2:-1]
    b = np.concatenate([np.full(n, math.pi), np.full(count, 2.0 * math.pi)])
    return rows.reshape(3 * n, 3), b


def independent_rows(tri):
    """Mask of the rows of constraint_system kept when one edge row per
    cusp is dropped.

    Each cusp v gives the identity sum_e m_v(e) row(e) = sum_t k_v(t) row(t),
    where m_v(e) counts the ends of edge class e at v and k_v(t) the
    vertices of tetrahedron t at v.  The dropped edge rows are the classes,
    in order, whose column of m is independent of the columns before it,
    found by elimination in integers; on a valid triangulation with c cusps
    there are c of them and the remaining 2n - c rows are independent.
    """
    n = tri.tet_count
    edge, count = _labels(tri, "edge")
    vertex, sizes = _labels(tri, "vertex")
    cusps = len(sizes)
    keep = np.ones(n + count, dtype=bool)
    pivots = []  # (cusp, column) of each dropped class; a column is 0 at the cusps of the pivots before it
    x = 0
    for c in range(count):
        if len(pivots) == cusps:
            break
        x = edge.index(c, x)  # the first member 6t + e: classes are numbered in order of it
        t, e = divmod(x, 6)
        column = [0] * cusps
        for v in EDGE_VERTS[e]:
            column[vertex[4 * t + v]] += 1
        for p, pivot in pivots:
            if column[p]:  # the gcd keeps the integers small; columns only scale, so zeros stay
                column = [pivot[p] * a - column[p] * b for a, b in zip(column, pivot)]
                g = math.gcd(*column) or 1
                column = [a // g for a in column]
        p = next((v for v, a in enumerate(column) if a), None)
        if p is not None:
            pivots.append((p, column))
            keep[n + c] = False
    return keep


def interior_point(rows, b):
    """A strictly positive solution of A x = b via slack maximisation, or
    None: the verdict of maximize_gluing_table when its Newton loop does
    not converge.

    With x = s + t 1 and s >= 0 the linear program maximises t subject to
    [A | A 1] [s; t] = b.  The bounds x <= pi - t need no rows: the
    tetrahedron equations (sum pi over three positive angles) imply them.
    """
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    n, m = len(rows), len(b)
    c = np.zeros(n + 1)
    c[-1] = -1.0
    # Each entry of A goes to its column and to column n; repeated places are summed, so column n is A 1.
    at = (np.tile(rows.ravel(), 2), np.concatenate([np.repeat(np.arange(n), 3), np.full(3 * n, n)]))
    A_eq = csr_matrix((np.ones(6 * n), at), shape=(m, n + 1))
    res = linprog(c, A_eq=A_eq, b_eq=b, bounds=[(0, None)] * n + [(None, None)], method="highs")
    if not res.success or res.x[-1] <= 1e-9:
        return None
    return res.x[:-1] + res.x[-1]


def maximize_gluing_table(tri):
    """The maximum of V over all 3n angles of any triangulation: the
    Newton loop of maximize_volume on constraint_system, one edge row per
    cusp dropped, from x = pi/3.  Where the loop does not end at a
    converged interior point, the linear program decides: ValueError if no
    strictly positive solution exists.  The reference for triangulations
    without layers, and for the layer table on builder output."""
    rows, b = constraint_system(tri)
    x, value, gnorm, it, converged = _solver._newton(
        rows, b, independent_rows(tri), np.full(len(rows), math.pi / 3), 1e-10, 200
    )
    result = MaximizeResult(x.reshape(-1, 3), value, gnorm, it, converged)
    if not result.converged and interior_point(rows, b) is None:
        raise ValueError("no strict angle structure: constraint system infeasible")
    return result


@pytest.fixture(scope="session")
def words_ell8():
    return all_normalized_words(8)


@pytest.fixture(scope="session")
def words_ell10():
    return all_normalized_words(10)
