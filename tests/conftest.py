import itertools
import json
from fractions import Fraction

import pytest

from twobridge.angles import _UNITS
from twobridge.triangulation import Triangulation
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


@pytest.fixture(scope="session")
def words_ell8():
    return all_normalized_words(8)


@pytest.fixture(scope="session")
def words_ell10():
    return all_normalized_words(10)
