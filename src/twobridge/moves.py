"""Local retriangulation moves and the greedy simplification pipeline.

The 2-3 move subdivides the bipyramid around an internal triangle shared
by two distinct tetrahedra into three tetrahedra around a new degree-3
edge; the 3-2 move is its inverse.  The 4-4 move retriangulates the
octahedron around a degree-4 edge along one of the two alternative main
diagonals.  All moves return new triangulations; survivors keep their
relative order and new tetrahedra are appended at the end.

Every move follows one rule (_retriangulate).  It names each vertex of
the ball it retriangulates by a symbol, in every removed and every new
tetrahedron, and each gluing maps a vertex to the vertex with the same
symbol: a face of two new tetrahedra is glued between them, and a face of
one new tetrahedron lies on the ball's boundary and keeps the outside
gluing of the old facet with the same symbols.  The 3-2 and 4-4 moves read
the tetrahedra around their edge off the walk that finds the edge classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import json

from .triangulation import (
    EDGE_INDEX,
    IDENTITY,
    ORDERED_S4,
    EdgeClass,
    Perm,
    Triangulation,
    compose,
    edge_classes,
    invert,
    _labels,
)

# Symbols of the ends of an edge walked around by _walk; the other
# vertices of the fan are numbered 0, 1, ... in walk order.
U, V = "U", "V"


def _match(a: tuple, fa: int, b: tuple, fb: int) -> Perm:
    """The gluing of facet fa of symbols a to facet fb of symbols b."""
    return tuple(fb if v == fa else b.index(s) for v, s in enumerate(a))


def _retriangulate(tri: Triangulation, old: dict[int, tuple], new: list[tuple]) -> Triangulation:
    """Swap the tetrahedra of `old` for `new`, glued by matching symbols.

    `old[t][v]` is the symbol of vertex v of removed tetrahedron t, and each
    new tetrahedron is the tuple of its vertices' symbols.
    """
    survivors = [t for t in range(tri.tet_count) if t not in old]
    index = {t: i for i, t in enumerate(survivors)}
    base = len(survivors)
    out = Triangulation(base + len(new))
    faces: dict[frozenset, list[tuple[int, int]]] = {}  # symbols -> (new tet, facet)
    for j, syms in enumerate(new):
        for f in range(4):
            faces.setdefault(frozenset(syms) - {syms[f]}, []).append((j, f))

    def place(t: int, f: int) -> tuple[int, int, Perm] | None:
        """(tet, facet, t's labels -> its labels) of an old facet, None inside the ball."""
        if t not in old:
            return index[t], f, IDENTITY
        held = faces.get(frozenset(old[t]) - {old[t][f]}, ())
        if len(held) != 1:
            return None
        j, g = held[0]
        return base + j, g, _match(old[t], f, new[j], g)

    for t in range(tri.tet_count):
        for f in range(4):
            glued = tri.gluing(t, f)
            if glued is None or (glued[0], glued[1][f]) < (t, f):
                continue  # unglued, or done from its other side
            t2, perm = glued
            if t not in old and t2 not in old:
                out.glue(index[t], f, index[t2], perm)
                continue
            here, there = place(t, f), place(t2, perm[f])
            if here is not None:  # else inside the ball
                out.glue(here[0], here[1], there[0], compose(there[2], compose(perm, invert(here[2]))))
    for (j, f), (k, g) in (held for held in faces.values() if len(held) == 2):
        out.glue(base + j, f, base + k, _match(new[j], f, new[k], g))
    return out


def pachner_23(tri: Triangulation, face: tuple[int, int]) -> Triangulation:
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
    return _retriangulate(tri, old, [(f0, 4, c[k], c[(k + 1) % 3]) for k in range(3)])


def _walk(tri: Triangulation, cls: EdgeClass) -> tuple[list[tuple[int, tuple]], str | None]:
    """The walk once around cls, as (fan, None), or as ([], why it fails).

    The k-th tetrahedron names the ends of the edge U and V and its other
    vertices k and k + 1 (modulo the degree n), and the walk leaves it
    through face U V k+1 into the next: it is the k-th state (a, b, f, g)
    of the class's walk from _walk_edges, stored as 24t + s, with a named
    U, b V, f k and g k + 1.  It fails unless the n tetrahedra are
    distinct, and where that walk meets a boundary face or does not come
    back to its start.
    """
    n = cls.degree
    if len({t for t, _ in cls.embeddings}) != n:
        move = "3-2 move needs three" if n == 3 else "4-4 move needs four"
        return [], f"{move} distinct tetrahedra around the edge"
    walk = _labels(tri, "walks")[cls.index]
    if isinstance(walk, str):
        return [], walk
    return [(t, tuple((U, V, k, (k + 1) % n)[i] for i in invert(ORDERED_S4[s])))
            for k, (t, s) in enumerate(divmod(x, 24) for x in walk)], None


def _edge_fan(tri: Triangulation, edge_class: int, n: int) -> list[tuple[int, tuple]]:
    """The _walk around a degree-n edge class; ValueError unless it closes."""
    classes = edge_classes(tri).classes
    if edge_class not in range(len(classes)):
        raise ValueError(f"no edge class {edge_class}")
    cls = classes[edge_class]
    if cls.degree != n:
        raise ValueError(f"edge class {edge_class} has degree {cls.degree}, need {n}")
    fan, why = _walk(tri, cls)
    if why:
        raise ValueError(why)
    return fan


def pachner_32(tri: Triangulation, edge_class: int) -> Triangulation:
    """3-2 move along a degree-3 edge class with three distinct tetrahedra.

    On the symbols of _edge_fan the new tetrahedra are (0, 1, 2, U) and (0, 1, 2, V).
    """
    return _retriangulate(tri, dict(_edge_fan(tri, edge_class, 3)), [(0, 1, 2, U), (0, 1, 2, V)])


# The new tetrahedra of the 4-4 move on the octahedron of _edge_fan's
# symbols, per axis: the new diagonal is 0-2 for axis 0 and 1-3 for axis 1,
# and the cycles around it make the move with the same axis undo itself.
_OCTAHEDRA = (
    ((0, 2, U, 3), (0, 2, 3, V), (0, 2, V, 1), (0, 2, 1, U)),
    ((1, 3, 0, U), (1, 3, U, 2), (1, 3, 2, V), (1, 3, V, 0)),
)


def move_44(tri: Triangulation, edge_class: int, axis: int) -> Triangulation:
    """4-4 move along a degree-4 edge class, re-diagonalising the octahedron.

    The octahedron around the edge has equator E0 E1 E2 E3 (indexed from
    the canonical walk starting at the smallest edge embedding); axis 0
    uses the new diagonal E0-E2 and axis 1 uses E1-E3.
    """
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    return _retriangulate(tri, dict(_edge_fan(tri, edge_class, 4)), _OCTAHEDRA[axis])


def _degree_changes(new: tuple[tuple, ...]) -> tuple[tuple, ...]:
    """(k, a, b, change) for each edge a b of the octahedron whose number of
    tetrahedra the 4-4 move `new` changes, with k a walk tetrahedron
    holding it; the new diagonal lies in none and is left out."""
    old = [(U, V, k, (k + 1) % 4) for k in range(4)]
    changes = []
    for a, b in combinations((U, V, 0, 1, 2, 3), 2):
        holders = [k for k, syms in enumerate(old) if a in syms and b in syms]
        change = sum(a in syms and b in syms for syms in new) - len(holders)
        if holders and change:
            changes.append((holders[0], a, b, change))
    return tuple(changes)


_DEGREE_CHANGES = tuple(_degree_changes(new) for new in _OCTAHEDRA)


@dataclass
class MoveRecord:
    kind: str                 # "3-2" or "4-4"
    target: int               # edge class index at the time of the move
    axis: int | None
    tets_after: int


@dataclass
class SimplificationTrace:
    moves: list[MoveRecord]
    final: Triangulation
    initial_tets: int

    def to_json(self) -> str:
        return json.dumps(
            [
                {"move": m.kind, "target": m.target, "axis": m.axis, "tets_after": m.tets_after}
                for m in self.moves
            ]
        )


def _applicable_32(tri: Triangulation) -> int | None:
    """Smallest edge class admitting a 3-2 move, if any."""
    return next((cls.index for cls in edge_classes(tri).classes
                 if cls.degree == 3 and _walk(tri, cls)[1] is None), None)


def _degrees_after_44(tri: Triangulation, fan: list[tuple[int, tuple]], axis: int) -> dict[int, int]:
    """Degree after the 4-4 move on `fan`, the _walk of a degree-4 class, of
    each class the octahedron touches.

    Changes add up per class, so identified edges count with multiplicity;
    the central class loses all four tetrahedra.
    """
    label = _labels(tri, "edge")[0]
    classes = edge_classes(tri).classes
    delta: dict[int, int] = {}
    for k, a, b, change in _DEGREE_CHANGES[axis]:
        t, syms = fan[k]
        x = label[6 * t + EDGE_INDEX[(syms.index(a), syms.index(b))]]
        delta[x] = delta.get(x, 0) + change
    return {x: classes[x].degree + d for x, d in delta.items()}


def simplify(tri: Triangulation) -> SimplificationTrace:
    """Greedy simplification: 3-2 moves first, then 4-4 moves that enable one.

    Degree-3 edges are consumed in ascending class id.  When none remain,
    every degree-4 edge with four distinct tetrahedra is tried with both
    axes; the first 4-4 move whose result admits a 3-2 move is kept.  The
    trace ends when neither kind of step applies; the tetrahedron count
    never increases.  A 4-4 trial is built only if _degrees_after_44 leaves
    a class at degree 3: the other classes keep their tetrahedra, and in
    this phase none of them admits a 3-2 move.
    """
    moves: list[MoveRecord] = []
    current = tri
    while True:
        target = _applicable_32(current)
        if target is not None:
            current = pachner_32(current, target)
            moves.append(MoveRecord("3-2", target, None, current.tet_count))
            continue
        trials = (
            (cls.index, axis)
            for cls in edge_classes(current).classes
            if cls.degree == 4
            for fan, why in (_walk(current, cls),)
            if why is None
            for axis in (0, 1)
            if 3 in _degrees_after_44(current, fan, axis).values()
        )
        for target, axis in trials:
            candidate = move_44(current, target, axis)
            if _applicable_32(candidate) is not None:
                moves.append(MoveRecord("4-4", target, axis, candidate.tet_count))
                current = candidate
                break
        else:
            return SimplificationTrace(moves, current, tri.tet_count)
