"""Local retriangulation moves and the greedy simplification pipeline.

The 3-2 move retriangulates the bipyramid around a degree-3 edge on three
distinct tetrahedra as two tetrahedra sharing one triangle; it is the
inverse of the Pachner 2-3 move.  The 4-4 move retriangulates the
octahedron around a degree-4 edge along one of the two alternative main
diagonals.

Every move follows one rule (_retriangulate), in place on gluing rows.  It
names each vertex of the ball it retriangulates by a symbol, in every
removed and every new tetrahedron, and each gluing maps a vertex to the
vertex with the same symbol: a face of two new tetrahedra is glued between
them, and a face of one new tetrahedron lies on the ball's boundary and
keeps the outside gluing of the old facet with the same symbols.  Removed
tetrahedra leave holes and new ones are appended, so survivors keep their
relative order when simplify compacts its result.  simplify copies the
rows and the edge walk once into a private table (_Table), moves it, and
walks again only the edge classes that meet the new tetrahedra, so a move
costs the same at any size; with no move it returns its input.  The 3-2
and 4-4 moves read the tetrahedra around their edge off a closed walk
that finds the edge classes.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cache
from itertools import combinations

import json

from .triangulation import (
    EDGE_INDEX,
    ORDERED_S4,
    ORDERED_S4_INDEX,
    Perm,
    Triangulation,
    invert,
    _COMPOSE,
    _EDGE,
    _INVERSE,
    _labels,
    _walk_classes,
)

# Symbols of the ends of an edge walked around by _fan; the other
# vertices of the fan are numbered 0, 1, ... in walk order.
U, V = "U", "V"


def _match(a: tuple, fa: int, b: tuple, fb: int) -> Perm:
    """The gluing of facet fa of symbols a to facet fb of symbols b."""
    return tuple(fb if v == fa else b.index(s) for v, s in enumerate(a))


@cache
def _faces(syms: tuple, new: tuple[tuple, ...]) -> tuple[list[tuple[int, int, int]], ...]:
    """Per facet f of a tetrahedron of symbols syms, each other facet g of
    a tetrahedron new[j] with the same symbols, as (j, g, the ORDERED_S4
    index of the gluing)."""
    return tuple([(j, g, ORDERED_S4_INDEX[_match(syms, f, n, g)]) for j, n in enumerate(new) for g in range(4)
                  if n != syms and set(n) - {n[g]} == set(syms) - {syms[f]}] for f in range(4))


def _retriangulate(glue: list, old: dict[int, tuple], new: tuple[tuple, ...]) -> list[tuple]:
    """Swap the tetrahedra of `old` for `new` in the gluing rows `glue`, in
    place: their rows become None, and new rows are appended.

    `old[t][v]` is the symbol of vertex v of removed tetrahedron t, and each
    new tetrahedron is the tuple of its vertices' symbols.  Returns the
    journal of the entries overwritten, as (list, index, value before).
    """
    base = len(glue)
    # Faces of two new tetrahedra now; the others keep outside gluings below.
    rows = [[None if len(held) != 1 else (base + held[0][0], held[0][2]) for held in _faces(syms, new)]
            for syms in new]
    journal = []
    for t, syms in old.items():
        for f, (glued, held) in enumerate(zip(glue[t], _faces(syms, new))):
            if len(held) != 1 or glued is None:  # inside the ball, or unglued
                continue
            (j, g, h), (t2, p) = held[0], glued
            i = _COMPOSE[p][_INVERSE[h]]  # new[j]'s labels -> t2's
            f2 = ORDERED_S4[p][f]
            if t2 in old:  # set from both sides
                k, _, h2 = _faces(old[t2], new)[f2][0]
                rows[j][g] = (base + k, _COMPOSE[h2][i])
            else:
                rows[j][g] = (t2, i)
                journal.append((glue[t2], f2, glue[t2][f2]))
                glue[t2][f2] = (base + j, _INVERSE[i])
    for t in old:
        journal.append((glue, t, glue[t]))
        glue[t] = None
    glue += rows
    return journal


def _admits(walk: tuple[list[int], bool]) -> bool:
    """Whether the class of a (states, closed) of _walk_classes admits the
    move of its degree n: its walk closed, on n distinct tetrahedra."""
    states, closed = walk
    return closed and len({x // 24 for x in states}) == len(states)


# _SYMBOLS[n - 3][k][s]: in state s = (a, b, f, g) of the walk around a
# class of degree n, its k-th tetrahedron names the ends of the edge U and
# V and its other vertices k and k + 1 (modulo n), and leaves through face
# U V k+1 into the next: a is named U, b V, f k and g k + 1.
_SYMBOLS = tuple(tuple(tuple(tuple((U, V, k, (k + 1) % n)[i] for i in invert(p)) for p in ORDERED_S4)
                       for k in range(n)) for n in (3, 4))


def _fan(states: list[int]) -> list[tuple[int, tuple]]:
    """(tetrahedron, symbols) around a class of degree 3 or 4 that admits its move."""
    return [(x // 24, _SYMBOLS[len(states) - 3][k][x % 24]) for k, x in enumerate(states)]


# The new tetrahedra of the 3-2 move on the symbols of _fan.
_PAIR = ((0, 1, 2, U), (0, 1, 2, V))


# The new tetrahedra of the 4-4 move on the octahedron of _fan's
# symbols, per axis: the new diagonal is 0-2 for axis 0 and 1-3 for axis 1,
# and the cycles around it make the move with the same axis undo itself.
_OCTAHEDRA = (
    ((0, 2, U, 3), (0, 2, 3, V), (0, 2, V, 1), (0, 2, 1, U)),
    ((1, 3, 0, U), (1, 3, U, 2), (1, 3, 2, V), (1, 3, V, 0)),
)


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


class _Table:
    """simplify's working triangulation, copied from the triangulation's
    rows and edge walk: gluing rows, None where a move removed a
    tetrahedron; per cell 6t + e the number of its edge class; per class
    number its (states, closed) of _walk_classes; and in movable[n], sorted
    as (smallest cell, number), the classes of degree n = 3, 4 that admit
    their move.

    A move numbers the classes it walks on from len(walks), and the numbers
    of those it drops fall out of use.  Holes and appended tetrahedra order
    the cells as compaction numbers them, so a class's index is the rank of
    its smallest cell among those of the live classes, kept sorted in keys.
    """

    def __init__(self, tri: Triangulation):
        self.glue = [list(row) for row in tri._glue]
        self.label = _labels(tri, "edge")[0][:]
        self.walks = _labels(tri, "walks")[:]
        self.keys = [self.first(c) for c in range(len(self.walks))]
        self.movable: dict[int, list[tuple[int, int]]] = {3: [], 4: []}
        self.file(range(len(self.walks)))

    def file(self, classes) -> None:
        """Add each of these classes that admits its move to movable."""
        for c in classes:
            if len(self.walks[c][0]) in self.movable and _admits(self.walks[c]):
                insort(self.movable[len(self.walks[c][0])], (self.first(c), c))

    def first(self, c: int) -> int:
        """The smallest cell of class c: where its walk starts."""
        x = self.walks[c][0][0]
        return 6 * (x // 24) + _EDGE[x % 24]

    def rank(self, c: int) -> int:
        """The index of class c in the compacted triangulation."""
        return bisect_left(self.keys, self.first(c))

    def move(self, fan: list[tuple[int, tuple]], new: tuple[tuple, ...], keep=lambda walks: True) -> bool:
        """Retriangulate the ball around `fan` by `new`, and walk again each
        class with a cell in the new tetrahedra: every edge of the ball but
        the central one.  Unless keep(the walks of those classes), undo it
        from the journal of the entries it overwrote.  Whether it is kept."""
        old = dict(fan)
        label, walks = self.label, self.walks
        dropped = {label[6 * t + e] for t in old for e in range(6)}
        base, count = len(self.glue), len(walks)
        journal = _retriangulate(self.glue, old, new)
        cells = [6 * (x // 24) + _EDGE[x % 24] for c in dropped for x in walks[c][0]]
        journal += [(label, c, label[c]) for c in cells]
        # Undone first: cut what was appended.
        journal += [(held, slice(n, None), []) for held, n in ((self.glue, base), (label, 6 * base), (walks, count))]
        for c in cells:
            label[c] = -1
        label += [-1] * (6 * len(new))
        # In increasing order, as _walk_edges meets them: each class from its smallest cell.
        fresh = sorted(c for c in cells if c // 6 not in old) + list(range(6 * base, len(label)))
        _walk_classes(self.glue, label, fresh, [], walks)
        if not keep(walks[count:]):
            for held, i, value in reversed(journal):
                held[i] = value
            return False
        for c in dropped:
            first = self.first(c)
            del self.keys[bisect_left(self.keys, first)]
            for held in self.movable.values():
                i = bisect_left(held, (first, c))
                if i < len(held) and held[i] == (first, c):
                    del held[i]
        for c in range(count, len(walks)):
            insort(self.keys, self.first(c))
        self.file(range(count, len(walks)))
        return True


def _degrees_after_44(table: _Table, fan: list[tuple[int, tuple]], axis: int) -> dict[int, int]:
    """Degree after the 4-4 move on `fan`, the _fan of a degree-4 class, of
    each class the octahedron touches.

    Changes add up per class, so identified edges count with multiplicity;
    the central class loses all four tetrahedra.
    """
    delta: dict[int, int] = {}
    for k, a, b, change in _DEGREE_CHANGES[axis]:
        t, syms = fan[k]
        x = table.label[6 * t + EDGE_INDEX[(syms.index(a), syms.index(b))]]
        delta[x] = delta.get(x, 0) + change
    return {x: len(table.walks[x][0]) + d for x, d in delta.items()}


def _exposes_32(walks: list[tuple[list[int], bool]]) -> bool:
    """Whether one of these walks is of a class that admits a 3-2 move."""
    return any(len(walk[0]) == 3 and _admits(walk) for walk in walks)


def simplify(tri: Triangulation) -> SimplificationTrace:
    """Greedy simplification: 3-2 moves first, then 4-4 moves that enable one.

    Degree-3 edges are consumed in ascending class id.  When none remain,
    every degree-4 edge with four distinct tetrahedra is tried with both
    axes; the first 4-4 move whose result admits a 3-2 move is kept.  The
    trace ends when neither kind of step applies; the tetrahedron count
    never increases.  A 4-4 trial is made only if _degrees_after_44 leaves
    a class at degree 3: the other classes keep their tetrahedra, and in
    this phase none of them admits a 3-2 move.  So a trial is checked on
    the classes it walked, and one that exposes no 3-2 move is undone.
    """
    table = _Table(tri)
    moves: list[MoveRecord] = []
    tets = tri.tet_count
    while True:
        if table.movable[3]:
            c = table.movable[3][0][1]
            target = table.rank(c)
            table.move(_fan(table.walks[c][0]), _PAIR)
            tets -= 1
            moves.append(MoveRecord("3-2", target, None, tets))
            continue
        trials = (
            (c, fan, axis)
            for _, c in table.movable[4]
            for fan in (_fan(table.walks[c][0]),)
            for axis in (0, 1)
            if 3 in _degrees_after_44(table, fan, axis).values()
        )
        for c, fan, axis in trials:
            target = table.rank(c)
            if table.move(fan, _OCTAHEDRA[axis], _exposes_32):
                moves.append(MoveRecord("4-4", target, axis, tets))
                break
        else:
            final = Triangulation._compacted(table.glue) if moves else tri
            return SimplificationTrace(moves, final, tri.tet_count)
