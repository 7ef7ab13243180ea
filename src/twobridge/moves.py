"""Local retriangulation moves and the greedy simplification pipeline.

The 2-3 move subdivides the bipyramid around an internal triangle shared
by two distinct tetrahedra into three tetrahedra around a new degree-3
edge; the 3-2 move is its inverse.  The 4-4 move retriangulates the
octahedron around a degree-4 edge along one of the two alternative main
diagonals.  All moves return new triangulations; survivors keep their
relative order and new tetrahedra are appended at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import json

from .triangulation import (
    EDGE_INDEX,
    EDGE_VERTS,
    EdgeClassTable,
    Perm,
    Triangulation,
    compose,
    edge_classes,
    invert,
)


def _replace(
    tri: Triangulation,
    removed: list[int],
    new_count: int,
    internal: list[tuple[int, int, int, Perm]],
    boundary: dict[tuple[int, int], tuple[int, Perm]],
) -> Triangulation:
    """Swap the subcomplex `removed` for `new_count` fresh tetrahedra.

    `internal` lists gluings among the new tetrahedra as
    (tet_a, facet_a, tet_b, perm_a_to_b) in new-tetrahedron indices.
    `boundary` maps each boundary facet (old tet, old facet) of the removed
    region to (new tet index, permutation old-labels -> new-labels).
    Facets of removed tetrahedra absent from `boundary` must be glued
    within the removed region and are dropped.
    """
    removed_set = set(removed)
    survivors = [t for t in range(tri.tet_count) if t not in removed_set]
    new_index = {t: i for i, t in enumerate(survivors)}
    base = len(survivors)

    out = Triangulation(base + new_count)

    def endpoint(t: int, f: int) -> tuple[int, int, Perm]:
        """New (tet, facet, old->new relabelling) for an old facet."""
        if t in removed_set:
            nb, q = boundary[(t, f)]
            return base + nb, q[f], q
        return new_index[t], f, (0, 1, 2, 3)

    done = set()
    for t in range(tri.tet_count):
        for f in range(4):
            if (t, f) in done:
                continue
            g = tri.gluing(t, f)
            if g is None:
                continue
            t2, perm = g
            done.add((t, f))
            done.add((t2, perm[f]))
            if t in removed_set and (t, f) not in boundary:
                continue  # interior to the removed region
            nt, nf, q = endpoint(t, f)
            nt2, _, q2 = endpoint(t2, perm[f])
            out.glue(nt, nf, nt2, compose(q2, compose(perm, invert(q))))
    for a, fa, b, perm in internal:
        out.glue(base + a, fa, base + b, perm)
    return out


def triangle_pairs(tri: Triangulation) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """All internal triangles as ((tet, facet), (tet, facet)) pairs, sorted."""
    pairs = []
    seen = set()
    for t in range(tri.tet_count):
        for f in range(4):
            if (t, f) in seen:
                continue
            g = tri.gluing(t, f)
            if g is None:
                continue
            t2, perm = g
            seen.add((t, f))
            seen.add((t2, perm[f]))
            pairs.append(((t, f), (t2, perm[f])))
    return pairs


def pachner_23(tri: Triangulation, face: tuple[int, int]) -> Triangulation:
    """2-3 move across the internal triangle containing facet `face`."""
    t0, f0 = face
    g = tri.gluing(t0, f0)
    if g is None:
        raise ValueError("facet is not glued")
    t1, glu = g
    if t1 == t0:
        raise ValueError("2-3 move needs the face glued between two distinct tetrahedra")
    c = [v for v in range(4) if v != f0]  # face vertices in t0
    a0, a1 = f0, glu[f0]                  # apexes

    internal = []
    boundary = {}
    for k in range(3):
        ck, ck1, ck2 = c[k], c[(k + 1) % 3], c[(k + 2) % 3]
        # New tetrahedron k has labels (0,1,2,3) = (apex0, apex1, c_k, c_{k+1}).
        internal.append((k, 2, (k + 1) % 3, (0, 1, 3, 2)))
        p0 = [0, 0, 0, 0]
        p0[a0], p0[ck], p0[ck1], p0[ck2] = 0, 2, 3, 1
        boundary[(t0, ck2)] = (k, tuple(p0))
        p1 = [0, 0, 0, 0]
        p1[a1], p1[glu[ck]], p1[glu[ck1]], p1[glu[ck2]] = 1, 2, 3, 0
        boundary[(t1, glu[ck2])] = (k, tuple(p1))
    return _replace(tri, [t0, t1], 3, internal, boundary)


def _edge_fan(tri: Triangulation, embeddings) -> list[tuple[int, Perm]]:
    """Charts (tet, model-perm) walking once around an edge class.

    The model tetrahedron has vertices (0,1,2,3) = (U, V, A, B) where UV is
    the central edge; each chart maps model labels to tetrahedron labels,
    and the walk leaves through model face UVB into the next chart, whose A
    vertex is the previous B.  Starts at the smallest embedding.
    """
    t0, e0 = min(embeddings)
    u, v = EDGE_VERTS[e0]
    others = [x for x in range(4) if x not in (u, v)]
    chart = (t0, (u, v, others[0], others[1]))
    fan = []
    while True:
        fan.append(chart)
        t, c = chart
        g = tri.gluing(t, c[2])  # leave through face {U, V, B} (opposite A)
        if g is None:
            raise ValueError("edge has a boundary face; cannot walk around it")
        t2, perm = g
        u2, v2, a2 = perm[c[0]], perm[c[1]], perm[c[3]]
        b2 = next(x for x in range(4) if x not in (u2, v2, a2))
        chart = (t2, (u2, v2, a2, b2))
        if chart[0] == t0 and chart[1][:2] == (u, v) and chart[1][2] == others[0]:
            break
        if len(fan) > len(embeddings):
            raise ValueError("edge walk failed to close")
    if len(fan) != len(embeddings):
        raise ValueError("edge walk length differs from edge degree")
    return fan


def pachner_32(tri: Triangulation, edge_class: int) -> Triangulation:
    """3-2 move along a degree-3 edge class with three distinct tetrahedra."""
    return _pachner_32(tri, edge_classes(tri), edge_class)


def _pachner_32(tri: Triangulation, table: EdgeClassTable, edge_class: int) -> Triangulation:
    """pachner_32 given the edge-class table of `tri`."""
    cls = table.classes[edge_class]
    if cls.degree != 3:
        raise ValueError(f"edge class {edge_class} has degree {cls.degree}, need 3")
    tets = [t for t, _ in cls.embeddings]
    if len(set(tets)) != 3:
        raise ValueError("3-2 move needs three distinct tetrahedra around the edge")
    fan = _edge_fan(tri, cls.embeddings)

    # New tetrahedra: 0 = (E0, E1, E2, U), 1 = (E0, E1, E2, V); E_k is the
    # third vertex (model A) of the k-th chart around the edge.
    internal = [(0, 3, 1, (0, 1, 2, 3))]
    boundary = {}
    for k, (t, c) in enumerate(fan):
        pu = [0, 0, 0, 0]
        pu[c[0]], pu[c[2]], pu[c[3]], pu[c[1]] = 3, k, (k + 1) % 3, (k + 2) % 3
        boundary[(t, c[1])] = (0, tuple(pu))  # face {U, A, B}, opposite V
        pv = [0, 0, 0, 0]
        pv[c[1]], pv[c[2]], pv[c[3]], pv[c[0]] = 3, k, (k + 1) % 3, (k + 2) % 3
        boundary[(t, c[0])] = (1, tuple(pv))  # face {V, A, B}, opposite U
    return _replace(tri, sorted(set(tets)), 2, internal, boundary)


def move_44(tri: Triangulation, edge_class: int, axis: int) -> Triangulation:
    """4-4 move along a degree-4 edge class, re-diagonalising the octahedron.

    The octahedron around the edge has equator E0 E1 E2 E3 (indexed from
    the canonical walk starting at the smallest edge embedding); axis 0
    uses the new diagonal E0-E2 and axis 1 uses E1-E3.
    """
    return _move_44(tri, edge_classes(tri), edge_class, axis)


def _move_44(
    tri: Triangulation, table: EdgeClassTable, edge_class: int, axis: int
) -> Triangulation:
    """move_44 given the edge-class table of `tri`."""
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    cls = table.classes[edge_class]
    if cls.degree != 4:
        raise ValueError(f"edge class {edge_class} has degree {cls.degree}, need 4")
    tets = [t for t, _ in cls.embeddings]
    if len(set(tets)) != 4:
        raise ValueError("4-4 move needs four distinct tetrahedra around the edge")
    fan = _edge_fan(tri, cls.embeddings)

    # Octahedron vertices as symbols: the central edge U V and the equator
    # E0 E1 E2 E3 read off the canonical walk.  The replacement keeps the
    # octahedron and re-diagonalises: new tetrahedra sit around D0 D1 with
    # the remaining four vertices in the cycle F.  The F-cycles are chosen
    # so that repeating the move with the same axis undoes it.
    if axis == 0:
        d0, d1 = "E0", "E2"
        cycle = ("U", "E3", "V", "E1")
    else:
        d0, d1 = "E1", "E3"
        cycle = ("E0", "U", "E2", "V")
    labels = []  # symbol -> label map per new tetrahedron
    for j in range(4):
        labels.append({d0: 0, d1: 1, cycle[j]: 2, cycle[(j + 1) % 4]: 3})
    internal = [(j, 2, (j + 1) % 4, (0, 1, 3, 2)) for j in range(4)]

    boundary = {}
    for k, (t, c) in enumerate(fan):
        ek, ek1 = f"E{k}", f"E{(k + 1) % 4}"
        for apex, other, facet in (("U", "V", c[1]), ("V", "U", c[0])):
            face = {apex, ek, ek1}
            j = next(jj for jj in range(4) if face <= set(labels[jj]))
            lab = labels[j]
            p = [0, 0, 0, 0]
            p[c[0] if apex == "U" else c[1]] = lab[apex]
            p[c[2]], p[c[3]] = lab[ek], lab[ek1]
            p[c[0] if apex == "V" else c[1]] = next(
                x for x in range(4) if x not in (lab[apex], lab[ek], lab[ek1])
            )
            boundary[(t, facet)] = (j, tuple(p))
    return _replace(tri, sorted(set(tets)), 4, internal, boundary)


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
    initial_tets: int = field(default=0)

    def to_json(self) -> str:
        return json.dumps(
            [
                {"move": m.kind, "target": m.target, "axis": m.axis, "tets_after": m.tets_after}
                for m in self.moves
            ]
        )


def _applicable_32(table: EdgeClassTable) -> int | None:
    """Smallest edge class admitting a 3-2 move, if any."""
    for cls in table.classes:
        if cls.degree == 3 and len({t for t, _ in cls.embeddings}) == 3:
            return cls.index
    return None


def _degrees_after_44(tri: Triangulation, table: EdgeClassTable, edge_class: int, axis: int) -> dict[int, int]:
    """Degree after move_44(tri, edge_class, axis) of each class the octahedron touches.

    Each equator edge E_k E_{k+1} gains a tetrahedron; U-E_k and V-E_k lose
    one for each E_k off the new diagonal; the central class loses all four.
    Changes add up per class, so identified edges count with multiplicity.
    """
    delta = {edge_class: -4}
    fan = _edge_fan(tri, table.classes[edge_class].embeddings)
    for k, (t, c) in enumerate(fan):  # chart k is (U, V, E_k, E_{k+1})
        for edge, d in [(c[2:], 1)] + [((c[j], c[2]), -1) for j in (0, 1) if k % 2 != axis]:
            x = table.class_of[(t, EDGE_INDEX[edge])]
            delta[x] = delta.get(x, 0) + d
    return {x: table.classes[x].degree + d for x, d in delta.items()}


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
    table = edge_classes(current)
    initial = tri.tet_count
    while True:
        target = _applicable_32(table)
        if target is not None:
            current = _pachner_32(current, table, target)
            table = edge_classes(current)
            moves.append(MoveRecord("3-2", target, None, current.tet_count))
            continue
        trials = (
            (cls.index, axis)
            for cls in table.classes
            if cls.degree == 4 and len({t for t, _ in cls.embeddings}) == 4
            for axis in (0, 1)
            if 3 in _degrees_after_44(current, table, cls.index, axis).values()
        )
        for target, axis in trials:
            candidate = _move_44(current, table, target, axis)
            candidate_table = edge_classes(candidate)
            if _applicable_32(candidate_table) is not None:
                moves.append(MoveRecord("4-4", target, axis, candidate.tet_count))
                current, table = candidate, candidate_table
                break
        else:
            return SimplificationTrace(moves, current, initial)
