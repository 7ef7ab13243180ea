"""Isomorphism signatures for generalised triangulations.

Implements the signature scheme used by Regina (Burton's canonical
encoding for generalised triangulations), so that signatures computed here
agree character-for-character with published ones.  A signature encodes,
for the smallest candidate labelling over all choices of starting
tetrahedron and starting vertex relabelling:

* the number of tetrahedra,
* a facet-action sequence (0 = boundary, 1 = glued to a new tetrahedron,
  2 = glued to an already-seen tetrahedron), packed three 2-bit values per
  character with the first action in the low bits,
* the destination tetrahedron for each action-2 facet,
* the gluing permutation for each action-2 facet, encoded as an index into
  the lexicographic ordering of the 24 vertex permutations.

"Smallest" is Python string order, i.e. by the code points of the emitted
characters (``+ - 0-9 A-Z a-z`` ascending), not by their index in
ALPHABET.  All candidates of one triangulation have the same length, so
they can be compared character by character.

The search runs one breadth-first labelling per (start tetrahedron, start
permutation), 24n in all, but streams each candidate: every action
character is compared with the running best as soon as its three actions
are known.  A candidate is abandoned at its first larger character, and
comparison stops once one character is smaller; only candidates that tie
through the whole action sequence go on to compare destinations and
permutations (Burton, arXiv:1110.6080).  Vertex maps and gluings are
handled as indices into the 24 permutations, through composition and
inverse tables built once at import.

Equality of signatures is equivalent to combinatorial isomorphism.
"""

from __future__ import annotations

from itertools import permutations

from .triangulation import Perm, Triangulation, compose, invert

ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789+-"
_CHAR_INDEX = {c: i for i, c in enumerate(ALPHABET)}

# The code point of each value's character: the order in which signature
# strings compare.
_RANK = tuple(ord(c) for c in ALPHABET)


# Gluing permutations are encoded by their index in the lexicographic
# ordering of all 24 vertex permutations.
ORDERED_S4: tuple[Perm, ...] = tuple(sorted(permutations(range(4))))
ORDERED_S4_INDEX: dict[Perm, int] = {p: i for i, p in enumerate(ORDERED_S4)}

# S4 arithmetic on ORDERED_S4 indices: _COMPOSE[i][j] applies j first,
# then i; _INVERSE[i] is the inverse of i.
_COMPOSE = tuple(
    tuple(ORDERED_S4_INDEX[compose(p, q)] for q in ORDERED_S4) for p in ORDERED_S4
)
_INVERSE = tuple(ORDERED_S4_INDEX[invert(p)] for p in ORDERED_S4)
# Old facets in new-label order under vertex map i: new facet k is old
# facet i^-1(k).
_FACET_ORDER = tuple(invert(p) for p in ORDERED_S4)


def _smaller_candidate(
    gluings: list[list[tuple[int, int, int] | None]],
    start: int,
    start_perm: int,
    best: list[int] | None,
) -> list[int] | None:
    """Code points of one candidate if it is smaller than `best`, else None.

    `gluings[t][f]` is (adjacent tet, 4 * adjacent tet + adjacent facet,
    permutation index) or None for a boundary facet.  The candidate labels
    `start` as 0 with vertex relabelling `start_perm` and grows the
    labelling breadth first.
    """
    n = len(gluings)
    image = [-1] * n
    vertex_map = [0] * n
    image[start] = 0
    vertex_map[start] = start_perm
    preimage = [start]
    facet_done = [False] * (4 * n)

    out: list[int] = []  # code points of the action characters
    dests: list[int] = []
    perms: list[int] = []
    tied = best is not None
    packed = shift = 0
    for t in preimage:  # grows while it is walked
        vm = vertex_map[t]
        row = gluings[t]
        base = 4 * t
        for f_old in _FACET_ORDER[vm]:
            if facet_done[base + f_old]:
                continue
            facet_done[base + f_old] = True
            g = row[f_old]
            if g is not None:
                adj, adj_slot, perm = g
                facet_done[adj_slot] = True
                if image[adj] == -1:
                    packed |= 1 << shift
                    image[adj] = len(preimage)
                    # Choose the new labelling so the gluing becomes the identity.
                    vertex_map[adj] = _COMPOSE[vm][_INVERSE[perm]]
                    preimage.append(adj)
                else:
                    packed |= 2 << shift
                    dests.append(_RANK[image[adj]])
                    perms.append(_RANK[_COMPOSE[vertex_map[adj]][_COMPOSE[perm][_INVERSE[vm]]]])
            shift += 2
            if shift == 6:
                rank = _RANK[packed]
                if tied:
                    other = best[len(out)]
                    if rank > other:
                        return None
                    tied = rank == other
                out.append(rank)
                packed = shift = 0

    # A tie so far is settled by the rest: the final partial action
    # character, then destinations, then permutations.
    if shift:
        out.append(_RANK[packed])
    out += dests
    out += perms
    if tied and out >= best:
        return None
    return out


def encode_isosig(tri: Triangulation) -> str:
    """Canonical signature: the smallest candidate over all starts."""
    n = tri.tet_count
    if n == 0:
        raise ValueError("cannot encode an empty triangulation")
    if n >= 63:
        raise ValueError("signatures for >= 63 tetrahedra are not supported")
    if not tri.is_connected():
        raise ValueError("triangulation is disconnected")
    gluings = []
    for t in range(n):
        row = []
        for f in range(4):
            g = tri.gluing(t, f)
            row.append(None if g is None else (g[0], 4 * g[0] + g[1][f], ORDERED_S4_INDEX[g[1]]))
        gluings.append(row)
    best = None
    for start in range(n):
        for start_perm in range(24):
            cand = _smaller_candidate(gluings, start, start_perm, best)
            if cand is not None:
                best = cand
    return ALPHABET[n] + "".join(map(chr, best))


def decode_isosig(sig: str) -> Triangulation:
    """Reconstruct a triangulation from a signature string.

    Raises ValueError for characters outside the signature alphabet, for a
    truncated string, or for structurally inconsistent data.
    """
    if not sig:
        raise ValueError("empty signature")
    for c in sig:
        if c not in _CHAR_INDEX:
            raise ValueError(f"illegal character {c!r} in signature")
    n = _CHAR_INDEX[sig[0]]
    if n == 0 or n >= 63:
        raise ValueError(f"unsupported tetrahedron count {n}")
    pos = 1

    # Facet actions: each accounts for one facet (boundary) or two (gluing);
    # the sequence ends once all 4n facet slots are accounted for.
    type_seq: list[int] = []
    slots = 0
    buffered: list[int] = []
    while slots < 4 * n:
        if not buffered:
            if pos >= len(sig):
                raise ValueError("signature truncated in facet-action sequence")
            value = _CHAR_INDEX[sig[pos]]
            pos += 1
            buffered = [(value >> 0) & 3, (value >> 2) & 3, (value >> 4) & 3]
        action = buffered.pop(0)
        if action == 3:
            raise ValueError("invalid facet action 3")
        type_seq.append(action)
        slots += 1 if action == 0 else 2
    if slots != 4 * n:
        raise ValueError("facet actions overrun the facet count")

    n_joins = sum(1 for a in type_seq if a == 2)
    if pos + 2 * n_joins > len(sig):
        raise ValueError("signature truncated in destination or permutation sequence")
    dest_seq = [_CHAR_INDEX[c] for c in sig[pos : pos + n_joins]]
    pos += n_joins
    perm_seq = [_CHAR_INDEX[c] for c in sig[pos : pos + n_joins]]
    pos += n_joins
    if pos != len(sig):
        raise ValueError("trailing characters after signature data")
    if any(p >= 24 for p in perm_seq):
        raise ValueError("permutation index out of range")

    tri = Triangulation(n)
    created = 1
    type_iter = iter(type_seq)
    dest_iter = iter(dest_seq)
    perm_iter = iter(perm_seq)
    for lab in range(n):
        if lab >= created:
            raise ValueError("facet actions never reach all tetrahedra")
        for f in range(4):
            if tri.gluing(lab, f) is not None:
                continue
            try:
                action = next(type_iter)
            except StopIteration:
                raise ValueError("facet actions exhausted early") from None
            if action == 0:
                continue
            if action == 1:
                if created >= n:
                    raise ValueError("more new-tetrahedron actions than tetrahedra")
                tri.glue(lab, f, created, (0, 1, 2, 3))
                created += 1
            else:
                dest = next(dest_iter)
                perm = ORDERED_S4[next(perm_iter)]
                if dest >= created:
                    raise ValueError("destination tetrahedron not yet labelled")
                if tri.gluing(dest, perm[f]) is not None or (dest, perm[f]) == (lab, f):
                    raise ValueError("inconsistent gluing in signature")
                tri.glue(lab, f, dest, perm)
    return tri


def are_isomorphic(a: Triangulation, b: Triangulation) -> bool:
    """True iff the two triangulations are combinatorially isomorphic."""
    if a.tet_count != b.tet_count:
        return False
    return encode_isosig(a) == encode_isosig(b)
