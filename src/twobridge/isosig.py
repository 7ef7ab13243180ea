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

A candidate's first action character depends only on the start permutation
and the facet pattern of the start tetrahedron (which facets are boundary,
glued to its own facets or to which distinct neighbours).  A table from
pattern to the smallest first character, and the start permutations that
reach it, picks the starts that can be minimal (Burton, arXiv:1110.6080).
A candidate that ties the best exactly is the best relabelled by an
automorphism phi, read off the two labellings: start (t, p) has the
candidate of start (phi(t), p o phi_t^-1), so the starts in the orbit of
one that ran, under every map found, are skipped.  On builder output of
words with at most 7 letters the search runs 5.8% of the 24n starts, 12.9%
without the orbit skip.  Each start that runs streams one breadth-first
labelling: every action character is compared with the running best as
soon as its three actions are known.  A candidate is abandoned at its
first larger character, and comparison stops once one character is
smaller; only candidates that tie through the whole action sequence go on
to compare destinations and permutations.  Vertex maps and gluings are
handled as indices into the 24 permutations: the triangulation module
stores gluings in that form and owns the numbering (ORDERED_S4) and its
composition and inverse tables, which this module imports.

Equality of signatures is equivalent to combinatorial isomorphism.
"""

from __future__ import annotations

from .triangulation import _COMPOSE, _IMAGE, _INVERSE, IDENTITY, ORDERED_S4, Triangulation

ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789+-"
_CHAR_INDEX = {c: i for i, c in enumerate(ALPHABET)}

# The code point of each value's character: the order in which signature
# strings compare.
_RANK = tuple(ord(c) for c in ALPHABET)


def _smaller_candidate(
    gluings: list[list[tuple[int, int] | None]],
    start: int,
    start_perm: int,
    best: list[int] | None,
) -> tuple[list[int], list[int], list[int]] | None:
    """One candidate and its labelling if it is not larger than `best`, else None.

    `gluings[t][f]` is as in Triangulation._glue: (adjacent tet, permutation
    index p), glued to its facet _IMAGE[f][p], or None.  The candidate labels
    `start` as 0 with vertex relabelling `start_perm` and grows the
    labelling breadth first, through the component of `start` only: a
    candidate that finishes with tetrahedra unlabelled raises ValueError.
    Returns (code points, preimage, vertex_map): preimage[k] is labelled k,
    and vertex_map[t] relabels the vertices of t, old to new.
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
        for f_old in ORDERED_S4[_INVERSE[vm]]:  # new facet k is old facet vm^-1(k)
            if facet_done[base + f_old]:
                continue
            facet_done[base + f_old] = True
            g = row[f_old]
            if g is not None:
                adj, perm = g
                facet_done[4 * adj + _IMAGE[f_old][perm]] = True
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

    if len(preimage) < n:
        raise ValueError("triangulation is disconnected")
    # A tie so far is settled by the rest: the final partial action
    # character, then destinations, then permutations.
    if shift:
        out.append(_RANK[packed])
    out += dests
    out += perms
    if tied and out > best:
        return None
    return out, preimage, vertex_map


def _pattern(t: int, row: list[tuple[int, int] | None]) -> tuple[int, ...]:
    """Facet by facet of t's row of Triangulation._glue: the first facet glued
    to the same neighbour, 4 + j if glued to its own facet j, 8 if boundary."""
    adj = [g and g[0] for g in row]
    return tuple([8 if g is None else 4 + _IMAGE[f][g[1]] if g[0] == t else adj.index(g[0]) for f, g in enumerate(row)])


def _first_rank(pattern: tuple[int, ...], start_perm: int) -> int:
    """Code point of the first action character of a start at this pattern."""
    done, met, actions = [False] * 4, set(), []
    for f in ORDERED_S4[_INVERSE[start_perm]]:
        if not done[f] and len(actions) < 3:
            done[f] = True
            k = pattern[f]
            if 4 <= k < 8:  # glued to its own facet k - 4, which it uses up
                done[k - 4] = True
            actions.append(0 if k == 8 else 2 if k >= 4 or k in met else 1)
            met.add(k)
    return _RANK[sum(a << 2 * i for i, a in enumerate(actions))]


# Facet pattern -> (the smallest first-character code point over the 24
# start permutations, the permutations that reach it); fewer than 9^4 keys.
_FIRST: dict[tuple[int, ...], tuple[int, list[int]]] = {}


def _automorphism(best: tuple, tie: tuple) -> dict[int, tuple[int, int]]:
    """a -> (phi(a), phi_a), the automorphism that carries the labelling of
    `best` to that of `tie`, an equal candidate; phi_a maps the vertices of
    a to those of phi(a), an ORDERED_S4 index."""
    (_, pre_b, vm_b), (_, pre_s, vm_s) = best, tie
    return {a: (b, _COMPOSE[_INVERSE[vm_s[b]]][vm_b[a]]) for a, b in zip(pre_b, pre_s)}


def encode_isosig(tri: Triangulation) -> str:
    """Canonical signature: the smallest candidate over all starts.

    The first candidate is never abandoned, so it labels the whole
    triangulation or finds it disconnected.  Starts in the orbit of one
    that ran, under the automorphisms that ties give, are skipped.
    """
    n = tri.tet_count
    if n == 0:
        raise ValueError("cannot encode an empty triangulation")
    if n >= 63:
        raise ValueError("signatures for >= 63 tetrahedra are not supported")
    gluings, firsts = tri._glue, []
    for t, row in enumerate(gluings):
        key = _pattern(t, row)
        if key not in _FIRST:
            ranks = [_first_rank(key, p) for p in range(24)]
            _FIRST[key] = min(ranks), [p for p in range(24) if ranks[p] == min(ranks)]
        firsts.append(_FIRST[key])
    low = min(rank for rank, _ in firsts)
    best, maps, orbit, closed = None, [], [], 0
    seen = bytearray(24 * n)  # start (t, p) at 24t + p: it ran, or has the candidate of one that did
    for start, (rank, start_perms) in enumerate(firsts):
        for start_perm in start_perms if rank == low else ():
            if seen[24 * start + start_perm]:
                continue
            cand = _smaller_candidate(gluings, start, start_perm, None if best is None else best[0])
            if cand and best and cand[0] == best[0]:
                maps.append(_automorphism(best, cand))
                closed = 0  # orbit[:closed] is closed under maps; a new map reopens it all
            elif cand:
                best = cand
            seen[24 * start + start_perm] = 1
            orbit.append(24 * start + start_perm)
            while closed < len(orbit):
                t, p = divmod(orbit[closed], 24)
                closed += 1
                for phi in maps:
                    a, v = phi[t]
                    i = 24 * a + _COMPOSE[p][_INVERSE[v]]
                    if not seen[i]:
                        seen[i] = 1
                        orbit.append(i)
    return ALPHABET[n] + "".join(map(chr, best[0]))


def decode_isosig(sig: str) -> Triangulation:
    """Reconstruct a triangulation from a signature string.

    Raises ValueError for characters outside the signature alphabet, for
    invalid facet actions or a length that does not match them, or for
    structurally inconsistent data.
    """
    if not sig:
        raise ValueError("empty signature")
    values = [_CHAR_INDEX.get(c, -1) for c in sig]
    if -1 in values:
        raise ValueError(f"illegal character {sig[values.index(-1)]!r} in signature")
    n = values[0]
    if n == 0 or n >= 63:
        raise ValueError(f"unsupported tetrahedron count {n}")

    # Facet action k is bits 2(k mod 3) of value 1 + k // 3: a boundary (0) takes one facet,
    # a gluing (1 or 2) two, and 3 is invalid.  They end once all 4n facets are taken.
    actions: list[int] = []
    slots = 0
    while slots < 4 * n and 1 + len(actions) // 3 < len(values):
        k = len(actions)
        actions.append(values[1 + k // 3] >> 2 * (k % 3) & 3)
        slots += 1 if actions[-1] == 0 else 2
    pos = 1 + -(-len(actions) // 3)  # the first destination
    joins = actions.count(2)
    if slots != 4 * n or 3 in actions or len(values) != pos + 2 * joins:
        raise ValueError("invalid facet actions, or a length that does not match them")

    tri = Triangulation(n)
    created = 1
    todo = iter(actions)
    gluings = iter(zip(values[pos : pos + joins], values[pos + joins :]))
    for lab in range(n):
        if lab >= created:
            raise ValueError("facet actions never reach all tetrahedra")
        for f in range(4):
            if tri.gluing(lab, f) is not None:
                continue
            action = next(todo, None)
            if action is None:
                raise ValueError("facet actions exhausted early")
            if action == 1:
                if created >= n:
                    raise ValueError("more new-tetrahedron actions than tetrahedra")
                tri.glue(lab, f, created, IDENTITY)
                created += 1
            elif action == 2:
                dest, perm = next(gluings)
                if dest >= created:
                    raise ValueError("destination tetrahedron not yet labelled")
                if perm >= 24:
                    raise ValueError("permutation index out of range")
                tri.glue(lab, f, dest, ORDERED_S4[perm])
    return tri
