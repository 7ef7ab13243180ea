"""Explicit angle structures on layered 2-bridge triangulations.

Every layer's two tetrahedra share one triple (h, v, d): the angle on the
horizontal pair, the vertical pair and the diagonal pair of opposite edges
(volume is maximised with the two tetrahedra of a layer agreeing, so
nothing is lost).  Internally angles are integers in units of pi/24 (every
catalogue angle is a multiple of pi/24); LayerAngles carries them as
Fractions in units of pi.

The assignment is built in two steps.  First the block decomposition of
the inner word fixes the hyperbolic shape of every layer: B1 blocks are
regular ideal, B2/B3 blocks use a small catalogue of shapes, and the first
and last layers get substitute shapes that absorb the folds at the two
ends.  Second, each shape triple is oriented onto (h, v, d) so that the
angle sums around the edge classes hold.

Those sums come from one chain model of the layered complex.  For a word
with letters 0..N and layers 0..N-1, each edge class is a chain of
(layer, slot, weight) terms, read from the letters alone; the slot is h,
v or d (the integers H, V, D = 0, 1, 2, the positions in a layer's
triple):

* a horizontal chain opens at the outer fold with (0, d, 1), the layer's
  bottom diagonal; a vertical chain opens empty;
* each layer k adds (k, h, 2) to the open horizontal chain and (k, v, 2)
  to the open vertical one;
* an interior L at position k closes the horizontal chain with (k, d, 1),
  the bottom diagonal of layer k, and opens a new one with (k-1, d, 1),
  the top diagonal of layer k-1; an interior R does the same for vertical
  chains;
* an R end closes the horizontal chain with (N-1, d, 1), the top diagonal
  of the last layer, as a fold chain, and closes the vertical chain as it
  is; an L end is the mirror.

A chain that touches a fold (opened at the outer fold or closed by the end
fold) is one edge class with doubled multiplicities, so its terms sum to
pi; every other chain is two edge classes and sums to 2 pi.

_orient_layers applies these rules in one forward sweep over chain
states.  Above each layer one horizontal and one vertical chain are open,
so the state after layer k is three integers in units of pi/24: what the
open horizontal chain still needs, what the open vertical chain still
needs, and d_k, the first term of the chain that letter k+1 opens.
Layer 0 leads to (24 - d - 2h, 48 - 2v, d).  An interior L at layer j
needs d_j equal to what the horizontal chain needs, which closes it, and
leads to (48 - d_(j-1) - 2h, need_v - 2v, d_j); an R is the mirror.  At
the end the letter's chain closes as a fold chain, needing d_(N-1) + 24
(d_(N-1) alone for the first horizontal chain under an R end, whose
target is pi), and the other chain needs 0.  Every open chain gains a
positive term at the next layer, so a state with a need <= 0 before the
last layer is dead.  After each layer the sweep keeps the frontier of
reachable states, each with the first (previous state, arrangement)
reaching it, in the order of the first arrangement sequences reaching
them, so it is linear in the layers.  Frontiers are interned to small
ids, and each layer after the first is one step through a table of
transitions keyed by (letter, shape, frontier id), which _advance fills
as each transition first occurs.  A completion depends on the state
alone, so the first state that closes at the end leads back to the first
orientation in catalogue order, the one plain backtracking finds.  The
tests spell the chains out term by term, check them against the gluings,
and check the sweep against a plain search over them.

On a triangulation an angle structure is one triple per tetrahedron, the
angles on its edge pairs 0/5, 1/4 and 2/3 (in builder output horizontal,
vertical, diagonal: its layer's triple as it is), as expand_to_tetrahedra
returns it and MaximizeResult.angles holds it.  verify_angle_structure
checks it against the triangulation itself, over edge classes found by a
walk over the gluings, and is kept independent of the synthesis above.
"""

from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

from .blocks import (
    ALL_B2,
    B1,
    B2_END,
    B2_START,
    B3,
    INNER_EXPONENTS,
    UNFINISHED_B3,
    BlockDecomposition,
    decompose,
)
from .triangulation import Triangulation, VerificationError, _labels
from .word import Word, inner_word


# Catalogue angles in units of pi/24.
_UNITS: dict[str, tuple[int, int, int]] = {
    "0": (8, 8, 8),
    "I": (8, 9, 7),
    "II": (8, 6, 10),
    "III": (6, 6, 12),
    "IV": (5, 7, 12),
    "V": (4, 12, 8),
    "VI": (4, 6, 14),
    "VII": (3, 9, 12),
    "VIII": (3, 6, 15),
    "IX": (2, 14, 8),
    "X2": (16, 4, 4),
}

# Fraction(k, 24) for k = 0..24, shared by every angle the synthesis returns.
_PI_24 = tuple(Fraction(k, 24) for k in range(25))

# Chain slots: the horizontal, vertical and diagonal angle of a layer.
H, V, D = 0, 1, 2

# The distinct (h, v, d) arrangements of each shape.  _orient_layers takes
# the first that fits, so they keep the order in which permutations() gives
# them as (v, h, d).
_ARRANGEMENTS = {
    name: tuple(dict.fromkeys((h, v, d) for v, h, d in permutations(units)))
    for name, units in _UNITS.items()
}


def angle_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator} π" if q.denominator != 1 else f"{q.numerator} π"


@dataclass(frozen=True)
class LayerAngles:
    shape: str
    triple: tuple[Fraction, Fraction, Fraction]  # (horizontal, vertical, diagonal)
    units: tuple[int, int, int] = field(compare=False, repr=False)  # triple in pi/24


# One shared (frozen) LayerAngles per arrangement.  No two shapes share a
# multiset of angles, so an arrangement names its shape.
_LAYERS = {
    units: LayerAngles(name, tuple(_PI_24[x] for x in units), units)
    for name, options in _ARRANGEMENTS.items()
    for units in options
}


@dataclass(frozen=True)
class AngleAssignment:
    word: Word
    layers: tuple[LayerAngles, ...]

    def to_json(self) -> str:
        return json.dumps(
            [
                {
                    "shape": la.shape,
                    "vertical": angle_str(la.triple[V]),
                    "horizontal": angle_str(la.triple[H]),
                    "diagonal": angle_str(la.triple[D]),
                }
                for la in self.layers
            ]
        )


def theorem_family(w: Word) -> bool:
    """True iff w is normalised and hyperbolic, with end exponents 1 and
    inner exponents in {1, 2}: the words assign_angles accepts."""
    exps = w.exponents  # with end exponents 1, exps[1:-1] are the inner word's
    if w.n < 3 or w.syllables[0][0] != "R" or exps[0] != 1 or exps[-1] != 1:
        return False
    return INNER_EXPONENTS.issuperset(exps)  # the end exponents 1 are in it too


def _shape_sequence(dec: BlockDecomposition) -> list[str]:
    """Shape name per layer (layer 0 under the outer fold, one per inner letter)."""
    exps = dec.inner.exponents

    def unit(lengths):
        # Shapes for the squared runs of a B3-like body: each non-final run
        # contributes its padding of half-turn-square layers and closes with
        # a 5pi/8 layer; the final run only pads (its closing layers vary).
        out: list[str] = []
        for mlen in lengths[:-1]:
            out += ["III"] * (2 * (mlen - 1)) + ["III", "III", "VIII"]
        out += ["III"] * (2 * (lengths[-1] - 1))
        return out

    seq: list[str] = []
    for bi, b in enumerate(dec.blocks):
        at_end = bi == len(dec.blocks) - 1
        n_letters = sum(exps[b.start : b.end])
        if b.kind == B1:
            body = ["0"] * n_letters
            if at_end:
                body[-1] = "V"
        elif b.kind == B2_START:
            body = ["III"] * (2 * b.k - 2) + ["VI", "I"]
        elif b.kind == B3:
            body = ["I", "VI"] + unit(b.b2_lengths)
            body += ["III", "VIII"] if at_end else ["IV", "II"]
        elif b.kind == UNFINISHED_B3:  # the final squared run is one syllable: no padding
            body = ["I", "VI"] + unit(b.b2_lengths) + ["VII"]
        elif b.kind == B2_END:
            body = ["IX"] + ["III", "V"] * (b.k - 2) + ["V", "V", "V"]
        elif b.kind == ALL_B2:
            # k = 1 takes the revised, higher-volume layers through the obtuse X2.
            body = ["X2", "II"] if b.k == 1 else ["III"] * (2 * b.k - 1) + ["VII"]
        else:  # pragma: no cover
            raise AssertionError(b.kind)
        if len(body) != n_letters:
            raise VerificationError(
                f"shape sequence for block {b} has {len(body)} layers, expected {n_letters}"
            )
        seq.extend(body)

    first = dec.blocks[0]
    if first.kind == ALL_B2 and first.k == 1:
        delta1 = "II"
    elif first.kind in (B2_START, ALL_B2):
        delta1 = "VII"
    else:
        delta1 = "V"
    return [delta1] + seq


# The sweep's frontier ids and its one table of transitions, each added as
# it first occurs: a frontier holds a few small chain states, so few occur
# (75 transitions over the 4094 words of `survey --max-n 11`).
_FRONTIER_IDS: dict[tuple[tuple[int, int, int], ...], int] = {}
_STEPS: dict[tuple[str, str, int], tuple] = {}


def _interned(reached):
    """The id of the frontier of reached's states, and reached."""
    return _FRONTIER_IDS.setdefault(tuple(reached), len(_FRONTIER_IDS)), reached


# The first layer's frontier for each shape, which no letter closes.
_FIRST = {
    name: _interned({(24 - d - 2 * h, 48 - 2 * v, d): (None, (h, v, d)) for h, v, d in options})
    for name, options in _ARRANGEMENTS.items()
}


def _advance(letter: str, shape: str, frontier: tuple[tuple[int, int, int], ...]):
    """The interned frontier after an interior letter's layer, and for each
    of its states the first (previous state, arrangement (h, v, d)) reaching
    it: the letter's chain closes with d and a new one opens with last_d.
    Dead states are not expanded.  The dict is shared, so never mutated."""
    reached = {}
    for state in frontier:
        need_h, need_v, last_d = state
        if need_h <= 0 or need_v <= 0:
            continue
        for h, v, d in _ARRANGEMENTS[shape]:
            if letter == "L" and d == need_h:
                reached.setdefault((48 - last_d - 2 * h, need_v - 2 * v, d), (state, (h, v, d)))
            elif letter == "R" and d == need_v:
                reached.setdefault((need_h - 2 * h, 48 - last_d - 2 * v, d), (state, (h, v, d)))
    return _interned(reached)


def _orient_layers(letters: str, shapes: list[str]) -> list[tuple[int, int, int]] | None:
    """Distribute each layer's shape angles onto (h, v, d) so that every
    edge-class chain reaches its target, by the forward sweep over chain
    states of the module docstring.

    Returns the first consistent orientation in _ARRANGEMENTS order as
    integer triples in units of pi/24, or None.
    """
    # The end letter's chain closes at the end fold with the last diagonal,
    # needing 24 less unless it is the first horizontal chain (target 24 already).
    slot = H if letters[-1] == "R" else V
    fold = 24 if slot == V or "L" in letters[1:-1] else 0
    fid, reached = _FIRST[shapes[0]]  # reached holds the frontier's states in order
    back = [reached]
    for letter, shape in zip(letters[1:], shapes[1:]):
        step = _STEPS.get((letter, shape, fid))
        if step is None:
            step = _STEPS[letter, shape, fid] = _advance(letter, shape, tuple(reached))
        fid, reached = step
        back.append(reached)
    state = next((s for s in reached if s[slot] - s[D] == fold and s[1 - slot] == 0), None)
    if state is None:
        return None
    oriented = []
    for reached in reversed(back):
        state, units = reached[state]
        oriented.append(units)
    return oriented[::-1]


def assign_angles(w: Word, dec: BlockDecomposition | None = None) -> AngleAssignment:
    """The explicit angle structure for a word in the theorem family.

    The single-squared-syllable word RL^2R gets the higher-volume
    three-layer assignment through the obtuse shape X2 rather than the
    generic squared-run pattern.
    """
    if not theorem_family(w):
        raise ValueError(
            f"{w} is outside the family: it must be normalised and hyperbolic, "
            "with end exponents 1 and inner exponents in {1, 2}"
        )
    if dec is None:
        dec = decompose(inner_word(w))
    elif dec.inner.syllables != w.syllables[1:-1]:  # the inner word, as end exponents are 1
        raise ValueError(f"decomposition is for {dec.inner}, not the inner word of {w}")

    shapes = _shape_sequence(dec)
    letters = w.letters
    if len(shapes) != len(letters) - 1:
        raise VerificationError("shape sequence length mismatch")
    oriented = _orient_layers(letters, shapes)
    if oriented is None:
        raise VerificationError(f"no consistent orientation of shapes {shapes} for {w}")
    return AngleAssignment(w, tuple(map(_LAYERS.__getitem__, oriented)))


def expand_to_tetrahedra(
    assignment: AngleAssignment, tri: Triangulation
) -> list[tuple[Fraction, Fraction, Fraction]]:
    """The triple (h, v, d) of each tetrahedron's layer, as it is: both
    tetrahedra of a layer share one tuple."""
    if tri.layer_of is None:
        raise ValueError("triangulation carries no layer metadata")
    if tri.tet_count != 2 * len(assignment.layers):
        raise ValueError("assignment and triangulation have different layer counts")
    layers = assignment.layers
    return [layers[k].triple for k in tri.layer_of]


@dataclass
class AngleVerification:
    """Outcome of checking an angle structure against a triangulation."""

    range_ok: bool
    tet_sums_ok: bool
    edge_sums_ok: bool
    bad_angles: list[tuple[int, int]]  # (tetrahedron, pair)
    bad_tets: list[int]
    bad_edge_classes: list[int]

    @property
    def passed(self) -> bool:
        return self.range_ok and self.tet_sums_ok and self.edge_sums_ok


def verify_angle_structure(
    tri: Triangulation, angles: Sequence[Sequence[Fraction | float]]
) -> AngleVerification:
    """Check positivity, per-tetrahedron sums pi and per-edge-class sums 2*pi.

    angles holds a pair triple per tetrahedron.  Exact arithmetic when all
    3n values are Fractions (in units of pi): sums of integers in units of
    pi/D, D the least common multiple of the denominators.  Otherwise they
    are radians, checked with a 1e-9 tolerance.
    """
    n = tri.tet_count
    if len(angles) != n or any(len(triple) != 3 for triple in angles):
        raise ValueError(f"need {n} triples of pair angles, one per tetrahedron")
    x = [a for triple in angles for a in triple]  # the angle on pair p of tetrahedron t at x[3t + p]
    pi_val, tol = math.pi, 1e-9
    distinct = {id(a): a for a in x}  # each object once
    if all(isinstance(a, Fraction) for a in distinct.values()):
        pi_val, tol = math.lcm(*(a.denominator for a in distinct.values())), 0
        units = {i: a.numerator * (pi_val // a.denominator) for i, a in distinct.items()}
        x = [units[id(a)] for a in x]

    bad_angles = [divmod(i, 3) for i, a in enumerate(x) if not 0 < a < pi_val]
    triples = list(zip(*[iter(x)] * 3))
    bad_tets = [t for t, (a, b, c) in enumerate(triples) if abs(a + b + c - pi_val) > tol]
    label, count = _labels(tri, "edge")  # the class of edge e of tetrahedron t at 6t + e
    sums = [0] * count
    for c, a in zip(label, [a for p, q, r in triples for a in (p, q, r, r, q, p)]):  # edge e reads pair min(e, 5 - e)
        sums[c] += a
    bad_classes = [c for c, s in enumerate(sums) if abs(s - 2 * pi_val) > tol]

    return AngleVerification(
        range_ok=not bad_angles,
        tet_sums_ok=not bad_tets,
        edge_sums_ok=not bad_classes,
        bad_angles=bad_angles,
        bad_tets=bad_tets,
        bad_edge_classes=bad_classes,
    )
