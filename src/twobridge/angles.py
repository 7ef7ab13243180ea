"""Explicit angle structures on layered 2-bridge triangulations.

Every layer's two tetrahedra share one triple (v, h, d): the angle on the
vertical pair, the horizontal pair and the diagonal pair of opposite edges
(volume is maximised with the two tetrahedra of a layer agreeing, so
nothing is lost).  Internally angles are integers in units of pi/24 (every
catalogue angle is a multiple of pi/24); Shape, LayerAngles and
DeficitTriple carry them as Fractions in units of pi.

The assignment is built in two steps.  First the block decomposition of
the inner word fixes the hyperbolic shape of every layer: B1 blocks are
regular ideal, B2/B3 blocks use a small catalogue of shapes, and the first
and last layers get substitute shapes that absorb the folds at the two
ends.  Second, each shape triple is oriented onto (v, h, d) so that the
angle sums around the edge classes hold.

Those sums come from one chain model of the layered complex (_chains).
For a word with letters 0..N and layers 0..N-1, each edge class is a chain
of (layer, slot, weight) terms, read from the letters alone:

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

_orient_layers searches the layers in order, keeping one running integer
sum per chain, and forward-checks every chain a candidate touches: what
the chain still needs must lie within what its later terms can add
(Haralick and Elliott, Artificial Intelligence 14, 1980).  That prunes
dead branches only, so it finds the first orientation in catalogue order.

verify_angle_structure checks the result against the triangulation itself
(exact sums, in integer units of pi/24 where the denominators allow, over
edge classes found by a search over the gluings) and is kept independent
of the synthesis above.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

from .blocks import ALL_B2, B1, B2_END, B2_START, B3, UNFINISHED_B3, Block, BlockDecomposition, decompose
from .triangulation import (
    DIAGONAL_EDGES,
    HORIZONTAL_EDGES,
    VERTICAL_EDGES,
    Triangulation,
    VerificationError,
    edge_classes,
)
from .word import Word, inner_word

F = Fraction


@dataclass(frozen=True)
class Shape:
    """An ideal tetrahedron shape: dihedral angles as multiples of pi."""

    name: str
    angles: tuple[Fraction, Fraction, Fraction]


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
_PI_24 = tuple(F(k, 24) for k in range(25))

_CATALOG: tuple[Shape, ...] = tuple(
    Shape(name, tuple(_PI_24[x] for x in units)) for name, units in _UNITS.items()
)

# The distinct (v, h, d) arrangements of each shape, in permutations order.
_ARRANGEMENTS = {name: tuple(dict.fromkeys(permutations(units))) for name, units in _UNITS.items()}
_SLOT = {"v": 0, "h": 1, "d": 2}
_RANGE = {name: (min(units), max(units)) for name, units in _UNITS.items()}

SHAPES: dict[str, Shape] = {s.name: s for s in _CATALOG}


def shape_catalog() -> list[Shape]:
    """The shapes used by the explicit angle structures."""
    return list(_CATALOG)


def angle_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator} π" if q.denominator != 1 else f"{q.numerator} π"


@dataclass(frozen=True)
class LayerAngles:
    shape: str
    triple: tuple[Fraction, Fraction, Fraction]  # (vertical, horizontal, diagonal)
    units: tuple[int, int, int] = field(compare=False, repr=False)  # triple in pi/24

    @property
    def v(self) -> Fraction:
        return self.triple[0]

    @property
    def h(self) -> Fraction:
        return self.triple[1]

    @property
    def d(self) -> Fraction:
        return self.triple[2]


# One shared (frozen) LayerAngles per shape and arrangement.
_LAYERS = {
    (name, units): LayerAngles(name, tuple(_PI_24[x] for x in units), units)
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
                    "vertical": angle_str(la.v),
                    "horizontal": angle_str(la.h),
                    "diagonal": angle_str(la.d),
                }
                for la in self.layers
            ]
        )


@dataclass(frozen=True)
class DeficitTriple:
    """Angle deficits on the three boundary edge classes of a block end."""

    horizontal: Fraction
    vertical: Fraction
    diagonal: Fraction

    def __iter__(self):
        return iter((self.horizontal, self.vertical, self.diagonal))


def theorem_family(w: Word) -> bool:
    """True iff w is normalised and hyperbolic, with end exponents 1 and
    inner exponents in {1, 2}: the words assign_angles accepts."""
    exps = w.exponents  # with end exponents 1, exps[1:-1] are the inner word's
    if w.n < 3 or w.syllables[0][0] != "R" or exps[0] != 1 or exps[-1] != 1:
        return False
    return all(e in (1, 2) for e in exps[1:-1])


def _shape_sequence(dec: BlockDecomposition, k1_override: bool) -> list[str]:
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
            body = ["X2", "II"] if b.k == 1 and k1_override else ["III"] * (2 * b.k - 1) + ["VII"]
        else:  # pragma: no cover
            raise AssertionError(b.kind)
        if len(body) != n_letters:
            raise VerificationError(
                f"shape sequence for block {b} has {len(body)} layers, expected {n_letters}"
            )
        seq.extend(body)

    first = dec.blocks[0]
    if first.kind == B2_START or (first.kind == ALL_B2 and first.k >= 2):
        delta1 = "VII"
    elif first.kind == ALL_B2:  # k == 1
        delta1 = "II" if k1_override else "VII"
    else:
        delta1 = "V"
    return [delta1] + seq


def _chains(letters: str) -> list[tuple[tuple[tuple[int, str, int], ...], int]]:
    """Every edge class of the layered complex as a chain of terms.

    Returns (terms, target) pairs: terms are (layer, slot, weight) with slot
    one of "v", "h", "d", in order up the layers, and target is the sum the
    weighted angles must reach, in units of pi/24.  The rules are in the
    module docstring.
    """
    n = len(letters) - 1
    chains = []
    open_terms = {"h": [(0, "d", 1)], "v": []}
    fold = {"h": True, "v": False}
    for k in range(n):
        if k:
            slot = "h" if letters[k] == "L" else "v"
            chains.append((open_terms[slot] + [(k, "d", 1)], fold[slot]))
            open_terms[slot], fold[slot] = [(k - 1, "d", 1)], False
        open_terms["h"].append((k, "h", 2))
        open_terms["v"].append((k, "v", 2))
    slot = "h" if letters[-1] == "R" else "v"
    open_terms[slot].append((n - 1, "d", 1))
    fold[slot] = True
    chains += [(open_terms["h"], fold["h"]), (open_terms["v"], fold["v"])]
    return [(tuple(terms), 24 if is_fold else 48) for terms, is_fold in chains]


def _orient_layers(letters: str, shapes: list[str]) -> list[tuple[int, int, int]] | None:
    """Distribute each layer's shape angles onto (v, h, d) via chain sums.

    Depth-first over each layer's arrangements in _ARRANGEMENTS order, on an
    explicit stack.  need[c] is chain c's target less its chosen terms; a
    candidate for layer k stands iff every chain with a term in layer k has
    need[c] in [lo, hi], what its terms in later layers can add (0 where it
    closes).  Returns the first consistent orientation as integer triples in
    units of pi/24, or None.
    """
    chains = _chains(letters)
    need = [target for _, target in chains]
    terms_at: list[list] = [[] for _ in shapes]  # per layer: (chain, slot, weight)
    checks_at: list[list] = [[] for _ in shapes]  # per layer: (chain, lo, hi)
    for c, (terms, _) in enumerate(chains):
        lo = hi = 0
        last = -1
        for layer, slot, weight in reversed(terms):
            if layer != last:  # c's last term in this layer
                checks_at[layer].append((c, lo, hi))
                last = layer
            terms_at[layer].append((c, _SLOT[slot], weight))
            least, most = _RANGE[shapes[layer]]
            lo += weight * least
            hi += weight * most
    chosen: list[tuple[int, int, int]] = []
    resume: list[int] = []  # per chosen layer, the index of its next candidate
    start = k = 0
    while k < len(shapes):
        options = _ARRANGEMENTS[shapes[k]]
        for i in range(start, len(options)):
            option = options[i]
            for c, slot, weight in terms_at[k]:
                need[c] -= weight * option[slot]
            for c, lo, hi in checks_at[k]:
                if not lo <= need[c] <= hi:
                    break
            else:
                chosen.append(option)
                resume.append(i + 1)
                start, k = 0, k + 1
                break
            for c, slot, weight in terms_at[k]:
                need[c] += weight * option[slot]
        else:
            if not chosen:
                return None
            k -= 1
            option = chosen.pop()
            for c, slot, weight in terms_at[k]:
                need[c] += weight * option[slot]
            start = resume.pop()
    return chosen


def assign_angles(
    w: Word,
    dec: BlockDecomposition | None = None,
    *,
    k1_override: bool = True,
) -> AngleAssignment:
    """The explicit angle structure for a word in the theorem family.

    With k1_override (default) the single-squared-syllable word gets the
    higher-volume three-layer assignment through the obtuse shape X2
    instead of the generic squared-run pattern.
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

    shapes = _shape_sequence(dec, k1_override)
    letters = w.letters
    if len(shapes) != len(letters) - 1:
        raise VerificationError("shape sequence length mismatch")
    oriented = _orient_layers(letters, shapes)
    if oriented is None:
        raise VerificationError(f"no consistent orientation of shapes {shapes} for {w}")
    return AngleAssignment(w, tuple(map(_LAYERS.__getitem__, zip(shapes, oriented))))


def expand_to_tetrahedra(
    assignment: AngleAssignment, tri: Triangulation
) -> dict[tuple[int, int], Fraction]:
    """Per-(tetrahedron, edge) angles; both tetrahedra of a layer agree."""
    if tri.layer_of is None:
        raise ValueError("triangulation carries no layer metadata")
    if tri.tet_count != 2 * len(assignment.layers):
        raise ValueError("assignment and triangulation have different layer counts")
    out: dict[tuple[int, int], Fraction] = {}
    for t in range(tri.tet_count):
        la = assignment.layers[tri.layer_of[t]]
        for e in VERTICAL_EDGES:
            out[(t, e)] = la.v
        for e in HORIZONTAL_EDGES:
            out[(t, e)] = la.h
        for e in DIAGONAL_EDGES:
            out[(t, e)] = la.d
    return out


@dataclass
class AngleVerification:
    """Outcome of checking an angle map against a triangulation."""

    range_ok: bool
    tet_sums_ok: bool
    edge_sums_ok: bool
    bad_angles: list[tuple[int, int]]
    bad_tets: list[int]
    bad_edge_classes: list[int]

    @property
    def passed(self) -> bool:
        return self.range_ok and self.tet_sums_ok and self.edge_sums_ok


def verify_angle_structure(
    tri: Triangulation, angle_map: dict[tuple[int, int], Fraction | float]
) -> AngleVerification:
    """Check positivity, per-tetrahedron sums pi and per-edge-class sums 2*pi.

    Exact arithmetic when all values are Fractions (in units of pi): sums
    of integers in units of pi/24 when every denominator divides 24, else
    of Fractions.  With float entries (radians) a 1e-9 tolerance is used.
    """
    exact = all(isinstance(x, Fraction) for x in angle_map.values())
    pi_val, tol = (F(1), 0) if exact else (3.141592653589793, 1e-9)
    if exact and all(24 % x.denominator == 0 for x in angle_map.values()):
        angle_map = {key: x.numerator * 24 // x.denominator for key, x in angle_map.items()}
        pi_val = 24

    bad_angles = []
    for t in range(tri.tet_count):
        for e in range(6):
            if (t, e) not in angle_map:
                raise ValueError(f"angle map missing entry for tetrahedron {t} edge {e}")
            if not 0 < angle_map[(t, e)] < pi_val:
                bad_angles.append((t, e))

    bad_tets = []
    for t in range(tri.tet_count):
        x = [angle_map[(t, e)] for e in range(6)]
        if abs(sum(x[:3]) - pi_val) > tol or any(abs(x[e] - x[5 - e]) > tol for e in range(3)):
            bad_tets.append(t)

    classes = edge_classes(tri).classes
    bad_classes = [c.index for c in classes if abs(sum(angle_map[x] for x in c.embeddings) - 2 * pi_val) > tol]

    return AngleVerification(
        range_ok=not bad_angles,
        tet_sums_ok=not bad_tets,
        edge_sums_ok=not bad_classes,
        bad_angles=bad_angles,
        bad_tets=bad_tets,
        bad_edge_classes=bad_classes,
    )


def boundary_deficits(
    block: Block, assignment: AngleAssignment
) -> tuple[DeficitTriple, DeficitTriple]:
    """Angle deficits on the three boundary classes at each end of a block.

    Deficits are what the rest of the complex must contribute for the edge
    sums through the block boundary to reach 2*pi.  At the block's first
    layer the horizontal and vertical deficits are the sums of the chains
    through that layer's h and v terms up to those terms; at its last layer
    they are the sums after them.  Ordered (horizontal, vertical, diagonal).
    """
    exps = inner_word(assignment.word).exponents
    first = 1 + sum(exps[: block.start])  # first and last layer of the block
    last = sum(exps[: block.end])
    units = [la.units for la in assignment.layers]
    before, after = {}, {}
    for terms, _ in _chains(assignment.word.letters):
        values = [weight * units[layer][_SLOT[slot]] for layer, slot, weight in terms]
        for i, (layer, slot, _) in enumerate(terms):
            if slot != "d" and layer in (first, last):
                before[layer, slot] = sum(values[:i])
                after[layer, slot] = sum(values[i + 1 :])
    delta = (before[first, "h"], before[first, "v"], 48 - units[first][2])
    epsilon = (after[last, "h"], after[last, "v"], 48 - units[last][2])
    return DeficitTriple(*(F(x, 24) for x in delta)), DeficitTriple(*(F(x, 24) for x in epsilon))
