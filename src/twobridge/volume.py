"""Hyperbolic volume: the Lobachevsky function, the volume functional on
angle structures, and complexity bounds.

Vol(Delta(a, b, c)) = L(a) + L(b) + L(c) where L is the Lobachevsky
function L(t) = -integral_0^t log|2 sin u| du.  L is odd, pi-periodic,
and maximal at pi/6; the volume of the regular ideal tetrahedron is
v3 = 3 L(pi/3) = 1.0149416...  Explicit structures take their angles
from the catalogue, multiples of pi/24, so their volumes and the bounds
built on them read a 25-entry table of L.

The volume functional V(theta) = sum of L over all angles is concave on
the polytope cut out by the per-tetrahedron (sum pi) and per-edge-class
(sum 2 pi) equations; its interior critical point, when it exists, gives
the hyperbolic volume of the manifold.  maximize_volume finds it on
builder output with the Newton solver of twobridge._solver, over the
layer triples.  This module uses the standard library only; numpy and
scipy.linalg load with that solver, on the first maximize_volume call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from .angles import _ARRANGEMENTS, AngleAssignment, assign_angles, theorem_family
from .blocks import decompose
from .triangulation import Triangulation
from .word import Word, inner_word

if TYPE_CHECKING:
    import numpy as np

# zeta(2m), m = 1..40, correctly rounded, for the power series of L; the
# tail beyond m = 40 is below double precision for |t| <= pi/2.
_ZETA_EVEN = (
    1.6449340668482264, 1.0823232337111381, 1.0173430619844492, 1.0040773561979444,
    1.000994575127818, 1.000246086553308, 1.0000612481350588, 1.0000152822594086,
    1.000003817293265, 1.0000009539620338, 1.0000002384505027, 1.000000059608189,
    1.0000000149015549, 1.000000003725334, 1.0000000009313275, 1.000000000232831,
    1.0000000000582077, 1.000000000014552, 1.000000000003638, 1.0000000000009095,
    1.0000000000002274, 1.0000000000000568, 1.0000000000000142, 1.0000000000000036,
    1.0000000000000009, 1.0000000000000002, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
    1.0, 1.0, 1.0, 1.0, 1.0, 1.0,
)


def lobachevsky(theta: float) -> float:
    """The Lobachevsky function, accurate to about 1e-14 absolute.

    Evaluated through the series L(t) = t - t log|2t| + t * sum_m
    zeta(2m)/(m(2m+1)) (t/pi)^(2m), after reduction by periodicity and
    oddness to |t| <= pi/2 where the series converges geometrically.
    """
    t = math.remainder(theta, math.pi)  # reduce to [-pi/2, pi/2]
    if t == 0.0:
        return 0.0
    sign = 1.0
    if t < 0:
        sign, t = -1.0, -t
    ratio = (t / math.pi) ** 2
    term = 1.0
    series = 0.0
    for m, z in enumerate(_ZETA_EVEN, start=1):
        term *= ratio
        series += z * term / (m * (2 * m + 1))
        if z * term < 1e-18:
            break
    return sign * (t - t * math.log(2.0 * t) + t * series)


def v3() -> float:
    """Volume of the regular ideal tetrahedron, 3 L(pi/3)."""
    return 3.0 * lobachevsky(math.pi / 3.0)


# lobachevsky(k pi/24) for k = 0..24: every catalogue angle is a multiple
# of pi/24.
_LOBACHEVSKY_24 = tuple(lobachevsky(k / 24 * math.pi) for k in range(25))

# Layer volume per catalogue arrangement in units of pi/24, summed in
# triple order (h, v, d) as the angles themselves would be.
_ARRANGEMENT_VOLUME = {
    a: sum(_LOBACHEVSKY_24[x] for x in a) for options in _ARRANGEMENTS.values() for a in options
}

_V3 = v3()


def assignment_volume(assignment: AngleAssignment) -> float:
    """Volume of a per-layer assignment (two tetrahedra per layer)."""
    return 2.0 * sum(_ARRANGEMENT_VOLUME[la.units] for la in assignment.layers)


# An angle within this of 0 or pi is on the positivity walls.
_WALL = 1e-6


@dataclass
class MaximizeResult:
    angles: np.ndarray          # shape (tets, 3): pairs 0/5, 1/4, 2/3, radians
    volume: float               # V at the last iterate, on the angle equations or not
    gradient_norm: float | None  # |Pg|, the gradient projected onto the plane; None off the plane
    iterations: int
    converged: bool             # on the plane and |Pg| <= tolerance; every iterate is interior

    @property
    def on_boundary(self) -> bool:
        """True when an unconverged run ends against the positivity walls.

        A report: every iterate is interior, so a converged point is the
        interior maximum, however small its angles (in a long twist region
        they shrink roughly like k^-3).  An unconverged run that ends at a
        wall points to a supremum on the boundary of the closed polytope
        (no interior critical point), so the value is no hyperbolic volume.
        """
        return not self.converged and bool(self.angles.min() < _WALL or self.angles.max() > math.pi - _WALL)


def maximize_volume(
    tri: Triangulation,
    seed: AngleAssignment | None = None,
    tolerance: float = 1e-10,
    max_iters: int = 200,
) -> MaximizeResult:
    """Maximise the volume functional over the angle polytope of builder output.

    Concavity makes the interior critical point unique.  Builder output of
    a hyperbolic word is geometric (Gueritaud-Futer), so the point is its
    hyperbolic structure and has the layer symmetry: one damped Newton
    loop runs on the layer table of twobridge._solver, from the seed's
    integer layer angles (one layer per two tetrahedra), else from x = pi/3.
    Each step solves the banded Schur complement of the chain equations in
    linear time and corrects the residual of A x = b (infeasible-start
    Newton, Boyd-Vandenberghe, Convex Optimization 10.3).  Its line search
    evaluates V only where the slope of the concave V + mu sum(log x) at
    the trial point cannot prove the step acceptable, and V once for the
    result.  layer_of spreads the point over the tetrahedra; the volume is
    twice the layer sum.  An unconverged run returns its last point and V
    there, gradient_norm None off the angle equations.  ValueError for a
    seed that is no strict solution or has another layer count, or without
    the builder's layer metadata; VerificationError where the layers do
    not match the gluings, or a converged point misses a gluing edge
    equation by over 1e-9.
    """
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be a finite number > 0, got {tolerance}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    if tri.tet_count == 0:
        raise ValueError("triangulation has no tetrahedra")
    from ._solver import maximize

    return maximize(tri, seed, tolerance, max_iters)


@dataclass
class BoundsReport:
    """All complexity bounds for one word."""

    word: str
    tet_count: int
    n_inner: int
    C: int
    explicit_volume: float | None
    lower_mult: float | None
    lower_additive: float | None
    upper_additive: float | None
    ishikawa_nemoto: int
    petronio_vesnin: float
    best_lower: float
    best_upper: float
    crossover: bool | None

    def to_dict(self) -> dict:
        # vars, not asdict: asdict deep-copies, and survey calls this per word.
        return {"schema_version": 1, **vars(self)}


CSV_COLUMNS = [f.name for f in fields(BoundsReport)]


def bounds_report(w: Word) -> BoundsReport:
    """Complexity bounds for one normalised hyperbolic word.

    Words with inner exponents in {1, 2} get the full set of volume-based
    bounds; other words get only the triangulation size, the twist-number
    upper bound and the syllable-count lower bound.
    """
    if w.n < 2:
        raise ValueError(f"{w} is not hyperbolic (needs at least two syllables)")
    tet_count = 2 * (w.ell - 1)
    exps = w.exponents
    ishikawa = w.ell + 2 * (w.n - 1) - exps.count(1)
    inner = inner_word(w) if w.ell >= 3 else None
    n_inner, C = (inner.n, inner.ell - inner.n) if inner else (0, 0)
    petronio = max(2.0, 2.0 * n_inner - 2.6667)

    in_family = theorem_family(w)
    explicit = lower_mult = lower_add = upper_add = None
    crossover = None
    if in_family:
        explicit = assignment_volume(assign_angles(w, decompose(inner)))
        lower_mult = explicit / _V3
        lower_add = 2 * n_inner + 1 + (0.9632 * C + 0.393)
        upper_add = 2 * n_inner + 1 + (2 * C + 1)
        crossover = C >= 0.628 * n_inner - 0.325

    lowers = [petronio] + [x for x in (lower_mult, lower_add) if x is not None]
    best_lower = max(lowers)
    best_upper = float(min(tet_count, ishikawa))
    return BoundsReport(
        word=str(w),
        tet_count=tet_count,
        n_inner=n_inner,
        C=C,
        explicit_volume=explicit,
        lower_mult=lower_mult,
        lower_additive=lower_add,
        upper_additive=upper_add,
        ishikawa_nemoto=ishikawa,
        petronio_vesnin=petronio,
        best_lower=best_lower,
        best_upper=best_upper,
        crossover=crossover,
    )
