"""Hyperbolic volume: the Lobachevsky function, the maximisation of the
volume functional over the angle polytope, and complexity bounds.

Vol(Delta(a, b, c)) = L(a) + L(b) + L(c) where L is the Lobachevsky
function L(t) = -integral_0^t log|2 sin u| du.  L is odd, pi-periodic,
and maximal at pi/6; the volume of the regular ideal tetrahedron is
v3 = 3 L(pi/3) = 1.0149416...

The volume functional V(theta) = sum of L over all angles is concave on
the polytope cut out by the per-tetrahedron (sum pi) and per-edge-class
(sum 2 pi) equations; its interior critical point, when it exists, gives
the hyperbolic volume of the manifold.  maximize_volume runs one damped
Newton loop, from a seed or from pi/3 off the edge equations, whose steps
solve the sparse KKT system of those equations (the Hessian of V is the
diagonal -cot theta), after dropping the one dependent edge equation per
cusp.  A linear program decides only input where the loop fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import zeta as _zeta

from .angles import AngleAssignment, SHAPES, Shape, assign_angles, theorem_family
from .triangulation import (
    EDGE_VERTS,
    EdgeClassTable,
    Triangulation,
    VerificationError,
    edge_classes,
    vertex_classes,
)
from .word import Word, inner_word

# zeta(2m) for the power series of L; the tail beyond m = 40 is below
# double precision for |t| <= pi/2.
_ZETA_EVEN = [float(_zeta(2 * _m)) for _m in range(1, 41)]
# The same series as coefficients of (t/pi)^(2m), for whole arrays.
_SERIES = np.array([z / (m * (2 * m + 1)) for m, z in enumerate(_ZETA_EVEN, start=1)])


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


def _lobachevsky_array(theta: np.ndarray) -> np.ndarray:
    """lobachevsky of every entry of a 1-d array, by the same series."""
    t = theta - math.pi * np.round(theta / math.pi)
    a = np.abs(t)
    nonzero = a > 0.0
    a_safe = np.where(nonzero, a, 1.0)
    ratio = (a_safe / math.pi) ** 2
    powers = np.cumprod(np.repeat(ratio[:, None], len(_SERIES), axis=1), axis=1)
    value = a_safe - a_safe * np.log(2.0 * a_safe) + a_safe * (powers @ _SERIES)
    return np.where(nonzero, np.copysign(value, t), 0.0)


def v3() -> float:
    """Volume of the regular ideal tetrahedron, 3 L(pi/3)."""
    return 3.0 * lobachevsky(math.pi / 3.0)


def tet_volume(shape: Shape) -> float:
    """Volume of the ideal tetrahedron with the given shape."""
    return sum(lobachevsky(float(a) * math.pi) for a in shape.angles)


# lobachevsky(k pi/24) for k = 0..24: every catalogue angle is a multiple
# of pi/24.
_LOBACHEVSKY_24 = tuple(lobachevsky(k / 24 * math.pi) for k in range(25))


def assignment_volume(assignment: AngleAssignment) -> float:
    """Volume of a per-layer assignment (two tetrahedra per layer)."""
    return 2.0 * sum(
        sum(_LOBACHEVSKY_24[24 * a.numerator // a.denominator] for a in la.triple)
        for la in assignment.layers
    )


# Opposite-edge pair (0, 1 or 2) of each in-tetrahedron edge 0..5.
_PAIR = np.array([0, 1, 2, 2, 1, 0])


def _constraint_system(tri: Triangulation, table: EdgeClassTable):
    """Sparse equations A x = b for angle structures; x has 3 entries per tet.

    Variable 3t + p is the angle on the opposite-edge pair p of
    tetrahedron t (pairs are edges (0,5), (1,4), (2,3)).  Rows 0..n-1 are
    the tetrahedra (sum pi), then one row per edge class (sum 2 pi).  A is
    a CSR matrix; both edges of a pair in one class give the entry 2.
    """
    from scipy.sparse import csr_matrix

    n = tri.tet_count
    edge_row = np.fromiter(
        (table.class_of[(t, e)] for t in range(n) for e in range(6)), np.int64, 6 * n
    )
    rows = np.concatenate([np.repeat(np.arange(n), 3), n + edge_row])
    cols = np.concatenate([np.arange(3 * n), np.repeat(3 * np.arange(n), 6) + np.tile(_PAIR, n)])
    # Repeated (row, column) places are summed.
    A = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n + len(table), 3 * n))
    b = np.concatenate([np.full(n, math.pi), np.full(len(table), 2.0 * math.pi)])
    return A, b


def _independent_rows(tri: Triangulation, table: EdgeClassTable) -> np.ndarray:
    """Mask of the rows of _constraint_system kept when one edge row per
    cusp is dropped.

    Each cusp v gives the identity sum_e m_v(e) row(e) = sum_t k_v(t) row(t),
    where m_v(e) counts the ends of edge class e at v and k_v(t) the
    vertices of tetrahedron t at v.  The dropped edge rows are the pivot
    columns of elimination on the cusps-by-edges matrix m; on a valid
    triangulation with c cusps the remaining 2n - c rows are independent.
    """
    n = tri.tet_count
    cusp = np.array(vertex_classes(tri), dtype=np.int64)
    # Both ends of the first embedding of each edge class.
    t, e = np.array([cls.embeddings[0] for cls in table.classes], dtype=np.int64).reshape(-1, 2).T
    ends = cusp[4 * t[:, None] + np.array(EDGE_VERTS)[e]]
    m = np.zeros((cusp.max(initial=-1) + 1, len(table)))
    np.add.at(m, (ends, np.arange(len(table))[:, None]), 1.0)
    keep = np.ones(n + len(table), dtype=bool)
    r = 0
    for col in range(len(table)):
        if r == len(m):
            break
        p = r + int(np.argmax(np.abs(m[r:, col])))
        if abs(m[p, col]) < 1e-9:
            continue
        m[[r, p]] = m[[p, r]]
        m[r + 1 :] -= np.outer(m[r + 1 :, col] / m[r, col], m[r])
        keep[n + col] = False
        r += 1
    return keep


def _interior_point(A, b: np.ndarray) -> np.ndarray | None:
    """A strictly positive solution of A x = b via slack maximisation, or
    None: maximize_volume's verdict when its Newton loop does not converge.

    With x = s + t 1 and s >= 0 the linear program maximises t subject to
    [A | A 1] [s; t] = b.  The bounds x <= pi - t need no rows: the
    tetrahedron equations (sum pi over three positive angles) imply them.
    """
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix, hstack

    n = A.shape[1]
    c = np.zeros(n + 1)
    c[-1] = -1.0
    A_eq = hstack([A, csr_matrix((A @ np.ones(n))[:, None])], format="csr")
    res = linprog(c, A_eq=A_eq, b_eq=b, bounds=[(0, None)] * n + [(None, None)], method="highs")
    if not res.success or res.x[-1] <= 1e-9:
        return None
    return res.x[:-1] + res.x[-1]


@dataclass
class MaximizeResult:
    angles: np.ndarray          # shape (tets, 3), pair angles in radians
    volume: float
    gradient_norm: float        # projected onto the constraint null space
    iterations: int
    converged: bool

    @property
    def on_boundary(self) -> bool:
        """True when the iterate sits against the positivity walls.

        A non-converged run that ends here means the supremum is attained
        on the boundary of the closed polytope (no interior critical
        point); callers should not treat the value as a hyperbolic volume.
        """
        return bool(self.angles.min() < _WALL or self.angles.max() > math.pi - _WALL)


# Step control of maximize_volume.  A step covers at most this share of
# the distance to the positivity walls (fraction to the boundary).
_TO_BOUNDARY = 0.7
# Newton steps are taken on V + mu * sum(log x), a barrier that keeps the
# iterates off the walls, where the curvature -cot x is unbounded and
# plain Newton steps jam.  On the plane A x = b, mu is
# _BARRIER * min(1, |Pg|)^2, with Pg the projected gradient of V, and
# falls at least by _BARRIER_FALL per iteration; near the maximum it
# vanishes quadratically, so the last steps are plain Newton steps on V.
_BARRIER = 0.02
_BARRIER_FALL = 0.5
# The iterate is on the plane when no equation is off by more than this:
# rounding level, whatever the tolerance on |Pg|.  The dropped equations
# count too: where a vertex link is not a torus they contradict the rest.
_ON_PLANE = 1e-12
# An angle within this of 0 or pi is on the positivity walls; a run that
# reaches them off the plane stops, and the LP decides.
_WALL = 1e-6
# The KKT matrix is symmetric: order it on A + A^T and prefer diagonal pivots.
_KKT_SPLU = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1, options={"SymmetricMode": True})


def maximize_volume(
    tri: Triangulation,
    seed: AngleAssignment | None = None,
    tolerance: float = 1e-10,
    max_iters: int = 200,
) -> MaximizeResult:
    """Maximise the volume functional over the angle polytope.

    Concavity makes the interior critical point unique; on a geometric
    triangulation it computes the hyperbolic volume.  One damped Newton
    loop runs from the seed, else from x = pi/3, which satisfies every
    tetrahedron equation.  Each step also corrects the residual of A x = b
    (infeasible-start Newton, Boyd-Vandenberghe, Convex Optimization
    10.3): a step of length alpha shrinks it by the factor 1 - alpha.
    Unless the loop ends at a converged interior point, a linear program
    decides: ValueError if no strictly positive solution exists.  Raises
    VerificationError if the equations keep a dependent row after the
    cusp relations are dropped.
    """
    from scipy.sparse import bmat, identity
    from scipy.sparse.linalg import splu

    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be a finite number > 0, got {tolerance}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    if tri.tet_count == 0:
        raise ValueError("triangulation has no tetrahedra")
    table = edge_classes(tri)
    A, b = _constraint_system(tri, table)
    n = 3 * tri.tet_count

    if seed is not None:
        # Variable order per tetrahedron is (horizontal, vertical, diagonal)
        # to match the edge-pair numbering (0,5), (1,4), (2,3).
        x = np.array(
            [
                float(q) * math.pi
                for la in seed.layers
                for _ in (0, 1)
                for q in (la.h, la.v, la.d)
            ]
        )
        if x.shape != (n,) or np.max(np.abs(A @ x - b)) > 1e-9 or x.min() <= 0:
            raise ValueError("seed assignment is not a strict angle structure")
    else:
        x = np.full(n, math.pi / 3)

    keep = _independent_rows(tri, table)
    A_kept = A[keep]
    k = A_kept.shape[0]
    # The KKT matrix [[H, A_kept^T], [A_kept, 0]], built once: the first
    # stored entry of each of the first n columns is the diagonal of H.
    kkt = bmat([[-identity(n), A_kept.T], [A_kept, None]], format="csc")
    kkt.sort_indices()
    diagonal = kkt.indptr[:n]
    # With H = -I it is factorised once: the solution u of
    # [[-I, A_kept^T], [A_kept, 0]] [u; y] = [-v; 0] is the projection P v
    # onto the null space of A_kept.
    try:
        projector = splu(kkt, **_KKT_SPLU)
        pivots = np.abs(projector.U.diagonal())
        independent = pivots.min() > 1e-12 * pivots.max()
    except RuntimeError:  # exactly singular
        independent = False
    if not independent:
        raise VerificationError(
            f"angle equations have rank below {k} after dropping the cusp relations"
        )

    def project(v):  # onto the null space of A_kept
        return projector.solve(np.concatenate([-v, np.zeros(k)]))[:n]

    def value(v):
        return float(np.sum(_lobachevsky_array(v)))

    def grad(v):
        return -np.log(np.abs(2.0 * np.sin(v)))

    fx = value(x)
    g = grad(x)
    gnorm = float(np.linalg.norm(project(g)))
    residual = A @ x - b
    mu = _BARRIER / _BARRIER_FALL
    rhs = np.zeros(n + k)
    it = 0
    for it in range(1, max_iters + 1):
        # Off the plane Pg says nothing about the maximum (at x = pi/3 it
        # is 0), so the barrier and the stopping test wait for the plane.
        on_plane = float(np.max(np.abs(residual))) <= _ON_PLANE
        if on_plane:
            if gnorm <= tolerance:
                break
            mu = min(_BARRIER_FALL * mu, _BARRIER * min(1.0, gnorm) ** 2)
        elif x.min() < _WALL:
            break
        # Newton step on V + mu sum(log x); the second derivative of L is -cot.
        ascent = g + mu / x
        kkt.data[diagonal] = -1.0 / np.tan(x) - mu / (x * x)
        rhs[:n] = -ascent
        rhs[n:] = -residual[keep]
        try:
            direction = splu(kkt, **_KKT_SPLU).solve(rhs)[:n]
        except RuntimeError:  # exactly singular: the step with H = -I
            direction = projector.solve(rhs)[:n]
        shrinking = direction < 0
        alpha = 1.0
        if shrinking.any():
            alpha = min(1.0, _TO_BOUNDARY * float(np.min(x[shrinking] / -direction[shrinking])))
        f0 = fx + mu * float(np.sum(np.log(x)))
        noise = 1e-12 * max(1.0, abs(f0))  # V is flat to rounding at the top
        for _ in range(60):
            x_new = x + alpha * direction
            f_new = value(x_new)
            # Off the plane a step is progress on the residual, not on V.
            if not on_plane or f_new + mu * float(np.sum(np.log(x_new))) > f0 - noise:
                break
            alpha *= 0.5
        else:
            break
        x, fx = x_new, f_new
        g = grad(x)
        gnorm = float(np.linalg.norm(project(g)))
        residual = A @ x - b
    converged = gnorm <= tolerance and float(np.max(np.abs(residual))) <= _ON_PLANE
    result = MaximizeResult(x.reshape(-1, 3), fx, gnorm, it, converged)
    if (not converged or result.on_boundary) and _interior_point(A, b) is None:
        raise ValueError("no strict angle structure: constraint system infeasible")
    return result


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
        return {
            "schema_version": 1,
            "word": self.word,
            "tet_count": self.tet_count,
            "n_inner": self.n_inner,
            "C": self.C,
            "explicit_volume": self.explicit_volume,
            "lower_mult": self.lower_mult,
            "lower_additive": self.lower_additive,
            "upper_additive": self.upper_additive,
            "ishikawa_nemoto": self.ishikawa_nemoto,
            "petronio_vesnin": self.petronio_vesnin,
            "best_lower": self.best_lower,
            "best_upper": self.best_upper,
            "crossover": self.crossover,
        }


CSV_COLUMNS = [
    "word",
    "tet_count",
    "n_inner",
    "C",
    "explicit_volume",
    "lower_mult",
    "lower_additive",
    "upper_additive",
    "ishikawa_nemoto",
    "petronio_vesnin",
    "best_lower",
    "best_upper",
    "crossover",
]


def bounds_report(w: Word) -> BoundsReport:
    """Complexity bounds for one normalised hyperbolic word.

    Words with inner exponents in {1, 2} get the full set of volume-based
    bounds; other words get only the triangulation size, the twist-number
    upper bound and the syllable-count lower bound.
    """
    if w.n < 2:
        raise ValueError(f"{w} is not hyperbolic")
    tet_count = 2 * (w.ell - 1)
    exps = w.exponents
    ishikawa = w.ell + 2 * (w.n - 1) - sum(1 for e in exps if e == 1)
    if w.ell >= 3:
        inner = inner_word(w)
        n_inner = inner.n
        C = inner.ell - inner.n
    else:
        n_inner, C = 0, 0
    petronio = max(2.0, 2.0 * n_inner - 2.6667)

    in_family = theorem_family(w)
    explicit = lower_mult = lower_add = upper_add = None
    crossover = None
    if in_family:
        assignment = assign_angles(w)
        explicit = assignment_volume(assignment)
        lower_mult = explicit / v3()
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


def theorem_ratio_table() -> list[tuple[str, float]]:
    """The eleven block-family volume ratios from the 0.8 lower bound.

    Each entry is (label, ratio) with ratio = V / (|T| v3) evaluated from
    full-precision shape volumes at the stated block parameters.
    """
    V3 = v3()

    def over(shapes, layers):
        return sum(tet_volume(SHAPES[s]) for s in shapes) / (layers * V3)

    entries = [
        ("start B2, k=1", over(["VII", "I", "VI"], 3)),
        ("start B3, m=1", over(["V", "I", "II", "IV", "VI"], 5)),
        ("middle B3, m=1", over(["I", "VI", "IV", "II"], 4)),
        ("end B2, k=2", over(["V", "V", "V", "IX"], 4)),
        ("end B2, k=3", over(["V", "V", "V", "V", "IX", "III"], 6)),
        (
            "B3 + end B2, m=1",
            over(["V", "I", "II", "IV", "VI"] + ["V", "V", "V", "IX"], 9),
        ),
        (
            "B2 + B3 + end B2, k=m=1",
            over(["VII", "I", "VI"] + ["I", "VI", "IV", "II"] + ["V", "V", "V", "IX"], 11),
        ),
        ("unfinished B3, m=2", over(["I", "VI", "III", "III", "III", "VIII"], 6)),
        ("all B2, k=2", over(["VII", "VII", "III", "III", "III"], 5)),
        ("all B2, k=1", over(["VII", "VII", "III"], 3)),
        ("all B2, k=1, revised", over(["II", "II", "X2"], 3)),
    ]
    return entries
