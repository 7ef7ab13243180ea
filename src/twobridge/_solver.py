"""Numeric core of volume.maximize_volume, on numpy and scipy.

volume.py imports this module on the first maximize_volume call, so that
``import twobridge`` and every path that needs no maximiser stay on the
standard library.  V sums the series of volume.lobachevsky over all angles
at once: its 40 terms in r = (t/pi)^2 are five blocks of eight, one matrix
product with r .. r^8, summed by Horner's rule in r^8.  A seed starts from
its layers' integer angles in units of pi/24.  A Newton step eliminates
one angle per tetrahedron and solves the banded Schur complement of the
edge equations, after dropping the one dependent edge equation per cusp,
by LAPACK's band Cholesky.  At census sizes a numpy call costs more than
its arithmetic, so an iteration makes few: one band factorisation, two
band solves for the step and one for |Pg|, V only on the plane.  The
equations are one integer table of the rows each angle appears in, so
scipy.optimize, and scipy.sparse with it, load only for the linear
program that decides input where an unseeded loop does not end at a
converged interior point.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .angles import AngleAssignment, expand_to_tetrahedra
from .triangulation import EDGE_VERTS, Triangulation, VerificationError, _labels
from .volume import _WALL, _ZETA_EVEN, MaximizeResult

# The series of volume.lobachevsky: coefficients of r^m, r = (t/pi)^2, m = 8j + 1 .. 8j + 8 in row j.
_SERIES = np.array([z / (m * (2 * m + 1)) for m, z in enumerate(_ZETA_EVEN, start=1)]).reshape(5, 8)


def _lobachevsky_array(theta: np.ndarray) -> np.ndarray:
    """lobachevsky of every entry of a 1-d array, by the same series."""
    t = theta - math.pi * (theta / math.pi).round()
    a = np.abs(t)
    masked = not a.min(initial=1.0) > 0.0  # masks only where some t is 0 (or NaN)
    a_safe = np.where(a > 0.0, a, 1.0) if masked else a
    powers = np.empty((8, len(a)))  # r^(m + 1) in row m
    powers[0] = (a_safe / math.pi) ** 2
    for m in (1, 2, 4):  # r^(m + 1) .. r^(2m) from r .. r^m
        np.multiply(powers[:m], powers[m - 1], out=powers[m : 2 * m])
    *blocks, series = _SERIES @ powers
    for block in reversed(blocks):  # Horner's rule in r^8
        series = series * powers[7] + block
    value = np.copysign(a_safe - a_safe * np.log(2.0 * a_safe) + a_safe * series, t)
    return np.where(a > 0.0, value, 0.0) if masked else value


def _constraint_system(tri: Triangulation) -> tuple[np.ndarray, np.ndarray]:
    """The equations A x = b for angle structures, as (rows, b).

    Variable 3t + p is the angle on the opposite-edge pair p of
    tetrahedron t (pairs are edges (0,5), (1,4), (2,3)).  Rows 0..n-1 are
    the tetrahedra (sum pi), then one row per edge class (sum 2 pi).
    rows[3t + p] holds the rows of A with a 1 in column 3t + p: row t and
    the class rows of the pair's two edges, twice the same one where both
    are in one class.
    """
    n = tri.tet_count
    label, count = _labels(tri, "edge")  # class of edge e of tetrahedron t at 6t + e
    edge_row = n + np.array(label, dtype=np.int64).reshape(n, 6)
    rows = np.empty((n, 3, 3), dtype=np.int64)  # rows[t, p] is rows[3t + p]
    rows[:, :, 0], rows[:, :, 1], rows[:, :, 2] = np.arange(n)[:, None], edge_row[:, :3], edge_row[:, :2:-1]
    b = np.concatenate([np.full(n, math.pi), np.full(count, 2.0 * math.pi)])
    return rows.reshape(3 * n, 3), b


def _independent_rows(tri: Triangulation) -> np.ndarray:
    """Mask of the rows of _constraint_system kept when one edge row per
    cusp is dropped.

    Each cusp v gives the identity sum_e m_v(e) row(e) = sum_t k_v(t) row(t),
    where m_v(e) counts the ends of edge class e at v and k_v(t) the
    vertices of tetrahedron t at v.  The dropped edge rows are the classes,
    in order, whose column of m is independent of the columns before it,
    found by elimination in integers; on a valid triangulation with c cusps
    there are c of them and the remaining 2n - c rows are independent.
    """
    n = tri.tet_count
    edge, count = _labels(tri, "edge")
    vertex, cusps = _labels(tri, "vertex")
    keep = np.ones(n + count, dtype=bool)
    pivots = []  # (cusp, column) of each dropped class; a column is 0 at the cusps of the pivots before it
    x = 0
    for c in range(count):
        if len(pivots) == cusps:
            break
        x = edge.index(c, x)  # the first member 6t + e: classes are numbered in order of it
        t, e = divmod(x, 6)
        column = [0] * cusps
        for v in EDGE_VERTS[e]:
            column[vertex[4 * t + v]] += 1
        for p, pivot in pivots:
            if column[p]:  # the gcd keeps the integers small; columns only scale, so zeros stay
                column = [pivot[p] * a - column[p] * b for a, b in zip(column, pivot)]
                g = math.gcd(*column) or 1
                column = [a // g for a in column]
        p = next((v for v, a in enumerate(column) if a), None)
        if p is not None:
            pivots.append((p, column))
            keep[n + c] = False
    return keep


def _interior_point(rows: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """A strictly positive solution of A x = b via slack maximisation, or
    None: maximize_volume's verdict when its unseeded Newton loop does not converge.

    With x = s + t 1 and s >= 0 the linear program maximises t subject to
    [A | A 1] [s; t] = b.  The bounds x <= pi - t need no rows: the
    tetrahedron equations (sum pi over three positive angles) imply them.
    """
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    n, m = len(rows), len(b)
    c = np.zeros(n + 1)
    c[-1] = -1.0
    # Each entry of A goes to its column and to column n; repeated places are summed, so column n is A 1.
    at = (np.tile(rows.ravel(), 2), np.concatenate([np.repeat(np.arange(n), 3), np.full(3 * n, n)]))
    A_eq = csr_matrix((np.ones(6 * n), at), shape=(m, n + 1))
    res = linprog(c, A_eq=A_eq, b_eq=b, bounds=[(0, None)] * n + [(None, None)], method="highs")
    if not res.success or res.x[-1] <= 1e-9:
        return None
    return res.x[:-1] + res.x[-1]


# Step control of the Newton loop.  A step covers at most this share of
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
# N: the angle step of a tetrahedron from its reduced variables (d1, d2).
_REDUCE = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
# N G^-1 N^T = adj(h) / det G: entry (i, i) is the sum of the other two h,
# entry (i, j) minus the third.  Row k holds the coefficients of h_k.
_ADJ = np.array([[[float(k != i) if i == j else -float(k not in (i, j)) for j in range(3)] for i in range(3)]
                 for k in range(3)]).reshape(3, 9)
_BLOCK_OF = np.arange(6)[:, None] // 2 * 3 + np.arange(6) // 2  # 3(e // 2) + f // 2 holds end pair (e, f)


def _pair_blocks(h: np.ndarray) -> np.ndarray:
    """N G^-1 N^T of each tetrahedron, over its pairs, as (tets, 3, 3)."""
    h1, h2, h3 = h[0::3], h[1::3], h[2::3]
    return (h.reshape(-1, 3) @ _ADJ / (h1 * h2 + h1 * h3 + h2 * h3)[:, None]).reshape(-1, 3, 3)


def _schur_solver(rows: np.ndarray, keep: np.ndarray):
    """factor(h) -> solve(ascent, residual), the step d of the KKT system
    [[diag(h), A_kept^T], [A_kept, 0]] [d; y] = [-ascent; -residual_kept].

    In each tetrahedron d = N z + (0, 0, -r), r its row's residual, and the
    Hessian block G = N^T diag(h) N is 2x2, negative definite for h < 0 on
    the plane (det G = h1 h2 + h1 h3 + h2 h3).  The kept edge rows become
    B z, and S = -B G^-1 B^T is banded in class order.  factor returns None
    unless LAPACK's band Cholesky finds S positive definite and nonsingular
    to rounding.
    """
    n = len(rows)
    tets, k = n // 3, int(keep.sum()) - n // 3
    # Each of the pair's two edge ends gets its kept edge row or -1.
    row = np.where(keep, np.cumsum(keep) - tets - 1, -1)[rows[:, 1:]].reshape(tets, 6)
    at, var = row[row >= 0], np.flatnonzero(row >= 0) // 2  # S row and angle of each kept end
    edge = np.flatnonzero(keep)[tets:]  # the kept edge rows; every tetrahedron row is kept
    i, j = row[:, :, None], row[:, None, :]
    # The end pairs (e, f) of each tetrahedron t in the lower band, their places
    # in it, and their entries 9t + _BLOCK_OF[e, f] of the pair blocks.
    lower = (j >= 0) & (i >= j)
    band_at = ((i - j) * k + j)[lower]
    width = int(band_at.max(initial=0)) // max(k, 1)  # band_at is (i - j) k + j, 0 <= j < k
    block_at = (np.arange(0, 9 * tets, 9)[:, None, None] + _BLOCK_OF)[lower]

    def factor(h):
        blocks = _pair_blocks(h)
        inverse = np.ascontiguousarray(blocks[:, :2, :2])  # G^-1, the top left block, as N's top rows are the identity
        band = np.bincount(band_at, -blocks.take(block_at), (width + 1) * k).reshape(width + 1, k)
        cholesky, info = dpbtrf(band, lower=1)
        pivots = cholesky[0] ** 2
        if info or not pivots.min(initial=np.inf) > 1e-12 * pivots.max(initial=0.0):  # NaN fails too
            return None

        def reduced(v):  # G^-1 N^T v; N^T first, as G^-1 is large at a flat tetrahedron
            return np.einsum("tij,tj->ti", inverse, v.reshape(tets, 3) @ _REDUCE)

        def solve(ascent, residual=None, refine=True):  # residual None: x is on the plane
            minus, offset, edge_rows = -ascent, 0.0, 0.0
            if residual is not None:
                offset, edge_rows = np.zeros(n), -residual.take(edge)
                offset[2::3] = -residual[:tets]

            def step():  # d = N z + offset: the tetrahedron rows hold exactly
                return (z @ _REDUCE.T).ravel() + offset

            def correct():  # the multiplier step that puts the kept edge rows right, and z after it
                delta = dpbtrs(cholesky, edge_rows - np.bincount(at, step().take(var), k), lower=1)[0]
                return delta, z - reduced(np.bincount(var, delta.take(at), n))

            z = reduced(minus if residual is None else minus - h * offset)  # solve from z = 0 and lambda = 0
            lam, z = correct()
            if refine:  # then refine once, on the stationarity and the edge rows
                z = z + reduced(minus - h * step() - np.bincount(var, lam.take(at), n))
                z = correct()[1]
            return step()

        return solve

    return factor


def maximize(tri: Triangulation, seed: AngleAssignment | None, tolerance: float, max_iters: int) -> MaximizeResult:
    """The body of volume.maximize_volume, on checked arguments."""
    rows, b = _constraint_system(tri)
    n, flat = len(rows), rows.ravel()

    def residual_at(v):  # A v - b
        return np.bincount(flat, v.repeat(3), len(b)) - b

    if seed is not None:
        expand_to_tetrahedra(seed, tri)  # for its checks: tri has layer metadata, one layer per two tetrahedra
        x = (np.array([la.units for la in seed.layers]) / 24 * math.pi).take(tri.layer_of, axis=0).ravel()
        if abs(residual_at(x)).max() > 1e-9 or x.min() <= 0:
            raise ValueError("seed assignment is not a strict angle structure")
    else:
        x = np.full(n, math.pi / 3)

    keep = _independent_rows(tri)
    factor = _schur_solver(rows, keep)
    projector = factor(np.full(n, -1.0))  # h = -1: it projects onto the null space of A_kept
    if projector is None:
        raise VerificationError(f"angle equations have rank below {keep.sum()} after dropping the cusp relations")

    def value(v):
        return float(_lobachevsky_array(v).sum())

    def grad(v):
        return -np.log(np.abs(2.0 * np.sin(v)))

    def gradient_norm(v):  # |Pv|; G^-1 is bounded at h = -1, so no refinement
        p = projector(v, refine=False)
        return math.sqrt(p @ p)

    fx = logs = None  # V and the barrier's sum(log x) at x, computed on the plane only
    g, gnorm = grad(x), None  # gnorm: |Pg| at x once computed
    residual = residual_at(x)
    mu = _BARRIER / _BARRIER_FALL
    it = 0
    for it in range(1, max_iters + 1):
        # Off the plane Pg says nothing about the maximum (at x = pi/3 it
        # is 0), so the barrier, the stopping test and Pg wait for the plane.
        on_plane = abs(residual).max() <= _ON_PLANE
        if on_plane:
            gnorm = gradient_norm(g)
            if gnorm <= tolerance:
                break
            mu = min(_BARRIER_FALL * mu, _BARRIER * min(1.0, gnorm) ** 2)
            if fx is None:
                fx, logs = value(x), float(np.log(x).sum())
            f0 = fx + mu * logs
            noise = 1e-12 * max(1.0, abs(f0))  # V is flat to rounding at the top
        elif x.min() < _WALL or abs(residual[keep]).max() <= _ON_PLANE:
            # On the walls, or off only on dropped rows, which no step corrects.
            break
        # Newton step on V + mu sum(log x); the second derivative of L is -cot.
        ascent = g + mu / x
        # Where S is not positive definite, the step with h = -1.
        direction = (factor(-1.0 / np.tan(x) - mu / (x * x)) or projector)(ascent, residual)
        shrinking = direction < 0
        alpha = min(1.0, _TO_BOUNDARY * float((x[shrinking] / -direction[shrinking]).min(initial=np.inf)))
        for _ in range(60):
            x_new = x + alpha * direction
            if not on_plane:  # off the plane a step is progress on the residual, not on V
                f_new = logs_new = None
                break
            f_new, logs_new = value(x_new), float(np.log(x_new).sum())
            if f_new + mu * logs_new > f0 - noise:
                break
            alpha *= 0.5
        else:
            break
        x, fx, logs = x_new, f_new, logs_new
        g, gnorm = grad(x), None
        residual = residual_at(x)
    if gnorm is None:
        gnorm = gradient_norm(g)
    converged = gnorm <= tolerance and float(abs(residual).max()) <= _ON_PLANE
    result = MaximizeResult(x.reshape(-1, 3), value(x) if fx is None else fx, gnorm, it, converged)
    if seed is None and not result.converged and _interior_point(rows, b) is None:
        raise ValueError("no strict angle structure: constraint system infeasible")
    return result
