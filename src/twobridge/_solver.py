"""Numeric core of volume.maximize_volume, on numpy and scipy.sparse.

volume.py imports this module on the first maximize_volume call, so that
``import twobridge`` and every path that needs no maximiser stay on the
standard library.  The Newton loop solves the sparse KKT system of the
angle equations, after dropping the one dependent edge equation per cusp;
scipy.optimize is imported only for the linear program that decides input
where the loop does not end at a converged interior point.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix, hstack
from scipy.sparse.linalg import splu

from .angles import AngleAssignment
from .triangulation import EDGE_VERTS, EdgeClassTable, Triangulation, VerificationError, vertex_classes
from .volume import _WALL, _ZETA_EVEN, MaximizeResult

# The series of volume.lobachevsky as coefficients of (t/pi)^(2m).
_SERIES = np.array([z / (m * (2 * m + 1)) for m, z in enumerate(_ZETA_EVEN, start=1)])


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


# Opposite-edge pair (0, 1 or 2) of each in-tetrahedron edge 0..5.
_PAIR = np.array([0, 1, 2, 2, 1, 0])


def _constraint_system(tri: Triangulation, table: EdgeClassTable):
    """Sparse equations A x = b for angle structures; x has 3 entries per tet.

    Variable 3t + p is the angle on the opposite-edge pair p of
    tetrahedron t (pairs are edges (0,5), (1,4), (2,3)).  Rows 0..n-1 are
    the tetrahedra (sum pi), then one row per edge class (sum 2 pi).  A is
    a CSR matrix; both edges of a pair in one class give the entry 2.
    """
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

    n = A.shape[1]
    c = np.zeros(n + 1)
    c[-1] = -1.0
    A_eq = hstack([A, csr_matrix((A @ np.ones(n))[:, None])], format="csr")
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
# The KKT matrix is symmetric: order it on A + A^T and prefer diagonal pivots.
_KKT_SPLU = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1, options={"SymmetricMode": True})


def _kkt_matrix(A, keep: np.ndarray):
    """[[-I, A_kept^T], [A_kept, 0]] in one step, from the triplets of A on the
    rows in `keep`.  It is canonical CSC, so -1 is the first stored entry of
    each of the first n columns: their other entries lie in rows n and up."""
    n, size = A.shape[1], A.shape[1] + int(keep.sum())
    coo = A.tocoo()
    on = keep[coo.row]
    row, col, val = n + (np.cumsum(keep) - 1)[coo.row[on]], coo.col[on], coo.data[on]
    rows, cols = np.concatenate([np.arange(n), row, col]), np.concatenate([np.arange(n), col, row])
    return csc_matrix((np.concatenate([np.full(n, -1.0), val, val]), (rows, cols)), shape=(size, size))


def maximize(
    tri: Triangulation, table: EdgeClassTable, seed: AngleAssignment | None, tolerance: float, max_iters: int
) -> MaximizeResult:
    """The body of volume.maximize_volume, on checked arguments."""
    A, b = _constraint_system(tri, table)
    n = 3 * tri.tet_count

    if seed is not None:
        # Variable order per tetrahedron is (horizontal, vertical, diagonal)
        # to match the edge-pair numbering (0,5), (1,4), (2,3).
        x = np.array([float(q) * math.pi for la in seed.layers for _ in (0, 1) for q in (la.h, la.v, la.d)])
        if x.shape != (n,) or np.max(np.abs(A @ x - b)) > 1e-9 or x.min() <= 0:
            raise ValueError("seed assignment is not a strict angle structure")
    else:
        x = np.full(n, math.pi / 3)

    keep = _independent_rows(tri, table)
    kkt = _kkt_matrix(A, keep)
    k = kkt.shape[0] - n
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
        elif x.min() < _WALL or float(np.max(np.abs(residual[keep]))) <= _ON_PLANE:
            # On the walls, or off only on dropped rows, which no step corrects.
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
    if not result.converged and _interior_point(A, b) is None:
        raise ValueError("no strict angle structure: constraint system infeasible")
    return result
