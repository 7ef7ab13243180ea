"""Numeric core of volume.maximize_volume, on numpy and scipy.linalg.

volume.py imports this module on the first maximize_volume call, so that
``import twobridge`` and every path that needs no maximiser stay on the
standard library.  V sums the series of volume.lobachevsky over all
angles at once: its 40 terms in r = (t/pi)^2 are five blocks of eight,
one matrix product with r .. r^8, summed by Horner's rule in r^8.  On the
layer table of builder output, a Newton step eliminates one angle per
layer and solves the banded Schur complement of the chain equations, the
dependent one dropped, by LAPACK's band Cholesky.  At census sizes a numpy
call costs more than its arithmetic, so an iteration makes few: one band
factorisation, two band solves for the step and one for |Pg|, V only on
the plane.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .angles import AngleAssignment
from .triangulation import Triangulation, VerificationError, _labels
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


def _layer_table(tri: Triangulation) -> tuple[np.ndarray, np.ndarray]:
    """The angle equations on layer triples, as (rows, b) for _newton.

    Layer k is tetrahedra 2k and 2k + 1, both with its triple; variable
    3k + p is the angle on pair p.  Cell (2k, e) lies in the same chain as
    cell (2k + 1, 5 - e), so the edge classes come in twins.  Rows 0..m-1
    are the layers (sum pi), then one row per chain in order of its
    smallest class: a twin pair is a chain with either class's weights
    (sum 2 pi), a class twinned with itself a fold chain with half its
    weights (sum pi).  rows[3k + p] holds layer k and the chains of the
    pair's two edges in tetrahedron 2k, twice one chain for weight 2.
    """
    n = tri.tet_count
    if tri.layer_of != tuple(t >> 1 for t in range(n)):
        raise ValueError("triangulation carries no builder layer metadata (tetrahedra 2k and 2k + 1 in layer k)")
    label, count = _labels(tri, "edge")
    ends = np.array(label).reshape(n // 2, 2, 6)
    paired = np.stack([ends[:, 0], ends[:, 1, ::-1]])  # cells (2k, e) above cells (2k + 1, 5 - e)
    twin = np.empty(count, dtype=np.int64)
    twin[paired] = paired[::-1]
    if not np.array_equal(twin[paired], paired[::-1]):
        raise VerificationError("the layers do not match the gluings: twin cells in unpaired classes")
    heads, chain = np.unique(np.minimum(np.arange(count), twin), return_inverse=True)
    m, first = n // 2, paired[0]
    rows = np.empty((m, 3, 3), dtype=np.int64)
    rows[:, :, 0], rows[:, :, 1], rows[:, :, 2] = np.arange(m)[:, None], m + chain[first[:, :3]], m + chain[first[:, :2:-1]]
    b = np.concatenate([np.full(m, math.pi), np.where(twin[heads] == heads, math.pi, 2.0 * math.pi)])
    return rows.reshape(3 * m, 3), b


def _residual(rows: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:  # A x - b of the table (rows, b)
    return np.bincount(rows.ravel(), x.repeat(3), len(b)) - b


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
# count too: where they contradict the rest, no point is on the plane.
_ON_PLANE = 1e-12
# N: the angle step of a tetrahedron from its reduced variables (d1, d2).
_REDUCE = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
# N G^-1 N^T = adj(h) / det G: entry (i, i) is the sum of the other two h,
# entry (i, j) minus the third.  Row k holds the coefficients of h_k.
_ADJ = np.array([[[float(k != i) if i == j else -float(k not in (i, j)) for j in range(3)] for i in range(3)]
                 for k in range(3)]).reshape(3, 9)
_PAIR_E, _PAIR_F = np.divmod(np.arange(36), 6)  # the 36 end pairs (e, f) of a tetrahedron, at 6e + f
_BLOCK_OF = _PAIR_E // 2 * 3 + _PAIR_F // 2  # the entry 3(e // 2) + f // 2 of the pair block that holds each


def _pair_blocks(h: np.ndarray) -> np.ndarray:
    """N G^-1 N^T of each tetrahedron, over its pairs, as (tets, 3, 3)."""
    h1, h2, h3 = h[0::3], h[1::3], h[2::3]
    return (h.reshape(-1, 3) @ _ADJ / (h1 * h2 + h1 * h3 + h2 * h3)[:, None]).reshape(-1, 3, 3)


def _schur_solver(rows: np.ndarray, keep: np.ndarray):
    """factor(h) -> solve(ascent, residual), the step d of the KKT system
    [[diag(h), A_kept^T], [A_kept, 0]] [d; y] = [-ascent; -residual_kept].

    In each tetrahedron (layer) d = N z + (0, 0, -r), r its row's residual,
    and the Hessian block G = N^T diag(h) N is 2x2, negative definite for
    h < 0 on the plane (det G = h1 h2 + h1 h3 + h2 h3).  The kept edge
    (chain) rows become B z, and S = -B G^-1 B^T is banded in class order.  factor
    returns None unless LAPACK's band Cholesky finds S positive definite and
    nonsingular to rounding.
    """
    n = len(rows)
    tets, k = n // 3, int(keep.sum()) - n // 3
    # Each of the pair's two edge ends gets its kept edge row or -1.
    row = np.where(keep, np.cumsum(keep) - tets - 1, -1)[rows[:, 1:]].reshape(tets, 6)
    ends = np.flatnonzero(row >= 0)
    at, var = row.take(ends), ends // 2  # S row and angle of each kept end
    edge = np.flatnonzero(keep)[tets:]  # the kept edge rows; every tetrahedron row is kept
    # The end pairs of each tetrahedron t in the lower band, at 36t + 6e + f,
    # their places in it, and their entries 9t + _BLOCK_OF of the pair blocks.
    i, j = row[:, _PAIR_E].ravel(), row[:, _PAIR_F].ravel()
    lower = np.flatnonzero((j >= 0) & (i >= j))
    i, j = i.take(lower), j.take(lower)
    band_at = (i - j) * k + j
    width = int(band_at.max(initial=0)) // max(k, 1)  # band_at is (i - j) k + j, 0 <= j < k
    block_at = lower // 36 * 9 + _BLOCK_OF.take(lower % 36)

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

        def solve(ascent, residual=None):  # residual None: a projection, x on the plane
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
            if residual is not None:  # a Newton step: refine once, on the stationarity and the edge rows
                z = z + reduced(minus - h * step() - np.bincount(var, lam.take(at), n))
                z = correct()[1]
            return step()

        return solve

    return factor


def _newton(rows: np.ndarray, b: np.ndarray, keep: np.ndarray, x: np.ndarray, tolerance: float, max_iters: int):
    """The damped Newton loop from x up V on the table (rows, b), whose rows
    in keep are independent: (x, V, |Pg|, iterations, converged): converged
    on the plane, at min x >= _WALL and |Pg| <= tolerance; |Pg| None off it."""
    factor = _schur_solver(rows, keep)
    projector = factor(np.full(len(rows), -1.0))  # h = -1: it projects onto the null space of A_kept
    if projector is None:
        raise VerificationError(f"angle equations have rank below the {keep.sum()} rows kept")

    def value(v):
        return float(_lobachevsky_array(v).sum())

    def grad(v):
        return -np.log(np.abs(2.0 * np.sin(v)))

    def gradient_norm(v):  # |Pv|; G^-1 is bounded at h = -1, so no refinement
        p = projector(v)
        return math.sqrt(p @ p)

    fx = logs = None  # V and the barrier's sum(log x) at x, computed on the plane only
    g, gnorm = grad(x), None  # gnorm: |Pg| at x once computed
    residual = _residual(rows, b, x)
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
        residual = _residual(rows, b, x)
    on_plane = abs(residual).max() <= _ON_PLANE
    if on_plane and gnorm is None:
        gnorm = gradient_norm(g)
    converged = bool(on_plane and x.min() >= _WALL and gnorm <= tolerance)
    return x, value(x) if fx is None else fx, gnorm, it, converged


def maximize(tri: Triangulation, seed: AngleAssignment | None, tolerance: float, max_iters: int) -> MaximizeResult:
    """The body of volume.maximize_volume, on checked arguments."""
    rows, b = _layer_table(tri)
    if seed is not None:
        if 3 * len(seed.layers) != len(rows):
            raise ValueError("assignment and triangulation have different layer counts")
        x = (np.array([la.units for la in seed.layers]) / 24 * math.pi).ravel()
        if abs(_residual(rows, b, x)).max() > 1e-9 or x.min() <= 0:
            raise ValueError("seed assignment is not a strict angle structure")
    else:
        x = np.full(len(rows), math.pi / 3)
    # The chain rows sum to twice the layer rows: the last one is dependent.
    x, value, gnorm, it, converged = _newton(rows, b, np.arange(len(b)) < len(b) - 1, x, tolerance, max_iters)
    angles = x.reshape(-1, 3).take(tri.layer_of, axis=0)
    result = MaximizeResult(angles, 2.0 * value, gnorm, it, converged)
    if converged:  # the edge equations of the gluings; edge e carries pair min(e, 5 - e)
        off = abs(np.bincount(_labels(tri, "edge")[0], angles[:, [0, 1, 2, 2, 1, 0]].ravel()) - 2.0 * math.pi).max()
        if off > 1e-9:
            raise VerificationError(f"the maximum misses an edge equation by {off:.3g}")
    return result
