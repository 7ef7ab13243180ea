import ast
import hashlib
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import twobridge
from conftest import (
    SHAPES,
    all_normalized_words,
    constraint_system,
    disjoint_union,
    independent_rows,
    interior_point,
    maximize_gluing_table,
    pachner_23,
    triangle_pairs,
)
import twobridge._solver as solver
from twobridge._solver import _layer_table, _lobachevsky_array, _residual, _schur_solver
from twobridge.angles import assign_angles, expand_to_tetrahedra, theorem_family, verify_angle_structure
from twobridge.isosig import decode_isosig, encode_isosig
from twobridge.moves import simplify
from twobridge.triangulation import (
    Triangulation,
    VerificationError,
    build_sakuma_weeks,
    edge_classes,
    _labels,
    validate,
)
from twobridge.volume import (
    _LOBACHEVSKY_24,
    _ZETA_EVEN,
    assignment_volume,
    bounds_report,
    lobachevsky,
    maximize_volume,
    v3,
)
from twobridge.word import Word, enumerate_words, normalize, parse_word


def lobachevsky_quadrature(t):
    """Independent oracle: adaptive quadrature of -log|2 sin u|."""
    pts = [k * math.pi / 2 for k in range(-8, 9) if min(0, t) < k * math.pi / 2 < max(0, t)]
    val, _ = quad(lambda u: math.log(abs(2.0 * math.sin(u))), 0, t, points=pts or None, limit=400)
    return -val


def test_lobachevsky_against_quadrature():
    for t in (0.05, 0.3, math.pi / 6, math.pi / 4, math.pi / 3, 1.2, 1.5, 2.2, 3.0, 4.5, -1.1):
        assert abs(lobachevsky(t) - lobachevsky_quadrature(t)) < 1e-9


def test_lobachevsky_zero_and_maximum():
    assert lobachevsky(0.0) == 0.0
    assert abs(lobachevsky(math.pi / 6) - 0.5074708) < 1e-7
    # pi/6 is the maximum
    peak = lobachevsky(math.pi / 6)
    grid = [lobachevsky(x) for x in [k * 0.001 for k in range(1, 3142)]]
    assert max(grid) <= peak and peak - max(grid) < 1e-5


def test_lobachevsky_table_against_mpmath():
    # L(theta) = Cl_2(2 theta) / 2; the table's worst error is 2.25e-16
    with mpmath.workdps(50):
        for k, value in enumerate(_LOBACHEVSKY_24):
            exact = mpmath.clsin(2, 2 * mpmath.pi * k / 24) / 2
            assert abs(mpmath.mpf(value) - exact) <= 3e-16, k


def test_zeta_even_against_mpmath():
    # the literal table is zeta(2m) correctly rounded, so the series of L
    # and every volume built on it do not depend on where it came from
    assert len(_ZETA_EVEN) == 40
    with mpmath.workdps(50):
        for m, value in enumerate(_ZETA_EVEN, start=1):
            assert value == float(mpmath.zeta(2 * m)), m


def test_v3_value():
    assert abs(v3() - 3 * lobachevsky(math.pi / 3)) < 1e-15
    assert abs(v3() - 1.0149) < 5e-4


def test_identities_on_grid():
    for k in range(1000):
        t = -8.0 + 16.0 * k / 999
        assert abs(lobachevsky(-t) + lobachevsky(t)) < 1e-10
        assert abs(lobachevsky(t + math.pi) - lobachevsky(t)) < 1e-10
        assert abs(lobachevsky(2 * t) - 2 * lobachevsky(t) - 2 * lobachevsky(t + math.pi / 2)) < 1e-10


def test_gradient_matches_finite_differences():
    rng = random.Random(7)
    for _ in range(100):
        t = rng.uniform(0.02, math.pi - 0.02)
        h = 1e-6
        fd = (lobachevsky(t + h) - lobachevsky(t - h)) / (2 * h)
        assert abs(fd + math.log(abs(2 * math.sin(t)))) < 1e-5


SHAPE_RATIOS = {
    "I": 0.9902,
    "II": 0.9604,
    "III": 0.9024,
    "IV": 0.8855,
    "V": 0.8333,
    "VI": 0.7754,
    "VII": 0.7417,
    "VIII": 0.6768,
    "IX": 0.5833,
    "X2": 0.6666,
}


def tet_volume(angles):
    """Volume of the ideal tetrahedron with these angles, in units of pi."""
    return sum(lobachevsky(float(a) * math.pi) for a in angles)


def test_shape_volume_table():
    V3 = v3()
    assert abs(tet_volume(SHAPES["0"]) - V3) < 1e-15
    for name, ratio in SHAPE_RATIOS.items():
        assert abs(tet_volume(SHAPES[name]) / V3 - ratio) < 5e-4, name


def test_lobachevsky_array_matches_scalar():
    # the maximiser's objective: a regular tetrahedron has volume v3
    assert abs(float(np.sum(_lobachevsky_array(np.full(3, math.pi / 3)))) - v3()) <= 1e-15
    grid = np.linspace(-7.0, 7.0, 4001)[1:-1]
    scalar = np.array([lobachevsky(t) for t in grid])
    assert np.max(np.abs(_lobachevsky_array(grid) - scalar)) <= 1e-15


def test_lobachevsky_array_against_mpmath():
    # The blocked series against L(t) = Cl_2(2 t) / 2 at 50 digits where it
    # runs unreduced, |t| <= pi/2: its worst case |t| -> pi/2 (r = 1/4), t
    # near 0 and negative t.  Exact multiples of pi give 0.0, and arrays of
    # length 0 and 1 keep their shape.  The bound is under two units in the
    # last place of pi/2: near pi/2, t - t log 2t + t * series cancels to
    # about 0, and over 10,000 points there its roundings reach 3.8e-16
    # (3.5e-16 with the series summed term by term), while the series
    # itself is within 8e-17 either way.
    rng = np.random.default_rng(17)
    half, near = math.pi / 2, np.logspace(-16, -1, 40)
    tiny = np.logspace(-300, -2, 30)
    theta = np.concatenate([rng.uniform(-half, half, 120), half - near, near - half, tiny, -tiny, [half, -half]])
    with mpmath.workdps(50):
        for t, value in zip(theta.tolist(), _lobachevsky_array(theta).tolist()):
            assert abs(mpmath.mpf(value) - mpmath.clsin(2, 2 * mpmath.mpf(t)) / 2) <= 4e-16, t
        one = _lobachevsky_array(np.array([-0.3]))
        assert one.shape == (1,) and abs(mpmath.mpf(one[0]) + mpmath.clsin(2, mpmath.mpf(0.6)) / 2) <= 4e-16
    assert np.array_equal(_lobachevsky_array(np.arange(-6, 7) * math.pi), np.zeros(13))
    assert _lobachevsky_array(np.empty(0)).shape == (0,)


def test_lobachevsky_array_without_zeros_skips_the_masks_to_the_bit():
    # Input with no entry at a multiple of pi skips the masks for t = 0.
    # Mixed with zeros, -0.0 and multiples of pi, which take the masked
    # path, the same entries give the same bits, and the added ones 0.0.
    rng = np.random.default_rng(23)
    for size in (1, 72, 200):
        theta = rng.uniform(-7.0, 7.0, size)
        mixed = np.concatenate([theta, np.arange(-3, 4) * math.pi, [-0.0]])
        order = rng.permutation(len(mixed))
        values = np.empty(len(mixed))
        values[order] = _lobachevsky_array(mixed[order])
        assert values[:size].tobytes() == _lobachevsky_array(theta).tobytes()
        assert values[size:].tobytes() == np.zeros(8).tobytes()


def test_all_ones_volume_formula():
    vV = tet_volume(SHAPES["V"])
    V3 = v3()
    for n in range(1, 9):
        w = list(enumerate_words(n, {1}))[-1]
        expected = 2 * (2 * vV + (n - 1) * V3)
        assert abs(assignment_volume(assign_angles(w)) - expected) < 1e-12


def test_rl2r_volume_ratio():
    # (2 v_II + v_X2) / (3 v3); the generic squared-run pattern would give
    # 0.7952 (PRINTED_RATIOS["all B2, k=1"]).
    w = parse_word("RL^2R")
    tri = build_sakuma_weeks(w)
    ratio = assignment_volume(assign_angles(w)) / (tri.tet_count * v3())
    assert abs(ratio - 0.86247) < 1e-4


PRINTED_RATIOS = {
    "start B2, k=1": 0.8357,
    "start B3, m=1": 0.8889,
    "middle B3, m=1": 0.9028,
    "end B2, k=2": 0.7708,
    "end B2, k=3": 0.8031,
    "B3 + end B2, m=1": 0.8364,
    "B2 + B3 + end B2, k=m=1": 0.8365,
    "unfinished B3, m=2": 0.8582,
    "all B2, k=2": 0.8381,
    "all B2, k=1": 0.7952,
}


# The layer shapes of each block family behind the 0.8 lower bound, at the
# stated block parameters.
BLOCK_SHAPES = {
    "start B2, k=1": ["VII", "I", "VI"],
    "start B3, m=1": ["V", "I", "II", "IV", "VI"],
    "middle B3, m=1": ["I", "VI", "IV", "II"],
    "end B2, k=2": ["V", "V", "V", "IX"],
    "end B2, k=3": ["V", "V", "V", "V", "IX", "III"],
    "B3 + end B2, m=1": ["V", "I", "II", "IV", "VI"] + ["V", "V", "V", "IX"],
    "B2 + B3 + end B2, k=m=1": ["VII", "I", "VI"] + ["I", "VI", "IV", "II"] + ["V", "V", "V", "IX"],
    "unfinished B3, m=2": ["I", "VI", "III", "III", "III", "VIII"],
    "all B2, k=2": ["VII", "VII", "III", "III", "III"],
    "all B2, k=1": ["VII", "VII", "III"],
    "all B2, k=1, revised": ["II", "II", "X2"],
}


def theorem_ratios():
    """Each block family's volume ratio V / (|T| v3), from full-precision shape volumes."""
    return {
        label: sum(tet_volume(SHAPES[s]) for s in shapes) / (len(shapes) * v3())
        for label, shapes in BLOCK_SHAPES.items()
    }


def test_theorem_ratio_values():
    table = theorem_ratios()
    for label, printed in PRINTED_RATIOS.items():
        assert abs(table[label] - printed) < 1e-3, label
    # The revised single-squared-syllable assignment: its reference value
    # 0.8720 mixes absolute and relative volumes; the consistent value is
    # (2 * 0.9604 + 0.6666) / 3 = 0.8625.
    assert abs(table["all B2, k=1, revised"] - 0.8625) < 1e-3


def test_maximize_figure_eight():
    res = maximize_volume(build_sakuma_weeks(parse_word("RL")))
    assert res.converged
    assert abs(res.volume - 2.029883) < 1e-5
    # independent cross-check: two regular ideal tetrahedra, with the
    # regular volume evaluated by quadrature
    assert abs(res.volume - 6 * lobachevsky_quadrature(math.pi / 3)) < 1e-5


def test_maximize_dominates_explicit():
    V3 = v3()
    for w in enumerate_words(3, {1, 2}):
        tri = build_sakuma_weeks(w)
        seed = assign_angles(w)
        res = maximize_volume(tri, seed=seed)
        assert res.gradient_norm <= 1e-8
        assert res.volume >= assignment_volume(seed) - 1e-9
        assert res.volume <= tri.tet_count * V3 + 1e-9


def test_maximize_agrees_across_retriangulation():
    # the same manifold triangulated with 6 and with 5 tetrahedra
    from twobridge.moves import simplify

    tri = build_sakuma_weeks(parse_word("R^2LR"))
    small = simplify(tri).final
    a = maximize_volume(tri).volume
    b = maximize_gluing_table(small).volume
    assert abs(a - b) < 1e-7


def test_maximize_rejects_infeasible():
    # a one-tetrahedron complex with edge classes of degree 1 and 2
    tri = Triangulation(1)
    tri.glue(0, 0, 0, (1, 0, 3, 2))
    tri.glue(0, 2, 0, (0, 1, 3, 2))
    with pytest.raises(ValueError):
        maximize_gluing_table(tri)


def test_maximize_rejects_links_that_are_not_tori(monkeypatch):
    # Two tetrahedra with one edge class and one vertex, whose link has
    # Euler characteristic -2.  The edge equation (2 pi) contradicts the
    # tetrahedron equations (4 pi over the same twelve angles), yet it is
    # the equation dropped for the one cusp, and pi/3 solves the rest.
    tri = Triangulation(2)
    for f, perm in enumerate([(3, 1, 2, 0), (2, 0, 1, 3), (3, 2, 1, 0), (0, 1, 3, 2)]):
        tri.glue(0, f, 1, perm)
    assert validate(tri).vertex_link_eulers == [-2]
    calls = []

    def counted(theta):
        calls.append(len(theta))
        return _lobachevsky_array(theta)

    monkeypatch.setattr("twobridge._solver._lobachevsky_array", counted)
    with pytest.raises(ValueError):
        maximize_gluing_table(tri)
    # no Newton step moves the dropped row, so the loop stops at once
    assert len(calls) <= 5


def test_maximize_rejects_infeasible_pachner_copies():
    # six of the eight 2-3 moves on RL^2 leave no strict angle structure
    tri = build_sakuma_weeks(parse_word("RL^2"))
    rejected = 0
    for face, _ in triangle_pairs(tri):
        try:
            res = maximize_gluing_table(pachner_23(tri, face))
        except ValueError:
            rejected += 1
        else:
            assert res.converged and not res.on_boundary
            assert abs(res.volume - 2.828122088330783) <= 1e-12
    assert rejected == 6


def test_interior_point_solves_the_dense_system():
    # The LP verdict on its own: a strictly positive solution of the dense
    # reference equations where one exists, None where none does.
    tri = build_sakuma_weeks(parse_word("RL^2"))
    copies = [pachner_23(tri, face) for face, _ in triangle_pairs(tri)]
    points = [interior_point(*constraint_system(t)) for t in copies]
    assert [i for i, x in enumerate(points) if x is not None] == [1, 2]
    one_tet = Triangulation(1)
    one_tet.glue(0, 0, 0, (1, 0, 3, 2))
    one_tet.glue(0, 2, 0, (0, 1, 3, 2))
    assert interior_point(*constraint_system(one_tet)) is None
    r5l4 = build_sakuma_weeks(parse_word("R^5L^4"))
    for t, x in [(r5l4, interior_point(*constraint_system(r5l4))), (copies[1], points[1]), (copies[2], points[2])]:
        A, b = dense_system(t)
        assert x.shape == (A.shape[1],) and x.min() > 0
        assert np.max(np.abs(A @ x - b)) <= 1e-9


def test_maximum_on_the_walls_is_not_converged():
    # the 2-3 move across RLR's first triangle leaves a polytope whose
    # supremum of V is on the walls: a strict structure exists, but the
    # value is no hyperbolic volume
    tri = build_sakuma_weeks(parse_word("RLR"))
    res = maximize_gluing_table(pachner_23(tri, triangle_pairs(tri)[0][0]))
    assert res.on_boundary
    assert not res.converged


@pytest.mark.parametrize("max_iters", [0, 1])
def test_maximize_stops_unconverged_without_raising(max_iters):
    # A run cut short, unseeded or from the explicit structure, returns its
    # last point: no verdict on the input runs.  Its gradient norm is given
    # exactly where that point is on the plane.
    w = parse_word("RL^2R")
    for tri, seed in [(build_sakuma_weeks(parse_word("R^5L^4")), None), (build_sakuma_weeks(w), assign_angles(w))]:
        res = maximize_volume(tri, seed=seed, max_iters=max_iters)
        assert not res.converged and res.iterations == max_iters
        off = abs(_residual(*_layer_table(tri), res.angles[::2].ravel())).max()
        assert (res.gradient_norm is None) == (off > 1e-12)
    assert res.gradient_norm is not None  # the seed is on the plane, and a step from it stays there


def test_seeded_run_cut_short_skips_the_lp():
    # The seed is checked to be a strict solution and is the start itself:
    # no starting point is solved for, so a run cut short at 0 iterations
    # returns the seed's point and its volume.
    w = parse_word("RL^2R")
    seed = assign_angles(w)
    res = maximize_volume(build_sakuma_weeks(w), seed=seed, max_iters=0)
    assert not res.converged and res.iterations == 0
    assert abs(res.volume - assignment_volume(seed)) < 1e-12
    tri = build_sakuma_weeks(w)
    seed_rows = sorted(sorted(math.pi * float(a) for a in t) for t in expand_to_tetrahedra(seed, tri))
    assert np.allclose(sorted(sorted(row) for row in res.angles.tolist()), seed_rows)


def run_fresh(code):
    """stdout of code run in a fresh interpreter that imports this twobridge."""
    env = dict(os.environ)
    root = str(Path(twobridge.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_src_imports_neither_scipy_optimize_nor_sparse():
    # The maximiser's steps are banded Cholesky solves (scipy.linalg) on an
    # integer table of the equations.  The linear program, which needs
    # scipy.optimize and scipy.sparse, is a test-side oracle.
    banned = ("scipy.optimize", "scipy.sparse")
    for path in Path(twobridge.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            assert not [x for x in names if x.startswith(banned)], (path.name, names)


def test_volume_on_builder_words_loads_neither_scipy_optimize_nor_sparse():
    # In a fresh interpreter, unseeded runs on builder words load neither
    # module (nor SuperLU in scipy.sparse.linalg).
    code = (
        "import sys\n"
        "from twobridge import build_sakuma_weeks, maximize_volume, parse_word\n"
        "for text in ('RL^3R', 'R^5L^4'):\n"
        "    assert maximize_volume(build_sakuma_weeks(parse_word(text))).converged\n"
        "print(*(m in sys.modules for m in ('scipy.optimize', 'scipy.sparse', 'scipy.sparse.linalg')))\n"
    )
    assert run_fresh(code) == "False False False"


def test_import_uses_the_stdlib_only():
    # numpy and scipy load with the solver, on the first maximize_volume call
    code = "import sys, twobridge\nprint('numpy' in sys.modules, 'scipy' in sys.modules)\n"
    assert run_fresh(code) == "False False"


def test_survey_and_bounds_use_the_stdlib_only():
    code = (
        "import contextlib, io, sys\n"
        "from twobridge import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['survey', '--max-n', '4']), cli.main(['bounds', 'R^2LR'])]\n"
        "print(codes, 'numpy' in sys.modules)\n"
    )
    assert run_fresh(code) == "[0, 0] False"


def test_triangulation_commands_use_the_stdlib_only():
    # The other commands that README says need only the standard library
    commands = [["blocks", "RL^2R"], ["angles", "RL^2R"], ["edges", "RL^2R"]]
    commands += [["build", "RL^2R", "--isosig"], ["simplify", "RL^2R", "--isosig"]]
    code = (
        "import contextlib, io, sys\n"
        "from twobridge import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(args) for args in {commands!r}]\n"
        "print(codes, 'numpy' in sys.modules)\n"
    )
    assert run_fresh(code) == "[0, 0, 0, 0, 0] False"


def test_maximize_rejects_empty_triangulation():
    with pytest.raises(ValueError, match="no tetrahedra"):
        maximize_volume(Triangulation(0))


def test_maximize_rejects_bad_seed():
    w = parse_word("RLR")
    other = parse_word("RL^2R")
    with pytest.raises(ValueError, match="different layer counts"):
        maximize_volume(build_sakuma_weeks(other), seed=assign_angles(w))


def test_maximize_rejects_a_seed_of_another_word_of_the_same_length():
    # RLRLR spreads over RL^2RL's 8 tetrahedra but misses its edge equations
    with pytest.raises(ValueError, match="seed assignment is not a strict angle structure"):
        maximize_volume(build_sakuma_weeks(parse_word("RL^2RL")), seed=assign_angles(parse_word("RLRLR")))


def dense_system(tri):
    """Dense A and b of the angle equations, built from the edge-class table.

    A reference apart from constraint_system: column 3t + p, the angle on
    pair p of tetrahedron t (edges p and 5 - p), has 1 in row t and 1 per
    edge end in each edge-class row n + c.
    """
    n, table = tri.tet_count, edge_classes(tri)
    A = np.zeros((n + len(table), 3 * n))
    for t in range(n):
        A[t, 3 * t : 3 * t + 3] = 1.0
    for c in table.classes:
        for t, e in c.embeddings:
            A[n + c.index, 3 * t + min(e, 5 - e)] += 1.0
    b = np.concatenate([np.full(n, math.pi), np.full(len(table), 2.0 * math.pi)])
    return A, b


def angle_residual(tri, res):
    """max |A x - b| over every angle equation, dropped rows included."""
    A, b = dense_system(tri)
    return float(np.max(np.abs(A @ res.angles.ravel() - b)))


def test_maximize_converges_from_lp_start():
    # Guéritaud-Futer: builder triangulations are geometric, so the maximum
    # is an interior critical point.  R^5L^4 and R^5L^3R used to stall on
    # the positivity walls with volumes 5.6398 and 7.7321.
    for w in all_normalized_words(8) + [parse_word("R^5L^4"), parse_word("R^5L^3R")]:
        tri = build_sakuma_weeks(w)
        res = maximize_volume(tri)
        assert res.converged and not res.on_boundary, str(w)
        assert res.gradient_norm <= 1e-10, str(w)
        # Each Newton step also corrects the residual of A x = b, which
        # keeps it at rounding level; without that, it drifts to about
        # 8e-14 here.
        assert angle_residual(tri, res) <= 3e-14, str(w)


def test_maximize_on_theorem_family(words_ell10):
    # Casson-Rivin: the maximum of V over the angle polytope is the
    # hyperbolic volume, so it bounds the explicit structure from above;
    # the seeded and the unseeded runs find the same point
    family = [w for w in words_ell10 if theorem_family(w)]
    assert len(family) == 87
    for w in family:
        tri = build_sakuma_weeks(w)
        seed = assign_angles(w)
        seeded, unseeded = maximize_volume(tri, seed=seed), maximize_volume(tri)
        for res in (seeded, unseeded):
            assert res.converged and not res.on_boundary, str(w)
        assert abs(seeded.volume - unseeded.volume) <= 1e-12, str(w)
        assert assignment_volume(seed) <= seeded.volume + 1e-12, str(w)
        assert verify_angle_structure(tri, unseeded.angles).passed, str(w)


def test_maximum_verifies_on_simplified_triangulations():
    # Off builder output too, a converged maximum is an angle structure:
    # the simplified triangulation of every word with at most 7 letters
    # (simplify changes 100 of the 120).
    moved = 0
    for w in all_normalized_words(7):
        trace = simplify(build_sakuma_weeks(w))
        res = maximize_gluing_table(trace.final)
        if res.converged:
            assert verify_angle_structure(trace.final, res.angles).passed, str(w)
            moved += bool(trace.moves)
    assert moved >= 100


def reverse(w):
    return normalize(Word(tuple(reversed(w.syllables))))


def test_reversal_keeps_the_maximum(words_ell8):
    # w and its reverse name the same link, so the unseeded maxima agree
    maxima = {}

    def maximum(w):
        if str(w) not in maxima:
            res = maximize_volume(build_sakuma_weeks(w))
            assert res.converged, str(w)
            maxima[str(w)] = res.volume
        return maxima[str(w)]

    for w in words_ell8:
        assert abs(maximum(w) - maximum(reverse(w))) <= 1e-12, str(w)


def test_simplify_keeps_the_maximum(words_ell8):
    # 3-2 and 4-4 moves retriangulate the same manifold
    smaller = 0
    for w in (w for w in words_ell8 if w.ell <= 7):
        tri = build_sakuma_weeks(w)
        final = simplify(tri).final
        if final.tet_count == tri.tet_count:
            continue
        smaller += 1
        a, b = maximize_volume(tri), maximize_gluing_table(final)
        assert a.converged and b.converged, str(w)
        assert abs(a.volume - b.volume) <= 1e-12, str(w)
    assert smaller > 0


@pytest.mark.parametrize(
    "text, volume",
    [
        ("R^5L^4", 6.1028031649747),
        ("R^5L^3R", 8.5620421364530),
        ("RL^2RLR^6", 11.109934377028),
    ],
)
def test_reversed_words_give_equal_volumes(text, volume):
    w = parse_word(text)
    tri, rev = build_sakuma_weeks(w), build_sakuma_weeks(reverse(w))
    assert encode_isosig(tri) == encode_isosig(rev)
    a, b = maximize_volume(tri), maximize_volume(rev)
    assert a.converged and b.converged
    assert abs(a.volume - b.volume) <= 1e-9
    assert abs(a.volume - volume) <= 1e-12
    assert angle_residual(tri, a) <= 1e-12 and angle_residual(rev, b) <= 1e-12


# Seeded maximum volumes of enumerate_words(4, {1, 2}) from an independent
# solver (Newton in an SVD basis of the null space of the angle equations).
FAMILY_VOLUMES = {
    "RLR": 3.6638623767088765,
    "RL^2R": 5.333489566898121,
    "RLRL": 5.693021091281302,
    "RLR^2L": 7.08492595351083,
    "RL^2RL": 7.08492595351083,
    "RL^2R^2L": 8.93585692748669,
    "RLRLR": 7.643375172359958,
    "RLRL^2R": 9.21780031602193,
    "RLR^2LR": 8.83066495490773,
    "RLR^2L^2R": 10.7590466407903,
    "RL^2RLR": 9.217800316021929,
    "RL^2RL^2R": 10.611348294052513,
    "RL^2R^2LR": 10.7590466407903,
    "RL^2R^2L^2R": 12.580605368056585,
    "RLRLRL": 9.672807730794686,
    "RLRLR^2L": 11.188477802451693,
    "RLRL^2RL": 10.999980958287122,
    "RLRL^2R^2L": 12.88874033027649,
    "RLR^2LRL": 10.999980958287114,
    "RLR^2LR^2L": 12.376615498635042,
    "RLR^2L^2RL": 12.602596114262077,
    "RLR^2L^2R^2L": 14.408873050322358,
    "RL^2RLRL": 11.1884778024517,
    "RL^2RLR^2L": 12.800390354861703,
    "RL^2RL^2RL": 12.37661549863504,
    "RL^2RL^2R^2L": 14.312645234676994,
    "RL^2R^2LRL": 12.888740330276482,
    "RL^2R^2LR^2L": 14.312645234676989,
    "RL^2R^2L^2RL": 14.408873050322363,
    "RL^2R^2L^2R^2L": 16.241112562797255,
}


def test_family_volumes_golden():
    words = list(enumerate_words(4, {1, 2}))
    assert [str(w) for w in words] == list(FAMILY_VOLUMES)
    for w in words:
        tri = build_sakuma_weeks(w)
        res = maximize_volume(tri, seed=assign_angles(w))
        assert res.converged
        assert abs(res.volume - FAMILY_VOLUMES[str(w)]) <= 1e-12, str(w)
        assert angle_residual(tri, res) <= 1e-12, str(w)


def test_cusp_relations_leave_independent_rows():
    # the angle equations have rank 2n - c; dropping one edge row per cusp
    # leaves exactly that many rows, all independent
    for w in all_normalized_words(8):
        tri = build_sakuma_weeks(w)
        final = simplify(tri).final
        for t in (tri,) if final is tri else (tri, final):
            dense, _ = dense_system(t)
            keep = independent_rows(t)
            expected = 2 * t.tet_count - len(_labels(t, "vertex")[1])
            assert keep.sum() == expected, str(w)
            assert np.linalg.matrix_rank(dense) == expected, str(w)
            assert np.linalg.matrix_rank(dense[keep]) == expected, str(w)


def seed_angles(seed):
    """The angle vector of an explicit assignment over the tetrahedra, pair by pair."""
    return np.array([float(q) * math.pi for la in seed.layers for _ in (0, 1) for q in la.triple])


def layer_angles(seed):
    """The angle vector of an explicit assignment over its layers, the layer table's order."""
    return np.array([float(q) * math.pi for la in seed.layers for q in la.triple])


def test_seed_is_the_explicit_structure_to_the_bit(monkeypatch):
    # maximize reads the seed from the integer angles in units of pi/24; the
    # first evaluation of V sees exactly the 3m layer angles, the Fractions
    # times pi.  The words cover the 25 layer arrangements used up to 10
    # inner syllables, and every multiple of pi/24 converts alike.
    exact = np.array([float(Fraction(k, 24)) * math.pi for k in range(25)])
    assert (np.arange(25) / 24 * math.pi).tobytes() == exact.tobytes()

    class Seen(Exception):
        pass

    def first_value(theta):
        raise Seen(theta)

    monkeypatch.setattr(solver, "_lobachevsky_array", first_value)
    for w in enumerate_words(6, {1, 2}):
        seed = assign_angles(w)
        with pytest.raises(Seen) as seen:
            maximize_volume(build_sakuma_weeks(w), seed=seed)
        assert seen.value.args[0].tobytes() == layer_angles(seed).tobytes(), str(w)


def test_newton_step_matches_dense_kkt():
    # The Schur-complement step and projection equal a dense solve of
    # [[diag(h), A_kept^T], [A_kept, 0]]: at x = pi/3 (off the edge
    # equations), at a point off the tetrahedron equations too, and at the
    # seed.  The 2-3 copies have other cusp structures, hence other dropped
    # rows; the layer table of builder output drops its last chain row.
    # The gluing tables rebuild the dense reference exactly.
    rng = np.random.default_rng(3)
    mu = 0.01
    for w in all_normalized_words(8):
        tri = build_sakuma_weeks(w)
        pairs = triangle_pairs(tri)
        seed = assign_angles(w) if theorem_family(w) else None
        tables = []
        for t in (tri, simplify(tri).final, pachner_23(tri, pairs[0][0]), pachner_23(tri, pairs[-1][0])):
            rows, b = constraint_system(t)
            A, dense_b = dense_system(t)
            rebuilt = np.zeros_like(A)
            np.add.at(rebuilt, (rows, np.arange(len(rows))[:, None]), 1.0)
            assert rows.shape == (A.shape[1], 3) and np.array_equal(rebuilt, A) and np.array_equal(b, dense_b), str(w)
            tables.append((rows, b, A, independent_rows(t), None if seed is None or t is not tri else seed_angles(seed)))
        rows, b = _layer_table(tri)
        layer_seed = None if seed is None else layer_angles(seed)
        tables.append((rows, b, dense_layer_table(tri)[0], np.arange(len(b)) < len(b) - 1, layer_seed))
        for rows, b, A, keep, seed_point in tables:
            n = A.shape[1]
            factor = _schur_solver(rows, keep)
            kept = A[keep]
            points = [np.full(n, math.pi / 3), math.pi / 3 + rng.uniform(-0.2, 0.2, n)]
            if seed_point is not None:
                points.append(seed_point)
            for x in points:
                g = -np.log(np.abs(2.0 * np.sin(x)))
                newton = (-1.0 / np.tan(x) - mu / x**2, g + mu / x, A @ x - b)
                projection = (np.full(n, -1.0), g, np.zeros(len(b)))
                for h, ascent, residual in (newton, projection):
                    kkt = np.block([[np.diag(h), kept.T], [kept, np.zeros((len(kept), len(kept)))]])
                    reference = np.linalg.solve(kkt, np.concatenate([-ascent, -residual[keep]]))[:n]
                    step = factor(h)(ascent, residual)
                    scale = max(np.linalg.norm(reference), np.linalg.norm(ascent))
                    assert np.linalg.norm(step - reference) <= 1e-9 * scale, str(w)


def test_projection_needs_no_refinement():
    # At h = -1 every block G^-1 is the same bounded matrix, so the gradient
    # projection behind gradient_norm skips the refinement pass: unrefined,
    # it is within rounding (about 1.4e-15 relative here) of the dense one.
    rng = np.random.default_rng(5)
    for w in all_normalized_words(6):
        tri = build_sakuma_weeks(w)
        for t in (tri, pachner_23(tri, triangle_pairs(tri)[-1][0])):
            rows, b = constraint_system(t)
            A, _ = dense_system(t)
            n = A.shape[1]
            keep = independent_rows(t)
            kept = A[keep]
            g = -np.log(np.abs(2.0 * np.sin(math.pi / 3 + rng.uniform(-0.2, 0.2, n))))
            kkt = np.block([[-np.eye(n), kept.T], [kept, np.zeros((len(kept), len(kept)))]])
            reference = np.linalg.solve(kkt, np.concatenate([-g, np.zeros(len(kept))]))[:n]
            step = _schur_solver(rows, keep)(np.full(n, -1.0))(g)  # no residual: a projection, unrefined
            assert np.linalg.norm(step - reference) <= 1e-13 * np.linalg.norm(g), str(w)


def test_pair_blocks_match_the_reduced_inverse():
    # The closed form adj(h) / det of N G^-1 N^T, per tetrahedron over its
    # three pairs, against the product of the matrices in exact arithmetic,
    # on h < 0 over 14 orders of magnitude.
    h = -np.exp(np.random.default_rng(11).uniform(-16.0, 16.0, 3 * 300))
    blocks = solver._pair_blocks(h)
    assert blocks.shape == (300, 3, 3)
    N = [[Fraction(int(x)) for x in row] for row in solver._REDUCE]
    for block, (h1, h2, h3) in zip(blocks, h.reshape(-1, 3).tolist()):
        a, b, c = Fraction(h1), Fraction(h2), Fraction(h3)
        det = (a + c) * (b + c) - c * c
        inverse = [[(b + c) / det, -c / det], [-c / det, (a + c) / det]]  # G^-1, G = N^T diag(h) N
        exact = [[sum(N[i][k] * inverse[k][m] * N[j][m] for k in range(2) for m in range(2)) for j in range(3)] for i in range(3)]
        scale = max(abs(x) for row in exact for x in row)
        assert max(abs(Fraction(float(block[i, j])) - exact[i][j]) for i in range(3) for j in range(3)) <= 1e-15 * scale


@pytest.mark.parametrize("text", ["R^9L", "RL^9", "R^10L", "RLR^9", "RL^10"])
def test_unseeded_newton_converges_on_long_end_syllables(text):
    # Of the 2036 normalised words with ell <= 11, RL^9, RL^10 and RLR^9
    # end unconverged when the Newton step skips its refinement pass; so do
    # R^9L and R^10L when N G^-1 N^T is formed by matrix products.
    assert maximize_volume(build_sakuma_weeks(parse_word(text))).converged


def test_newton_step_is_accurate_near_flat_tetrahedra():
    # At the maximum of this 2-3 copy one tetrahedron is nearly flat
    # (angles about 0.0013, 0.0018 and pi - 0.0032), so G^-1 is large; the
    # step there is about 1e-11.  The dense solve is off by about 1e-15;
    # refining only the edge rows leaves 2e-14, no refinement 1e-13.
    tri = build_sakuma_weeks(parse_word("RL^2RLRLR"))
    t = pachner_23(tri, triangle_pairs(tri)[0][0])
    res = maximize_gluing_table(t)
    assert res.converged and res.iterations == 13
    x = res.angles.ravel()
    assert x.min() < 0.002 and x.max() > math.pi - 0.004
    A, b = dense_system(t)
    keep = independent_rows(t)
    kept = A[keep]
    g, h, residual = -np.log(np.abs(2.0 * np.sin(x))), -1.0 / np.tan(x), A @ x - b
    kkt = np.block([[np.diag(h), kept.T], [kept, np.zeros((len(kept), len(kept)))]])
    reference = np.linalg.solve(kkt, np.concatenate([-g, -residual[keep]]))[: len(x)]
    step = _schur_solver(constraint_system(t)[0], keep)(h)(g, residual)
    assert np.max(np.abs(step - reference)) <= 5e-15


@pytest.fixture(scope="module")
def newton_runs():
    """(word, triangulation, maximum) of the 247 normalised words with
    ell <= 8, seeded by the explicit structure where theorem_family holds."""
    runs = []
    for w in all_normalized_words(8):
        tri = build_sakuma_weeks(w)
        runs.append((w, tri, maximize_volume(tri, seed=assign_angles(w) if theorem_family(w) else None)))
    return runs


def test_newton_trajectories_are_pinned(newton_runs):
    # Pinned iteration counts and flags: a change that only makes Newton
    # iterations cheaper keeps them; one that moves the step control, the
    # series or the accuracy of the solve shows here.
    runs = [(str(w), res.iterations, res.converged) for w, _, res in newton_runs]
    assert len(runs) == 247 and all(converged for _, _, converged in runs)
    # The repr of a numpy scalar differs from that of a Python one: say so here, not as a digest mismatch.
    for word, iterations, converged in runs:
        assert type(converged) is bool and type(iterations) is int, (word, type(converged), type(iterations))
    digest = hashlib.sha256(repr(runs).encode()).hexdigest()
    assert digest == "62f05dffb317e7d4a2a125822465c327d8d208aab02516cb684eeea17b00d313"


def test_converged_means_interior_on_the_plane(newton_runs):
    # The Newton loop gives the one verdict: a converged point is on the
    # layer table's equations to rounding, off the walls, and has a
    # gradient norm.
    for w, tri, res in newton_runs:
        if res.converged:
            residual = _residual(*_layer_table(tri), res.angles[::2].ravel())
            assert not res.on_boundary and abs(residual).max() <= 1e-12, str(w)
            assert type(res.gradient_norm) is float and res.gradient_norm <= 1e-10, str(w)


def gluing_orientation(tri):
    """s_t = +-1 per tetrahedron, with s_t' = -s_t sgn(perm) across every
    gluing, s_0 = 1; asserts that the gluings agree on it."""
    s, stack = [0] * tri.tet_count, [0]
    s[0] = 1
    while stack:
        t = stack.pop()
        for f in range(4):
            t2, perm = tri.gluing(t, f)
            sign = -s[t] * (-1) ** sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
            if not s[t2]:
                s[t2] = sign
                stack.append(t2)
            assert s[t2] == sign, "the gluings reverse an orientation"
    return np.array(s)


def edge_moduli(tri, angles):
    """Per edge class, the sum over its edges of s_t (log sin a_{p-1} -
    log sin a_{p+1}), a_q the angle on pair q of tetrahedron t and p the
    edge's pair: minus the log-modulus of its gluing equation.  The edge
    equations hold at the hyperbolic structure, so these are 0 there."""
    s = gluing_orientation(tri)
    logs = np.log(np.sin(np.asarray(angles, dtype=float).reshape(-1, 3)))
    moduli = np.zeros(len(edge_classes(tri)))
    for c in edge_classes(tri).classes:
        for t, e in c.embeddings:
            p = min(e, 5 - e)
            moduli[c.index] += s[t] * (logs[t, (p - 1) % 3] - logs[t, (p + 1) % 3])
    return moduli


def test_maximum_solves_the_edge_equations(newton_runs):
    # Casson-Rivin: the critical point of V is the hyperbolic structure, so
    # the log-moduli of Thurston's edge equations, read off the gluings and
    # the angles alone, are 0 there.  An explicit structure is strict but
    # not critical: on RL^2R^2LR its worst edge is off by log 4.
    for w, tri, res in newton_runs:
        assert res.converged and np.max(np.abs(edge_moduli(tri, res.angles))) <= 1e-9, str(w)
    # The builder orients every tetrahedron alike; the isosig copies mix
    # both orientations, so there the check needs the gluing parity.
    for w in all_normalized_words(6):
        tri = decode_isosig(encode_isosig(build_sakuma_weeks(w)))
        res = maximize_gluing_table(tri)
        assert set(gluing_orientation(tri)) == {-1, 1}, str(w)
        assert res.converged and np.max(np.abs(edge_moduli(tri, res.angles))) <= 1e-9, str(w)
    w = parse_word("RL^2R^2LR")
    explicit = edge_moduli(build_sakuma_weeks(w), seed_angles(assign_angles(w)))
    assert abs(np.max(np.abs(explicit)) - math.log(4)) <= 1e-12


def test_dependent_rows_raise_verification_error(monkeypatch):
    # The layer table keeps no dependent row once its last chain row is
    # dropped (test_layer_table_drops_its_one_dependent_row), so every chain
    # row is kept here: the rows are then dependent, and S singular.
    newton = solver._newton
    monkeypatch.setattr(solver, "_newton", lambda rows, b, keep, *rest: newton(rows, b, np.ones_like(keep), *rest))
    for text in ("RL", "R^2LR", "RL^2RLR^6"):
        with pytest.raises(VerificationError):
            maximize_volume(build_sakuma_weeks(parse_word(text)))


def random_words(count, max_exponent, rng):
    """count normalised words of 2 to 8 syllables with exponents up to max_exponent."""
    return [
        normalize(Word(tuple(("RL"[i % 2], rng.randint(1, max_exponent)) for i in range(rng.randint(2, 8)))))
        for _ in range(count)
    ]


@pytest.fixture(scope="module")
def layer_words(words_ell8):
    """The 247 normalised words with ell <= 8 and 20 random ones with exponents up to 12."""
    return words_ell8 + random_words(20, 12, random.Random(36))


def dense_layer_table(tri):
    """Dense A and b of _layer_table."""
    rows, b = _layer_table(tri)
    A = np.zeros((len(b), len(rows)))
    np.add.at(A, (rows, np.arange(len(rows))[:, None]), 1.0)
    return A, b


def test_twin_chains_group_classes_by_their_layer_rows(layer_words):
    # Read on the 3m layer angles (cell (t, e) at layer t // 2, pair
    # min(e, 5 - e)), the edge classes come in groups of equal rows.  A group
    # of two is a chain with target 2 pi, a group of one a fold chain whose
    # row halves to target pi.  The table built by the twin rule is exactly
    # the layer rows and these chains, in order of their smallest class.
    for w in layer_words:
        tri = build_sakuma_weeks(w)
        m, classes = tri.tet_count // 2, edge_classes(tri).classes
        weights = np.zeros((len(classes), 3 * m))
        for c in classes:
            for t, e in c.embeddings:
                weights[c.index, 3 * (t // 2) + min(e, 5 - e)] += 1.0
        groups = {}
        for c in range(len(classes)):
            groups.setdefault(weights[c].tobytes(), []).append(c)
        assert {len(g) for g in groups.values()} <= {1, 2}, str(w)
        chains = sorted(groups.values())
        expected = np.vstack([np.kron(np.eye(m), np.ones(3))] + [weights[g[0]] * len(g) / 2 for g in chains])
        targets = [math.pi] * m + [math.pi * len(g) for g in chains]
        A, b = dense_layer_table(tri)
        assert np.array_equal(A, expected) and np.array_equal(b, targets), str(w)


def test_layer_table_drops_its_one_dependent_row(layer_words):
    # Every angle has weight 2 over the chains and the targets agree, so
    # the chain rows sum to twice the layer rows: the last chain row depends
    # on the others.  Without it the rows are independent, so the table has
    # rank rows - 1.
    for w in layer_words:
        A, b = dense_layer_table(build_sakuma_weeks(w))
        m = A.shape[1] // 3
        assert np.array_equal(A[m:].sum(0), 2 * A[:m].sum(0)), str(w)
        assert math.isclose(b[m:].sum(), 2 * b[:m].sum(), rel_tol=1e-15), str(w)
        assert np.linalg.matrix_rank(A[:-1]) == len(b) - 1, str(w)


def test_layer_maximum_is_the_gluing_table_maximum(layer_words):
    # The maximum on the layer triples, spread over the tetrahedra, is the
    # maximum over all 3n angles of the gluing table.
    for w in layer_words:
        tri = build_sakuma_weeks(w)
        layer, full = maximize_volume(tri), maximize_gluing_table(tri)
        assert layer.converged and full.converged, str(w)
        assert abs(layer.volume - full.volume) <= 1e-12, str(w)
        assert np.max(np.abs(layer.angles - full.angles)) <= 1e-8, str(w)


def relabelled(tri, sigma, layer_of):
    """tri with tetrahedron t renumbered sigma[t], carrying layer_of."""
    out = Triangulation(tri.tet_count, layer_of)
    for t in range(tri.tet_count):
        for f in range(4):
            t2, perm = tri.gluing(t, f)
            if out.gluing(sigma[t], f) is None:
                out.glue(sigma[t], f, sigma[t2], perm)
    return out


def test_layers_that_do_not_match_the_gluings_raise(words_ell8):
    # Hand-built layer metadata: none, layers other than tetrahedra 2k and
    # 2k + 1, and builder layers on gluings whose tetrahedra 1 and 2 swapped
    # places, which splits layers 0 and 1 (on RL and RLR, of ell < 4, a
    # symmetry makes the swap harmless).
    tri = build_sakuma_weeks(parse_word("RL^2R"))
    for layer_of in (None, (2, 2, 1, 1, 0, 0), (0, 1, 0, 1, 2, 2)):
        with pytest.raises(ValueError, match="layer metadata"):
            maximize_volume(relabelled(tri, range(6), layer_of))
    with pytest.raises(ValueError, match="layer metadata"):
        maximize_volume(Triangulation(3, (0, 0, 0)))
    for w in (w for w in words_ell8 if w.ell >= 4):
        tri = build_sakuma_weeks(w)
        swapped = relabelled(tri, [0, 2, 1, *range(3, tri.tet_count)], tri.layer_of)
        with pytest.raises(VerificationError, match="layers do not match the gluings"):
            maximize_volume(swapped)


def test_converged_point_off_the_gluing_equations_raises(monkeypatch):
    # The table of RLRLR on RL^2RL (both 8 tetrahedra): the loop converges,
    # and the check on the edge equations of the gluings catches the point.
    other = _layer_table(build_sakuma_weeks(parse_word("RLRLR")))
    monkeypatch.setattr(solver, "_layer_table", lambda tri: other)
    with pytest.raises(VerificationError, match="misses an edge equation"):
        maximize_volume(build_sakuma_weeks(parse_word("RL^2RL")))


def test_failed_factorisation_takes_the_projector_step(monkeypatch):
    # Every Newton factorisation reports a non-positive pivot (info > 0), as
    # LAPACK does when S is not positive definite: the loop must step with
    # the projector's factor and never solve with a failed one.
    good, failed, used = [], [], []
    real_factor, real_solve = solver.dpbtrf, solver.dpbtrs

    def factor(band, lower):
        cholesky, info = real_factor(band, lower=lower)
        if not good:  # the projector's factorisation, at h = -1
            good.append(cholesky)
            return cholesky, info
        failed.append(cholesky)
        return cholesky, info + 1

    def solve(cholesky, rhs, lower):
        used.append(cholesky)
        return real_solve(cholesky, rhs, lower=lower)

    tri = build_sakuma_weeks(parse_word("RL^2R"))
    expected = maximize_volume(tri).volume
    monkeypatch.setattr(solver, "dpbtrf", factor)
    monkeypatch.setattr(solver, "dpbtrs", solve)
    res = maximize_volume(tri)
    assert res.iterations >= 1 and len(failed) >= 1
    assert used and all(c is good[0] for c in used)
    assert not any(c is f for c in used for f in failed)
    # projected-gradient steps are slower, but they reach the same maximum
    assert res.converged and abs(res.volume - expected) <= 1e-9


def long_family_word(ell, rng):
    """A paper-family word R L^a1 R^a2 ... X, a_i in {1, 2}, with ell letters."""
    inner, letters = [], 0
    while letters < ell - 2:
        exp = min(rng.choice((1, 2)), ell - 2 - letters)
        inner.append(("LR"[len(inner) % 2], exp))
        letters += exp
    closing = "R" if inner[-1][0] == "L" else "L"
    return Word((("R", 1),) + tuple(inner) + ((closing, 1),))


@pytest.mark.parametrize("ell", [60, 155, 250])
def test_schur_band_stays_narrow_on_long_words(ell, monkeypatch):
    # In class order the Schur complement is banded; a class numbering that
    # widened the band would make every Newton step quadratic in ell.
    widths = []
    real_factor = solver.dpbtrf

    def factor(band, lower):
        widths.append(band.shape[0] - 1)
        return real_factor(band, lower=lower)

    monkeypatch.setattr(solver, "dpbtrf", factor)
    tri = build_sakuma_weeks(long_family_word(ell, random.Random(ell)))
    rows, b = _layer_table(tri)
    assert _schur_solver(rows, np.arange(len(b)) < len(b) - 1)(np.full(len(rows), -1.0)) is not None
    assert len(widths) == 1 and widths[0] <= 12


def test_solver_work_per_iteration(monkeypatch):
    # Pinned LAPACK calls: one band factorisation for the projector and one
    # per Newton step; two band solves per (refined) Newton step and one per
    # gradient norm, computed on every iteration that starts on the plane.
    # An unseeded census-size run starts off the plane, a seeded long one on it.
    calls = {"factor": 0, "solve": 0}
    real_factor, real_solve = solver.dpbtrf, solver.dpbtrs

    def factor(band, lower):
        calls["factor"] += 1
        return real_factor(band, lower=lower)

    def solve(cholesky, rhs, lower):
        calls["solve"] += 1
        return real_solve(cholesky, rhs, lower=lower)

    monkeypatch.setattr(solver, "dpbtrf", factor)
    monkeypatch.setattr(solver, "dpbtrs", solve)
    w = long_family_word(155, random.Random(155))
    runs = [(build_sakuma_weeks(parse_word("RL^2RLR^3LRL^2R")), None), (build_sakuma_weeks(w), assign_angles(w))]
    for (tri, seed), (steps, norms) in zip(runs, [(5, 4), (5, 6)]):
        calls.update(factor=0, solve=0)
        res = maximize_volume(tri, seed=seed)
        assert res.converged and res.iterations == steps + 1
        assert calls == {"factor": 1 + steps, "solve": 2 * steps + norms}


def test_many_cusps_split_by_word():
    # V and the angle polytope of a disjoint union are products over its
    # parts, so the maximum is the sum of the parts' maxima; and the cusp
    # elimination keeps, part by part, the rows it keeps on each alone.
    # 41 words give 47 cusps: without the gcd, the elimination's integers
    # doubled in length with each cusp, and this did not end in 30 s.
    parts = [build_sakuma_weeks(w) for w in all_normalized_words(10)[::25]]
    union = disjoint_union(*parts)
    start = time.perf_counter()
    res = maximize_gluing_table(union)
    assert time.perf_counter() - start < 1.0 and res.converged
    assert abs(res.volume - sum(maximize_volume(p).volume for p in parts)) <= 1e-9
    masks = [(independent_rows(p), p.tet_count) for p in parts]
    expected = np.concatenate([m[:n] for m, n in masks] + [m[n:] for m, n in masks])
    assert np.array_equal(independent_rows(union), expected)


def test_bounds_report_corollary_example():
    # inner word with n = 3 syllables, one of exponent 2
    r = bounds_report(parse_word("RL^2RLR"))
    assert (r.n_inner, r.C) == (3, 1)
    assert abs(r.lower_additive - 8.3562) < 1e-4
    assert r.upper_additive == 10


def test_bounds_report_minimal_family():
    for n in range(1, 9):
        w = list(enumerate_words(n, {1}))[-1]
        r = bounds_report(w)
        assert abs(r.lower_mult - (2 * n + 1.3332)) < 1e-3
        assert r.tet_count == 2 * (n + 1)
        # the bounds certify minimality: the complexity is exactly 2(n+1)
        assert math.ceil(r.lower_mult) == r.tet_count
        assert r.best_upper == r.tet_count


def test_bounds_report_petronio_vesnin():
    assert bounds_report(parse_word("RLR")).petronio_vesnin == 2.0
    assert bounds_report(parse_word("RL")).petronio_vesnin == 2.0
    r = bounds_report(parse_word("RLRLRLR"))
    assert abs(r.petronio_vesnin - (2 * 5 - 2.6667)) < 1e-12


def test_bounds_sit_clear_of_integers():
    # The complexity bounds are integers, ceil(lower_mult) and
    # ceil(lower_additive); the float each is read from must sit farther
    # from an integer than its error, so that the ceiling is exact.
    V3 = v3()
    vol = {s: tet_volume(SHAPES[s]) / V3 for s in ("I", "III", "V", "VI", "VIII")}
    slope = 2 * (2 * vol["III"] + vol["VIII"]) - 4  # full precision; coded as 0.9632
    intercept = 2 * (vol["V"] + vol["I"] + vol["VI"] - vol["III"]) - 3  # coded as 0.393
    closest_mult = closest_additive = 1.0
    words = list(enumerate_words(11, {1, 2}))  # the words of survey --max-n 11
    assert len(words) == 4094
    for w in words:
        r = bounds_report(w)
        # explicit_volume adds 3 tet_count table entries, each within 3e-16
        # of L (test_lobachevsky_table_against_mpmath), with one rounding of
        # at most an ulp of the sum per addition; the division by v3 adds a
        # relative 1e-15.
        mult_budget = 3 * r.tet_count * (3e-16 + math.ulp(r.explicit_volume)) + 1e-15 * r.lower_mult
        # The coded constants against the full-precision ones, and rounding.
        additive_budget = abs(slope - 0.9632) * r.C + abs(intercept - 0.393) + 1e-12
        mult_margin = abs(r.lower_mult - round(r.lower_mult))
        additive_margin = abs(r.lower_additive - round(r.lower_additive))
        assert mult_margin > mult_budget and additive_margin > additive_budget, r.word
        closest_mult = min(closest_mult, mult_margin)
        closest_additive = min(closest_additive, additive_margin)
    assert 3.4e-4 < closest_mult < 3.5e-4 and 0.011 < closest_additive < 0.012


def test_bounds_report_outside_family():
    r = bounds_report(parse_word("RL^3R"))
    assert r.explicit_volume is None and r.lower_mult is None
    assert r.ishikawa_nemoto == 7
    assert r.best_upper == 7  # the twist-number bound beats the size 8
    with pytest.raises(ValueError):
        bounds_report(parse_word("R^5"))


def test_bounds_invariants_family():
    for w in enumerate_words(4, {1, 2}):
        r = bounds_report(w)
        assert r.best_lower <= r.best_upper
        assert r.lower_mult <= r.tet_count
        assert r.C == sum(1 for e in w.exponents[1:-1] if e == 2)
