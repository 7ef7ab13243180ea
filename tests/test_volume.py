import math
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.sparse import bmat, identity

import twobridge
from conftest import all_normalized_words
from twobridge._solver import _constraint_system, _independent_rows, _kkt_matrix, _lobachevsky_array
from twobridge.angles import SHAPES, assign_angles, theorem_family, verify_angle_structure
from twobridge.isosig import encode_isosig
from twobridge.moves import pachner_23, simplify, triangle_pairs
from twobridge.triangulation import Triangulation, build_sakuma_weeks, edge_classes, validate, vertex_classes
from twobridge.volume import (
    _LOBACHEVSKY_24,
    _ZETA_EVEN,
    assignment_volume,
    bounds_report,
    lobachevsky,
    maximize_volume,
    tet_volume,
    theorem_ratio_table,
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


def test_all_ones_volume_formula():
    vV = tet_volume(SHAPES["V"])
    V3 = v3()
    for n in range(1, 9):
        w = list(enumerate_words(n, {1}))[-1]
        expected = 2 * (2 * vV + (n - 1) * V3)
        assert abs(assignment_volume(assign_angles(w)) - expected) < 1e-12


def test_rl2r_volume_ratio():
    # (2 v_II + v_X2) / (3 v3); the low-volume variant gives 0.7952.
    w = parse_word("RL^2R")
    tri = build_sakuma_weeks(w)
    ratio = assignment_volume(assign_angles(w)) / (tri.tet_count * v3())
    assert abs(ratio - 0.86247) < 1e-4
    base = assignment_volume(assign_angles(w, k1_override=False)) / (tri.tet_count * v3())
    assert abs(base - 0.7952) < 1e-3


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


def test_theorem_ratio_values():
    table = dict(theorem_ratio_table())
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
    b = maximize_volume(small).volume
    assert abs(a - b) < 1e-7


def test_maximize_rejects_infeasible():
    # a one-tetrahedron complex with edge classes of degree 1 and 2
    tri = Triangulation(1)
    tri.glue(0, 0, 0, (1, 0, 3, 2))
    tri.glue(0, 2, 0, (0, 1, 3, 2))
    with pytest.raises(ValueError):
        maximize_volume(tri)


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
        maximize_volume(tri)
    # no Newton step moves the dropped row, so the loop stops at once
    assert len(calls) <= 5


def test_maximize_rejects_infeasible_pachner_copies():
    # six of the eight 2-3 moves on RL^2 leave no strict angle structure
    tri = build_sakuma_weeks(parse_word("RL^2"))
    rejected = 0
    for face, _ in triangle_pairs(tri):
        try:
            res = maximize_volume(pachner_23(tri, face))
        except ValueError:
            rejected += 1
        else:
            assert res.converged and not res.on_boundary
            assert abs(res.volume - 2.828122088330783) <= 1e-12
    assert rejected == 6


def test_maximum_on_the_walls_is_not_converged():
    # the 2-3 move across RLR's first triangle leaves a polytope whose
    # supremum of V is on the walls: a strict structure exists, but the
    # value is no hyperbolic volume
    tri = build_sakuma_weeks(parse_word("RLR"))
    res = maximize_volume(pachner_23(tri, triangle_pairs(tri)[0][0]))
    assert res.on_boundary
    assert not res.converged


@pytest.mark.parametrize("max_iters", [0, 1])
def test_maximize_stops_unconverged_without_raising(max_iters):
    # a feasible system cut short: the verdict finds a strict solution
    res = maximize_volume(build_sakuma_weeks(parse_word("R^5L^4")), max_iters=max_iters)
    assert not res.converged
    assert res.iterations == max_iters


def run_fresh(code):
    """stdout of code run in a fresh interpreter that imports this twobridge."""
    env = dict(os.environ)
    root = str(Path(twobridge.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_unseeded_builder_words_skip_the_lp():
    # the Newton loop decides builder words alone; only the verdict on
    # infeasible input imports scipy.optimize
    code = (
        "import sys\n"
        "from twobridge import build_sakuma_weeks, maximize_volume, parse_word\n"
        "for text in ('RL^3R', 'R^5L^4'):\n"
        "    assert maximize_volume(build_sakuma_weeks(parse_word(text))).converged\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    assert run_fresh(code) == "False"


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


def test_maximize_rejects_bad_seed():
    w = parse_word("RLR")
    other = parse_word("RL^2R")
    with pytest.raises(ValueError):
        maximize_volume(build_sakuma_weeks(other), seed=assign_angles(w))


def angle_residual(tri, res):
    """max |A x - b| over every angle equation, dropped rows included."""
    A, b = _constraint_system(tri, edge_classes(tri))
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
        # edges e and 5 - e carry the pair angle min(e, 5 - e)
        angle_map = {
            (t, e): float(unseeded.angles[t, min(e, 5 - e)])
            for t in range(tri.tet_count)
            for e in range(6)
        }
        assert verify_angle_structure(tri, angle_map).passed, str(w)


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
        a, b = maximize_volume(tri), maximize_volume(final)
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
            table = edge_classes(t)
            A, _ = _constraint_system(t, table)
            dense = A.toarray()
            keep = _independent_rows(t, table)
            expected = 2 * t.tet_count - len(set(vertex_classes(t)))
            assert keep.sum() == expected, str(w)
            assert np.linalg.matrix_rank(dense) == expected, str(w)
            assert np.linalg.matrix_rank(dense[keep]) == expected, str(w)


def test_kkt_matrix_matches_block_assembly():
    # The one-step KKT matrix is the block assembly entry for entry, so every
    # factorisation, iterate and volume is the same; the 2-3 copies have
    # other cusp structures, hence other dropped rows.
    for w in all_normalized_words(8):
        tri = build_sakuma_weeks(w)
        pairs = triangle_pairs(tri)
        for t in (tri, simplify(tri).final, pachner_23(tri, pairs[0][0]), pachner_23(tri, pairs[-1][0])):
            table = edge_classes(t)
            A, _ = _constraint_system(t, table)
            keep = _independent_rows(t, table)
            n = A.shape[1]
            reference = bmat([[-identity(n), A[keep].T], [A[keep], None]], format="csc")
            reference.sort_indices()
            kkt = _kkt_matrix(A, keep)
            assert kkt.format == "csc" and kkt.shape == reference.shape, str(w)
            for part in ("indptr", "indices", "data"):
                mine, theirs = getattr(kkt, part), getattr(reference, part)
                assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs), (str(w), part)
            assert np.array_equal(kkt.indices[kkt.indptr[:n]], np.arange(n)), str(w)


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
