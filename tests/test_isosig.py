import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_normalized_words, disjoint_union, is_closed, is_connected, random_gluing
from twobridge import isosig, triangulation
from twobridge.isosig import ALPHABET, decode_isosig, encode_isosig
from twobridge.moves import simplify
from twobridge.triangulation import (
    ORDERED_S4,
    ORDERED_S4_INDEX,
    Triangulation,
    build_sakuma_weeks,
    compose,
    invert,
)
from twobridge.word import Word, enumerate_words, normalize, parse_word

GOLDEN = [
    "cPcbbbiht",
    "fLLQcbcdeeetsfxxh",
    "iLLMLQcbcdefhghhmvftgafqa",
    "hLLMPkbcdfggfgmvfafwkf",
]


@pytest.mark.parametrize("sig", GOLDEN)
def test_decode_encode_roundtrip(sig):
    assert encode_isosig(decode_isosig(sig)) == sig


def test_figure_eight_matches_census_signature():
    fig8 = build_sakuma_weeks(parse_word("RL"))
    assert encode_isosig(fig8) == "cPcbbbiht"


def relabel(tri, rng):
    """A random combinatorially-equal copy: permute tetrahedra and vertices."""
    sigma = list(range(tri.tet_count))
    rng.shuffle(sigma)
    rhos = [tuple(rng.sample(range(4), 4)) for _ in range(tri.tet_count)]
    out = Triangulation(tri.tet_count)
    for t in range(tri.tet_count):
        for f in range(4):
            g = tri.gluing(t, f)
            if g is None:
                continue
            t2, perm = g
            nt, nf = sigma[t], rhos[t][f]
            if out.gluing(nt, nf) is None:
                out.glue(nt, nf, sigma[t2], compose(rhos[t2], compose(perm, invert(rhos[t]))))
    return out


@pytest.mark.parametrize("word", ["RL", "RLR", "R^2LR", "RL^3R", "RLRLR"])
def test_signature_invariant_under_relabelling(word):
    tri = build_sakuma_weeks(parse_word(word))
    sig = encode_isosig(tri)
    rng = random.Random(20240 + len(word))
    for _ in range(5):
        assert encode_isosig(relabel(tri, rng)) == sig


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_relabelling_isomorphic_property(seed):
    tri = build_sakuma_weeks(parse_word("R^2LR"))
    assert encode_isosig(relabel(tri, random.Random(seed))) == encode_isosig(tri)


def test_signature_length_linear():
    lengths = {}
    for n in range(1, 8):
        w = parse_word("R" + "LR" * n)
        tri = build_sakuma_weeks(w)
        lengths[tri.tet_count] = len(encode_isosig(tri))
    # 3 chars per extra tetrahedron for closed complexes, plus packing slack
    for tets, length in lengths.items():
        assert length <= 3 * tets + 4


DECODE_ERRORS = {
    "": "empty signature",
    "!!": "illegal character",
    "c": "invalid facet actions",           # truncated action sequence
    "cPcbbbih": "invalid facet actions",    # truncated permutation sequence
    "cPcbbbihtz": "invalid facet actions",  # trailing characters
    "aPcbbbiht": "unsupported tetrahedron count 0",
    "cbiau": "exhausted early",  # a gluing onto a boundary facet: actions run out early
    "cecak": "exhausted early",  # the same, on a facet of a later tetrahedron
    "bb": "more new-tetrahedron actions",  # one tetrahedron whose facet would open a second
    "cau": "never reach all tetrahedra",   # two tetrahedra, the second never reached
}


@pytest.mark.parametrize("bad", DECODE_ERRORS)
def test_decode_errors(bad):
    with pytest.raises(ValueError, match=DECODE_ERRORS[bad]):
        decode_isosig(bad)


@pytest.mark.parametrize(
    "tri, message",
    [
        (Triangulation(0), "empty triangulation"),
        (build_sakuma_weeks(parse_word("R" + "LR" * 16)), ">= 63 tetrahedra"),  # 64 tetrahedra
    ],
)
def test_encode_errors(tri, message):
    with pytest.raises(ValueError, match=message):
        encode_isosig(tri)


def one_character_edits(sig):
    """Every string one substitution, deletion or insertion of an alphabet character away from sig."""
    for i in range(len(sig) + 1):
        yield sig[:i] + sig[i + 1 :]
        for c in ALPHABET:
            yield sig[:i] + c + sig[i + 1 :]
            yield sig[:i] + c + sig[i:]


def test_edited_golden_signatures_decode_or_raise_value_error():
    # Every edit either decodes to a triangulation whose signature is a
    # fixed point of decode and encode, or raises ValueError, never another
    # exception.
    decoded = 0
    for sig in GOLDEN:
        for edit in set(one_character_edits(sig)):
            try:
                tri = decode_isosig(edit)
            except ValueError:
                continue
            canonical = encode_isosig(tri)
            assert encode_isosig(decode_isosig(canonical)) == canonical, edit
            decoded += 1
    assert decoded > 100


def test_encode_rejects_disconnected(monkeypatch):
    # The first candidate labels the component of its start and raises:
    # no search for components, vertex or edge classes runs.
    for name in ("_closure", "_walk_edges"):
        monkeypatch.setattr(triangulation, name, lambda tri, name=name: pytest.fail(f"{name} called"))
    starts, search = [], isosig._smaller_candidate
    monkeypatch.setattr(isosig, "_smaller_candidate", lambda g, t, *rest: starts.append(t) or search(g, t, *rest))
    fig8 = build_sakuma_weeks(parse_word("RL"))
    assert encode_isosig(fig8) == "cPcbbbiht"
    lone = Triangulation(1)
    folded = Triangulation(1)  # closed by gluing its facets in two pairs
    folded.glue(0, 0, 0, (1, 0, 2, 3))
    folded.glue(0, 2, 0, (0, 1, 3, 2))
    # The smallest first character picks the start: in the figure-eight
    # complex beside the lone tetrahedron, in the lone one beside the folded.
    cases = [
        (disjoint_union(fig8, fig8), {0, 1, 2, 3}),
        (disjoint_union(fig8, lone), {0, 1}),
        (disjoint_union(lone, fig8), {1, 2}),
        (disjoint_union(folded, lone), {1}),
        (disjoint_union(lone, folded), {0}),
        (Triangulation(2), {0, 1}),
    ]
    for tri, first_starts in cases:
        starts.clear()
        with pytest.raises(ValueError, match="^triangulation is disconnected$"):
            encode_isosig(tri)
        assert len(starts) == 1 and starts[0] in first_starts, tri.to_json()


def brute_force_isosig(tri):
    """Reference encoder: build every candidate string in full, take min()."""
    n = tri.tet_count
    gluings = [[tri.gluing(t, f) for f in range(4)] for t in range(n)]
    inverse = {p: invert(p) for p in ORDERED_S4}
    candidates = []
    for start in range(n):
        for start_perm in ORDERED_S4:
            image, vertex_map, preimage = [-1] * n, [None] * n, [start]
            image[start], vertex_map[start] = 0, start_perm
            done = [False] * (4 * n)
            actions, dests, perms = [], [], []
            for t in preimage:
                vm = vertex_map[t]
                for f_old in inverse[vm]:  # new facet order
                    if done[4 * t + f_old]:
                        continue
                    done[4 * t + f_old] = True
                    g = gluings[t][f_old]
                    if g is None:
                        actions.append(0)
                        continue
                    adj, perm = g
                    done[4 * adj + perm[f_old]] = True
                    if image[adj] < 0:
                        actions.append(1)
                        image[adj] = len(preimage)
                        vertex_map[adj] = compose(vm, inverse[perm])
                        preimage.append(adj)
                    else:
                        actions.append(2)
                        dests.append(image[adj])
                        glued = compose(vertex_map[adj], compose(perm, inverse[vm]))
                        perms.append(ORDERED_S4_INDEX[glued])
            actions += [0] * (-len(actions) % 3)
            packed = [a | b << 2 | c << 4 for a, b, c in zip(*[iter(actions)] * 3)]
            candidates.append("".join(map(ALPHABET.__getitem__, [n, *packed, *dests, *perms])))
    return min(candidates)


def test_oracle_agrees_on_small_words_and_simplified():
    rng = random.Random(7)
    for w in all_normalized_words(7):
        tri = build_sakuma_weeks(w)
        final = simplify(tri).final
        for t in (tri,) if final is tri else (tri, final):
            # Relabelling permutes the candidate set, so one oracle call
            # covers the relabelled copies too.
            expected = brute_force_isosig(t)
            assert encode_isosig(t) == expected, str(w)
            for _ in range(3):
                assert encode_isosig(relabel(t, rng)) == expected, str(w)


@pytest.fixture(scope="module")
def random_connected():
    """Connected random gluings of 1-4 tetrahedra, closed or with two facets
    unglued: boundary and self-glued facets, and single tetrahedra."""
    rng = random.Random(5)
    tris = [random_gluing(rng.randint(1, 4), rng, unglued) for unglued in (0, 2) for _ in range(150)]
    return [tri for tri in tris if is_connected(tri)]


def test_oracle_agrees_on_random_gluings(random_connected):
    for tri in random_connected:
        assert encode_isosig(tri) == brute_force_isosig(tri), tri.to_json()


def test_first_character_table_matches_streamed_search(random_connected, words_ell8):
    # Each permutation's first character from a start with a given facet
    # pattern, against the first code point the streamed search emits there.
    seen = set()
    for tri in random_connected + [build_sakuma_weeks(w) for w in words_ell8]:
        gluings = tri._glue  # the rows as stored, as _smaller_candidate reads them
        for t, row in enumerate(gluings):
            pattern = isosig._pattern(t, row)
            if pattern in seen:
                continue
            seen.add(pattern)
            ranks = [isosig._smaller_candidate(gluings, t, p, None)[0][0] for p in range(24)]
            assert [isosig._first_rank(pattern, p) for p in range(24)] == ranks, pattern
            encode_isosig(tri)  # fills the table for every pattern of tri
            assert isosig._FIRST[pattern] == (min(ranks), [p for p in range(24) if ranks[p] == min(ranks)])
    # Boundary facets, a self-glued facet, and one tetrahedron glued to itself throughout.
    assert {8, 4, 5, 6, 7} <= {k for pattern in seen for k in pattern}
    assert any(min(pattern) >= 4 for pattern in seen) and len(seen) > 50


def test_start_filter_prunes_builder_output(monkeypatch):
    # Fails if the filter silently stops pruning.  Small words such as RL
    # keep every start, so the bound is on the total over all 120 words.
    calls = 0
    search = isosig._smaller_candidate

    def counted(*args):
        nonlocal calls
        calls += 1
        return search(*args)

    monkeypatch.setattr(isosig, "_smaller_candidate", counted)
    tris = [build_sakuma_weeks(w) for w in all_normalized_words(7)]
    for tri in tris:
        encode_isosig(tri)
    assert len(tris) == 120
    assert calls <= 0.15 * sum(24 * tri.tet_count for tri in tris)


def test_orbit_skip_bounds_the_search(monkeypatch):
    # Layered triangulations are symmetric: a candidate that ties the best
    # gives an automorphism, and the starts in its orbits are skipped.
    # Without the skip the search runs 12.9% of the starts here.
    calls = 0
    search = isosig._smaller_candidate

    def counted(*args):
        nonlocal calls
        calls += 1
        return search(*args)

    monkeypatch.setattr(isosig, "_smaller_candidate", counted)
    tris = [build_sakuma_weeks(w) for w in all_normalized_words(7)]
    for tri in tris:
        encode_isosig(tri)
    assert calls <= 0.08 * sum(24 * tri.tet_count for tri in tris)


def test_every_skipped_start_is_sound(monkeypatch, random_connected):
    # Each start of the first-character set that the search skips has the
    # full candidate of a start that ran, and each automorphism found
    # carries every gluing to a gluing.
    ran, maps = [], []
    search, automorphism = isosig._smaller_candidate, isosig._automorphism
    monkeypatch.setattr(isosig, "_smaller_candidate", lambda g, t, p, best: ran.append((t, p)) or search(g, t, p, best))
    monkeypatch.setattr(isosig, "_automorphism", lambda *args: maps.append(automorphism(*args)) or maps[-1])
    rng = random.Random(13)
    tris = []
    for w in all_normalized_words(6):
        tri = build_sakuma_weeks(w)
        for t in (tri, simplify(tri).final):
            tris += [t] + [relabel(t, rng) for _ in range(3)]
    skipped = found = 0
    for tri in tris + random_connected:
        ran.clear()
        maps.clear()
        encode_isosig(tri)
        gluings = tri._glue
        firsts = [isosig._FIRST[isosig._pattern(t, row)] for t, row in enumerate(gluings)]
        low = min(rank for rank, _ in firsts)
        starts = {(t, p) for t, (rank, perms) in enumerate(firsts) if rank == low for p in perms}
        candidates = {tuple(search(gluings, t, p, None)[0]) for t, p in ran}
        for t, p in starts - set(ran):
            assert tuple(search(gluings, t, p, None)[0]) in candidates, (tri.to_json(), t, p)
            skipped += 1
        found += len(maps)
        n = tri.tet_count
        for phi in maps:
            assert sorted(a for a, _ in phi.values()) == list(range(n))
            for t, f in itertools.product(range(n), range(4)):
                a, v = phi[t]
                g, image = tri.gluing(t, f), tri.gluing(a, ORDERED_S4[v][f])
                if g is None:
                    assert image is None
                else:
                    b, w = phi[g[0]]
                    assert image == (b, compose(ORDERED_S4[w], compose(g[1], invert(ORDERED_S4[v]))))
    assert skipped > 1000 and found > 100, (skipped, found)


def reverse(w):
    return normalize(Word(tuple(reversed(w.syllables))))


def test_reversed_words_give_equal_signatures():
    for w in enumerate_words(4, (1, 2, 3)):
        tri, rev = build_sakuma_weeks(w), build_sakuma_weeks(reverse(w))
        assert encode_isosig(tri) == encode_isosig(rev), str(w)


def open_copy(tri, rng):
    """A connected copy of tri with two face gluings removed."""
    pairs = [
        (t, f) for t in range(tri.tet_count) for f in range(4) if (t, f) < _partner(tri, t, f)
    ]
    while True:
        dropped = set()
        for t, f in rng.sample(pairs, 2):
            dropped |= {(t, f), _partner(tri, t, f)}
        out = Triangulation(tri.tet_count)
        for t, f in pairs:
            if (t, f) not in dropped:
                t2, perm = tri.gluing(t, f)
                out.glue(t, f, t2, perm)
        if is_connected(out):
            return out


def _partner(tri, t, f):
    t2, perm = tri.gluing(t, f)
    return t2, perm[f]


def test_open_triangulations_relabelling_invariant():
    rng = random.Random(11)
    for w in all_normalized_words(7):
        tri = open_copy(build_sakuma_weeks(w), rng)
        assert not is_closed(tri)
        sig = encode_isosig(tri)
        assert sig == brute_force_isosig(tri), str(w)
        assert encode_isosig(decode_isosig(sig)) == sig
        for _ in range(3):
            assert encode_isosig(relabel(tri, rng)) == sig, str(w)
