import json
import random
import re
import sys
import tracemalloc
from itertools import combinations, product
from pathlib import Path

import pytest

from momangle import complexes as cx
from momangle.complexes import (Generators, ParseError, SimplicialComplex, SizeLimitError,
                                _order_is_shifted, boundary, face, face_mask,
                                is_shifted, is_subcomplex, join, mask_face,
                                parse_complex, point,
                                reduced_homology, simplex, simplex_boundary,
                                substitute, substitution_missing_faces)
from momangle.whitehead import bracket, delta_w, leaf, parse_whitehead
from oracles import (TupleComplex, brute_facets, brute_is_shifted, brute_missing_faces,
                     brute_order_is_shifted, brute_substitute_faces, random_complex,
                     random_graph_complex, random_shifted_complex, reference_boundary,
                     reference_delta_w, reference_from_facets, reference_join,
                     reference_missing_faces_within, relabelled)
from test_split import complexes as split_complexes, layouts


def test_from_facets_triangle_boundary():
    K = SimplicialComplex.from_facets(3, [(1, 2), (1, 3), (2, 3)])
    assert len(K.faces) == 7       # empty face, 3 vertices, 3 edges
    assert K == simplex_boundary(3)
    assert (1, 2, 3) not in K


def test_from_facets_figure_one(sub5):
    built = SimplicialComplex.from_facets(
        5, [(1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5), (1, 3, 5), (2, 3, 5), (4, 5)])
    assert built == sub5


def test_from_facets_singletons_always_present():
    K = SimplicialComplex.from_facets(2, [])
    assert sorted(K.faces) == [(), (1,), (2,)]


def test_from_facets_label_out_of_range():
    with pytest.raises(ValueError):
        SimplicialComplex.from_facets(2, [(1, 3)])


def test_mask_face_inverts_face_mask():
    vertices = range(1, 11)
    for k in range(len(vertices) + 1):
        for f in combinations(vertices, k):
            assert mask_face(face_mask(f)) == f
    assert mask_face(0) == ()


def test_downward_closure_enforced():
    with pytest.raises(ValueError):
        SimplicialComplex(3, [(), (1,), (2,), (3,), (1, 2, 3)])


def test_missing_faces_examples(sub5, eight_vertex):
    assert simplex_boundary(3).missing_faces() == ((1, 2, 3),)
    assert sub5.missing_faces() == ((1, 2, 3), (1, 4, 5), (2, 4, 5), (3, 4, 5))
    expected = ((1, 2, 3), (4, 5, 6),
                (1, 4, 7, 8), (1, 5, 7, 8), (1, 6, 7, 8),
                (2, 4, 7, 8), (2, 5, 7, 8), (2, 6, 7, 8),
                (3, 4, 7, 8), (3, 5, 7, 8), (3, 6, 7, 8))
    assert eight_vertex.missing_faces() == expected


def test_missing_faces_against_bruteforce():
    rng = random.Random(2)
    for _ in range(25):
        K = random_complex(rng.randint(2, 6), rng)
        assert list(K.missing_faces()) == brute_missing_faces(K)


def test_missing_faces_against_bruteforce_with_ghost_vertices():
    # vertices outside every face are missing faces of their own
    rng = random.Random(8)
    ghosts_seen = 0
    for _ in range(25):
        m = rng.randint(2, 8)
        ghosts = set(rng.sample(range(1, m + 1), rng.randint(0, m // 2)))
        faces = [f for f in random_complex(m, rng).faces if not ghosts & set(f)]
        K = SimplicialComplex(m, faces)
        ghosts_seen += len(ghosts)
        assert list(K.missing_faces()) == brute_missing_faces(K)
        assert all((v,) in K.missing_faces() for v in ghosts)
    assert ghosts_seen


def test_facets_against_bruteforce():
    # boundary(K) drops the vertices that are facets of K: ghost vertices
    rng = random.Random(3)
    for _ in range(25):
        K = random_complex(rng.randint(1, 7), rng)
        for L in (K, boundary(K), boundary(boundary(K))):
            assert list(L.facets) == brute_facets(L), L
    assert boundary(point()).facets == ((),)


def test_faces_within_against_bruteforce():
    # subsets may repeat labels or hold labels outside 1..m, as `hochster --subset` can
    rng = random.Random(4)
    for _ in range(25):
        K = random_complex(rng.randint(1, 7), rng)
        for _ in range(6):
            S = [rng.randint(0, K.m + 2) for _ in range(rng.randint(0, K.m + 1))]
            brute = sorted((f for f in K.faces if set(f) <= set(S)), key=lambda f: (len(f), f))
            assert K.faces_within(S) == brute, (K, S)


def test_init_normalises_like_face():
    """Every face goes through `face`: lists, unsorted tuples, bools and
    floats are normalised by it, and bad faces raise its errors."""
    K = SimplicialComplex(3, [(), (1,), (2,), (3,), (1, 2)])
    assert SimplicialComplex(3, [[], [1], [2], [3], [2, 1]]) == K
    assert SimplicialComplex(3, [(True,), (2,), (3,), (2, 1), (1.0, 2), (1, 2)]) == K
    bad = [([(1,), (1, 1)], "duplicate vertex in face (1, 1)"),
           ([[2, 2]], "duplicate vertex in face (2, 2)"),
           ([(2, 1, 1)], "duplicate vertex in face (2, 1, 1)"),
           ([(0,)], "vertex labels must be positive: (0,)"),
           ([(1,), (0, 1)], "vertex labels must be positive: (0, 1)"),
           ([(1,), (4,)], "label 4 out of range 1..3"),
           ([(1,), [4, 1]], "label 4 out of range 1..3"),
           ([(1,), (1, 2)], "not downward closed: (2,) missing under (1, 2)"),
           ([(1,), (2,), [3, 1]], "not downward closed: (3,) missing under (1, 3)")]
    for faces_, message in bad:
        with pytest.raises(ValueError, match=re.escape(message)):
            SimplicialComplex(3, faces_)


def test_contains_normalises_like_face():
    """Every argument goes through `face`, with its normalisation and its
    errors, before its bitmask is looked up."""
    K = SimplicialComplex.from_facets(4, [(1, 2), (3, 4)])
    assert (1, 2) in K and (3, 4) in K and () in K
    assert (1, 3) not in K and (5,) not in K and (1, 2, 3) not in K
    assert (2, 1) in K and [2, 1] in K and (True, 2) in K
    with pytest.raises(ValueError, match="duplicate vertex"):
        (1, 1) in K
    with pytest.raises(ValueError, match="must be positive"):
        (0, 2) in K
    with pytest.raises(ValueError):
        (v for v in (1, 2)) in K
    cases = [lambda: (1, 1), lambda: (0, 2), lambda: (2, 1), lambda: [1, 2],
             lambda: [3], lambda: (v for v in (1, 2)), lambda: (1.0, 2), lambda: (1.5, 2),
             lambda: (-1,)]
    for make in cases:
        try:
            expected = face(make()) in K.faces
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                make() in K
            assert str(got.value) == str(exc)
        else:
            assert (make() in K) == expected


def test_full_subcomplex(sub5):
    sub = sub5.full_subcomplex((1, 2))
    assert sub.m == 2 and (1, 2) in sub
    edge45 = sub5.full_subcomplex((4, 5))
    assert (1, 2) in edge45        # re-indexed onto 1..2
    tri = sub5.full_subcomplex((1, 2, 3))
    assert tri == simplex_boundary(3)


def test_full_subcomplex_identity_and_idempotence(sub5):
    assert sub5.full_subcomplex(range(1, 6)) == sub5
    sub = sub5.full_subcomplex((1, 2, 4))
    again = sub.full_subcomplex((1, 2, 3))
    assert again == sub


def test_join_examples():
    assert join(point(), point()) == simplex(2)
    got = join(simplex_boundary(3), simplex_boundary(3))
    expected_facets = set()
    for e1 in [(1, 2), (1, 3), (2, 3)]:
        for e2 in [(4, 5), (4, 6), (5, 6)]:
            expected_facets.add(e1 + e2)
    assert set(got.facets) == expected_facets
    cone = join(simplex_boundary(2), simplex(1))
    assert set(cone.facets) == {(1, 3), (2, 3)}


def test_join_missing_faces_are_disjoint_union():
    rng = random.Random(4)
    for _ in range(10):
        K1 = random_complex(rng.randint(2, 4), rng)
        K2 = random_complex(rng.randint(2, 4), rng)
        J = join(K1, K2)
        expected = sorted(
            list(K1.missing_faces())
            + [tuple(v + K1.m for v in f) for f in K2.missing_faces()],
            key=lambda f: (len(f), f))
        assert list(J.missing_faces()) == expected


def test_substitute_points_identity():
    rng = random.Random(9)
    for _ in range(10):
        K = random_complex(rng.randint(2, 5), rng)
        sub = substitute(K, [point()] * K.m)
        assert sub.complex == K


def test_substitute_figure_one(sub5):
    sub = substitute(simplex_boundary(3),
                     [simplex_boundary(3), point(), point()])
    assert sub.complex == sub5
    assert sub.offsets == (0, 3, 4)


def test_substitute_into_full_edge_is_join():
    sub = substitute(simplex(2), [simplex_boundary(2), simplex_boundary(2)])
    assert sub.complex == join(simplex_boundary(2), simplex_boundary(2))
    assert set(sub.complex.facets) == {(1, 3), (1, 4), (2, 3), (2, 4)}


def test_substitute_matches_defining_formula():
    rng = random.Random(13)
    for _ in range(30):
        slot = random_complex(rng.randint(1, 4), rng)
        parts = [random_complex(rng.randint(1, 4), rng) for _ in range(slot.m)]
        sub = substitute(slot, parts)
        assert set(sub.complex.faces) == brute_substitute_faces(slot, parts)


def test_substitution_missing_faces_formula(sub5):
    got = substitution_missing_faces(simplex_boundary(3),
                                     [simplex_boundary(3), point(), point()])
    assert got == [(1, 2, 3), (1, 4, 5), (2, 4, 5), (3, 4, 5)]
    assert got == list(sub5.missing_faces())


def test_substitution_missing_faces_random():
    rng = random.Random(17)
    for _ in range(30):
        slot = random_complex(rng.randint(1, 4), rng)
        parts = [random_complex(rng.randint(1, 4), rng) for _ in range(slot.m)]
        sub = substitute(slot, parts)
        assert substitution_missing_faces(slot, parts) == list(sub.complex.missing_faces())


def test_is_subcomplex(sub5):
    assert is_subcomplex(simplex_boundary(3), sub5)
    edge = SimplicialComplex.from_facets(2, [(1, 2)])
    assert is_subcomplex(edge, sub5, {1: 4, 2: 5})
    assert not is_subcomplex(simplex(3), sub5, {1: 1, 2: 2, 3: 3})
    assert is_subcomplex(sub5, sub5)
    with pytest.raises(ValueError, match="labelling leaves out vertex 2"):
        is_subcomplex(edge, sub5, {1: 4})
    # ghost vertices 3 and 4 need no label; the empty complex lies in any K
    ghosts = SimplicialComplex(4, [(1,), (2,), (1, 2)])
    assert is_subcomplex(ghosts, sub5, {1: 4, 2: 5})
    assert not is_subcomplex(ghosts, sub5, {1: 4, 2: 6})
    assert is_subcomplex(SimplicialComplex(3, []), sub5, {})
    assert is_subcomplex(SimplicialComplex(0, []), SimplicialComplex(0, []))


def test_is_subcomplex_reads_facets_as_every_face_would():
    """Testing K_small's facets alone gives the verdict of testing every
    face, on seeded complexes and injective labellings into K_big of
    either face-index layout, some with a label past K_big's vertices."""
    rng = random.Random(57)
    seen = set()
    for _ in range(300):
        small, big = random_complex(rng.randint(1, 4), rng), random_complex(rng.randint(3, 9), rng)
        labelling = dict(zip(range(1, small.m + 1), rng.sample(range(1, big.m + 2), small.m)))
        want = all(tuple(sorted(labelling[v] for v in f)) in big.faces for f in small.faces)
        assert is_subcomplex(small, big, labelling) == want, (small, big, labelling)
        seen.add((want, type(big.face_index()).__name__))
    assert len(seen) == 4


def test_is_shifted_examples(sub5):
    assert is_shifted(simplex(4))
    K = simplex_boundary(3)
    res = is_shifted(K)
    assert res.shifted and res.witnesses == (next(brute_is_shifted(K)),)
    got = is_shifted(sub5)
    wits = list(brute_is_shifted(sub5))
    assert got.shifted == bool(wits)
    assert list(got.witnesses) == wits[:1]


def test_is_shifted_with_given_order():
    K = SimplicialComplex.from_facets(3, [(2, 3), (3,)])
    assert is_shifted(K, order=(1, 2, 3))
    with pytest.raises(ValueError):
        is_shifted(K, order=(1, 2))


def test_is_shifted_decides_past_seven_vertices():
    """No order is needed above 7 vertices: a relabelled shifted complex on
    8 to 12 vertices is found shifted, and its order passes the
    definition-level check."""
    assert is_shifted(simplex(8)).witnesses == (tuple(range(1, 9)),)
    rng = random.Random(1900)
    for m in range(8, 13):
        perm = rng.sample(range(1, m + 1), m)
        K = relabelled(random_shifted_complex(m, rng), dict(enumerate(perm, 1)), m=m)
        res = is_shifted(K)
        assert res.shifted
        assert brute_order_is_shifted(K, res.witnesses[0])


def _shifted_or_graph(m, rng, shifted):
    """A random shifted complex relabelled by a random permutation, so the
    natural order is rarely its witness, or a random graph with some filled
    triangles, rarely shifted."""
    if not shifted:
        return random_graph_complex(m, rng)
    perm = rng.sample(range(1, m + 1), m)
    return relabelled(random_shifted_complex(m, rng), dict(enumerate(perm, 1)), m=m)


@pytest.mark.parametrize("shifted", [True, False])
def test_is_shifted_against_permutation_search(shifted):
    """The dominance order's verdict is the permutation search's, and its
    order is the search's first witness."""
    rng = random.Random(1901 + shifted)
    verdicts = set()
    for m in (4, 5, 6):
        for _ in range(100):
            K = _shifted_or_graph(m, rng, shifted)
            first = next(brute_is_shifted(K), None)
            res = is_shifted(K)
            assert res.witnesses == ((first,) if first else ()), K
            verdicts.add(res.shifted)
    assert verdicts == ({True} if shifted else {True, False})


def test_order_is_shifted_against_definition():
    """The facet dominance check of one order agrees with replacing vertices
    inside every face, on shifted and unshifted complexes in random orders."""
    rng = random.Random(1903)
    answers = set()
    for trial in range(300):
        m = rng.randint(2, 6)
        K = _shifted_or_graph(m, rng, trial % 2)
        order = tuple(rng.sample(range(1, m + 1), m))
        got = _order_is_shifted(K, order)
        assert got == brute_order_is_shifted(K, order), (K, order)
        answers.add(got)
    assert answers == {True, False}


def test_boundary_of_simplex():
    assert boundary(simplex(4)) == simplex_boundary(4)
    assert sorted(boundary(point()).faces) == [()]


def test_reduced_homology_sphere():
    hom = reduced_homology(simplex_boundary(4))
    assert {d: h.rank for d, h in hom.items()} == {2: 1}


def test_parser_examples(sub5):
    assert parse_complex("pt") == point()
    assert parse_complex("simplex(1,2,3)") == simplex(3)
    assert parse_complex("bd(simplex(1,2,3))") == simplex_boundary(3)
    assert parse_complex(" join( pt , pt ) ") == simplex(2)
    got = parse_complex("subst(bd(simplex(1,2,3)); bd(simplex(1,2,3)), pt, pt)")
    assert got == sub5


def test_parser_errors():
    for text in ["", "simplex(", "simplex(1,1)", "bd(pt", "pt extra",
                 "subst(pt)", "mystery(1)"]:
        with pytest.raises(ParseError):
            parse_complex(text)


def test_parse_complex_counts_vertices_before_building():
    text = "join(simplex(1,2),bd(simplex(1,2,3)))"
    assert parse_complex(text, max_vertices=5).m == 5
    with pytest.raises(SizeLimitError, match="builds 5 vertices"):
        parse_complex(text, max_vertices=4)
    with pytest.raises(SizeLimitError):
        parse_complex("simplex(" + ",".join(map(str, range(1, 26))) + ")",
                      max_vertices=10)


def test_json_roundtrip(sub5):
    data = json.loads(json.dumps(sub5.to_json_dict()))
    assert SimplicialComplex.from_json_dict(data) == sub5


@pytest.mark.parametrize("data, named", [
    ({"m": 3, "facets": [[1.5, 2]]}, "1.5"),
    ({"m": 3, "facets": [[True, 2]]}, "True"),
    ({"m": 3, "facets": [["2", 3]]}, "'2'"),
    ({"m": 3.9, "facets": [[1, 2]]}, "3.9"),
    ({"m": -1, "facets": []}, "-1"),
    ({"m": True, "facets": []}, "True"),
    # the labels are checked before the size, so a bad one is never a refusal
    ({"m": 30, "facets": [[1.0]]}, "1.0"),
])
def test_json_refuses_non_integer_labels(data, named):
    with pytest.raises(ValueError, match=re.escape(named)) as exc:
        SimplicialComplex.from_json_dict(data, max_vertices=20)
    assert not isinstance(exc.value, SizeLimitError)


def test_json_size_bound():
    data = {"m": 21, "facets": [[1, 21]]}
    with pytest.raises(SizeLimitError, match="21 vertices"):
        SimplicialComplex.from_json_dict(data, max_vertices=20)
    assert SimplicialComplex.from_json_dict(data).m == 21


def test_bitset_bound_refused_before_enumeration():
    # both constructors refuse m > 64 before any face is built: 300000
    # singletons would peak at tens of MiB
    for build in (SimplicialComplex.from_facets, SimplicialComplex):
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitError, match="bitset bound of 64"):
                build(300000, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (build, peak)
    assert SimplicialComplex.from_facets(64, []).m == 64


def with_ghosts(K, rng):
    """K with every face through one or two random vertices removed, which
    leaves those vertices as ghosts: missing faces of size one."""
    ghosts = set(rng.sample(range(1, K.m + 1), rng.randint(1, 2)))
    return SimplicialComplex(K.m, [f for f in K.faces if not ghosts & set(f)])


def test_missing_faces_within_matches_the_full_subcomplex():
    rng = random.Random(61)
    ghost_faces = 0
    for _ in range(30):
        K = random_complex(rng.randint(3, 7), rng)
        if rng.random() < 0.7:
            K = with_ghosts(K, rng)
        assert list(K.missing_faces()) == brute_missing_faces(K)
        for k in range(K.m + 1):
            for J in combinations(range(1, K.m + 1), k):
                sub = K.full_subcomplex(J)
                expected = [tuple(J[v - 1] for v in f) for f in sub.missing_faces()]
                assert K.missing_faces_within(J) == expected, (K, J)
                ghost_faces += sum(len(f) == 1 for f in expected)
    assert ghost_faces > 100


def test_generator_table_against_the_subset_scan():
    """On every vertex subset S of seeded complexes with ghost vertices,
    `missing_faces_within` and the generator table's `within` give the
    missing faces that a scan of K's faces inside S finds
    (`reference_missing_faces_within`), ghost singletons among them."""
    rng = random.Random(67)
    subsets = ghost_faces = 0
    for _ in range(30):
        K = with_ghosts(random_complex(rng.randint(3, 8), rng), rng)
        gens = K.generators()
        for k in range(K.m + 1):
            for S in combinations(range(1, K.m + 1), k):
                want = reference_missing_faces_within(K, S)
                assert K.missing_faces_within(S) == want, (K, S)
                assert gens.within(face_mask(S)) == \
                    sum(1 << gens.faces.index(F) for F in want), (K, S)
                subsets += 1
                ghost_faces += sum(len(f) == 1 for f in want)
    assert subsets > 2000 and ghost_faces > 1000


def test_generator_word_sets_one_bit_per_factor():
    """`Generators.word` sets the bit of each factor, in any order, on
    seeded words over 20 generators, and refuses a repeated factor, which
    would carry into another generator's bit if the bits were added: on the
    facets 12, 34, 13 the generators are 14, 23, 24, and 23 twice would read
    as 24."""
    rng = random.Random(71)
    faces = sorted({tuple(sorted(rng.sample(range(1, 13), rng.randint(2, 4))))
                    for _ in range(60)}, key=lambda f: (len(f), f))[:20]
    gens = Generators(faces)
    assert len(gens.faces) == 20
    for _ in range(500):
        word = rng.getrandbits(20) & rng.getrandbits(20)
        labels = [F for q, F in enumerate(faces) if word >> q & 1]
        rng.shuffle(labels)
        assert gens.word(labels) == word
    assert gens.word(()) == 0 and gens.word(faces) == (1 << 20) - 1
    K = SimplicialComplex.from_facets(4, [(1, 2), (3, 4), (1, 3)])
    assert K.missing_faces() == ((1, 4), (2, 3), (2, 4))
    assert K.generators().word(((2, 4),)) == 0b100
    for word in [((2, 3), (2, 3)), ((1, 4), (2, 3), (1, 4))]:
        with pytest.raises(ValueError, match="repeated factor"):
            K.generators().word(word)
    with pytest.raises(ValueError, match=r"factors \[\(1, 2\)\] are not missing faces of K"):
        K.generators().word(((1, 2), (2, 3)))


def test_face_index_within_is_the_faces_of_the_full_subcomplex():
    """The face index's `within(S)` marks exactly `face_masks_within(S)`, on
    every vertex subset of the split complexes, in both layouts."""
    for K in split_complexes():
        for index in layouts(K):
            for k in range(K.m + 1):
                for S in combinations(range(1, K.m + 1), k):
                    got = index.within(face_mask(S))
                    assert sorted(index.order[i] for i in range(len(index.order))
                                  if got >> i & 1) == sorted(K.face_masks_within(S)), (K, S)


def test_missing_faces_within_bounds():
    """No vertex count is gated: the missing faces come from one scan of
    K's faces, linear in their number; labels outside 1..m are refused."""
    K = SimplicialComplex(30, [(v,) for v in range(1, 31)])
    assert len(K.missing_faces_within(range(3, 27))) == 24 * 23 // 2
    assert len(K.missing_faces_within(range(1, 26))) == 25 * 24 // 2 == 300
    assert len(K.missing_faces()) == 30 * 29 // 2 == 435
    with pytest.raises(ValueError, match="outside vertex range"):
        K.missing_faces_within((1, 31))


# -- constructors on face bitmasks against the tuple references ------------------

def same_as_reference(K, R):
    """K against the TupleComplex R: faces, facets, missing faces, the
    singleton and dimension reads, membership, `faces_within`, and == and
    hash against R's faces given as a face list."""
    assert K.m == R.m and K.faces == R.faces
    assert list(K.facets) == brute_facets(R)
    assert list(K.missing_faces()) == brute_missing_faces(R)
    assert K.vertices() == tuple(v for v in range(1, R.m + 1) if (v,) in R.faces)
    assert K.has_all_singletons() == all((v,) in R.faces for v in range(1, R.m + 1))
    assert K.dimension() == max(map(len, R.faces)) - 1
    everything = range(1, R.m + 1)
    assert K.faces_within(everything) == sorted(R.faces, key=lambda f: (len(f), f))
    for k in range(R.m + 1):
        for f in combinations(everything, k):
            assert (f in K) == (f in R.faces)
    L = SimplicialComplex(R.m, R.faces)
    assert K == L and hash(K) == hash(L)


def test_from_facets_matches_the_tuple_closure():
    """On the split complexes' facets and on seeded facet lists."""
    rng = random.Random(2200)
    cases = [(K.m, K.facets) for K in split_complexes()]
    for _ in range(40):
        m = rng.randint(0, 7)
        cases.append((m, [rng.sample(range(1, m + 1), rng.randint(0, m))
                          for _ in range(rng.randint(0, 5))]))
    for m, facets in cases:
        same_as_reference(SimplicialComplex.from_facets(m, facets),
                          reference_from_facets(m, facets))


def test_boundary_join_and_substitute_match_the_tuple_references():
    """On the split complexes: the boundary of each (and of that, which
    leaves ghost vertices), the join of neighbours, and each substituted
    into the boundary of a triangle together with two others."""
    Ks = split_complexes()
    Rs = [TupleComplex(K.m, K.faces) for K in Ks]
    slot, slot_ref = simplex_boundary(3), reference_boundary(reference_from_facets(3, [(1, 2, 3)]))
    for i, (K, R) in enumerate(zip(Ks, Rs)):
        same_as_reference(boundary(K), reference_boundary(R))
        same_as_reference(boundary(boundary(K)), reference_boundary(reference_boundary(R)))
        j = (i + 1) % len(Ks)
        if K.m + Ks[j].m <= 12:
            same_as_reference(join(K, Ks[j]), reference_join(R, Rs[j]))
        parts = [K, point(), simplex_boundary(2)]
        part_refs = [R, reference_from_facets(1, [(1,)]),
                     reference_boundary(reference_from_facets(2, [(1, 2)]))]
        same_as_reference(substitute(slot, parts).complex,
                          TupleComplex(K.m + 3, frozenset(brute_substitute_faces(slot_ref, part_refs))))


def random_expression(rng, depth, budget):
    """A random builder expression on at most `budget` vertices, as its text
    and the TupleComplex the references build for it; a `bd` of a `bd`
    leaves ghost vertices."""
    kind = rng.choice(["simplex", "bd", "bd", "join", "subst"]) if depth else "simplex"
    if kind == "bd":
        text, R = random_expression(rng, depth - 1, budget)
        return f"bd({text})", reference_boundary(R)
    if kind == "join" and budget >= 2:
        text1, R1 = random_expression(rng, depth - 1, rng.randint(1, budget - 1))
        text2, R2 = random_expression(rng, depth - 1, budget - R1.m)
        return f"join({text1},{text2})", reference_join(R1, R2)
    if kind == "subst" and budget >= 2:
        slot_text, slot = random_expression(rng, depth - 1, min(3, budget))
        parts, left = [], budget
        for i in range(slot.m):
            text, P = random_expression(rng, depth - 1, rng.randint(1, left - (slot.m - 1 - i)))
            parts.append((text, P))
            left -= P.m
        faces = frozenset(brute_substitute_faces(slot, [P for _, P in parts]))
        return (f"subst({slot_text};{','.join(text for text, _ in parts)})",
                TupleComplex(budget - left, faces))
    k = rng.randint(1, min(3, budget))
    return f"simplex({','.join(map(str, range(1, k + 1)))})", reference_from_facets(k, [range(1, k + 1)])


def test_builder_expressions_match_the_tuple_references():
    """Seeded expressions of every builder, ghost vertices included."""
    rng = random.Random(2201)
    ghosts = 0
    for _ in range(120):
        text, R = random_expression(rng, 3, 8)
        K = parse_complex(text)
        same_as_reference(K, R)
        ghosts += not K.has_all_singletons()
    assert ghosts >= 10, ghosts


def random_bracket(rng, leaves):
    """A random bracket on the labels `leaves` (at least two): some children
    leaves, some sub-brackets, sometimes none of its own leaves."""
    while True:
        rest, children = list(leaves), []
        rng.shuffle(rest)
        while rest:
            size = min(len(rest), len(leaves) - 1, rng.choice([1, 1, 2, 3]))
            chunk, rest = rest[:size], rest[size:]
            children.append(leaf(chunk[0]) if size == 1 else random_bracket(rng, chunk))
        if len(children) >= 2:
            return bracket(children)


def test_delta_w_matches_the_tuple_reference():
    """bd_Delta(w) and its top sphere on seeded brackets of 2 to 7 leaves,
    with and without a sphere."""
    rng = random.Random(2202)
    spheres = set()
    for _ in range(60):
        w = random_bracket(rng, range(1, rng.randint(2, 7) + 1))
        dw = delta_w(w)
        R, sphere = reference_delta_w(w)
        same_as_reference(dw.complex, R)
        spheres.add(sphere is None)
        if sphere is None:
            assert dw.sphere is None, w
        else:
            same_as_reference(dw.sphere, sphere)
    assert spheres == {True, False}


# -- facets first, against the eager tuple builder ----------------------------------

def same_as_eager(K, R):
    """`same_as_reference`, with the facet reads and the JSON form taken
    first, before any face is built; and == and hash against K rebuilt from
    its facet list, reversed, where every vertex is a face."""
    assert K.dimension() == max(map(len, R.faces)) - 1
    assert K.facets == tuple(brute_facets(R))
    assert K.to_json_dict() == {"m": R.m, "facets": [list(f) for f in brute_facets(R) if f]}
    same_as_reference(K, R)
    if K.has_all_singletons():
        L = SimplicialComplex.from_facets(R.m, list(reversed(K.facets)) + [()])
        assert K == L and hash(K) == hash(L) and L.missing_faces() == K.missing_faces()


def bracket_shapes(n):
    """Every bracket shape on n >= 2 leaves, as nested lists of leaf counts:
    two or more children, each a leaf (1) or a shape on fewer leaves, the
    children by non-increasing size and shape."""
    def shapes(k):
        return [1] if k == 1 else bracket_shapes(k)

    def children(left, most, first):
        """Child lists with `left` leaves, no child above `most` leaves, and
        of `most` leaves none before shape index `first`."""
        if not left:
            yield []
        for size in range(min(left, most), 0, -1):
            options = shapes(size)
            for i in range(first if size == most else 0, len(options)):
                for rest in children(left - size, size, i):
                    yield [options[i]] + rest
    return [kids for kids in children(n, n - 1, 0)]


def shape_text(shape, labels):
    """The bracket text of a shape, its leaves labelled from `labels` in order."""
    if shape == 1:
        return str(next(labels))
    return "[" + ",".join(shape_text(child, labels) for child in shape) + "]"


def test_bracket_shapes_are_the_series_reduced_trees():
    """1, 2, 5, 12, 33 and 90 shapes on 2..7 leaves (OEIS A000669)."""
    assert [len(bracket_shapes(n)) for n in range(2, 8)] == [1, 2, 5, 12, 33, 90]


def test_facets_first_matches_the_eager_builder():
    """Seeded facet lists with non-maximal, repeated and empty facets and
    uncovered vertices, m = 0 among them; `bd` of those (ghost vertices),
    joins and substitutions of them; face lists through `__init__`; and
    bd_Delta(w) with its top sphere for every bracket shape on 2 to 7
    leaves."""
    rng = random.Random(5009)
    built = []
    for _ in range(60):
        m = rng.randint(0, 7)
        facets = [rng.sample(range(1, m + 1), rng.randint(0, m)) for _ in range(rng.randint(0, 6))]
        facets += [facets[0][::-1]] if facets else []            # repeated, reordered
        facets += [facets[0][:1]] if facets else []              # non-maximal
        facets += [[]]                                          # empty
        K, R = SimplicialComplex.from_facets(m, facets), reference_from_facets(m, facets)
        same_as_eager(K, R)
        same_as_eager(boundary(K), reference_boundary(R))
        same_as_eager(boundary(boundary(K)), reference_boundary(reference_boundary(R)))
        same_as_eager(SimplicialComplex(m, R.faces), R)
        built.append((K, R))
    assert any(not boundary(boundary(K)).has_all_singletons() for K, _ in built)
    assert any(K.m == 0 for K, _ in built)
    joins = substitutions = 0
    for (K1, R1), (K2, R2) in zip(built, built[1:]):
        if K1.m + K2.m <= 10:
            same_as_eager(join(K1, K2), reference_join(R1, R2))
            joins += 1
        if 1 <= K1.m <= 4 and K1.m + 3 * K2.m <= 12:
            substitutions += 1
            parts = [K2, boundary(boundary(K2)), point(), simplex_boundary(1)][:K1.m]
            refs = [R2, reference_boundary(reference_boundary(R2)), reference_from_facets(1, [(1,)]),
                    TupleComplex(1, frozenset({()}))][:K1.m]
            same_as_eager(substitute(K1, parts).complex,
                          TupleComplex(sum(P.m for P in parts),
                                       frozenset(brute_substitute_faces(R1, refs))))
    assert joins > 20 and substitutions > 5, (joins, substitutions)
    for n in range(2, 8):
        for shape in bracket_shapes(n):
            w = parse_whitehead(shape_text(shape, iter(range(1, n + 1))))
            dw, (R, sphere) = delta_w(w), reference_delta_w(w)
            same_as_eager(dw.complex, R)
            if sphere is not None:
                same_as_eager(dw.sphere, sphere)


def shift_pass_cases():
    """Seeded facet lists for every m from 0 to 12, with their boundaries
    (ghost vertices), and at m = 22 and 23 sparse ones and their
    boundaries, the 22-vertex cross-polytope (2048 facets) and 23 isolated
    points."""
    rng = random.Random(5010)
    out = []
    for m in range(13):
        for _ in range(6):
            K = random_complex(m, rng, rng.choice([2, 6, 3 * m])) if m else SimplicialComplex(0, [])
            out += [K, boundary(K)]
    cross = SimplicialComplex.from_facets(
        22, [[2 * i + 1 + b for i, b in enumerate(bits)] for bits in product((0, 1), repeat=11)])
    out += [cross, SimplicialComplex.from_facets(23, [])]
    for m in (22, 23):
        sparse = SimplicialComplex.from_facets(m, [rng.sample(range(1, m + 1), rng.randint(1, 8))
                                                   for _ in range(12)])
        out += [sparse, boundary(sparse)]
    return out


def test_the_shift_pass_is_the_face_scan():
    """The bit-parallel pass over the 2^m vertex sets and the scan of the
    faces find the same missing faces; `missing_faces` takes the pass up to
    22 vertices and the scan above."""
    scanned, cases = [], shift_pass_cases()
    for K in cases:
        by_scan = sorted(cx._missing_by_scan(K.m, K.face_masks))
        assert sorted(cx._missing_by_shifts(K.m, K.face_indicator()[0])) == by_scan, K
        assert sorted(map(face_mask, K.missing_faces())) == by_scan, K
        scanned.append(K.m > cx.SHIFT_PASS_MAX_VERTICES)
    assert cx.SHIFT_PASS_MAX_VERTICES == 22 and sum(scanned) == 3
    assert {K.m for K in cases} == set(range(13)) | {22, 23}


def test_missing_faces_take_the_face_scan_only_past_22_vertices(monkeypatch):
    scans = []
    raw = cx._missing_by_scan
    monkeypatch.setattr(cx, "_missing_by_scan", lambda m, masks: scans.append(m) or raw(m, masks))
    for m in (22, 23):
        K = SimplicialComplex.from_facets(m, [(1, 2), (2, 3)])
        assert K.missing_faces()[:2] == ((1, 3), (1, 4))
    assert scans == [23]


@pytest.mark.parametrize("build, bound", [
    (lambda: SimplicialComplex.from_facets(16, [range(1, 17)]), 14),
    (lambda: delta_w(parse_whitehead(str(list(range(1, 15))))), 4.5),
], ids=["simplex16", "delta_w14"])
def test_faces_are_stored_once(build, bound):
    """A complex keeps each face as one bitmask: the 16-vertex simplex
    (65536 faces) and bd_Delta of a 14-leaf bracket stay under these peaks
    in MiB (21.5 and 6.7 when each face was also a tuple)."""
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * 2 ** 20, peak / 2 ** 20


def test_realise_traffic_never_reads_faces(tmp_path, monkeypatch):
    """The seed-1 `realise` job list of the benchmark (tools/report_digest.py
    builds it) runs on face bitmasks: no verb decodes the `faces` view."""
    root = Path(__file__).resolve().parent.parent
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(root / "bench"))
    monkeypatch.syspath_prepend(str(root / "tools"))
    import report_digest
    reads = []
    raw = SimplicialComplex.faces
    monkeypatch.setattr(SimplicialComplex, "faces",
                        property(lambda K: reads.append(K) or raw.fget(K)))
    codes = [report_digest.call(argv)[0]
             for argv in report_digest.job_argvs("realise", 1, 2, str(tmp_path))]
    assert len(codes) > 100 and set(codes) == {0}
    assert reads == []
    assert sorted(point().faces) == [(), (1,)] and len(reads) == 1
