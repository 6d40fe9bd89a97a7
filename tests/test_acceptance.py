"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All comparisons are exact; homology equalities include torsion.
"""

import random

from momangle import moment_angle as ma
from momangle import whitehead as wh
from momangle.complexes import (SimplicialComplex, join, parse_complex, point,
                                simplex, simplex_boundary, substitute,
                                substitution_missing_faces)
from momangle.exactalg import HomologyGroup
from momangle.moment_angle import CellChain, hochster_table, zk_homology
from momangle.taylor import (MonomialIdeal, TaylorChain,
                             nested_taylor_cycle, taylor_face_complex,
                             taylor_homology, taylor_homology_by_support,
                             verify_taylor_is_resolution)
from momangle.whitehead import (DEFINED_NONTRIVIAL, DEFINED_TRIVIAL,
                                UNDEFINED, delta_w, hurewicz_chain,
                                nested_shape_status, parse_whitehead,
                                shifted_wedge_basis, single_product_status)
from momangle.zigzag import classes_equal_up_to_sign, koszul_to_taylor

from oracles import (cone_reconstruction, labelled_words, random_complex,
                     random_shifted_complex, reduced_ranks, reference_trivialising_join,
                     taylor_boundary_word)
from test_taylor import SUB5_DIFFERENTIALS

WEDGE_SUB5 = {5: 4, 6: 3, 7: 1, 8: 1}
WEDGE_FILLED6 = {7: 6, 8: 6, 9: 2, 10: 1}


def three_route_table(K):
    cell = {d: h for d, h in zk_homology(K).items()
            if d > 0 and not h.is_trivial()}
    _, agg = hochster_table(K)
    hoch = {d: h for d, h in agg.items() if d > 0 and not h.is_trivial()}
    tay = {d: h for d, h in taylor_homology(K).items() if d > 0}
    return cell, hoch, tay


def test_criterion_01_figure_one_three_routes(sub5):
    cell, hoch, tay = three_route_table(sub5)
    expected = {d: HomologyGroup(r) for d, r in WEDGE_SUB5.items()}
    assert cell == expected
    assert hoch == expected
    assert tay == expected
    print("ACCEPTANCE 1: PASS - 5-vertex substitution complex ranks {5:4,6:3,7:1,8:1} on all three routes")


def test_criterion_02_filled_complex_three_routes(filled6):
    cell, hoch, tay = three_route_table(filled6)
    expected = {d: HomologyGroup(r) for d, r in WEDGE_FILLED6.items()}
    assert cell == expected
    assert hoch == expected
    assert tay == expected
    print("ACCEPTANCE 2: PASS - filled 6-vertex complex ranks {7:6,8:6,9:2,10:1} on all three routes")


def test_criterion_03_taylor_complex_of_figure_one(sub5):
    C = taylor_face_complex(sub5)
    assert [C.dim(-s) for s in range(5)] == [1, 4, 6, 4, 1]
    for word, expected in SUB5_DIFFERENTIALS.items():
        assert taylor_boundary_word(sub5, word) == expected, word
    print("ACCEPTANCE 3: PASS - Taylor ranks (1,4,6,4,1) and the worked differential table match")


CYCLE_CATALOGUE = [
    ("[1,2,3]", ["D1*D2*S3 + D1*S2*D3 + S1*D2*D3"], "w123"),
    ("[1,4,5]", ["D1*D4*S5 + D1*S4*D5 + S1*D4*D5"], "w145"),
    ("[2,4,5]", ["D2*D4*S5 + D2*S4*D5 + S2*D4*D5"], "w245"),
    ("[3,4,5]", ["D3*D4*S5 + D3*S4*D5 + S3*D4*D5"], "w345"),
    ("[[1,4,5],2]", ["D1*D4*S5 + D1*S4*D5 + S1*D4*D5", "S2"], "w245^w145"),
    ("[[1,4,5],3]", ["D1*D4*S5 + D1*S4*D5 + S1*D4*D5", "S3"], "w345^w145"),
    ("[[2,4,5],3]", ["D2*D4*S5 + D2*S4*D5 + S2*D4*D5", "S3"], "w345^w245"),
    ("[[[1,4,5],2],3]", ["D1*D4*S5 + D1*S4*D5 + S1*D4*D5", "S2", "S3"],
     "(w123+w345)^w245^w145"),
    ("[[1,2,3],4,5]", ["D1*D2*S3 + D1*S2*D3 + S1*D2*D3", "D4*S5 + S4*D5"],
     "(w145+w245+w345)^w123"),
]


def test_criterion_04_table_one_rows(sub5):
    for text, printed_factors, printed_taylor in CYCLE_CATALOGUE:
        w = parse_whitehead(text)
        printed = CellChain.from_text(printed_factors[0])
        for factor in printed_factors[1:]:
            printed = printed.product(CellChain.from_text(factor))
        got = hurewicz_chain(w)
        assert got == printed or got == -printed, text
        cycle, _ = koszul_to_taylor(sub5, got)
        target = TaylorChain.from_text(sub5, printed_taylor)
        assert classes_equal_up_to_sign(sub5, cycle, target), text
    print("ACCEPTANCE 4: PASS - all 9 catalogued bracket cycles (cellular chains exact, Taylor up to sign)")


def test_criterion_05_s10_zigzag(filled6):
    w = parse_whitehead("[[1,2,3],4,5,6]")
    z = hurewicz_chain(w, 6)
    cycle, _ = koszul_to_taylor(filled6, z)
    expected = TaylorChain.from_text(filled6, "(w1234+w1235+w1236)^(w1456+w2456+w3456)")
    assert cycle == expected or cycle == -expected
    # no degree-10 cycle has a single-generator factor: degree 10 lives only
    # in the (S=[6], s=2) slot, whose boundary space is zero (no missing face
    # covers all six vertices), so homologous means equal on the nose; a
    # cycle of the form u ^ w_F would carry F in all of its words
    mfs = filled6.missing_faces()
    assert all(len(F) < 6 for F in mfs)
    for F in mfs:
        assert not all(F in word for word in labelled_words(cycle)), F
    print("ACCEPTANCE 5: PASS - S^10 cycle reproduced exactly; no single-generator factorisation exists")


def test_criterion_06_eight_vertex_example(eight_vertex):
    expected_mf = ((1, 2, 3), (4, 5, 6),
                   (1, 4, 7, 8), (1, 5, 7, 8), (1, 6, 7, 8),
                   (2, 4, 7, 8), (2, 5, 7, 8), (2, 6, 7, 8),
                   (3, 4, 7, 8), (3, 5, 7, 8), (3, 6, 7, 8))
    assert eight_vertex.missing_faces() == expected_mf
    w = parse_whitehead("[[1,2,3],[4,5,6],7,8]")
    z = hurewicz_chain(w, 8)
    cycle, _ = koszul_to_taylor(eight_vertex, z)
    expected = TaylorChain.from_text(
        eight_vertex, "(w1478+w1578+w1678+w2478+w2578+w2678+w3478+w3578+w3678)^w456^w123")
    assert classes_equal_up_to_sign(eight_vertex, cycle, expected)
    print("ACCEPTANCE 6: PASS - 8-vertex example: 11 missing faces and the general-product zigzag")


def random_nested(rng, max_leaves=9, max_depth=3):
    total = rng.randint(3, max_leaves)
    labels = list(range(1, total + 1))
    rng.shuffle(labels)
    p1 = rng.randint(2, max(2, total - 1))
    levels = [labels[:p1]]
    rest = labels[p1:]
    while rest and len(levels) < max_depth:
        take = rng.randint(1, len(rest)) if len(levels) < max_depth - 1 else len(rest)
        levels.append(rest[:take])
        rest = rest[take:]
    if rest:
        levels[-1].extend(rest)
    text = "[" + ",".join(map(str, levels[0])) + "]"
    for lvl in levels[1:]:
        text = "[" + ",".join([text] + list(map(str, lvl))) + "]"
    return parse_whitehead(text)


def test_criterion_07_nested_taylor_theorem():
    rng = random.Random(0)
    for trial in range(30):
        w = random_nested(rng)
        dw = delta_w(w)
        K = dw.complex.relabelled(dw.vertex_to_leaf(), m=max(w.leaves()))
        cycle, _ = koszul_to_taylor(K, hurewicz_chain(w, K.m))
        closed = nested_taylor_cycle(w, K)
        assert classes_equal_up_to_sign(K, cycle, closed), w.to_text()
    print("ACCEPTANCE 7: PASS - 30 random nested products: zigzag matches the closed form up to sign")


def test_criterion_08_single_product_statuses():
    rng = random.Random(1)
    checked_nontrivial = 0
    for trial in range(200):
        K = random_complex(rng.randint(2, 6), rng)
        size = rng.randint(2, K.m)
        I = tuple(sorted(rng.sample(range(1, K.m + 1), size)))
        status = single_product_status(K, I)
        boundary_in = all(tuple(v for v in I if v != x) in K for x in I)
        face_in = I in K
        if not boundary_in:
            assert status == UNDEFINED
            continue
        assert status == (DEFINED_TRIVIAL if face_in else DEFINED_NONTRIVIAL)
        w = wh.bracket([wh.leaf(v) for v in I])
        assert ma.zk_bounds(K, hurewicz_chain(w, K.m)) == (status == DEFINED_TRIVIAL)
        if status == DEFINED_NONTRIVIAL:
            checked_nontrivial += 1
    assert checked_nontrivial >= 10
    print("ACCEPTANCE 8: PASS - 200 random single-product statuses, classes nonzero exactly when nontrivial")


def random_shape(rng):
    """[w_1..w_q, leaves] with single-product w_j, every label used once."""
    q = rng.randint(1, 2)
    sizes = [rng.randint(2, 3) for _ in range(q)]
    p = rng.randint(1, 2)
    if sum(sizes) + p > 7:
        sizes[-1] = 2
    labels = list(range(1, sum(sizes) + p + 1))
    rng.shuffle(labels)
    parts = []
    used = 0
    for size in sizes:
        parts.append(labels[used:used + size])
        used += size
    leaves = labels[used:]
    text = "[" + ",".join(
        ["[" + ",".join(map(str, p_)) + "]" for p_ in parts]
        + [str(v) for v in leaves]) + "]"
    return parse_whitehead(text)


def test_criterion_09_smallest_realisation():
    rng = random.Random(2)
    done = 0
    while done < 30:
        w = random_shape(rng)
        m = max(w.leaves())
        dw = delta_w(w)
        K = dw.complex.relabelled(dw.vertex_to_leaf(), m=m)
        assert nested_shape_status(K, w) == DEFINED_NONTRIVIAL, w.to_text()
        join_complex, join_map = reference_trivialising_join(w)
        ambient = join_complex.relabelled(
            {v: l for l, v in join_map.items()}, m=m)
        assert nested_shape_status(ambient, w) == DEFINED_TRIVIAL, w.to_text()
        for facet in K.facets:
            if len(facet) < 2:
                continue
            smaller = SimplicialComplex(K.m, set(K.faces) - {facet})
            assert nested_shape_status(smaller, w) == UNDEFINED, (w.to_text(), facet)
        done += 1
    print("ACCEPTANCE 9: PASS - 30 random shapes: smallest-complex criterion and facet-removal spot-check")


def corpus():
    rng = random.Random(3)
    out = [
        SimplicialComplex.from_facets(2, []),
        simplex(2), simplex(3), simplex(4),
        simplex_boundary(2), simplex_boundary(3), simplex_boundary(4),
        simplex_boundary(5),
        SimplicialComplex.from_facets(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
        SimplicialComplex.from_facets(
            6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)]),
        SimplicialComplex.from_facets(3, [(1, 2), (2, 3)]),
        join(simplex_boundary(2), simplex_boundary(2)),
        join(simplex_boundary(3), point()),
        parse_complex("subst(bd(simplex(1,2,3)); bd(simplex(1,2,3)), pt, pt)"),
    ]
    for _ in range(14):
        out.append(random_complex(5, rng))
    for _ in range(8):
        out.append(random_complex(6, rng))
    return out


def test_criterion_10_hochster_route_agreement(rp2, filled6):
    rng = random.Random(10)
    extra = [random_complex(6, rng) for _ in range(60)]
    for K in corpus() + extra + [rp2, filled6]:
        cell = {d: h for d, h in zk_homology(K).items() if not h.is_trivial()}
        _, agg = hochster_table(K)
        hoch = {d: h for d, h in agg.items() if not h.is_trivial()}
        assert cell == hoch, K.facets
    assert zk_homology(rp2)[8] == HomologyGroup(0, (2,))
    print("ACCEPTANCE 10: PASS - cellular and Hochster homology agree (torsion included) on the corpus")


def test_criterion_11_appendix_resolutions():
    rng = random.Random(4)
    done = 0
    while done < 50:
        m = rng.randint(2, 5)
        K = random_complex(m, rng)
        mfs = K.missing_faces()
        if not (1 <= len(mfs) <= 6):
            continue
        ideal = MonomialIdeal.stanley_reisner(K)
        report = verify_taylor_is_resolution(ideal)
        assert report.ok(), (K.facets, report.failures)
        assert taylor_homology_by_support(K) == hochster_table(K)[0], K.facets
        if len(ideal.gens) <= 5:
            assert cone_reconstruction(ideal).matches, K.facets
        done += 1
    print("ACCEPTANCE 11: PASS - 50 random square-free Taylor resolutions exact; cone reconstructions match")


def test_criterion_12_shifted_wedge_bases():
    rng = random.Random(5)
    for _ in range(25):
        K = random_shifted_complex(rng.randint(3, 6), rng)
        basis = shifted_wedge_basis(K, order=tuple(range(1, K.m + 1)))
        assert basis.is_basis, (K.facets, basis.details)
    print("ACCEPTANCE 12: PASS - 25 random shifted complexes: Whitehead chains form a Z-basis")


def test_criterion_13_structural_suites(sub5, rp2):
    # d^2 = 0 is asserted by every ChainComplex constructor; exercise it
    for K in [sub5, rp2, simplex_boundary(4)]:
        ma.zk_chain_complex(K).check_squares_to_zero()
        taylor_face_complex(K).check_squares_to_zero()
    # substitution missing faces against brute force
    rng = random.Random(6)
    for _ in range(100):
        slot = random_complex(rng.randint(1, 4), rng)
        parts = [random_complex(rng.randint(1, 4), rng) for _ in range(slot.m)]
        sub = substitute(slot, parts)
        assert substitution_missing_faces(slot, parts) == \
            list(sub.complex.missing_faces())
    # substitution with points is the identity
    for _ in range(10):
        K = random_complex(rng.randint(2, 5), rng)
        assert substitute(K, [point()] * K.m).complex == K
    # boundaries of simplices give odd spheres
    for m in range(2, 6):
        assert reduced_ranks(zk_homology(simplex_boundary(m))) == {2 * m - 1: 1}
    print("ACCEPTANCE 13: PASS - structural suites (d^2=0, substitution formula, identities, spheres)")
