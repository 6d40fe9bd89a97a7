import random

import pytest

from momangle import complexes as cx
from momangle import moment_angle as ma
from momangle.complexes import ParseError, SimplicialComplex, simplex, simplex_boundary
from momangle.exactalg import HomologyGroup
from momangle.moment_angle import (CellChain, cell_boundary, hochster_table,
                                   zk_chain_complex, zk_homology)
from momangle.taylor import MAX_GENERATORS, MonomialIdeal, mask_unions, taylor_homology
from oracles import (cell_chain, closed_form_family, closed_form_homology, hochster_embed,
                     labelled_cell, labelled_cells, random_complex, reduced_ranks,
                     reference_cell_boundary, reference_connected_parts, reference_mask_lattice,
                     reference_twin_classes, reference_zk_class, shuffle_sign,
                     simplicial_homology_dense, boundary_vector, chain_from_vector)


def test_two_points_is_three_sphere(two_points):
    C = zk_chain_complex(two_points)
    cells = [c for cs in C.basis.values() for c in cs]
    assert len(cells) == 8
    hom = zk_homology(two_points)
    assert {d: h.rank for d, h in hom.items()} == {0: 1, 3: 1}


def test_full_simplex_is_contractible():
    hom = zk_homology(simplex(2))
    assert {d: h.rank for d, h in hom.items()} == {0: 1}


def test_boundary_sign_rule():
    # d(D1 S2) = +S1 S2: the new circle letter sees no smaller ones
    assert cell_boundary((0b10, 0b1)) == {(0b11, 0): 1}
    assert cell_boundary((0b1, 0b10)) == {(0b11, 0): -1}


def test_cell_boundary_matches_sorting_reference():
    rng = random.Random(5)
    for _ in range(25):
        K = random_complex(rng.randint(2, 7), rng)
        for cells in ma.zk_cells(K).values():
            for cell in cells:
                assert labelled_cells(cell_boundary(cell)) == \
                    reference_cell_boundary(labelled_cell(cell)), cell


def test_d_squared_zero_random_chains():
    """d(d(c)) = 0 on 20 seeded chains of four cells, each chain drawn in
    one degree so that every one of them is a chain and is checked."""
    rng = random.Random(1)
    checked = 0
    for _ in range(20):
        m = rng.randint(2, 5)
        degree = rng.randint(1, 2 * m)
        cells = {}
        for _ in range(4):
            discs = rng.randint(max(0, degree - m), degree // 2)
            verts = rng.sample(range(1, m + 1), degree - discs)
            I, J = tuple(sorted(verts[:discs])), tuple(sorted(verts[discs:]))
            cells[(J, I)] = rng.randint(-3, 3)
        chain = cell_chain(cells)
        assert chain.degree == degree or not chain
        assert not chain.boundary().boundary()
        checked += 1
    assert checked == 20


def test_cell_chain_refuses_what_is_no_cell():
    """A cell is a pair of vertex bitmasks, ints >= 0 and no bools, with no
    vertex both a circle and a disc; label tuples are refused.  A product
    or a word that repeats a vertex is refused as sharing one, and the
    letter `S0` is a parse error at its column."""
    for cell in [((1, 2), (3,)), ((), ()), (-1, 0), (0, -2), (True, 0), (0, False)]:
        with pytest.raises(ValueError, match="not a pair of vertex bitmasks"):
            CellChain({cell: 1})
    for cell in [(0b1, 0b1), (0b110, 0b011)]:
        with pytest.raises(ValueError, match="overlapping S and D"):
            CellChain({cell: 1})
    for text in ["S1*S1", "D2*S2"]:
        with pytest.raises(ValueError, match="share a vertex"):
            CellChain.from_text(text)
    with pytest.raises(ParseError, match="column 5"):
        CellChain.from_text("S1*S0")
    assert CellChain({(0b11, 0b100): 1}).to_text() == "S1*S2*D3"


def test_sphere_homology_for_simplex_boundaries():
    for m in range(2, 6):
        hom = zk_homology(simplex_boundary(m))
        assert reduced_ranks(hom) == {2 * m - 1: 1}
        assert all(not h.torsion for h in hom.values())


def test_figure_one_ranks(sub5):
    assert reduced_ranks(zk_homology(sub5)) == {5: 4, 6: 3, 7: 1, 8: 1}


def test_projective_plane_torsion(rp2):
    hom = zk_homology(rp2)
    assert hom[8] == HomologyGroup(0, (2,))


def test_product_koszul_sign():
    a = CellChain.from_text("D1*D4*S5")
    b = CellChain.from_text("S2")
    # S2 passes S5 (odd past odd) and D4 when sorting: one odd transposition
    assert a.product(b) == CellChain.from_text("-D1*S2*D4*S5")
    with pytest.raises(ValueError):
        a.product(CellChain.from_text("S4"))


def test_product_refuses_a_shared_vertex():
    """A circle or disc vertex in both factors is refused, a zero factor is
    not."""
    a = CellChain.from_text("D1*D4*S5 + S1*D4*D5")
    for other in ("S4", "S5", "D1*S2", "S2 + S5"):
        with pytest.raises(ValueError, match="share a vertex"):
            a.product(CellChain.from_text(other))
    assert not a.product(CellChain({}))


def test_text_roundtrip_and_reordering():
    chain = CellChain.from_text("D1*D2*S3 + D1*S2*D3 + S1*D2*D3")
    assert CellChain.from_text(chain.to_text()) == chain
    # swapping two circle letters in the written word flips the sign
    assert CellChain.from_text("S3*S2*D1") == CellChain.from_text("-D1*S2*S3")


def test_shuffle_sign_fills_subset():
    assert shuffle_sign((1, 2, 3), (1, 2, 3)) == 1
    assert shuffle_sign((2,), (1, 2)) == 1
    assert shuffle_sign((1,), (1, 2)) == -1


def test_hochster_embed_two_points(two_points):
    c = hochster_embed(two_points, (1, 2), {(1,): 1, (2,): -1})
    assert c.degree == 3
    assert not c.boundary()
    assert c == CellChain.from_text("-D1*S2 - S1*D2") or \
        c == CellChain.from_text("D1*S2 + S1*D2")
    assert not ma.zk_bounds(two_points, c)
    cls = reference_zk_class(two_points, c)
    assert cls.orders == (0,) and cls.coords[0] in (1, -1)


def test_hochster_embed_simplex_fills_subset(sub5):
    c = hochster_embed(sub5, (4, 5), {(4, 5): 1})
    assert c == CellChain.from_text("D4*D5")


def test_hochster_embed_triangle_matches_bracket_chain(sub5):
    fund = {(2, 3): 1, (1, 3): -1, (1, 2): 1}
    c = hochster_embed(sub5, (1, 2, 3), fund)
    expected = CellChain.from_text("D1*D2*S3 + D1*S2*D3 + S1*D2*D3")
    assert c == expected or c == -expected


def test_hochster_embed_rejects_outside_support(sub5):
    with pytest.raises(ValueError):
        hochster_embed(sub5, (1, 2), {(1, 3): 1})
    with pytest.raises(ValueError):
        hochster_embed(sub5, (1, 2, 3), {(1, 2, 3): 1})


def test_hochster_embed_is_chain_map():
    rng = random.Random(23)
    for _ in range(15):
        K = random_complex(rng.randint(2, 5), rng)
        verts = range(1, K.m + 1)
        J = tuple(sorted(rng.sample(verts, rng.randint(1, K.m))))
        C = cx.reduced_chain_complex(K.faces_within(J))
        degrees = [d for d in C.degrees if d >= 0]
        if not degrees:
            continue
        d = rng.choice(degrees)
        chain = {lab: rng.randint(-2, 2) for lab in C.basis[d]}
        chain = {k: v for k, v in chain.items() if v}
        if not chain:
            continue
        img = hochster_embed(K, J, chain)
        bnd = chain_from_vector(C, d - 1, boundary_vector(C, d, chain))
        lhs = img.boundary()
        rhs = hochster_embed(K, J, bnd) if bnd else CellChain({})
        assert lhs == rhs


def test_embed_degree_bookkeeping():
    rng = random.Random(31)
    K = random_complex(5, rng)
    J = (1, 3, 4)
    for L in K.faces_within(J):
        c = hochster_embed(K, J, {L: 1})
        ((cell, _),) = c.terms.items()
        Jc, I = cell
        assert 2 * I.bit_count() + Jc.bit_count() == len(L) + len(J)


def test_hochster_table_triangle_boundary():
    per, agg = hochster_table(simplex_boundary(3))
    assert per[(cx.face_mask((1, 2, 3)), 5)] == HomologyGroup(1)
    positive = {d: h for d, h in agg.items() if d > 0 and not h.is_trivial()}
    assert positive == {5: HomologyGroup(1)}


def test_hochster_table_refuses_a_mask_past_the_vertices():
    """Subsets are vertex bitmasks, so no label can repeat, and a bit past
    K.m, which names no vertex of K, is refused, as is a label tuple: on
    bd(simplex(1,2,3)) the subsets (1,2,3,9) and (1,1,2,3) once landed Z in
    degree 6, where (1,2,3) has it in degree 5."""
    K = simplex_boundary(3)
    assert hochster_table(K, [0b111])[0] == {(0b111, 5): HomologyGroup(1)}
    for bad in (0b100000111, 0b1000, -1, True, (1, 2, 3)):
        with pytest.raises(ValueError, match="no bitmask of the vertices 1..3"):
            hochster_table(K, [0b11, bad])


def test_hochster_table_full_simplex_empty():
    _, agg = hochster_table(simplex(3))
    assert {d: h for d, h in agg.items() if d > 0 and not h.is_trivial()} == {}


def test_hochster_matches_cellular_route(sub5):
    _, agg = hochster_table(sub5)
    cell = zk_homology(sub5)
    agg = {d: h for d, h in agg.items() if not h.is_trivial()}
    cell = {d: h for d, h in cell.items() if not h.is_trivial()}
    assert agg == cell


def test_route_agreement_random_complexes():
    rng = random.Random(8)
    for _ in range(12):
        K = random_complex(rng.randint(2, 5), rng)
        _, agg = hochster_table(K)
        cell = zk_homology(K)
        assert {d: h for d, h in agg.items() if not h.is_trivial()} == \
            {d: h for d, h in cell.items() if not h.is_trivial()}


def test_subset_homology_against_dense_oracle(rp2):
    per, _ = hochster_table(rp2)
    got = {}
    for (J, degree), h in per.items():
        if J == cx.face_mask(range(1, 7)):
            got[degree - J.bit_count() - 1] = (h.rank, h.torsion)
    assert got == simplicial_homology_dense(rp2.faces)


def test_zk_size_gate():
    with pytest.raises(cx.SizeLimitError):
        ma.zk_cells(SimplicialComplex(25, [()]))


@pytest.mark.parametrize("family, sizes", [
    ("points", range(1, 10)), ("polygon", range(4, 11)), ("cross-polytope", range(1, 6)),
    ("disjoint-edges", range(1, 7)), ("complete-graph", range(3, 8)),
    ("simplex-boundary", range(2, 11)), ("simplex", range(1, 11))])
def test_routes_match_the_closed_forms(family, sizes):
    """The cellular, Hochster and Taylor tables of seven families against
    their closed forms; past the Taylor gate (7 points have 21 missing
    faces, 4 disjoint edges 24, the complete graph on 7 vertices 35) the
    Taylor route must refuse instead."""
    def nonzero(table):
        return {d: h for d, h in table.items() if not h.is_trivial()}

    for n in sizes:
        K = closed_form_family(family, n)
        want = {d: HomologyGroup(r) for d, r in closed_form_homology(family, n).items()}
        assert nonzero(zk_homology(K)) == want, (family, n)
        assert nonzero(hochster_table(K)[1]) == want, (family, n)
        if len(K.missing_faces()) <= MAX_GENERATORS:
            assert nonzero(taylor_homology(K)) == want, (family, n)
        else:
            with pytest.raises(cx.SizeLimitError):
                taylor_homology(K)


def points(n):
    return SimplicialComplex.from_facets(n, [])


def disjoint_edges(n):
    return SimplicialComplex.from_facets(2 * n, [(2 * i + 1, 2 * i + 2) for i in range(n)])


def direct_sums(K):
    return ma.degree_sums(ma.zk_homology_by_support(K))


def test_twin_classes(sub5, rp2):
    """Twins swap onto the same facets: every isolated point, the two ends
    of each disjoint edge, no two vertices of RP^2, and in bd(bd(1,2,3), 4,
    5) the triangle's vertices and the two points."""
    classes = ma.twin_classes

    assert classes(points(9)) == [tuple(range(1, 10))]
    assert classes(disjoint_edges(5)) == [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)]
    assert classes(rp2) == []
    assert classes(sub5) == [(1, 2, 3), (4, 5)]
    # a cone point lies in no missing face and in no class
    assert classes(cx.join(points(3), simplex(2))) == [(1, 2, 3)]


def test_twin_orbit_representatives(sub5):
    """A representative takes the lowest vertices of each class, and its
    orbit size is the product of the binomials: the nonempty supports of 5
    isolated points, walked as one vertex set, are the k lowest vertices,
    C(5, k) times each."""
    def orbits(K):
        return ma.twin_orbits(K)

    assert orbits(points(5)) == {0b11: 10, 0b111: 10, 0b1111: 5, 0b11111: 1}
    # the missing faces 123, 145, 245, 345 and the classes 123 and 45: the
    # orbits of 123, 145 (with 245, 345), 1245 (with 1345, 2345) and 12345
    assert orbits(sub5) == {0b111: 1, 0b11001: 3, 0b11011: 3, 0b11111: 1}
    assert 1 + sum(orbits(sub5).values()) == len(ma.lattice_supports(sub5))


def test_one_closure_walks_every_lattice():
    """Seeded: `lattice_supports(K)`, the cone-free pass, is the brute
    OR-closure of K's missing faces (`reference_mask_lattice`), 0 first,
    ascending, and so is the closure `mask_unions` with 0 added; so is the
    closure of polarised monomial generators, the lcm lattice the Taylor
    resolution check walks, and of the empty table.  The families at 16
    vertices (the 16-gon, 16 points, the 8-pair cross-polytope) hold up to
    65520 supports."""
    rng = random.Random(49)
    cases = [random_complex(rng.randint(1, 8), rng) for _ in range(150)]
    families = [closed_form_family(*case)
                for case in [("polygon", 16), ("points", 16), ("cross-polytope", 8)]]
    for K in cases + [points(10), disjoint_edges(4), simplex_boundary(9)] + families:
        supports = ma.lattice_supports(K)
        assert supports[0] == 0 and list(supports) == sorted(set(supports)), K
        assert set(supports) == reference_mask_lattice(K.generators().masks), K
        assert set(supports) == {0} | mask_unions(K.generators().masks), K
    for _ in range(150):
        m = rng.randint(1, 4)
        vectors = {tuple(rng.randint(0, 3) for _ in range(m)) for _ in range(rng.randint(1, 6))}
        vectors.discard((0,) * m)
        minimal = [a for a in vectors
                   if not any(b != a and all(x <= y for x, y in zip(b, a)) for b in vectors)]
        masks = MonomialIdeal(m, minimal).masks()
        unions = mask_unions(masks)
        assert 0 not in unions, minimal
        assert {0} | unions == reference_mask_lattice(masks), minimal
    assert mask_unions([]) == set() and reference_mask_lattice([]) == {0}


def test_orbit_sums_match_the_direct_table_on_random_complexes():
    """200 seeded complexes on 3 to 9 vertices with few facets, so that most
    have a twin pair: the orbit sums are the direct table's degree sums."""
    rng = random.Random(33)
    with_twins = 0
    for _ in range(200):
        K = random_complex(rng.randint(3, 9), rng, rng.randint(2, 5))
        with_twins += bool(ma.twin_classes(K))
        assert zk_homology(K) == direct_sums(K), K.facets
    assert with_twins > 100


def test_orbit_sums_match_the_direct_table_on_families(rp2):
    """Isolated points, disjoint edges, a sphere, RP^2 and its joins with 3
    and 4 points, where the Z/2 of each suspension of RP^2 counts once per
    pair of points: Z/2^6 in degree 11 for 4 points."""
    joins = [cx.join(rp2, points(k)) for k in (3, 4)]
    cases = ([points(n) for n in range(1, 11)] + [disjoint_edges(n) for n in range(1, 7)]
             + [simplex_boundary(7), rp2] + joins)
    for K in cases:
        assert zk_homology(K) == direct_sums(K), K.facets
    assert zk_homology(joins[0])[11].torsion == (2,) * 3
    assert zk_homology(joins[1])[11].torsion == (2,) * 6


def test_support_with_a_cone_point_gives_no_group(monkeypatch):
    """A support with a cone point has no face off the star of the vertex
    in the most faces, the cone point: `_star_cells` gives 0, and an orbit
    walk that reached such a support would add no group to `homology`, not
    a group read off the last face of the index."""
    K = cx.join(points(2), simplex(1))  # the edges 13 and 23, cone point 3
    assert ma._star_cells(K, 0b111) == []
    assert ma._star_cells(K, 0b11) != []
    want = zk_homology(K)
    assert want == direct_sums(K) == {0: HomologyGroup(1), 3: HomologyGroup(1)}
    orbits = ma.twin_orbits
    monkeypatch.setattr(ma, "twin_orbits", lambda K: {**orbits(K), 0b111: 1})
    assert zk_homology(K) == want


def test_homology_of_points_at_scale():
    """n isolated points for 11 <= n <= 20, where the lattice holds up to
    2^20 supports and the orbit walk visits n."""
    for n in range(11, 21):
        want = {d: HomologyGroup(r) for d, r in closed_form_homology("points", n).items()}
        assert zk_homology(points(n)) == want, n


@pytest.mark.parametrize("family, sizes", [
    ("polygon", range(11, 15)), ("cross-polytope", range(6, 9)),
    ("disjoint-edges", range(7, 9)), ("simplex-boundary", range(14, 19))])
def test_homology_of_the_families_at_scale(family, sizes):
    """`homology` against the closed forms past the sizes where the three
    routes are compared: the 11- to 14-gon, the cross-polytopes on 12 to 16
    vertices, whose twin classes are its antipodal pairs, 7 and 8 disjoint
    edges, whose twin classes are its edges, and bd(simplex(n))
    for 14 <= n <= 18, whose one missing face leaves a lattice of two
    supports."""
    for n in sizes:
        want = {d: HomologyGroup(r) for d, r in closed_form_homology(family, n).items()}
        assert zk_homology(closed_form_family(family, n)) == want, (family, n)



RP2_FACETS = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
              (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]

# connected parts on local labels 1..size: RP^2 (Z/2), a point, an edge, a
# triangle's boundary, a 4-cycle (two twin pairs), and two points joined with
# an edge, whose two cone points 3 and 4 are twins of the union but in no
# class of the part itself
PARTS = {"rp2": (6, RP2_FACETS), "point": (1, []), "edge": (2, [(1, 2)]),
         "circle": (3, [(1, 2), (1, 3), (2, 3)]),
         "square": (4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
         "suspended-edge": (4, [(1, 3, 4), (2, 3, 4)])}


def disjoint_union(names, rng):
    """The disjoint union of the named `PARTS`, its vertices shuffled."""
    m = sum(PARTS[name][0] for name in names)
    labels, start, facets = rng.sample(range(1, m + 1), m), 0, []
    for name in names:
        size, part = PARTS[name]
        facets += [tuple(labels[start + v - 1] for v in f) for f in part]
        start += size
    return SimplicialComplex.from_facets(m, facets)


def test_union_fold_matches_the_direct_table():
    """The fold over connected parts against the direct per-support table
    on seeded, label-shuffled disjoint unions of RP^2, points, edges,
    circles, squares and a part with two twin cone points, and on m = 0, 1
    and 2; torsion in RP^2's degrees repeats once per choice of the other
    vertices."""
    rng = random.Random(37)
    cases = [SimplicialComplex.from_facets(0, []), points(1), points(2), simplex(2)]
    cases += [disjoint_union(names, rng) for names in (
        ["rp2", "point"], ["rp2", "point", "point"], ["rp2", "edge", "point"],
        ["rp2", "circle"], ["suspended-edge", "point", "edge"], ["square", "square"])]
    small = ["point", "edge", "circle", "square", "suspended-edge"]
    while len(cases) < 40:
        names = [rng.choice(small) for _ in range(rng.randint(2, 4))]
        if sum(PARTS[name][0] for name in names) <= 10:
            cases.append(disjoint_union(names, rng))
    disconnected = 0
    for K in cases:
        disconnected += len(ma.connected_parts(K)) > 1
        assert zk_homology(K) == direct_sums(K), (K.m, K.facets)
    assert disconnected > 30
    # RP^2 with two points: Z/2 in degree 8, twice in 9 and once in 10
    torsion = {d: h.torsion for d, h in zk_homology(cases[5]).items() if h.torsion}
    assert torsion == {8: (2,), 9: (2, 2), 10: (2,)}


def test_connected_parts():
    """The parts of the 1-skeleton by least vertex, the facets merged where
    they meet: one per point, one per edge, RP^2 whole, and one part where
    the last facet meets two earlier parts."""
    def parts(K):
        return [ma.mask_face(p) for p in ma.connected_parts(K)]

    assert parts(points(3)) == [(1,), (2,), (3,)]
    assert parts(disjoint_edges(3)) == [(1, 2), (3, 4), (5, 6)]
    assert parts(SimplicialComplex.from_facets(5, [(1, 4), (4, 5), (2, 3)])) == [(1, 4, 5), (2, 3)]
    assert parts(SimplicialComplex.from_facets(5, [(1, 2), (3, 4), (2, 3, 5)])) == [(1, 2, 3, 4, 5)]
    assert parts(SimplicialComplex.from_facets(0, [])) == []
    rp2 = SimplicialComplex.from_facets(8, RP2_FACETS)
    assert parts(rp2) == [(1, 2, 3, 4, 5, 6), (7,), (8,)]


def test_facet_rules_match_the_missing_face_rules(rp2):
    """Seeded: the connected parts and the twin classes read off the facets
    are the ones the missing edges and the swap test on the missing faces
    give (`reference_connected_parts`, `reference_twin_classes`), on 200
    random complexes, the few-facet complexes of the orbit-sum test, the
    disjoint unions of the union-fold test, cones, joins of RP^2 with
    points, polygons and cross-polytopes."""
    rng = random.Random(54)
    cases = [random_complex(rng.randint(1, 9), rng) for _ in range(200)]
    few = random.Random(33)
    cases += [random_complex(few.randint(3, 9), few, few.randint(2, 5)) for _ in range(200)]
    small = list(PARTS)
    cases += [disjoint_union([rng.choice(small) for _ in range(rng.randint(2, 4))], rng)
              for _ in range(40)]
    cases += [cx.join(K, simplex(k)) for K in cases[:20] + [rp2] for k in (1, 2)]
    cases += [cx.join(rp2, points(k)) for k in range(1, 5)]
    cases += [closed_form_family("polygon", n) for n in range(4, 13)]
    cases += [closed_form_family("cross-polytope", n) for n in range(1, 7)]
    for K in cases:
        assert ma.connected_parts(K) == reference_connected_parts(K), K
        assert ma.twin_classes(K) == reference_twin_classes(K), K


def test_homology_reads_the_facets_alone(monkeypatch, sub5):
    """In-process `zk_homology` never enters `missing_faces`, on K or on a
    part's own complex: RP^2 beside 3 points, 5 disjoint edges, bd(bd(1,2,3),
    4, 5) beside a point and the 16-gon."""
    entered, missing_faces = [], SimplicialComplex.missing_faces
    monkeypatch.setattr(SimplicialComplex, "missing_faces",
                        lambda K: entered.append(K.m) or missing_faces(K))
    cases = [SimplicialComplex.from_facets(9, RP2_FACETS), disjoint_edges(5),
             SimplicialComplex.from_facets(6, sub5.facets), closed_form_family("polygon", 16)]
    for K in cases:
        zk_homology(K)
    assert entered == []


@pytest.mark.parametrize("family, sizes", [
    ("disjoint-edges", range(9, 13)), ("points", range(21, 25))])
def test_homology_of_disjoint_unions_at_scale(family, sizes):
    """9 to 12 disjoint edges (m = 24 at the top) and 21 to 24 isolated
    points against their closed forms: every part has at most two
    vertices and no missing face inside, so the groups are the binomial
    counts of the fold alone."""
    for n in sizes:
        want = {d: HomologyGroup(r) for d, r in closed_form_homology(family, n).items()}
        assert zk_homology(closed_form_family(family, n)) == want, (family, n)
