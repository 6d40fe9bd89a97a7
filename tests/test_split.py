"""The per-support routes against the whole complexes they replace.

Cellular homology, cellular cycle classes and the Taylor index ranks are
computed block by block (one block per vertex subset S); here they are
compared with the whole cellular complex of Z_K and the whole Taylor face
complex on seeded random complexes and on one with RP^2 as a full
subcomplex, so that Z/2 torsion occurs.  The cellular table visits only the
empty set and the unions of missing faces, and reduces each of their blocks
modulo the star of one vertex; here the table is checked against every
block built and against the route it replaced (every subset, full blocks,
cone blocks skipped), each quotient against its full block, and mutated
quotients must be refused or change a group.  Whether a cycle bounds,
decided on the same quotients, is checked against classes in the full
blocks.  The
Hochster table, on the subsets without a cone point by default, is checked
against the table over every subset.
"""

import json
import random
from itertools import combinations

import pytest

from momangle import complexes as cx
from momangle.cli import main
from momangle import exactalg, moment_angle, taylor
from momangle.exactalg import (ChainComplex, HomologyGroup, column_homology, insertion_columns,
                               insertion_complex, kernel_basis)
from momangle.moment_angle import (CellChain, cell_boundary, hochster_table, lattice_supports,
                                   support_table, zk_bounds, zk_chain_complex, zk_homology,
                                   zk_homology_by_support)
from momangle.taylor import mask_unions, taylor_face_complex, taylor_homology_by_support
from momangle.whitehead import bracket, hurewicz_chain, leaf, parse_whitehead
from oracles import (all_subsets, brute_cone_point, cell_chain, closed_form_family, hochster_embed,
                     labelled_cell, random_complex, random_graph_complex,
                     reference_cell_boundary, reference_column_groups, reference_insertion_columns,
                     reference_star_cells, reference_star_vertex, reference_zk_block,
                     reference_zk_class, reference_zk_homology_by_support,
                     reference_zk_star_quotient, chain_from_vector)


K6_GRAPH = "bd(bd(bd(bd(simplex(1,2,3,4,5,6)))))"


def rp2_complex():
    return cx.SimplicialComplex.from_facets(
        6, [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
            (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)])


def rp2_cone(rng):
    """RP^2 on 1..6 with vertex 7 coned over a random set of its faces."""
    rp2 = rp2_complex()
    faces = sorted(f for f in rp2.faces if f)
    coned = [f + (7,) for f in rng.sample(faces, 8)]
    return cx.SimplicialComplex.from_facets(7, list(rp2.facets) + coned)


def complexes():
    """Ten seeded random complexes with 2 to 8 missing faces (a full simplex
    has no homology to compare), then the RP^2 cone."""
    rng = random.Random(11)
    out = []
    while len(out) < 10:
        K = random_complex(rng.randint(4, 7), rng)
        if 2 <= len(K.missing_faces()) <= 8:
            out.append(K)
    return out + [rp2_cone(rng)]


def seeded_complexes(seed):
    """25 seeded random complexes on 3 to 7 vertices."""
    rng = random.Random(seed)
    return [random_complex(rng.randint(3, 7), rng) for _ in range(25)]


def cone_cases():
    """The complexes above (the RP^2 cone among them), 25 seeded random ones,
    a full simplex and the boundary of one."""
    return complexes() + seeded_complexes(23) + [cx.simplex(5), cx.simplex_boundary(5)]


def hurewicz_chains(K, rng):
    """Canonical chains of products that lie in Z_K: singles and a few nests."""
    out = []
    for k in range(2, K.m + 1):
        for I in combinations(range(1, K.m + 1), k):
            chain = hurewicz_chain(bracket([leaf(v) for v in I]), K.m)
            if chain.supported_in(K):
                out.append(chain)
    for _ in range(20):
        a, b, c, d = rng.sample(range(1, K.m + 1), 4)
        for text in (f"[[{a},{b}],{c}]", f"[[{a},{b},{c}],{d}]", f"[[{a},{b}],{c},{d}]"):
            chain = hurewicz_chain(parse_whitehead(text), K.m)
            if chain.supported_in(K):
                out.append(chain)
    return rng.sample(out, min(8, len(out)))


def random_boundary(C, d, rng):
    """Boundary of a random integer chain of degree d + 1 of the whole complex."""
    cells = C.basis.get(d + 1, [])
    out = {}
    for cell in rng.sample(cells, min(3, len(cells))):
        c = rng.choice([-2, -1, 1, 3])
        for tgt, s in cell_boundary(cell).items():
            out[tgt] = out.get(tgt, 0) + c * s
    return CellChain(out)


@pytest.mark.parametrize("K", complexes(), ids=lambda K: f"m{K.m}-{len(K.faces)}faces")
def test_block_homology_matches_whole_complex(K):
    assert zk_homology(K) == zk_chain_complex(K).homology_all()


@pytest.mark.parametrize("K", complexes(), ids=lambda K: f"m{K.m}-{len(K.faces)}faces")
def test_three_routes_agree_per_support(K):
    cell = zk_homology_by_support(K)
    assert cell == hochster_table(K)[0]
    assert taylor_homology_by_support(K) == cell


@pytest.mark.parametrize("K", complexes(), ids=lambda K: f"m{K.m}-{len(K.faces)}faces")
def test_block_classes_match_whole_complex(K):
    rng = random.Random(K.m)
    C = zk_chain_complex(K)
    chains = hurewicz_chains(K, rng)
    assert chains
    for h in chains:
        d = h.degree
        b = random_boundary(C, d, rng)
        others = [g for g in chains if g.degree == d and g.support() != h.support()]
        cases = [h, b, h + b, h.scaled(2) - b] + [h + g for g in others[:2]]
        for z in cases:
            if z:
                assert zk_bounds(K, z) == C.is_boundary(d, z.terms), z
        if b:
            assert zk_bounds(K, b)


def test_block_classes_see_torsion():
    """H_1(RP^2) = Z/2 embeds in degree 8 of Z_K: odd multiples of its
    generator survive, even ones bound, in the block and in the whole."""
    K = rp2_cone(random.Random(11))
    J = (1, 2, 3, 4, 5, 6)
    S = cx.reduced_chain_complex(K.faces_within(J))
    C = zk_chain_complex(K)
    seen = set()
    for col in kernel_basis(S.differential(1)):
        z = {S.basis[1][i]: v for i, v in col.items()}
        for k in (1, 2, 3):
            chain = hochster_embed(K, J, {f: k * v for f, v in z.items()})
            block = zk_bounds(K, chain)
            assert block == C.is_boundary(chain.degree, chain.terms)
            seen.add((k, block))
    assert (1, False) in seen and (2, True) in seen


@pytest.mark.parametrize("K", complexes()[:-1], ids=lambda K: f"m{K.m}-{len(K.faces)}faces")
def test_taylor_ranks_by_index_match_whole_complex(K, tmp_path, capsys):
    path = tmp_path / "k.json"
    path.write_text(json.dumps(K.to_json_dict()))
    assert main(["taylor", "--complex", str(path)]) == 0
    ranks = json.loads(capsys.readouterr().out)["ranks_by_index"]
    whole = taylor_face_complex(K)
    assert ranks == [whole.dim(-s) for s in range(len(ranks))]
    assert sum(whole.dim(d) for d in whole.degrees) == sum(ranks)


@pytest.mark.parametrize("K", cone_cases(), ids=lambda K: f"m{K.m}-{len(K.faces)}faces")
def test_cone_blocks_skipped_exactly(K):
    """The table with cone blocks skipped equals the table of every block
    built, and every skipped block, built, has no homology."""
    every = support_table(((cx.face_mask(S), reference_zk_block(K, S))
                           for S in all_subsets(K.m)), lambda S, d: d)
    assert zk_homology_by_support(K) == every
    for S in all_subsets(K.m):
        if brute_cone_point(K, S) is not None:
            assert S and reference_zk_block(K, S).homology_all() == {}, S


def test_cone_skip_covers_the_cases():
    skipped = [sum(brute_cone_point(K, S) is not None for S in all_subsets(K.m))
               for K in cone_cases()]
    assert skipped[-2] == 2 ** 5 - 1      # the full simplex: every nonempty S
    assert skipped[-1] == 2 ** 5 - 2      # bd(simplex): all but the whole set
    assert all(skipped)                   # a singleton is always a cone


def test_cone_point_matches_definition():
    """The pass is the definition: `lattice_supports` lists, ascending,
    exactly the subsets with no cone point, on seeded complexes, on m = 0,
    on two with a ghost vertex (bd(pt) and vertex 3 below) and on RP^2."""
    ghosts = [cx.simplex_boundary(1), cx.SimplicialComplex(3, [(1, 2), (1,), (2,)])]
    for K in seeded_complexes(29) + [cx.simplex(0)] + ghosts + [rp2_complex()]:
        want = sorted(cx.face_mask(S) for S in all_subsets(K.m) if brute_cone_point(K, S) is None)
        assert list(lattice_supports(K)) == want, K


def test_ghost_vertex_refused_before_any_skip():
    """Vertex 3 is no face, so Z_K is undefined; no block may be skipped
    ahead of the refusal."""
    K = cx.SimplicialComplex(3, [(1, 2), (1,), (2,)])
    with pytest.raises(ValueError, match="every singleton"):
        zk_homology_by_support(K)


# -- the missing-face lattice and the star quotients ---------------------------

def quotient_cases():
    """The cone cases, three more RP^2 cones, RP^2 itself and the boundary
    of a larger simplex."""
    return (cone_cases() + [rp2_cone(random.Random(s)) for s in (3, 5, 7)]
            + [rp2_complex(), cx.simplex_boundary(9)])


def cells_left(K, S, v):
    """Cells of the block of S outside the star of v, from the definition."""
    return sum(tuple(sorted(set(I) | {v})) not in K.faces for I in K.faces_within(S))


def block_of(S, faces, boundary):
    cells = {}
    for I in faces:
        J = tuple(u for u in S if u not in I)
        cells.setdefault(2 * len(I) + len(J), []).append((J, I))
    return ChainComplex.from_boundary(cells, boundary)


@pytest.mark.parametrize("K", quotient_cases(), ids=lambda K: f"m{K.m}-{len(K.faces)}faces")
def test_table_matches_the_route_it_replaced(K):
    assert zk_homology_by_support(K) == reference_zk_homology_by_support(K)


def test_the_cases_carry_torsion():
    torsion = [K for K in quotient_cases()
               if any(h.torsion for h in zk_homology_by_support(K).values())]
    assert len(torsion) >= 5


@pytest.mark.parametrize("K", quotient_cases(), ids=lambda K: f"m{K.m}-{len(K.faces)}faces")
def test_lattice_is_the_non_cone_supports(K):
    supports = lattice_supports(K)
    assert len(set(supports)) == len(supports)
    assert set(supports) == {0} | {cx.face_mask(S) for S in all_subsets(K.m)
                                   if S and brute_cone_point(K, S) is None}


@pytest.mark.parametrize("K", quotient_cases(), ids=lambda K: f"m{K.m}-{len(K.faces)}faces")
def test_hochster_skips_only_cones(K):
    assert set(lattice_supports(K)) == {0} | mask_unions(K.generators().masks)
    assert hochster_table(K) == hochster_table(K, range(1 << K.m))


def test_hochster_skips_only_cones_on_seeded_complexes():
    rng = random.Random(1)
    for _ in range(60):
        K = random_complex(rng.randint(2, 8), rng)
        assert set(lattice_supports(K)) == {0} | mask_unions(K.generators().masks), K
        assert hochster_table(K) == hochster_table(K, range(1 << K.m)), K


def test_cone_free_subsets_gated():
    with pytest.raises(cx.SizeLimitError, match="Hochster table refuses m=21"):
        hochster_table(cx.SimplicialComplex.from_facets(21, []))


def labelled_supports(K):
    """`lattice_supports(K)` as label tuples, in its order."""
    return [cx.mask_face(smask) for smask in lattice_supports(K)]


def star_quotient(K, S):
    """The star quotient of S's block labelled on cells: `_star_cells`'
    circle masks through `insertion_complex`, each mask J the cell
    (J, S - J) in Z_K degree 2|S| - |J|.  Its columns are those the table
    folds and `zk_bounds` reads."""
    smask = cx.face_mask(S)
    return insertion_complex(moment_angle._star_cells(K, smask), smask,
                             lambda J: (J, smask ^ J), 2 * len(S))


@pytest.mark.parametrize("K", quotient_cases(), ids=lambda K: f"m{K.m}-{len(K.faces)}faces")
def test_quotient_keeps_the_block_homology(K):
    for S in labelled_supports(K):
        assert (star_quotient(K, S).homology_all()
                == reference_zk_block(K, S).homology_all()), S


@pytest.mark.parametrize("K", quotient_cases(), ids=lambda K: f"m{K.m}-{len(K.faces)}faces")
def test_star_vertex_leaves_the_fewest_cells(K, monkeypatch):
    chosen = chosen_vertices(monkeypatch)
    for S in labelled_supports(K)[1:]:
        v = reference_star_vertex(K.face_masks_within(S), S)
        left = {u: cells_left(K, S, u) for u in S}
        assert v == min(S, key=lambda u: (left[u], u)), S
        chosen.clear()
        Q = star_quotient(K, S)
        assert chosen == [v], S
        assert sum(Q.dim(d) for d in Q.degrees) == left[v]


@pytest.mark.parametrize("K", quotient_cases(), ids=lambda K: f"m{K.m}-{len(K.faces)}faces")
def test_mutated_quotients_are_refused_or_change_a_group(K):
    """Keeping the targets inside the star leaves the quotient's basis, and
    keeping the star's cells with their boundary dropped adds free groups."""
    for S in labelled_supports(K)[1:]:
        faces = K.faces_within(S)
        v = reference_star_vertex(K.face_masks_within(S), S)

        def in_star(I):
            return tuple(sorted(set(I) | {v})) in K.faces

        def dropped(cell):
            return {t: c for t, c in reference_cell_boundary(cell).items() if not in_star(t[1])}

        left = [I for I in faces if not in_star(I)]
        with pytest.raises(ValueError, match="not in the target basis"):
            block_of(S, left, reference_cell_boundary)
        every = block_of(S, faces, dropped)
        extra = sum(h.rank for h in every.homology_all().values())
        assert extra == len(faces) - len(left) + sum(
            h.rank for h in reference_zk_block(K, S).homology_all().values())


def test_sphere_table_visits_two_blocks():
    """bd(simplex) on 14 vertices: the lattice is the empty set and the
    whole vertex set, and the star quotient of the whole set is one cell."""
    K = cx.simplex_boundary(14)
    whole = tuple(range(1, 15))
    assert lattice_supports(K) == (0, cx.face_mask(whole))
    Q = star_quotient(K, whole)
    assert {d: Q.dim(d) for d in Q.degrees} == {27: 1}
    assert zk_homology_by_support(K) == {(0, 0): HomologyGroup(1),
                                         (cx.face_mask(whole), 27): HomologyGroup(1)}


# -- the star quotient on face masks --------------------------------------------

def mask_cases():
    """Seeded random complexes, four RP^2 cones, a full simplex and the
    boundary of one."""
    rng = random.Random(41)
    return ([random_complex(rng.randint(3, 7), rng) for _ in range(16)]
            + [rp2_cone(random.Random(s)) for s in (3, 5, 7, 11)]
            + [cx.simplex(5), cx.simplex_boundary(5)])


def matrices(C):
    return {d: (A.rows, A.cols, A.entries) for d in C.basis for A in [C.differential(d)]}


@pytest.mark.parametrize("K", mask_cases(), ids=lambda K: f"m{K.m}-{len(K.faces)}faces")
def test_mask_quotient_is_the_labelled_reference(K):
    """On every vertex subset, the quotient built on face masks has the
    reference's basis in the reference's label order and the same entries."""
    for S in all_subsets(K.m):
        Q, R = star_quotient(K, S), reference_zk_star_quotient(K, S)
        assert {d: list(map(labelled_cell, cells)) for d, cells in Q.basis.items()} == R.basis, S
        assert matrices(Q) == matrices(R), S


@pytest.mark.parametrize("K", mask_cases(), ids=lambda K: f"m{K.m}-{len(K.faces)}faces")
def test_table_reads_the_reference_quotients(K):
    """The table, read from the mask builder's columns, is the homology of
    the reference quotients over the lattice supports."""
    want = support_table(((smask, reference_zk_star_quotient(K, cx.mask_face(smask)))
                          for smask in lattice_supports(K)), lambda S, d: d)
    assert zk_homology_by_support(K) == want


def star_word_cases():
    """The split complexes above (the RP^2 cone among them), four more RP^2
    cones, and 200 seeded random complexes on 3 to 7 vertices."""
    rng = random.Random(29)
    return (cone_cases() + [rp2_cone(random.Random(s)) for s in (3, 5, 7, 11)]
            + [random_complex(rng.randint(3, 7), rng) for _ in range(200)])


def test_star_words_give_the_reference_columns():
    """`insertion_columns` on `_star_cells`' circle masks gives the ranks and
    columns that the cell-by-cell mask builder (`reference_star_cells`)
    writes, block degree d placed at 2|S| + d, with each degree's words in
    the reference's order, on every lattice support."""
    blocks = torsion = 0
    for K in star_word_cases():
        for inside in lattice_supports(K):
            S = cx.mask_face(inside)
            words = moment_angle._star_cells(K, inside)
            dims, columns = insertion_columns(words, inside)
            cells, ref_columns = reference_star_cells(S, K.face_masks_within(S), K.face_masks)
            shift = 2 * len(S)
            assert {shift + d: n for d, n in dims.items()} == {
                d: len(fs) for d, fs in cells.items()}, (K, S)
            assert {shift + d: cols for d, cols in columns.items()} == ref_columns, (K, S)
            for d, fs in cells.items():
                assert [J for J in words if shift - J.bit_count() == d] == [
                    inside & ~f for f in fs], (K, S, d)
            blocks += 1
        torsion += any(h.torsion for h in zk_homology_by_support(K).values())
    assert blocks > 2000 and torsion >= 5


def chosen_vertices(monkeypatch):
    """The list that records each star vertex `_star_cells` chooses, as its
    label, read by a spy on the one chooser that the star quotient calls on
    either face-index layout (`_star_vertex`), one entry per call."""
    chosen, raw = [], moment_angle._star_vertex

    def spy(*args):
        chosen.append(raw(*args) + 1)
        return chosen[-1] - 1
    monkeypatch.setattr(moment_angle, "_star_vertex", spy)
    return chosen


def chooser_cases():
    """The split complexes, the RP^2 cones, 200 seeded random complexes on
    4 to 9 vertices and two points, whose star vertex is a tie."""
    rng = random.Random(31)
    return (complexes() + [rp2_cone(random.Random(s)) for s in (3, 5, 7, 11)]
            + [random_complex(rng.randint(4, 9), rng) for _ in range(200)]
            + [cx.SimplicialComplex.from_facets(2, [])])


def test_face_index_chooses_the_reference_star_quotient(monkeypatch):
    """On every nonempty vertex subset S, not only the lattice supports,
    `_star_cells` chooses the vertex the list scan chooses
    (`reference_star_vertex`) and gives the cell-by-cell builder's words
    (`reference_star_cells`) in its order, whichever layout K's density
    picks for its face index; the index stays on K, so each complex's later
    subsets read the bitsets its earlier ones built, and both layouts
    occur."""
    chosen = chosen_vertices(monkeypatch)
    ties = indexed = 0
    for K in chooser_cases():
        for S in all_subsets(K.m):
            if not S:
                continue
            faces = K.face_masks_within(S)
            v = reference_star_vertex(faces, S)
            chosen.clear()
            inside = cx.face_mask(S)
            words = moment_angle._star_cells(K, inside)
            assert chosen == [v], (K, S)
            cells, _ = reference_star_cells(S, faces, K.face_masks)
            assert words == [inside & ~f for d in sorted(cells, reverse=True)
                             for f in cells[d]], (K, S)
            counts = [sum(f >> (u - 1) & 1 for f in faces) for u in S]
            ties += counts.count(max(counts)) > 1
        indexed += isinstance(K._index, cx.FaceIndex)
    assert chosen == [1] and ties > 100 and 0 < indexed < len(chooser_cases())


def dense_star_cases():
    """The chooser's complexes, the RP^2 cones, two points (a tie) and one
    dense complex on 12 vertices, four seeded facets of 8 vertices each."""
    rng = random.Random(55)
    big = cx.SimplicialComplex.from_facets(12, [rng.sample(range(1, 13), 8) for _ in range(4)])
    return chooser_cases() + [big]


def layouts(K):
    """K's faces in both layouts of `SimplicialComplex.face_index`, built
    apart from its density rule: the face indicator and the sorted faces."""
    return [cx.IndicatorIndex(K.face_indicator()[0], K.m),
            cx.FaceIndex(K._sorted_masks, K.face_masks, K.m)]


def test_dense_and_indexed_star_quotients_are_the_reference():
    """On every nonempty vertex subset, the star quotient read off K's face
    indicator and off its sorted faces, with `_star_cells` given each
    layout in turn as K's face index, are the circle masks S - f of the
    same faces f in the same order, those of the cell-by-cell builder
    (`reference_star_cells`), largest first;
    the density rule gives the indicator to the 12-vertex complex, whose
    faces fill an eighth of its vertex sets, and to two points, and leaves
    the sparse ones to the sorted faces."""
    dense = []
    for K in dense_star_cases():
        dense.append(isinstance(K.face_index(), cx.IndicatorIndex))
        indexes = layouts(K)
        for S in all_subsets(K.m):
            if not S:
                continue
            smask = cx.face_mask(S)
            cells, _ = reference_star_cells(S, K.face_masks_within(S), K.face_masks)
            want = [f for d in sorted(cells, reverse=True) for f in cells[d]]
            for index in indexes:
                K._index = index
                assert moment_angle._star_cells(K, smask) == [smask & ~f for f in want], \
                    (K, S, index)
    assert dense[-1] and dense[-2] and 0 < sum(dense) < len(dense) - 1


def test_both_layouts_answer_every_face_index_query_alike():
    """Both layouts of the face index, on the dense cases: `has` is
    membership in `face_masks` on every vertex set; `star(v)`, read by
    `listed`, is the faces f with f + v a face, by size and labels
    descending; and on every nonempty vertex subset S, `within(S)` read by
    `listed` is `face_masks_within(S)` with its order reversed.  The star
    quotients of the two layouts are the reference's above."""
    for K in dense_star_cases():
        every = K.face_masks_within(range(1, K.m + 1))[::-1]
        for index in layouts(K):
            assert [index.has(f) for f in range(1 << K.m)] == \
                [f in K.face_masks for f in range(1 << K.m)], (K, index)
            for v in range(1, K.m + 1):
                assert index.listed(index.star(v)) == \
                    [f for f in every if f | 1 << (v - 1) in K.face_masks], (K, v, index)
            for S in all_subsets(K.m):
                if S:
                    assert index.listed(index.within(cx.face_mask(S))) == \
                        K.face_masks_within(S)[::-1], (K, S, index)


def test_column_rule_matches_the_references_on_every_block():
    """On every cellular block (the lattice supports' star quotients) and
    every Taylor block of the chooser's complexes (those with at most 12
    missing faces), `insertion_columns` gives the ranks and columns of the
    builder that indexes every word (`reference_insertion_columns`), none at
    all when no two occupied degrees are adjacent, and `column_homology`
    gives the groups of the rule that sends every differential through the
    Smith normal form (`reference_column_groups`), in ascending degree."""
    seen = {"no column": 0, "one column": 0, "more columns": 0, "torsion": 0}
    for K in chooser_cases():
        blocks = [(cx.mask_face(u), moment_angle._star_cells(K, u), u)
                  for u in lattice_supports(K)]
        if len(K.missing_faces()) <= 12:
            gens = K.generators()
            blocks += [(cx.mask_face(union), words, gens.within(union))
                       for union, words in taylor.admissible_words(gens).items()]
        for S, words, inside in blocks:
            dims, columns = insertion_columns(words, inside)
            assert (dims, columns) == reference_insertion_columns(words, inside), (K, S)
            got = column_homology(dims, columns)
            assert list(got.items()) == list(reference_column_groups(dims, columns).items()), (K, S)
            widths = [len(cols) for cols in columns.values()]
            seen["no column"] += not widths
            seen["one column"] += widths.count(1)
            seen["more columns"] += sum(n > 1 for n in widths)
            seen["torsion"] += any(h.torsion for h in got.values())
    assert seen["no column"] > 5000 and seen["one column"] > 300, seen
    assert seen["more columns"] > 100 and seen["torsion"] >= 5, seen


def test_single_degree_blocks_reach_no_check_and_no_snf(monkeypatch, tmp_path, capsys):
    """`homology` on 8 isolated points visits 247 nonempty supports, each a
    star quotient in one degree, and none of them reaches `check_columns`
    or the Smith form's worker; the report is still the Hochster table's.
    On RP^2 the block with Z/2 still goes through the Smith normal form."""
    points = cx.SimplicialComplex.from_facets(8, [])
    assert len(lattice_supports(points)) == 1 + 247
    want = {str(d): {"rank": h.rank, "torsion": list(h.torsion)}
            for d, h in hochster_table(points)[1].items()}
    path = tmp_path / "points8.json"
    path.write_text(json.dumps({"m": 8, "facets": []}))
    checked, diagonals = [], []
    real_check = exactalg.check_columns

    class Worker(exactalg._SnfWorker):
        def run(self):
            diagonals.append(super().run())
            return diagonals[-1]
    monkeypatch.setattr(exactalg, "check_columns", lambda cols: checked.append(cols) or real_check(cols))
    monkeypatch.setattr(exactalg, "_SnfWorker", Worker)
    assert main(["homology", "--complex", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["homology"] == want
    assert checked == [] and diagonals == []
    table = zk_homology_by_support(rp2_complex())
    assert table[(cx.face_mask(range(1, 7)), 8)] == HomologyGroup(0, (2,))
    assert checked and any(2 in diag for diag in diagonals)


def one_degree_cases():
    """120 seeded complexes, 60 seeded graphs with some triangles filled
    (blocks of up to 5 words in one degree), RP^2 and five seeded RP^2
    cones (Z/2), the K6 graph and the `closed_form_homology` families."""
    rng = random.Random(34)
    seeded = [random_complex(rng.randint(3, 9), rng, rng.randint(2, 8)) for _ in range(120)]
    graphs = [random_graph_complex(rng.randint(5, 7), rng) for _ in range(60)]
    rp2s = [rp2_complex()] + [rp2_cone(rng) for _ in range(5)]
    return seeded + graphs + rp2s + [cx.parse_complex(K6_GRAPH)] + closed_form_cases()


def closed_form_cases():
    """The `closed_form_homology` families at small sizes."""
    return [closed_form_family(family, n) for family, sizes in [
        ("points", range(1, 8)), ("polygon", range(4, 9)), ("cross-polytope", range(1, 5)),
        ("simplex-boundary", range(2, 9)), ("simplex", range(1, 7))] for n in sizes]


def test_blocks_list_their_words_by_degree():
    """The fold reads a block's degrees off its two ends, which holds
    because `_star_cells` lists each support's circle masks by
    non-decreasing popcount and `admissible_words` each union's words by
    non-decreasing factor count."""
    taylor_cases = 0
    for K in one_degree_cases():
        for S in lattice_supports(K):
            counts = [J.bit_count() for J in moment_angle._star_cells(K, S)]
            assert counts == sorted(counts), (K.facets, S)
        if len(K.missing_faces()) > taylor.MAX_GENERATORS:
            continue
        for union, words in taylor.admissible_words(K.generators()).items():
            counts = [word.bit_count() for word in words]
            assert counts == sorted(counts), (K.facets, union)
        taylor_cases += 1
    assert taylor_cases > 180


def test_fold_reads_every_block_as_its_columns():
    """The fold's one-degree rule against the generic reading it skips: on
    `star_word_cases`, the K6 graph and the `closed_form_cases`, the
    per-support tables, cellular and Taylor, are their walks' blocks read
    one by one as `column_homology(*insertion_columns(words, inside))`,
    block degree d placed at 2|S| + d, in the walk's order, and the degree
    tables, `homology`'s over twin orbits and `taylor`'s, are those reads
    summed by degree."""
    one_degree = columns = torsion = 0
    for K in star_word_cases() + [cx.parse_complex(K6_GRAPH)] + closed_form_cases():
        supports = lattice_supports(K)
        walks = [(zk_homology_by_support(K), zk_homology(K),
                  [(u, moment_angle._star_cells(K, u), u) for u in supports])]
        if len(K.missing_faces()) <= taylor.MAX_GENERATORS:
            gens = K.generators()
            walks.append((taylor_homology_by_support(K), taylor.taylor_homology(K),
                          [(u, words, gens.within(u))
                           for u, words in taylor.admissible_words(gens).items()]))
        for table, sums, blocks in walks:
            want = {}
            for union, words, inside in blocks:
                for d, h in column_homology(*insertion_columns(words, inside)).items():
                    want[(union, 2 * union.bit_count() + d)] = h
                if words:
                    one = words[0].bit_count() == words[-1].bit_count()
                    one_degree, columns = one_degree + one, columns + (not one)
            assert list(table.items()) == list(want.items()), K.facets
            assert sums == moment_angle.degree_sums(want), K.facets
            torsion += any(h.torsion for h in want.values())
    assert one_degree > 4000 and columns > 900 and torsion >= 5, (one_degree, columns, torsion)


def test_one_degree_blocks_build_no_columns(monkeypatch, tmp_path, capsys):
    """`insertion_columns` is entered only by blocks whose first and last
    words differ in degree: `homology` on 8 isolated points, whose blocks
    are each in one degree, enters it for no support, and `taylor` on the
    K6 graph only for its 7 blocks in two or more degrees, of 43, read in
    one call per shift 2|S|: six blocks at 10, one at 12."""
    calls = []
    real = exactalg.insertion_columns

    def spy(words, inside):
        calls.append(list(words))
        return real(words, inside)
    monkeypatch.setattr(moment_angle, "insertion_columns", spy)
    monkeypatch.setattr(taylor, "insertion_columns", spy)
    path = tmp_path / "points8.json"
    path.write_text(json.dumps({"m": 8, "facets": []}))
    assert main(["homology", "--complex", str(path)]) == 0
    assert calls == []
    assert main(["taylor", "--complex", K6_GRAPH]) == 0
    unions = taylor.admissible_words(cx.parse_complex(K6_GRAPH).generators())
    wide = {u: ws for u, ws in unions.items() if ws[0].bit_count() != ws[-1].bit_count()}
    assert len(wide) == 7 and len(calls) == len({u.bit_count() for u in wide}) == 2
    assert sorted(sum(calls, [])) == sorted(sum(wide.values(), []))
    capsys.readouterr()


def test_table_builds_the_face_index_lazily(monkeypatch):
    """A face index is built only for a sparse complex, on its first
    nonempty support, once per complex, and its vertex bitsets on first
    use: the 12-vertex simplex, whose only support is the empty set, builds
    none; bd(simplex(1..16)), dense, builds none either and reads its one
    star quotient, of vertex 1, off its face indicator; 8 isolated points
    visit their 247 nonempty supports through one index, which builds the
    star of each vertex chosen, every one but 8, the greatest of each
    support it lies in, so never the least on a tie."""
    built = []

    class Spied(cx.FaceIndex):
        __slots__ = ()

        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)
    monkeypatch.setattr(cx, "FaceIndex", Spied)
    chosen = chosen_vertices(monkeypatch)
    assert main(["homology", "--complex", "simplex(1,2,3,4,5,6,7,8,9,10,11,12)"]) == 0
    assert built == [] and chosen == []
    sphere = "bd(simplex(1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16))"
    assert main(["homology", "--complex", sphere]) == 0
    assert built == [] and chosen == [1]
    points = cx.SimplicialComplex.from_facets(8, [])
    assert len(zk_homology_by_support(points)) == 2 ** 8 - 8
    [index] = built
    assert len(index._containing) == 8 and sorted(index._star) == list(range(1, 8))


def test_density_picks_the_star_quotient_reader():
    """The layout rule reads m and the number of faces alone:
    bd(simplex(1..20)), dense, builds no face list for its one star
    quotient, reading it off the face indicator, and its table is the
    sphere's; the 16-gon and the cross-polytope on 20 vertices, sparse,
    read a `FaceIndex`."""
    sphere = cx.simplex_boundary(20)
    assert zk_homology(sphere) == {0: HomologyGroup(1), 39: HomologyGroup(1)}
    assert sphere._face_masks is None and isinstance(sphere._index, cx.IndicatorIndex)
    for K in [closed_form_family("polygon", 16), closed_form_family("cross-polytope", 10)]:
        whole = (1 << K.m) - 1
        moment_angle._star_cells(K, whole)
        assert isinstance(K._index, cx.FaceIndex) and K.face_indicator()[1] * 8 < 1 << K.m


def test_verify_checks_the_shared_builder_against_hochster(monkeypatch, tmp_path, capsys):
    """The cellular and Taylor tables read one column builder, so the
    Hochster route, which shares no code with it, is `verify`'s independent
    check: on RP^2 and on seeded RP^2 cones the three routes agree, Z/2
    included (exit 0), and with every entry of `insertion_columns` made +1
    where the tables read it, `verify` on RP^2 does not exit 0."""
    def verify(K):
        path = tmp_path / "K.json"
        path.write_text(json.dumps({"m": K.m, "facets": [list(f) for f in K.facets]}))
        code = main(["verify", "--complex", str(path)])
        capsys.readouterr()
        return code

    cases = [rp2_complex()] + [rp2_cone(random.Random(s)) for s in (3, 5, 7, 11, 13)]
    assert all(any(h.torsion for h in zk_homology_by_support(K).values()) for K in cases)
    assert [verify(K) for K in cases] == [0] * len(cases)
    real = exactalg.insertion_columns

    def unsigned(words, inside):
        dims, columns = real(words, inside)
        return dims, {d: {j: [(i, 1) for i, _ in column] for j, column in cols.items()}
                      for d, cols in columns.items()}
    for module in (moment_angle, taylor):
        monkeypatch.setattr(module, "insertion_columns", unsigned)
    assert verify(cases[0]) != 0


def test_table_checks_singletons_once(monkeypatch, rp2):
    """The table asks once per complex whether every singleton is a face;
    `zk_bounds` refuses a ghost vertex inside a support its cycle touches,
    and only there."""
    calls = []
    raw = cx.SimplicialComplex.has_all_singletons
    monkeypatch.setattr(cx.SimplicialComplex, "has_all_singletons",
                        lambda K: calls.append(K) or raw(K))
    K = rp2_cone(random.Random(3))
    assert len(lattice_supports(K)) > 20
    zk_homology_by_support(K)
    assert calls == [K]
    ghost = cx.SimplicialComplex(3, [(), (1,), (2,)])
    with pytest.raises(ValueError, match="singleton"):
        zk_bounds(ghost, CellChain.from_text("S1*S3"))
    assert not zk_bounds(ghost, CellChain.from_text("D1*D2").boundary())
    with pytest.raises(ValueError, match="singleton"):
        zk_homology_by_support(ghost)


# -- boundaries on the star quotients -------------------------------------------

def bounds_against_reference(K, z):
    """zk_bounds against the class in the full blocks."""
    bounds = zk_bounds(K, z)
    assert bounds == reference_zk_class(K, z).is_boundary, z
    return bounds


def test_classes_match_the_full_blocks():
    rng = random.Random(31)
    seen = set()
    for K in complexes():
        C = zk_chain_complex(K)
        for h in hurewicz_chains(K, rng):
            b = random_boundary(C, h.degree, rng)
            for z in (h, b, h + b, h.scaled(2) - b):
                if z:
                    seen.add(bounds_against_reference(K, z))
    assert seen == {True, False}


@pytest.mark.parametrize("K", [rp2_cone(random.Random(11)), rp2_complex()], ids=["cone", "rp2"])
def test_torsion_classes_match_the_full_blocks(K):
    """The Z/2 of H_1(RP^2) in degree 8, on an RP^2 cone and on RP^2
    itself: odd multiples survive, even ones bound, on the star quotient as
    in the full block.  A rule that compares only the ranks of B and
    [B | z] says every multiple bounds."""
    J = (1, 2, 3, 4, 5, 6)
    S = cx.reduced_chain_complex(K.faces_within(J))
    seen = set()
    for col in kernel_basis(S.differential(1)):
        z = {S.basis[1][i]: v for i, v in col.items()}
        for k in (1, 2, 3):
            chain = hochster_embed(K, J, {f: k * v for f, v in z.items()})
            assert reference_zk_class(K, chain).orders == (2,)
            seen.add((k, bounds_against_reference(K, chain)))
    assert (1, False) in seen and (2, True) in seen and (3, False) in seen


def test_kernel_cycles_match_the_full_blocks():
    """Cycles of the whole complex from `kernel_basis`, half of them plus a
    random boundary, on 40 seeded random complexes with 3 to 6 vertices and
    on RP^2: `zk_bounds` agrees with the classes in the full blocks, and
    both answers occur, the Z/2 of RP^2 among the nonzero ones."""
    rng = random.Random(48)
    rp2 = rp2_complex()
    seen = set()
    for K in [random_complex(rng.randint(3, 6), rng) for _ in range(40)] + [rp2]:
        C = zk_chain_complex(K)
        for d in C.degrees:
            cycles = kernel_basis(C.differential(d))
            if K is not rp2 or d != 8:
                cycles = rng.sample(cycles, min(4, len(cycles)))
            for col in cycles:
                z = CellChain(chain_from_vector(C, d, col))
                if rng.random() < 0.5:
                    z = z + random_boundary(C, d, rng)
                if z:
                    seen.add((K is rp2 and d, bounds_against_reference(K, z)))
    assert {bounds for _, bounds in seen} == {True, False}
    assert (8, False) in seen and (8, True) in seen


@pytest.mark.parametrize("K", quotient_cases(), ids=lambda K: f"m{K.m}-{len(K.faces)}faces")
def test_cycles_in_the_star_project_to_zero(K):
    """Boundaries of cells (S - I, I) with v in I lie wholly in the star of
    v, so their projection is empty; each still bounds in its block."""
    rng = random.Random(len(K.faces))
    for S in labelled_supports(K)[1:]:
        v = reference_star_vertex(K.face_masks_within(S), S)
        inside = [(tuple(u for u in S if u not in I), I) for I in K.faces_within(S) if v in I]
        Q = star_quotient(K, S)
        for cell in rng.sample(inside, min(3, len(inside))):
            z = cell_chain(reference_cell_boundary(cell)).scaled(rng.choice([-2, 1, 3]))
            if not z:
                continue
            assert not set(z.terms) & set(Q.index.get(z.degree, ()))
            assert bounds_against_reference(K, z)


def test_class_refuses_cells_outside_zk():
    """d(D1*D2*D3) is a cycle, but its cells carry the edges of three
    isolated points, which are no faces; a letter past K.m is no cell of
    Z_K either."""
    z = CellChain.from_text("D1*D2*D3").boundary()
    assert z and not z.boundary()
    with pytest.raises(ValueError, match="outside Z_K"):
        zk_bounds(cx.SimplicialComplex.from_facets(3, []), z)
    with pytest.raises(ValueError, match="outside Z_K"):
        zk_bounds(cx.SimplicialComplex.from_facets(3, []), CellChain.from_text("S1*S4"))


@pytest.mark.parametrize("text", ["D1*S2", "S1*D2", "D1*S2 - S1*D2"])
def test_class_refuses_non_cycles(two_points, text):
    """D1*S2 lies in the star of vertex 1, so its projection is empty; it is
    refused all the same."""
    assert reference_star_vertex(two_points.face_masks_within((1, 2)), (1, 2)) == 1
    with pytest.raises(ValueError, match="not a cycle"):
        zk_bounds(two_points, CellChain.from_text(text))

