import random
import re
from itertools import combinations, product

import pytest

from momangle import exactalg, moment_angle
from momangle import taylor as ty
from momangle.complexes import (Generators, ParseError, SimplicialComplex, SizeLimitError,
                                face_mask, mask_face, parse_complex, simplex_boundary)
from momangle.exactalg import HomologyGroup
from momangle.moment_angle import hochster_table, zk_homology
from momangle.taylor import (MonomialIdeal, TaylorChain,
                             nested_taylor_cycle, taylor_boundary,
                             taylor_components, taylor_face_complex,
                             taylor_homology, taylor_homology_by_support,
                             verify_taylor_is_resolution)
from momangle.whitehead import delta_w, parse_whitehead
from oracles import (cone_reconstruction, labelled_word, lyubeznik_admissible, random_complex,
                     reference_nested_taylor_cycle, reference_resolution_failures,
                     reference_taylor_boundary_word, taylor_boundary_word, taylor_chain,
                     taylor_module_resolution)

# the complete graph on six vertices: its 20 triangles are its missing faces
K6_GRAPH = "bd(bd(bd(bd(simplex(1,2,3,4,5,6)))))"


def sf(m, *supports):
    return MonomialIdeal.squarefree(m, supports)


# -- exterior words and chains ---------------------------------------------------

def test_generator_order(sub5):
    assert sub5.missing_faces() == ((1, 2, 3), (1, 4, 5), (2, 4, 5), (3, 4, 5))


def test_reader_wedge_signs(sub5):
    """The reader's `^` sorts the factors into generator order with the sign
    of the transpositions, and a repeated factor gives zero: on sub5's
    generators 123, 145, 245, 345 (bits 0 to 3)."""
    read = lambda text: TaylorChain.from_text(sub5, text).terms
    assert read("w245^w145") == {0b0110: -1} and read("w145^w245") == {0b0110: 1}
    assert read("w345^w245^w123") == {0b1101: -1}
    assert read("w345^w123^w245") == {0b1101: 1}
    assert read("(w145 + w345)^w123") == {0b0011: -1, 0b1001: -1}
    assert read("w145^w145") == {} and read("w123^w145^w123") == {}
    # a repeated factor is a zero word, not another generator's bit
    K = SimplicialComplex.from_facets(4, [(1, 2), (3, 4), (1, 3)])
    assert not TaylorChain.from_text(K, "w23^w23") and not TaylorChain.from_text(K, "w23^w14^w23")
    assert TaylorChain.from_text(simplex_boundary(2), "w12^w12") == \
        TaylorChain(simplex_boundary(2).generators(), {})


def test_chain_homogeneity_and_degree(sub5):
    gens = sub5.generators()
    c = TaylorChain(gens, {0b0110: 1})
    assert c.s == 2 and c.union_size == 4 and c.degree == 6
    with pytest.raises(ValueError, match="mixes factor counts"):
        TaylorChain(gens, {0b0001: 1, 0b0011: 1})


def test_chain_refuses_what_is_no_word(sub5):
    """A word is an int >= 0, no bool, with no bit past K's generators."""
    gens = sub5.generators()
    for word in [((1, 2, 3),), -1, True, 0b10000]:
        with pytest.raises(ValueError, match="no bitmask of K's generator indices"):
            TaylorChain(gens, {word: 1})
    assert TaylorChain(gens, {0b1111: 3}).terms == {0b1111: 3}


def test_chains_over_different_tables(sub5, rp2):
    """Two chains over different generator tables are never equal, not even
    when both are zero or share their terms, and they do not add; chains
    over equal tables of two complexes are equal."""
    a, b = TaylorChain(sub5.generators(), {0b1: 1}), TaylorChain(rp2.generators(), {0b1: 1})
    assert a.terms == b.terms and a != b
    assert TaylorChain(sub5.generators(), {}) != TaylorChain(rp2.generators(), {})
    with pytest.raises(ValueError, match="different generator tables"):
        a + b
    with pytest.raises(ValueError, match="not written on K's missing faces"):
        taylor_boundary(rp2, a)
    twin = parse_complex("subst(bd(simplex(1,2,3)); bd(simplex(1,2,3)), pt, pt)")
    assert twin is not sub5 and TaylorChain(twin.generators(), {0b1: 1}) == a


def test_text_roundtrip(sub5):
    c = TaylorChain.from_text(sub5, "(w145+w245+w345)^w123")
    assert c.to_text() == "w145^w123 + w245^w123 + w345^w123"
    assert TaylorChain.from_text(sub5, c.to_text()) == c
    assert TaylorChain.from_text(sub5, "2*w123^w145 - w123^w145") == \
        TaylorChain.from_text(sub5, "w123^w145")


def test_reader_refuses_factors_that_are_no_missing_faces(sub5):
    """A factor that is no missing face of K, or that repeats a vertex, is
    refused by the reader as a `ParseError` at the factor's column (its
    `w`), as a syntax error is, and an empty label of a dotted word at the
    word's column; a factor's labels are read as a face, in any order."""
    for text, message, column in (
            ("w12^w145", r"factors \[\(1, 2\)\] are not missing faces of K", 1),
            ("w145 ^ w12", r"factors \[\(1, 2\)\] are not missing faces of K", 8),
            ("w145 - (w245 + w114)^w123", r"duplicate vertex in face \(1, 1, 4\)", 16),
            ("w145 ^ w1..2", r"empty vertex label in '1..2'", 9),
            ("w.1", r"empty vertex label in '.1'", 2)):
        with pytest.raises(ParseError, match=message + rf".*\(line 1, column {column}\)") as info:
            TaylorChain.from_text(sub5, text)
        assert info.value.pos == column - 1
    assert TaylorChain.from_text(sub5, "w541") == TaylorChain.from_text(sub5, "w145")


# -- the face complex -----------------------------------------------------------

def test_face_complex_single_generator():
    C = taylor_face_complex(simplex_boundary(3))
    assert C.dim(0) == 1 and C.dim(-1) == 1
    assert taylor_boundary_word(simplex_boundary(3), ((1, 2, 3),)) == {}


def test_face_complex_figure_one_ranks(sub5):
    C = taylor_face_complex(sub5)
    assert [C.dim(-s) for s in range(5)] == [1, 4, 6, 4, 1]


def test_face_complex_reads_the_generators_once(monkeypatch):
    """`taylor_face_complex` asks for K's generators once per call, not once
    per basis word, and its columns are `taylor_boundary`'s on every basis
    word of seeded complexes."""
    calls = []
    raw = SimplicialComplex.generators
    monkeypatch.setattr(SimplicialComplex, "generators", lambda K: calls.append(K) or raw(K))
    rng = random.Random(37)
    complexes = 0
    while complexes < 12:
        K = random_complex(rng.randint(3, 7), rng)
        if not 2 <= len(K.missing_faces()) <= 8:
            continue
        complexes += 1
        calls.clear()
        C = taylor_face_complex(K)
        assert calls == [K]
        for d, words in C.basis.items():
            for j, w in enumerate(words):
                column = {C.basis[d - 1][i]: v for i, v in C.columns[d].get(j, ())}
                assert column == taylor_boundary(K, TaylorChain(K.generators(), {w: 1})).terms, \
                    (K, w)


# hand-checked differential table of the 5-vertex substitution complex,
# derived entry by entry from the front-insertion rule
SUB5_DIFFERENTIALS = {
    ((1, 2, 3),): {},
    ((1, 4, 5),): {},
    ((2, 4, 5),): {},
    ((3, 4, 5),): {},
    ((1, 2, 3), (1, 4, 5)): {((1, 2, 3), (1, 4, 5), (2, 4, 5)): 1,
                             ((1, 2, 3), (1, 4, 5), (3, 4, 5)): 1},
    ((1, 2, 3), (2, 4, 5)): {((1, 2, 3), (1, 4, 5), (2, 4, 5)): -1,
                             ((1, 2, 3), (2, 4, 5), (3, 4, 5)): 1},
    ((1, 2, 3), (3, 4, 5)): {((1, 2, 3), (1, 4, 5), (3, 4, 5)): -1,
                             ((1, 2, 3), (2, 4, 5), (3, 4, 5)): -1},
    ((1, 4, 5), (2, 4, 5)): {},
    ((1, 4, 5), (3, 4, 5)): {},
    ((2, 4, 5), (3, 4, 5)): {},
    ((1, 2, 3), (1, 4, 5), (2, 4, 5)):
        {((1, 2, 3), (1, 4, 5), (2, 4, 5), (3, 4, 5)): -1},
    ((1, 2, 3), (1, 4, 5), (3, 4, 5)):
        {((1, 2, 3), (1, 4, 5), (2, 4, 5), (3, 4, 5)): 1},
    ((1, 2, 3), (2, 4, 5), (3, 4, 5)):
        {((1, 2, 3), (1, 4, 5), (2, 4, 5), (3, 4, 5)): -1},
    ((1, 4, 5), (2, 4, 5), (3, 4, 5)):
        {((1, 2, 3), (1, 4, 5), (2, 4, 5), (3, 4, 5)): 1},
}


def test_face_complex_differential_table(sub5):
    for word, expected in SUB5_DIFFERENTIALS.items():
        assert taylor_boundary_word(sub5, word) == expected, word


def test_multidegree_preserved_on_random_words():
    rng = random.Random(3)
    for _ in range(20):
        K = random_complex(rng.randint(2, 5), rng)
        mfs = K.missing_faces()
        if not mfs:
            continue
        word = tuple(sorted(rng.sample(mfs, rng.randint(1, min(3, len(mfs)))),
                            key=mfs.index))
        union = set().union(*word)
        for tgt in taylor_boundary_word(K, word):
            assert set().union(*tgt) == union


def test_boundary_and_blocks_match_sorting_reference():
    """Every basis word's boundary equals the sort-based reference's, and
    every block of the split is the admissible rows and columns of the whole
    complex at its union, labels (in order) and entries, with admissibility
    taken from Lyubeznik's definition."""
    rng = random.Random(17)
    complexes = 0
    while complexes < 30:
        K = random_complex(rng.randint(3, 8), rng)
        if not 3 <= len(K.missing_faces()) <= 9:
            continue
        complexes += 1
        gens = K.generators()
        C = taylor_face_complex(K)
        for words in C.basis.values():
            for w in words:
                label = labelled_word(gens, w)
                assert taylor_boundary_word(K, label) == \
                    reference_taylor_boundary_word(K, label), (K, label)
        admissible = {w for words in C.basis.values() for w in words
                      if lyubeznik_admissible(K, labelled_word(gens, w))}
        blocks = taylor_components.__wrapped__(K)
        assert set(blocks) == {gens.union(w) for w in admissible}
        for S, B in blocks.items():
            for d in C.basis:
                labels = [w for w in C.basis[d] if w in admissible and gens.union(w) == S]
                assert B.basis.get(d, []) == labels, (K, S, d)
            for d, labels in B.basis.items():
                mine = {(B.basis[d - 1][i], B.basis[d][j]): v
                        for (i, j), v in B.differential(d).entries.items()}
                cols = set(labels)
                whole = {(C.basis[d - 1][i], C.basis[d][j]): v
                         for (i, j), v in C.differential(d).entries.items()
                         if C.basis[d][j] in cols and C.basis[d - 1][i] in admissible}
                assert mine == whole, (K, S, d)


def test_block_inside_is_the_generators_inside_the_union():
    """The bits that may enter a Taylor block's words, `within` of its
    union, read from the per-vertex generator bitsets of the vertices
    outside the union, are exactly the set of
    generators whose vertices all lie in the union, the scan of every
    generator it replaced.  A wider `inside` would give the same columns,
    since a generator with a vertex outside the union takes a word out of
    the block, so the columns cannot show it."""
    rng = random.Random(27)
    blocks = wider = 0
    for _ in range(60):
        K = random_complex(rng.randint(3, 9), rng)
        if len(K.missing_faces()) > 14:
            continue
        gens = K.generators()
        masks = gens.masks
        for union, _, words in ty._blocks(gens):
            inside = gens.within(union)
            assert inside == sum(1 << q for q, mask in enumerate(masks)
                                 if not mask & ~union), (K, union)
            blocks += 1
            wider += inside != (1 << len(masks)) - 1
    assert blocks > 300 and wider > 100


def test_mask_column_with_a_flipped_sign_is_refused(monkeypatch):
    """The table and the labelled blocks check d^2 = 0 on the same columns:
    one sign flipped in the column of w123^w456, the one word of degree -2
    in the K6 graph's block of the whole vertex set, is refused by
    `check_columns` in both.  That block spans degrees -2, -3 and -4, and
    the word's boundary has terms whose boundaries cancel.  The builder is
    patched where each reads it: the table's loop in `moment_angle`, the
    labelled blocks' `insertion_complex` in `exactalg`."""
    K6 = parse_complex(K6_GRAPH)
    gens = K6.missing_faces()
    target = 1 << gens.index((1, 2, 3)) | 1 << gens.index((4, 5, 6))
    columns_of = exactalg.insertion_columns
    flipped = []

    def bad(words, inside):
        dims, columns = columns_of(words, inside)
        if target in words:
            j = [w for w in words if w.bit_count() == 2].index(target)
            (i, v), *rest = columns[-2][j]
            columns[-2][j] = [(i, -v)] + rest
            flipped.append(target)
        return dims, columns

    assert taylor_homology_by_support(K6) and taylor_components.__wrapped__(K6)
    monkeypatch.setattr(moment_angle, "insertion_columns", bad)
    monkeypatch.setattr(exactalg, "insertion_columns", bad)
    with pytest.raises(ValueError, match=r"d\^2 != 0 between degrees -2 and -4"):
        taylor_homology_by_support(K6)
    with pytest.raises(ValueError, match=r"d\^2 != 0 between degrees -2 and -4"):
        taylor_components.__wrapped__(K6)
    assert flipped == [target, target]


@pytest.mark.parametrize("name", ["sub5", "rp2"])
def test_mask_table_with_a_kept_inadmissible_word_changes(name, request, monkeypatch):
    """Keeping one word that is not admissible in its union's block, with
    the insertions into and out of it, must be refused (d^2 != 0) or change
    a group: the block's Euler characteristic moves by one.  Tried for every
    such word of the 5-vertex substitution complex and 30 seeded ones of
    RP^2, on the table and on `taylor`'s block sums, which read a block in
    one degree off its ends."""
    K = request.getfixturevalue(name)
    gens = K.missing_faces()
    clean, clean_sums = taylor_homology_by_support(K), taylor_homology(K)
    dropped = [word for s in range(2, len(gens) + 1)
               for word in combinations(gens, s)
               if not lyubeznik_admissible(K, word)]
    if len(dropped) > 30:
        dropped = random.Random(71).sample(dropped, 30)
    assert dropped
    admissible = ty.admissible_words
    for word in dropped:
        union = face_mask(set().union(*word))
        bits = sum(1 << gens.index(F) for F in word)

        def keep(gens):
            out = admissible(gens)
            out.setdefault(union, []).append(bits)
            return out
        monkeypatch.setattr(ty, "admissible_words", keep)
        for route, want in [(taylor_homology_by_support, clean), (taylor_homology, clean_sums)]:
            try:
                table = route(K)
            except ValueError as exc:
                assert "d^2 != 0" in str(exc)
            else:
                assert table != want, (route.__name__, word)


def test_degree_bookkeeping_example(sub5):
    c = TaylorChain.from_text(sub5, "w245^w145")
    assert (c.s, c.union_size, c.degree) == (2, 4, 6)


def test_taylor_homology_figure_one(sub5):
    hom = {d: h for d, h in taylor_homology(sub5).items() if d > 0}
    assert hom == {5: HomologyGroup(4), 6: HomologyGroup(3),
                   7: HomologyGroup(1), 8: HomologyGroup(1)}


def test_taylor_homology_acceptance_two(filled6):
    hom = {d: h for d, h in taylor_homology(filled6).items() if d > 0}
    assert hom == {7: HomologyGroup(6), 8: HomologyGroup(6),
                   9: HomologyGroup(2), 10: HomologyGroup(1)}


def test_taylor_homology_projective_plane(rp2):
    hom = taylor_homology(rp2)
    assert hom[8] == HomologyGroup(0, (2,))
    cellular = {d: h for d, h in zk_homology(rp2).items()
                if d > 0 and not h.is_trivial()}
    assert {d: h for d, h in hom.items() if d > 0} == cellular


def test_the_taylor_fold_reduces_residuals_only(monkeypatch, rp2, sub5, filled6):
    """Each Taylor block eliminates its unit pivots on its columns, and only
    a residual that still has entries reaches the Smith form's worker,
    without transforms: on RP^2 the Z/2 is found there, on sub5 and filled6
    no Smith form runs, and on seeded complexes every table stays the
    cellular route's."""
    residuals, reduced = [], []
    real_units = exactalg._eliminate_units

    def units(columns):
        found = real_units(columns)
        residuals.append(found[1])
        return found

    class Worker(exactalg._SnfWorker):
        def __init__(self, A):
            reduced.append(A)
            super().__init__(A)

        def result(self):
            raise AssertionError("a Taylor block asked for transforms")
    monkeypatch.setattr(exactalg, "_eliminate_units", units)
    monkeypatch.setattr(exactalg, "_SnfWorker", Worker)
    rng = random.Random(5011)
    by_complex = []
    for K in [rp2, sub5, filled6] + [random_complex(rng.randint(4, 7), rng) for _ in range(20)]:
        if len(K.missing_faces()) > 12:
            continue
        want = {d: h for d, h in zk_homology(K).items() if not h.is_trivial()}
        before = len(reduced)
        assert taylor_homology(K) == want, K
        by_complex.append(reduced[before:])
    for A in sum(by_complex, []):
        assert any(A is R for R in residuals)
        assert A.entries and all(abs(v) != 1 for v in A.entries.values())
    assert by_complex[0] and not by_complex[1] and not by_complex[2]
    assert len(residuals) > 20


def test_taylor_size_gate():
    # complete bipartite-ish complex with many missing faces
    K = SimplicialComplex.from_facets(8, [(i,) for i in range(1, 9)])
    assert len(K.missing_faces()) == 28
    with pytest.raises(SizeLimitError):
        taylor_face_complex(K)


# -- nested closed form ------------------------------------------------------------

def test_nested_cycle_table_rows(sub5):
    w = parse_whitehead("[[1,2,3],4,5]")
    assert nested_taylor_cycle(w, sub5) == \
        TaylorChain.from_text(sub5, "(w145+w245+w345)^w123")
    w8 = parse_whitehead("[[[1,4,5],2],3]")
    assert nested_taylor_cycle(w8, sub5) == \
        TaylorChain.from_text(sub5, "(w123+w345)^w245^w145")
    w5 = parse_whitehead("[[1,4,5],2]")
    assert nested_taylor_cycle(w5, sub5) == TaylorChain.from_text(sub5, "w245^w145")


def test_nested_cycle_is_cycle(sub5):
    w = parse_whitehead("[[1,2,3],4,5]")
    c = nested_taylor_cycle(w, sub5)
    assert not taylor_boundary(sub5, c)


def _random_nested(rng):
    """A nested product on the leaves 1..L (3 <= L <= 8), shuffled."""
    leaves = list(range(1, rng.randint(3, 8) + 1))
    rng.shuffle(leaves)
    cut = rng.randint(2, len(leaves) - 1)
    text, rest = "[" + ",".join(map(str, leaves[:cut])) + "]", leaves[cut:]
    while rest:
        take = rng.randint(1, len(rest))
        text = "[" + ",".join([text] + list(map(str, rest[:take]))) + "]"
        rest = rest[take:]
    return parse_whitehead(text)


def _random_nested_case(rng):
    """(K, w): a `_random_nested` product w, and bd_Delta(w) on its leaves
    with up to two random faces added."""
    w = _random_nested(rng)
    dw = delta_w(w)
    base = dw.complex.relabelled(dw.vertex_to_leaf(), m=len(w.leaves()))
    facets = list(base.facets) + [rng.sample(range(1, base.m + 1), rng.randint(2, base.m - 1))
                                  for _ in range(rng.randint(0, 2))]
    return SimplicialComplex.from_facets(base.m, facets), w


def test_nested_cycle_matches_labelled_reference():
    """The closed form on index bitmasks against the labelled reference on 30
    random nested products, each on bd_Delta(w) with up to two random faces
    added: the same chain, or the same refusal, or, where the reference's
    chain is no cycle, a refusal before anything is built."""
    rng = random.Random(30)
    built = refused = 0
    for _ in range(30):
        K, w = _random_nested_case(rng)
        try:
            reference = reference_nested_taylor_cycle(w, K)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                nested_taylor_cycle(w, K)
            continue
        if taylor_boundary(K, reference):
            with pytest.raises(ValueError, match="is no cycle of K"):
                nested_taylor_cycle(w, K)
            refused += 1
            continue
        assert nested_taylor_cycle(w, K) == reference, (w, K)
        built += 1
    assert built >= 15 and refused


def test_nested_cycle_refuses_undefined_products():
    """bd_Delta(w) must sit in K: on four points the edge 23 is missing, so
    [[2,3],1,4] is not defined there (the closed form is no cycle)."""
    K = SimplicialComplex.from_facets(4, [])
    w = parse_whitehead("[[2,3],1,4]")
    with pytest.raises(ValueError, match="does not sit in K"):
        nested_taylor_cycle(w, K)
    assert taylor_boundary(K, reference_nested_taylor_cycle(w, K))
    with pytest.raises(ValueError, match="does not sit in K"):
        nested_taylor_cycle(parse_whitehead("[[1,2],3]"), simplex_boundary(2))


def test_nested_cycle_refuses_where_it_is_no_cycle():
    """[[[[1,4,5],6],7],2,3] is defined on bd_Delta(w) with the edge 17
    filled in, but the new missing faces 127 and 137 meet the level-4
    leaves 23 without containing them, so the closed form is no cycle there; with
    the edge 17 missing it is one."""
    w = parse_whitehead("[[[[1,4,5],6],7],2,3]")
    dw = delta_w(w)
    base = dw.complex.relabelled(dw.vertex_to_leaf(), m=7)
    K = SimplicialComplex.from_facets(7, list(base.facets) + [(1, 7)])
    assert {(1, 2, 7), (1, 3, 7)} <= set(K.missing_faces())
    assert taylor_boundary(K, reference_nested_taylor_cycle(w, K))
    with pytest.raises(ValueError, match=r"missing face \(1, 2, 7\) meets the level 4 leaves \(2, 3\)"):
        nested_taylor_cycle(w, K)
    assert not taylor_boundary(base, nested_taylor_cycle(w, base))


@pytest.mark.parametrize("text, m, filled, breaking, position", [
    ("[[[1,3],4],2,5]", 5, [(2, 3, 4)], (3, 4, 5), -1),
    ("[[[1,2],3],4,5]", 5, [(1, 3, 4)], (1, 3, 5), 2),
    ("[[[3,4,5,7],2],1,6]", 8, [(2, 3, 5, 6, 7, 8), (1, 2, 4, 5, 6, 7, 8)], (1, 2, 3), 0),
])
def test_nested_cycle_refuses_a_single_breaking_generator(text, m, filled, breaking, position):
    """bd_Delta(w) with faces filled in, where one missing face breaks the
    factor rule: the last, a middle and the first of the generators inside
    the leaves.  The factor rule, the closed form's only cycle check, must
    reach every generator inside the leaves to refuse it."""
    w = parse_whitehead(text)
    dw = delta_w(w)
    base = dw.complex.relabelled(dw.vertex_to_leaf(), m=m)
    K = SimplicialComplex.from_facets(m, list(base.facets) + filled)
    inside = [F for F in K.missing_faces() if set(F) <= set(w.leaves())]
    assert inside.index(breaking) == position % len(inside)
    assert taylor_boundary(K, reference_nested_taylor_cycle(w, K))
    with pytest.raises(ValueError, match=re.escape(f"missing face {breaking} meets the level 3")):
        nested_taylor_cycle(w, K)


def test_nested_cycle_rejects_missing_level(sub5):
    with pytest.raises(ValueError):
        nested_taylor_cycle(parse_whitehead("[[1,2,4],3,5]"), sub5)
    with pytest.raises(ValueError):
        nested_taylor_cycle(parse_whitehead("[[1,2],[3,4],5]"), sub5)


# -- monomial ideals and the module resolution ----------------------------------------

def test_ideal_validation():
    with pytest.raises(ValueError):
        MonomialIdeal(2, [(1, 0), (1, 1)])     # divisibility
    with pytest.raises(ValueError):
        MonomialIdeal(2, [(1, 0), (1, 0)])     # duplicates
    with pytest.raises(ValueError):
        MonomialIdeal(2, [(0, 0)])             # the unit


def test_squarefree_complex_roundtrip(sub5):
    ideal = MonomialIdeal.stanley_reisner(sub5)
    assert ideal.complex() == sub5


def test_module_resolution_single_generator():
    ideal = MonomialIdeal(2, [(1, 1)])
    report = verify_taylor_is_resolution(ideal)
    assert report.module_exact and report.ok()


def test_module_resolution_figure_one_ranks(sub5):
    ideal = MonomialIdeal.stanley_reisner(sub5)
    C = taylor_module_resolution(ideal)
    # one basis row per multidegree the lcm divides: ranks collapse to the
    # binomial pattern when counted per index s over the top multidegree
    top = tuple(1 for _ in range(5))
    per_s = {s: sum(1 for beta, J in C.basis.get(s, ()) if beta == top)
             for s in range(5)}
    assert per_s == {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}
    report = verify_taylor_is_resolution(ideal)
    assert report.ok()
    assert taylor_homology_by_support(sub5) == hochster_table(sub5)[0]


def test_module_resolution_random_squarefree():
    rng = random.Random(19)
    done = 0
    while done < 15:
        K = random_complex(rng.randint(2, 5), rng)
        if not (1 <= len(K.missing_faces()) <= 6):
            continue
        ideal = MonomialIdeal.stanley_reisner(K)
        report = verify_taylor_is_resolution(ideal)
        assert report.ok(), (K.facets, report.failures)
        done += 1


def test_module_resolution_general_exponents():
    ideal = MonomialIdeal(2, [(2, 0), (1, 1)])
    report = verify_taylor_is_resolution(ideal)
    assert report.module_exact


def test_module_resolution_random_general_exponents():
    rng = random.Random(23)
    done = 0
    while done < 10:
        ideal = random_general_ideal(rng)
        if not ideal.gens:
            continue
        report = verify_taylor_is_resolution(ideal)
        assert report.module_exact, (ideal.gens, report.failures)
        done += 1


def test_polarised_masks():
    # x^2, xy, y^3: x gets bits 0-1, y bits 2-4; lcm is OR, division containment
    ideal = MonomialIdeal(2, [(2, 0), (1, 1), (0, 3)])
    assert ideal.masks() == [0b11, 0b101, 0b11100]
    assert sf(4, (1, 3), (3, 4)).masks() == [0b011, 0b110]   # vertex 2 occurs in none
    assert MonomialIdeal(3, []).masks() == []


def test_polarised_within_is_divisibility():
    """On polarised generators of seeded general-exponent ideals, the
    generator table's `within` at the lcm of every set of generators marks
    exactly the generators that divide that lcm.  The generators share one
    total degree, so none divides another."""
    rng = random.Random(43)
    more = 0
    for _ in range(40):
        m, d = rng.choice([(2, 4), (3, 3), (3, 4)])
        same_degree = [g for g in product(range(d + 1), repeat=m) if sum(g) == d]
        ideal = MonomialIdeal(m, rng.sample(same_degree, rng.randint(2, min(7, len(same_degree)))))
        gens = Generators(None, ideal.masks())
        for picked in range(1 << len(ideal.gens)):
            lcm = [max((g[v] for q, g in enumerate(ideal.gens) if picked >> q & 1), default=0)
                   for v in range(ideal.m)]
            dividing = sum(1 << q for q, g in enumerate(ideal.gens)
                           if all(a <= b for a, b in zip(g, lcm)))
            assert gens.within(gens.union(picked)) == dividing, (ideal, picked)
            more += dividing != picked
    assert more > 500


def random_general_ideal(rng):
    """Minimal generators of a random monomial ideal in 2 or 3 variables with
    exponents up to 2."""
    m = rng.randint(2, 3)
    cand = {tuple(rng.randint(0, 2) for _ in range(m)) for _ in range(rng.randint(1, 4))}
    cand = [g for g in cand if any(g)]
    return MonomialIdeal(m, sorted(g for g in cand if not any(
        h != g and all(a <= b for a, b in zip(h, g)) for h in cand)))


def test_lattice_check_agrees_with_the_whole_module_complex():
    """The check on the lcm lattice and the whole module Taylor complex,
    read degree by degree, both find the resolutions exact: seeded
    square-free ideals, general exponents and a box past the cube."""
    assert reference_resolution_failures(MonomialIdeal(2, [(1, 1)]), bound=(2, 2)) == []
    rng = random.Random(31)
    ideals = []
    while len(ideals) < 12:
        K = random_complex(rng.randint(2, 5), rng)
        if 1 <= len(K.missing_faces()) <= 6:
            ideals.append(MonomialIdeal.stanley_reisner(K))
    while len(ideals) < 24:
        ideal = random_general_ideal(rng)
        if ideal.gens:
            ideals.append(ideal)
    for ideal in ideals:
        assert verify_taylor_is_resolution(ideal).ok(), ideal
        assert reference_resolution_failures(ideal) == [], ideal


def test_resolution_check_gated_by_generator_count():
    ideal = MonomialIdeal.stanley_reisner(SimplicialComplex.from_facets(8, []))
    with pytest.raises(SizeLimitError, match="28 exceeds the Taylor bound 20"):
        verify_taylor_is_resolution(ideal)


def test_cone_reconstruction_two_generators():
    ideal = MonomialIdeal(3, [(1, 1, 0), (0, 1, 1)])
    report = cone_reconstruction(ideal)
    assert report.matches and report.levels == ((1, True), (2, True))


def test_cone_reconstruction_single():
    assert cone_reconstruction(MonomialIdeal(2, [(1, 1)])).matches


def test_cone_reconstruction_figure_one(sub5):
    report = cone_reconstruction(MonomialIdeal.stanley_reisner(sub5))
    assert report.matches and len(report.levels) == 4


def test_cone_reconstruction_random():
    rng = random.Random(29)
    done = 0
    while done < 10:
        K = random_complex(rng.randint(2, 5), rng)
        if not (2 <= len(K.missing_faces()) <= 5):
            continue
        assert cone_reconstruction(MonomialIdeal.stanley_reisner(K)).matches
        done += 1
