"""The Taylor route on Lyubeznik's admissible words against the whole
per-support split of the Taylor complex (`oracles.reference_taylor_components`).

The words that are not admissible span an acyclic subcomplex, so the blocks
on the admissible words must give every homology group of the whole split,
torsion included, and a cycle must bound in the whole split exactly when its
projection onto the admissible words bounds in the blocks.  The complexes are
seeded random ones, RP^2 (Z/2 torsion) and cones over RP^2 with a seventh
vertex, canonical complexes of nested products with random faces added, and
the K6 graph, the largest Taylor input the size gate admits.  Wrong word
sets fed to `verify_taylor_is_resolution` must be refused, by d^2 != 0 or
by a slice of the lcm lattice that is not exact.
"""

import random
from itertools import combinations

import pytest

from momangle import complexes as cx
from momangle import taylor as ty
from momangle.complexes import Generators
from momangle.exactalg import kernel_basis
from momangle.moment_angle import support_table, zk_homology_by_support
from momangle.taylor import (TaylorChain, admissible_words,
                             nested_taylor_cycle, taylor_boundary, taylor_components,
                             taylor_cycle_is_boundary, taylor_homology_by_support)
from momangle.whitehead import delta_w, parse_whitehead
from momangle.zigzag import classes_equal, koszul_to_taylor
from conftest import SUB5_EXPR
from oracles import (RP2_FACETS, hochster_embed, labelled_words, lyubeznik_admissible,
                     random_complex, reference_admissible_words, reference_taylor_components,
                     taylor_chain, chain_from_vector)

NESTED_SHAPES = ["[[1,2],3]", "[[1,2,3],4]", "[[1,2],3,4]", "[[[1,2],3],4]",
                 "[[1,2,3],4,5]", "[[[1,2],3],4,5]"]


def rp2_cone(rng, triangles):
    """RP^2 on 1..6 with vertex 7 coned over every edge and `triangles`
    random triangles: 20 - `triangles` missing faces, and H_1(RP^2) = Z/2 in
    the block of 1..6."""
    edges = sorted({e for f in RP2_FACETS for e in ((f[0], f[1]), (f[0], f[2]), (f[1], f[2]))})
    coned = [f + (7,) for f in edges + rng.sample(RP2_FACETS, triangles)]
    return cx.SimplicialComplex.from_facets(7, RP2_FACETS + coned)


def random_complexes(seed, count, low, high):
    """`count` seeded random complexes with low to high missing faces."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        K = random_complex(rng.randint(3, 7), rng)
        if low <= len(K.missing_faces()) <= high:
            out.append(K)
    return out


def nested_cases(rng):
    """(K, nested cycle) pairs: the canonical complex of each nested shape,
    with up to two random faces added, and the product's closed-form cycle
    where K still has one."""
    out = []
    for shape in NESTED_SHAPES:
        w = parse_whitehead(shape)
        base = delta_w(w).complex
        for _ in range(3):
            facets = list(base.facets)
            for _ in range(rng.randint(0, 2)):
                facets.append(tuple(sorted(rng.sample(range(1, base.m + 1),
                                                      rng.randint(2, base.m - 1)))))
            K = cx.SimplicialComplex.from_facets(base.m, facets)
            try:
                out.append((K, nested_taylor_cycle(w, K)))
            except ValueError:
                continue
    return out


def table_of(blocks):
    """The table of blocks keyed by their unions as label tuples, each
    keyed by its bitmask in the table."""
    return support_table(((cx.face_mask(S), B) for S, B in blocks.items()),
                         lambda S, d: 2 * S.bit_count() + d)


def labelled_unions(blocks):
    """`taylor_components`' blocks keyed by their unions as label tuples."""
    return {cx.mask_face(S): B for S, B in blocks.items()}


def word_support(word):
    """The union S of the factors of a label word, sorted."""
    return tuple(sorted(set().union(*word)))


def reference_is_boundary(blocks, chain):
    """Whether a cycle bounds in the whole split, piece by piece, on the
    label words of the package's chain."""
    pieces = {}
    for w, c in labelled_words(chain).items():
        pieces.setdefault(word_support(w), {})[w] = c
    return all(blocks[S].is_boundary(-chain.s, piece) for S, piece in pieces.items())


def chain_of(K, block, d, vec):
    return taylor_chain(K, chain_from_vector(block, d, vec))


def random_boundary(K, block, d, rng):
    """Boundary of a random integer chain of the block's degree d + 1."""
    words = block.basis.get(d + 1, [])
    picked = rng.sample(words, min(3, len(words)))
    return taylor_boundary(K, taylor_chain(K, {w: rng.choice([-2, -1, 1, 3]) for w in picked}))


def test_taylor_table_matches_whole_split(rp2):
    """The table read from index-bitmask columns equals the whole split's
    and the labelled admissible blocks' (`taylor_components`)."""
    rng = random.Random(41)
    cases = random_complexes(37, 25, 2, 10) + [rp2] + [rp2_cone(rng, k) for k in (6, 7, 8)]
    torsion = 0
    for K in cases:
        table = taylor_homology_by_support(K)
        assert table == table_of(reference_taylor_components(K)), K.facets
        assert table == table_of(labelled_unions(taylor_components(K))), K.facets
        torsion += any(h.torsion for h in table.values())
    assert torsion >= 4   # RP^2 and its three cones


def cycle_cases(K, ref, rng):
    """Cycles of the whole split: kernel columns of its differentials (some
    bound, some do not), their doubles, boundaries of random chains, sums of
    the two, and boundaries of words that are not admissible (cycles whose
    projection onto the admissible words is zero)."""
    out = []
    for S in rng.sample(sorted(ref), min(6, len(ref))):
        block = ref[S]
        for d in block.basis:
            kernel = kernel_basis(block.differential(d))
            for vec in rng.sample(kernel, min(2, len(kernel))):
                z = chain_of(K, block, d, vec)
                b = random_boundary(K, block, d, rng)
                out += [z, z.scaled(2), b, z + b]
            dropped = [w for w in block.basis[d] if not lyubeznik_admissible(K, w)]
            for w in rng.sample(dropped, min(2, len(dropped))):
                out.append(taylor_boundary(K, taylor_chain(K, {w: 1})))
    return [z for z in out if z]


def test_taylor_class_matches_whole_split(rp2, sub5, filled6):
    rng = random.Random(43)
    seen = set()
    projected_away = 0
    for K in random_complexes(47, 20, 2, 8) + [rp2, sub5, filled6]:
        ref = reference_taylor_components(K)
        for z in cycle_cases(K, ref, rng):
            answer = reference_is_boundary(ref, z)
            assert taylor_cycle_is_boundary(K, z) == answer, (K.facets, z)
            seen.add(answer)
            projected_away += not any(lyubeznik_admissible(K, w) for w in labelled_words(z))
    assert seen == {True, False}
    assert projected_away >= 20


def test_nested_cycle_classes_match_whole_split():
    rng = random.Random(53)
    cases = nested_cases(rng)
    assert len(cases) >= 12
    seen = set()
    for K, z in cases:
        ref = reference_taylor_components(K)
        block = ref[cx.mask_face(z.gens.union(next(iter(z.terms))))]
        boundaries = [b for b in (random_boundary(K, block, -z.s, rng) for _ in range(2)) if b]
        for chain in [z, z.scaled(2)] + boundaries + [z + b for b in boundaries]:
            answer = reference_is_boundary(ref, chain)
            assert taylor_cycle_is_boundary(K, chain) == answer, (K.facets, chain)
            seen.add(answer)
    assert seen == {True, False}


@pytest.mark.parametrize("text", ["w123^w145", "w145^w245^w345"])
def test_taylor_class_refuses_a_non_cycle(sub5, text):
    """w145^w245^w345 is not admissible (w123 lies inside its union), so its
    projection is zero; it is still refused, as the whole split refuses it."""
    chain = TaylorChain.from_text(sub5, text)
    ref = reference_taylor_components(sub5)
    with pytest.raises(ValueError, match="not a cycle"):
        reference_is_boundary(ref, chain)
    with pytest.raises(ValueError, match="not a cycle"):
        taylor_cycle_is_boundary(sub5, chain)


def test_projected_away_cycles_bound(rp2, sub5):
    """A cycle with no admissible word projects to zero, so it bounds,
    whether or not its union carries an admissible word."""
    rng = random.Random(59)
    checked = 0
    for K in random_complexes(47, 10, 2, 8) + [rp2, sub5]:
        for z in cycle_cases(K, reference_taylor_components(K), rng):
            if any(lyubeznik_admissible(K, w) for w in labelled_words(z)):
                continue
            assert taylor_cycle_is_boundary(K, z)
            checked += 1
    assert checked >= 20


def test_cycle_is_boundary_sees_the_z2_of_rp2(rp2):
    """The Z/2 of H_1(RP^2) in degree 8, carried to a Taylor cycle t by the
    staircase: t does not bound and 2t does, as in the whole split.  A rule
    that compares only the ranks of B and [B | t] says both bound."""
    J = tuple(range(1, 7))
    S = cx.reduced_chain_complex(rp2.faces_within(J))
    ref = reference_taylor_components(rp2)
    seen = set()
    for col in kernel_basis(S.differential(1)):
        z = hochster_embed(rp2, J, {S.basis[1][i]: v for i, v in col.items()})
        t, _ = koszul_to_taylor(rp2, z)
        if not t:
            continue
        assert t.degree == 8
        for k in (1, 2):
            bounds = taylor_cycle_is_boundary(rp2, t.scaled(k))
            assert bounds == reference_is_boundary(ref, t.scaled(k))
            seen.add((k, bounds))
    assert (1, False) in seen and (2, True) in seen and (2, False) not in seen


@pytest.mark.parametrize("expr, text", [("bd(simplex(1,2,3))", "w12"),
                                        ("bd(simplex(1,2,3))", "w12^w123"),
                                        (SUB5_EXPR, "w12^w145 - w13^w145")])
def test_factors_that_are_not_missing_faces_are_refused(expr, text):
    """{1,2} is a face of bd(simplex(1,2,3)), not a generator, so w12 is no
    chain of the Taylor complex: the reader refuses it.  A chain read over
    another complex's generators, where {1,2} is one, is refused by every
    check on K; its boundary there would read zero."""
    K = cx.parse_complex(expr)
    with pytest.raises(ValueError, match="not missing faces of K"):
        TaylorChain.from_text(K, text)
    chain = TaylorChain.from_text(cx.parse_complex("bd(simplex(1,2))"), "w12")
    empty = TaylorChain(chain.gens, {})
    for check in (taylor_boundary, taylor_cycle_is_boundary):
        for other in (chain, empty):
            with pytest.raises(ValueError, match="not written on K's missing faces"):
                check(K, other)
    with pytest.raises(ValueError, match="not written on K's missing faces"):
        classes_equal(K, chain, chain)
    with pytest.raises(ValueError, match="not written on K's missing faces"):
        classes_equal(K, empty, empty)


def test_k6_graph_against_cellular():
    """|MF| = 20, the largest the size gate admits: 2^20 words in the whole
    complex, too many to build as a reference, 184 admissible ones.  The
    table read from their index bitmasks equals the labelled blocks' and
    the cellular table."""
    K = cx.parse_complex("bd(bd(bd(bd(simplex(1,2,3,4,5,6)))))")
    masks = [cx.face_mask(F) for F in K.missing_faces()]
    assert len(masks) == 20
    assert sum(map(len, admissible_words(Generators(None, masks)).values())) == 184
    blocks = taylor_components(K)
    assert sum(B.dim(d) for B in blocks.values() for d in B.basis) == 184
    table = taylor_homology_by_support(K)
    assert table == table_of(labelled_unions(blocks)) == zk_homology_by_support(K)


def test_admissible_words_are_the_sorted_layers():
    """The walk over layer suffixes gives the sort-based enumeration's dict
    (`oracles.reference_admissible_words`), its unions in the same order and
    each union's words in the same order: on seeded random generator masks
    and polarised monomial ideals, the K6 graph's 20 generators (184 words),
    RP^2 cones and the mutation cases."""
    rng = random.Random(59)
    tables = [Generators(None, [rng.randrange(1, 1 << 9) for _ in range(rng.randint(0, 12))])
              for _ in range(60)]
    for _ in range(60):
        m = rng.randint(2, 4)
        vectors = {tuple(rng.randint(0, 3) for _ in range(m)) for _ in range(rng.randint(1, 9))}
        vectors.discard((0,) * m)
        minimal = [a for a in vectors
                   if not any(b != a and all(x <= y for x, y in zip(b, a)) for b in vectors)]
        tables.append(Generators(None, ty.MonomialIdeal(m, minimal).masks()))
    complexes = [rp2_cone(rng, t) for t in (2, 6, 10)] + mutation_cases()
    tables += [K.generators() for K in complexes]
    words = 0
    for gens in tables:
        got = admissible_words(gens)
        assert list(got.items()) == list(reference_admissible_words(gens).items()), gens.masks
        words += sum(map(len, got.values()))
    assert sum(map(len, admissible_words(complexes[-1].generators()).values())) == 184
    assert words > 3000, words


# -- the resolution check bites on wrong word sets ----------------------------------

def mutation_cases():
    """The paper's complex, an RP^2 cone and the K6 graph."""
    return [cx.parse_complex(SUB5_EXPR), rp2_cone(random.Random(2), 6),
            cx.parse_complex("bd(bd(bd(bd(simplex(1,2,3,4,5,6)))))")]


def resolution_report(K):
    return ty.verify_taylor_is_resolution(ty.MonomialIdeal.stanley_reisner(K))


def first_suffix_only(gens):
    """Words kept when no generator before their first index lies inside
    their union: Lyubeznik's rule tested on the first suffix only."""
    masks, by_union = gens.masks, {}
    for s in range(len(masks) + 1):
        for word in combinations(range(len(masks)), s):
            union = 0
            for q in word:
                union |= masks[q]
            if not any(not masks[q] & ~union for q in range(word[0] if word else 0)):
                by_union.setdefault(union, []).append(sum(1 << q for q in word))
    return by_union


def test_the_real_rule_passes():
    for K in mutation_cases():
        assert resolution_report(K).ok(), K


@pytest.mark.parametrize("K", mutation_cases()[:2], ids=["paper", "rp2-cone"])
def test_first_suffix_rule_is_refused(monkeypatch, K):
    monkeypatch.setattr(ty, "admissible_words", first_suffix_only)
    with pytest.raises(ValueError, match=r"d\^2 != 0"):
        resolution_report(K)


@pytest.mark.parametrize("K", mutation_cases()[1:], ids=["rp2-cone", "k6"])
def test_a_missing_two_word_is_refused(monkeypatch, K):
    """A 2-word inside an admissible 3-word left out breaks d^2 = 0 there."""
    real = admissible_words(Generators(None, ty.MonomialIdeal.stanley_reisner(K).masks()))
    threes = [w for ws in real.values() for w in ws if w.bit_count() == 3]
    dropped = next(w for ws in real.values() for w in ws
                   if w.bit_count() == 2 and any(w & ~t == 0 for t in threes))
    monkeypatch.setattr(ty, "admissible_words", lambda gens: {
        union: [w for w in ws if w != dropped] for union, ws in real.items()})
    with pytest.raises(ValueError, match=r"d\^2 != 0"):
        resolution_report(K)


@pytest.mark.parametrize("K", mutation_cases(), ids=["paper", "rp2-cone", "k6"])
def test_a_missing_top_word_is_not_exact(monkeypatch, K):
    """The longest word of the top union, left out, keeps d^2 = 0 (no word
    lies above it), so only the exactness test can see it."""
    masks = ty.MonomialIdeal.stanley_reisner(K).masks()
    real = admissible_words(Generators(None, masks))
    top = 0
    for mask in masks:
        top |= mask
    dropped = real[top][-1]
    assert dropped.bit_count() == max(w.bit_count() for w in real[top])
    monkeypatch.setattr(ty, "admissible_words", lambda gens: {
        union: [w for w in ws if w != dropped] for union, ws in real.items()})
    report = resolution_report(K)
    assert not report.ok() and report.failures
    inside, s, group = report.failures[-1]
    assert inside == tuple(range(len(masks))) and group != "0"
