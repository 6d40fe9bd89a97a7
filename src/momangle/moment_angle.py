"""Cellular chains of the moment-angle complex Z_K and the Hochster splitting.

Cells of Z_K are pairs kappa(J, I) of disjoint vertex subsets with I a face
of K: I marks disc factors (degree 2 each), J marks circle factors (degree
1 each).  The boundary mirrors the Koszul differential with ascending
exterior letters:

    d kappa(J, I) = sum over i in I of (-1)^{#{j in J : j < i}}
                    kappa(J + {i}, I - {i}).

Products of cell chains concatenate letters and sort them by vertex; only
the odd (circle) letters contribute signs, by the usual Koszul rule.  These
two conventions together make the Hochster embedding of simplicial chains
(`tests/oracles.hochster_embed`) an honest chain map and reproduce the
canonical bracket chains with a plus sign.

A cell is the pair (J, I) of vertex bitmasks, bit v - 1 for vertex v, in
every chain and complex of the package; labels are written only in
a chain's text (`CellChain.to_text`, `from_text`).  On bitmasks this is an
exterior complex: the disc letter i joins the circle mask J as the bit b
of i with the parity (-1)^popcount(J & (b - 1)), by the package's one
chain insertion, `exactalg.insert_bits`, which the Taylor chains and the
staircase use too, and by its column builder in the blocks; the product's
sign is that sign over the circle bits of its first factor
(`concatenation_sign`, the sign of the Taylor chains' exterior product
too).

The boundary keeps the support J + I, so the chains split into one block
per vertex subset S (the Hochster splitting); homology and boundaries are
computed per block modulo the acyclic star of one vertex v, and the whole
complex is the tests' reference: the table visits only the blocks that can
carry homology, and a cycle projects onto the blocks it touches.

Inside S a cell is its circle mask J, and I = S - J; it lies in the star of
v exactly when I + v is a face.  A support travels as its bitmask in
every table, walk and check; labels are written only in the reports.
Choosing the quotient's basis is the one cellular step (`_star_cells`):
on K's face index, in either layout (`SimplicialComplex.face_index`), the
faces of K_S, v by one popcount per vertex of S and the faces off v's star
are a few integer operations per block, and the basis is their circle
masks, by non-decreasing popcount; a cycle's piece on S bounds when its
words J lie in the image there (`zk_bounds`).

A block is (union, words): the bitmask of its support and its basis on
bitmasks.  Every cellular table and the per-support Taylor table reads its
blocks through one per-block reader, `_block_groups`: a block whose first
and last words have one popcount lies in one degree, has no differential,
and adds its number of words to that degree's rank as an integer, with no
column built; every other block is read from `exactalg.insertion_columns`
with `column_homology`, the support's own mask as the bits that may enter
a circle mask.  The per-support tables are one walk and one fold,
`fold_blocks`; the degree tables sum the groups on one ledger (`_add_group`,
`_groups`).  Every table reads its supports, those with no cone point,
from one bit-parallel pass over the face indicator (`lattice_supports`).
The degree table (`zk_homology`) reads K's facets and no missing face.
It is one fold over the connected parts of K's 1-skeleton
(`connected_parts`, the facets merged where they meet): K is their
disjoint union, and by Hochster's formula its groups are each part's own
groups, spread to the supports that add vertices of other parts by
binomial counts, plus the extra H~_0 of the supports that meet two or more
parts, so no support across two parts is reduced.  Each part P runs on its
own complex K_P, so its pass costs 2^|P|, one support per twin orbit, and
its blocks' groups go straight into K's sums, so each group is made once.
Two vertices are twins when swapping them maps the facets onto
themselves; the swap is an automorphism, so the blocks of S and of its
image have the same groups in the same degree.  `twin_orbits` keeps of the
pass's bits the supports that take the lowest vertices of each of the
`twin_classes`, and `zk_homology` counts each one's groups once per member
of its orbit.  `verify` checks the degree table against the per-support
table, that against Hochster's, which shares no code with the fold, and
the supports against the closure of the missing faces under union
(`taylor.mask_unions`).
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import comb, prod
from operator import or_

from .complexes import (SIGNS, ParseError, SignedSum, SizeLimitError, TextTable, VertexIndex,
                        _cone_free_by_shifts, _set_bits, _upper_halves, face_mask, mask_face,
                        read_signed_sum, read_text, reduced_chain_complex, signed_sum_text)
from .exactalg import (ChainComplex, _invariant_torsion, _shared_group, column_homology,
                       concatenation_sign, image_factors, insert_bits, insertion_columns)

ZK_MAX_VERTICES = 24


def cell_boundary(cell):
    """Boundary of a single cell (J, I), vertex bitmasks, as {cell: coeff}:
    `CellChain.boundary` of the one cell."""
    return CellChain({cell: 1}).boundary().terms


class CellChain(SignedSum):
    """Homogeneous sparse integer combination of cells of (D^2)^m, each
    cell (J, I) the bitmasks of its circle and its disc letters."""

    __slots__ = ("degree",)

    def __init__(self, terms):
        self.terms = {}
        degree = None
        for cell, c in terms.items():
            if not c:
                continue
            J, I = cell
            if not (_is_mask(J) and _is_mask(I)):
                raise ValueError(f"cell {cell} is not a pair of vertex bitmasks")
            if J & I:
                raise ValueError(f"cell {cell} has overlapping S and D sets")
            d = J.bit_count() + 2 * I.bit_count()
            if degree is None:
                degree = d
            elif degree != d:
                raise ValueError("cell chain is not homogeneous")
            self.terms[cell] = int(c)
        self.degree = degree if degree is not None else 0

    @classmethod
    def unit(cls):
        return cls({(0, 0): 1})

    def support(self):
        """The bitmask of the vertices the cells use."""
        return reduce(or_, (J | I for J, I in self.terms), 0)

    def boundary(self):
        """The cells grouped by their support S = J | I: the disc bits, S
        less J, enter each circle mask J by `exactalg.insert_bits`, one call
        per support, and a cell J' of S keeps the disc mask S - J'."""
        by_support = {}
        for (J, I), c in self.terms.items():
            by_support.setdefault(J | I, {})[J] = c
        out = {}
        for S, circles in by_support.items():
            for J, c in insert_bits(circles, S).items():
                out[(J, S ^ J)] = c
        return CellChain(out)

    def product(self, other):
        """Concatenation product; factors must have disjoint vertex support.

        Sorting the letters by vertex moves each circle bit j of a first
        factor's cell past the second's circle bits below it, so the sign
        is `concatenation_sign(J1, J2)` (disc letters are even)."""
        if self.support() & other.support():
            raise ValueError("product factors share a vertex")
        out = {}
        for (J1, I1), c1 in self.terms.items():
            for (J2, I2), c2 in other.terms.items():
                cell = (J1 | J2, I1 | I2)
                out[cell] = out.get(cell, 0) + concatenation_sign(J1, J2) * c1 * c2
        return CellChain(out)

    def supported_in(self, K):
        """Is every cell one of Z_K: its letters in 1..K.m and its disc set
        a face of K?"""
        return all(not (J | I) >> K.m and K.face_index().has(I) for J, I in self.terms)

    # -- text form ------------------------------------------------------------

    def to_text(self):
        """The signed sum of the cells' words, sorted by their labels (I, J),
        each key padded to degree + 1 >= |I| + 1 + |J| digits."""
        top = max(map(max, self.terms), default=0).bit_length()
        width, rows = top.bit_length(), []
        for (J, I), c in self.terms.items():
            word, key = cell_word(J, I, width)
            rows.append((key << width * (self.degree - (J | I).bit_count()),
                         SIGNS[c] + ("*".join(word) or "1")))
        return signed_sum_text(rows)

    @classmethod
    def from_text(cls, text):
        """Parse a signed sum of S/D words; letters may appear in any order,
        reordering circle letters flips the sign by the Koszul rule."""
        return read_text(text, lambda sc: read_signed_sum(sc, _read_cell_word, cls({})))


def _is_mask(x):
    """True for an int >= 0 that is no bool: a vertex bitmask."""
    return type(x) is int and x >= 0


# the cell letters of vertex v, `D{v}` and `S{v}`, those of K's vertices held
DISCS, CIRCLES = (TextTable(f"{kind}{{}}".format, {v: f"{kind}{v}" for v in range(1, 65)})
                  for kind in "DS")


def cell_word(J, I, width):
    """The letters of the cell (J, I) in vertex order, and its key (I's
    labels, 0, J's labels as `width`-bit digits)."""
    out, ikey, jkey, rest = [], 0, 0, J | I
    while rest:
        low = rest & -rest
        rest ^= low
        v = low.bit_length()
        if low & I:
            ikey = ikey << width | v
            out.append(DISCS[v])
        else:
            jkey = jkey << width | v
            out.append(CIRCLES[v])
    return out, ikey << width * (J.bit_count() + 1) | jkey


def _read_cell_word(sc):
    """`1`, or letters joined by `*`, multiplied in the order written."""
    if sc.accept("1"):
        return CellChain.unit()
    return reduce(CellChain.product, sc.items(lambda: _read_cell_letter(sc), "*"))


def _read_cell_letter(sc):
    circle = sc.accept("S")
    if not (circle or sc.accept("D")):
        raise ParseError("expected 'S' or 'D'", sc.pos)
    pos = sc.pos
    v = sc.integer()
    if v < 1:
        raise ParseError("vertex labels start at 1", pos)
    return CellChain({(1 << (v - 1), 0) if circle else (0, 1 << (v - 1)): 1})


# -- the chain complex of Z_K -------------------------------------------------

def zk_cells(K):
    """All cells (J, I) of Z_K on bitmasks, I a face of K and J any set of
    the other vertices, grouped by degree, each degree sorted by (J, I)."""
    if K.m > ZK_MAX_VERTICES:
        raise SizeLimitError(f"Z_K cell enumeration refuses m={K.m} > {ZK_MAX_VERTICES}")
    by_degree = {}
    for I in K.face_masks:
        J = rest = ((1 << K.m) - 1) & ~I
        while True:
            by_degree.setdefault(2 * I.bit_count() + J.bit_count(), []).append((J, I))
            if not J:
                break
            J = (J - 1) & rest
    for cells in by_degree.values():
        cells.sort()
    return by_degree


def _require_singletons(K):
    if not K.has_all_singletons():
        raise ValueError("Z_K needs every singleton to be a face")


def _admit(K):
    """Refuse K past the Z_K vertex gate, then K with a ghost vertex."""
    if K.m > ZK_MAX_VERTICES:
        raise SizeLimitError(f"Z_K cell enumeration refuses m={K.m} > {ZK_MAX_VERTICES}")
    _require_singletons(K)


@lru_cache(maxsize=8)
def zk_chain_complex(K):
    """Whole cellular chain complex of Z_K (degree of kappa(J,I) is 2|I|+|J|)."""
    _require_singletons(K)
    return ChainComplex.from_boundary(zk_cells(K), cell_boundary)


@lru_cache(maxsize=8)
def lattice_supports(K):
    """The bitmasks of the supports S with no cone point of K_S, the unions
    of missing faces, ascending, 0 first, by one pass over K's face
    indicator (`_cone_free_by_shifts`); K with no missing face, the full
    simplex, runs no pass.  A bounded memo (`verify` reads one three times)."""
    if K._facet_masks == ((1 << K.m) - 1,):
        return (0,)
    return tuple(_set_bits(_cone_free_by_shifts(K.m, K.face_indicator()[0])))


def _star_vertex(smask, inside, holds):
    """The bit of the vertex v of the bitmask `smask` whose bitset holds[v]
    meets `inside` the most, the least such v on ties: one popcount per
    vertex.  `inside` marks the faces of K_S and holds[v] the faces holding
    vertex v + 1, on the members of K's face index."""
    most, bits = -1, smask
    while bits:
        low = bits & -bits
        bits ^= low
        u = low.bit_length() - 1
        if (count := (inside & holds[u]).bit_count()) > most:
            v, most = u, count
    return v


def _star_cells(K, smask):
    """The basis of the block of the support whose bitmask is `smask`,
    modulo the star of one vertex v, as words for `insertion_columns` with
    `smask` as the bits that may enter: the circle mask J = S - I of each
    cell (J, I) off the star, from the largest face I down, by size, then
    by labels, both descending, so by non-decreasing popcount.  Dropping
    disc letter b is b entering J, and a target in the star is no word, so
    the builder drops it.

    v is the vertex of S in the most faces of K_S, the least such v on ties
    (`_star_vertex`): the star pairs each face I without v with I + v, so it
    has twice as many faces as contain v, and its quotient leaves the fewest
    cells.  The cell (S - I, I) lies in the star exactly when I + v is a
    face.  A cone point of K_S is the vertex in the most faces, and no cell
    is left.  The empty S has no vertex; its block, one cell in degree 0, is
    kept whole as the empty word.  It reads K's face index, either layout."""
    if not smask:
        return [0]
    index = K.face_index()
    inside = index.within(smask)
    v = _star_vertex(smask, inside, index._containing) + 1  # built by `within`
    return [smask & ~f for f in index.listed(inside & ~index.star(v))]


def support_table(blocks, shift):
    """Homology of (S, ChainComplex) blocks as {(S, Z_K degree): group},
    nontrivial only; `shift(S, d)` places block degree d in Z_K.  Every
    route returns its homology in this shape."""
    return {(S, shift(S, d)): h for S, C in blocks for d, h in C.homology_all().items()}


def fold_blocks(blocks, within=None):
    """The homology of exterior blocks (union, words) on bitmasks, one block
    per union, as {(S, degree): group}, nontrivial only, S the support's
    bitmask: the cellular per-support tables and the Taylor one are each one
    walk and this fold, each block read by `_block_groups`, in the walk's
    order, each block's degrees ascending."""
    return {(union, d): _shared_group(rank, factors) for union, words in blocks
            for d, rank, factors in _block_groups(union, words, within)}


def _block_groups(union, words, within=None):
    """(degree, rank, torsion) for each nontrivial group of one block,
    degrees ascending: the bitmask `union` of its support S and its basis
    `words` on bitmasks by non-decreasing popcount, a word with s bits in
    Z_K degree 2|S| - s.

    A block whose first and last words have one popcount lies in one degree
    and has no differential: its words are its rank, with no column built.
    The others are read from their insertion columns (`column_homology`),
    `within(union)` giving the bits that may enter a word, or the union
    itself when `within` is None; so `within` runs only for the blocks that
    build columns.  A block with no word has no group."""
    if not words:
        return ()
    shift = 2 * union.bit_count()
    if (s := words[0].bit_count()) == words[-1].bit_count():
        return ((shift - s, len(words), ()),)
    groups = column_homology(*insertion_columns(words, within(union) if within else union))
    return [(shift + d, h.rank, h.torsion) for d, h in groups.items()]


def _add_group(ranks, torsion, key, rank, factors, times):
    """Add `times` copies of the group of rank `rank` and torsion `factors`
    at `key`: its rank to the integer `ranks[key]`, its factors, `times`
    times over, to the list `torsion[key]`."""
    ranks[key] = ranks.get(key, 0) + rank * times
    if factors:
        torsion.setdefault(key, []).extend(factors * times)


def _groups(ranks, torsion, keys):
    """The group at each key, made once from its summed rank and the
    invariant factors of its torsion (`exactalg._invariant_torsion`)."""
    return {key: _shared_group(ranks[key], _invariant_torsion(torsion[key]) if key in torsion
                               else ()) for key in keys}


def degree_sums(per_support):
    """Direct sum over S of {(S, degree): group}, as degree -> group, on the
    folds' ledger (`_add_group`, `_groups`)."""
    ranks, torsion = {}, {}
    for (_, d), h in per_support.items():
        _add_group(ranks, torsion, d, h.rank, h.torsion, 1)
    return _groups(ranks, torsion, sorted(ranks))


def bounds_by_support(block, split, terms):
    """Does the cycle with the terms {key: coeff} bound?  `split(key)` gives
    a key's support S and its word; `block(S)` is the (words, inside) of the
    quotient of S's block by an acyclic subcomplex, or None, where S's piece
    bounds.  The projection onto a quotient is a quasi-isomorphism, so the
    cycle bounds exactly when each piece's projection lies in im B there:
    B and [B | z] have as many invariant factors, with one product
    (`exactalg.image_factors`).  The caller checks that the chain is a cycle
    on basis elements of the whole complex."""
    pieces = {}
    for key, c in terms.items():
        S, word = split(key)
        pieces.setdefault(S, {})[word] = c
    for S, piece in pieces.items():
        if (found := block(S)) is not None:
            image, with_z = image_factors(*found, next(iter(piece)).bit_count(), [piece])
            if len(image) != len(with_z) or prod(image) != prod(with_z):
                return False
    return True


def zk_homology_by_support(K):
    """Homology of every support block, {(S, degree): group}, nontrivial only.

    Only the supports with no cone point are visited (`lattice_supports`,
    which the Hochster table reads too): any other K_S is a cone, and its
    block, the shifted augmented chain complex of K_S, is acyclic.  Each
    visited block is reduced modulo the acyclic star of one vertex, which
    keeps its homology, torsion included: `_star_cells` chooses the cells
    off the star as circle masks, and `fold_blocks` reads the groups, with
    no ChainComplex built.  `zk_bounds` projects a cycle onto the same
    quotients."""
    return fold_blocks(_lattice_cells(K))


def _lattice_cells(K):
    """(smask, `_star_cells(K, smask)`) for every support of
    `lattice_supports(K)`, in its order, once `_admit` has passed K: the
    blocks of the per-support table, built as they are read."""
    _admit(K)
    return ((smask, _star_cells(K, smask)) for smask in lattice_supports(K))


def twin_classes(K):
    """The twin classes of two or more vertices of K, each as its vertices,
    ascending, in the order of their least vertex.

    u and v are twins when swapping them maps K's facets onto themselves,
    as it then maps the missing faces too: the swap is an automorphism.  It
    moves only A, the facets with u and not v, and B, those with v and not
    u, which the per-vertex bitsets of a `VertexIndex` over the facets give;
    so u and v are twins exactly when |A| = |B| and every mask of A with u
    and v swapped is again a facet.  Twinness is an equivalence relation, so
    each vertex is tested against one member of each class found so far.  A
    vertex in every facet, a cone point of K, lies in no missing face and is
    in no class."""
    index = VertexIndex(K._facet_masks, K.m)
    containing, masks = index.containing(), index.order
    present = set(masks)
    classes = []  # [index of the first member, mask of the members]
    for u, own in enumerate(containing):
        if own == index.every:
            continue
        for c in classes:
            other = containing[c[0]]
            moved, swap = own & ~other, 1 << u | 1 << c[0]
            if moved.bit_count() == (other & ~own).bit_count():
                while moved and masks[(low := moved & -moved).bit_length() - 1] ^ swap in present:
                    moved ^= low
                if not moved:
                    c[1] |= 1 << u
                    break
        else:
            classes.append([u, 1 << u])
    return [mask_face(members) for _, members in classes if members & (members - 1)]


def twin_orbits(K):
    """One support per twin orbit of K's nonempty cone-free supports, as
    {bitmask: orbit size}, ascending.

    The twin swaps of K's `twin_classes` generate the product of the
    symmetric groups of the classes, so a support's orbit is the number k_c
    of its vertices in each class c: it has the product of C(|c|, k_c)
    members, and its representative takes the lowest k_c vertices of each
    class.  An automorphism keeps a support cone-free, so the
    representatives are the sets of the pass's integer
    (`_cone_free_by_shifts`) that hold a when they hold b, for consecutive
    members a < b of each class: one AND per pair with the sets that hold
    each vertex (`_upper_halves`)."""
    classes = twin_classes(K)
    free, holds = _cone_free_by_shifts(K.m, K.face_indicator()[0]), _upper_halves(K.m)
    for c in classes:
        for a, b in zip(c, c[1:]):
            free &= ~holds[b - 1] | holds[a - 1]
    sizes = dict.fromkeys(_set_bits(free & ~1), 1)
    for c in classes:
        cmask, count = face_mask(c), [comb(len(c), k) for k in range(len(c) + 1)]
        for x in sizes:
            sizes[x] *= count[(x & cmask).bit_count()]
    return sizes


def connected_parts(K):
    """The vertex sets of the connected parts of K's 1-skeleton, as
    bitmasks, by least vertex.  Every singleton of K is a face, so u and v
    are adjacent exactly when some facet holds both: each nonempty facet
    merges with every part it meets, with no face read.  The parts are
    disjoint, so a part meets the facet grown by others exactly when it
    meets the facet."""
    parts = []
    for f in K._facet_masks:
        if f:
            apart = []
            for part in parts:
                if part & f:
                    f |= part
                else:
                    apart.append(part)
            parts = apart + [f]
    return sorted(parts, key=lambda part: part & -part)


def _bridging_ranks(m, sizes):
    """{s + 1: E(s)}, nonzero only: a support S of s vertices that meets k
    of the connected parts, whose sizes are `sizes`, has k - 1 more classes
    in H~_0(K_S) than its parts have, in Z_K degree s + 1.  Summed over the
    supports of size s, E(s) = (r - 1) C(m, s) - sum over parts j of
    C(m - m_j, s), for s >= 2 (E(1) = 0)."""
    out = {}
    for s in range(2, m + 1):
        extra = (len(sizes) - 1) * comb(m, s)
        for size in sizes:
            extra -= comb(m - size, s)
        if extra:
            out[s + 1] = extra
    return out


def zk_homology(K):
    """Integral homology of Z_K by the cellular route, degree -> group, as
    one fold over the connected parts P_1..P_r (sizes m_j) of K's
    1-skeleton (`connected_parts`).

    K is their disjoint union, and each K_S the disjoint union of its parts'
    full subcomplexes, so by Hochster's formula H(Z_K) is Z in degree 0;
    plus, for each part j, the groups G_j of its own nonempty supports,
    each C(m - m_j, t) times in degree d + t for t = 0..m - m_j (the t
    vertices of S outside P_j), torsion repeated factor by factor; plus
    Z^E(s) in degree s + 1 (`_bridging_ranks`), the extra H~_0 of the
    supports that meet two or more parts.  A connected K is r = 1, where
    the factor is C(0, 0) = 1 and E vanishes.

    A facet never spans two parts, so G_j is the table of the part's own
    complex K_P, built from the facets inside P (`full_subcomplex`; K
    itself when connected): each `twin_orbits(K_P)` representative is
    reduced as `zk_homology_by_support` reduces it, and its groups
    (`_block_groups`) are added straight into K's sums, once per member of
    its orbit and spread by the binomials, so the pass costs 2^|P|, never
    2^m, and each degree's group is made once, at the end.  A part that is
    one facet, a point or a simplex, has no missing face inside, reduces
    nothing and runs no pass.  Every step reads K's facets and no missing
    face.  `verify` compares the sums with
    the per-support table's."""
    _admit(K)
    parts = connected_parts(K)
    ranks, torsion = {0: 1}, {}
    for part in parts:
        if part in K._facet_masks:
            continue
        KP = K if part == (1 << K.m) - 1 else K.full_subcomplex(mask_face(part))
        rest = K.m - part.bit_count()
        spread = [comb(rest, t) for t in range(rest + 1)]
        for smask, size in twin_orbits(KP).items():
            for d, rank, factors in _block_groups(smask, _star_cells(KP, smask)):
                for t, count in enumerate(spread):
                    _add_group(ranks, torsion, d + t, rank, factors, size * count)
    for d, extra in _bridging_ranks(K.m, [part.bit_count() for part in parts]).items():
        ranks[d] = ranks.get(d, 0) + extra
    return _groups(ranks, torsion, sorted(ranks))


def zk_bounds(K, chain):
    """Does the cellular cycle `chain` bound in Z_K?  Each piece is decided
    in the star quotient of its support (`_star_cells`, with the support's
    mask as the bits that may enter), by `bounds_by_support`.  A cell
    outside Z_K, a letter past K.m among them, is refused, then a chain that
    is no cycle, then a ghost vertex inside a support the chain touches."""
    if not chain.supported_in(K):
        raise ValueError("chain has a cell outside Z_K")
    if chain.boundary():
        raise ValueError("chain is not a cycle")
    return _zk_cycle_bounds(K, chain)


def _zk_cycle_bounds(K, cycle):
    """`zk_bounds` of a cycle its caller has already checked to lie in Z_K
    and to be one, with neither check made again; a ghost vertex inside a
    support the cycle touches is still refused."""
    if cycle.support() & ((1 << K.m) - 1) & ~K._vertex_mask():
        raise ValueError("Z_K needs every singleton to be a face")
    return bounds_by_support(lambda S: (_star_cells(K, S), S),
                             lambda cell: (cell[0] | cell[1], cell[0]), cycle.terms)


# -- Hochster decomposition -----------------------------------------------------

def _refuse_past_hochster_bound(K):
    if K.m > 20:
        raise SizeLimitError(f"Hochster table refuses m={K.m} > 20")


def hochster_table(K, subsets=None):
    """Reduced homology of the full subcomplexes, placed into Z_K degrees.

    Returns (per_subset, aggregate): per_subset maps (S, degree), S the
    bitmask of a vertex subset J, to the nontrivial group contributed by K_J
    (simplicial degree p-1 sits in degree p+|J|), aggregate direct-sums the
    contributions per degree.  J = the empty set contributes the basepoint
    class in degree 0.  `subsets`, a collection of bitmasks within 1..K.m
    (checked), limits J; the default, `lattice_supports(K)` unchecked,
    leaves out only contractible K_J, so it gives every subset's table.
    Each block is built on the labelled faces of K_J (`faces_within`),
    sharing no code with the cellular fold.
    """
    _refuse_past_hochster_bound(K)
    if subsets is None:
        subsets = lattice_supports(K)
    elif bad := [u for u in subsets if not _is_mask(u) or u >> K.m]:
        raise ValueError(f"subset {bad[0]!r} is no bitmask of the vertices 1..{K.m}")
    blocks = ((smask, reduced_chain_complex(K.faces_within(mask_face(smask))))
              for smask in subsets)
    per_subset = support_table(blocks, lambda smask, d: d + smask.bit_count() + 1)
    return per_subset, degree_sums(per_subset)
