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
Choosing the quotient's basis is the one cellular step (`_off_star`),
read by one of two readers that give the same faces in the same order.
A dense K, whose faces fill an eighth or more of its 2^m vertex sets, is
read off its face indicator, the 2^m-bit integer that the missing-face
and cone-free passes read too, kept on K: the faces of K_S are its bits
at the subsets of S, v takes one popcount per vertex of S, and the faces
off v's star are one AND and one shift, so no face list is built.  Any
other K is read off its face index, whose per-vertex bitsets over the
faces give the same in a few integer operations per block, built only
when a nonempty support first asks for them.  `_star_cells` writes the
circle masks of those faces, by non-decreasing popcount; a cycle's piece
on S bounds when its words J lie in the image there (`zk_bounds`).

Every table of the cellular and Taylor routes, per support or summed by
degree, is one walk over blocks (union, times, words) and one fold,
`fold_blocks`: a block whose first and last words have one popcount lies in
one degree, has no differential, and adds its number of words to that
degree's rank as an integer, with no column built; every other block is
read from `exactalg.insertion_columns` with `column_homology`, the
support's own mask as the bits that may enter a circle mask.  Every table reads its supports, those with no cone point,
from one bit-parallel pass over the face indicator (`lattice_supports`).
The degree table (`zk_homology`) reads K's facets and no missing face.  It is one fold over
the connected parts of K's 1-skeleton (`connected_parts`, the facets
merged where they meet): K is their disjoint union, and by Hochster's
formula its groups are each part's own groups, spread to the supports that
add vertices of other parts by binomial counts, plus the extra H~_0 of the
supports that meet two or more parts, so no support across two parts is
reduced.  Each part P runs on its own complex K_P, so its pass costs
2^|P|, one support per twin orbit, and its blocks fold straight into K's
sums, so each group is made once.  Two vertices are twins when swapping
them maps the facets onto themselves; the swap is an automorphism, so the
blocks of S and of its image have the same groups in the same degree.
`twin_orbits` keeps of the pass's bits the supports that take the
lowest vertices of each of the `twin_classes`, and the fold counts each
one's groups once per member of its orbit.  `verify` checks the degree
table against the per-support table, that against Hochster's, which
shares no code with the fold, and the supports against the closure of the
missing faces under union (`taylor.mask_unions`).
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import comb, prod
from operator import or_

from .complexes import (SHIFT_PASS_MAX_VERTICES, ParseError, SignedSum, SizeLimitError,
                        VertexIndex, _cone_free_by_shifts, _set_bits, _upper_halves, face_mask,
                        mask_face, read_signed_sum, read_text, reduced_chain_complex,
                        signed_sum_text)
from .exactalg import (ChainComplex, _invariant_torsion, _shared_group, column_homology,
                       concatenation_sign, direct_sum, image_factors, insert_bits,
                       insertion_columns)

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
        return all(not (J | I) >> K.m and I in K.face_masks for J, I in self.terms)

    # -- text form ------------------------------------------------------------

    def to_text(self):
        """The signed sum of the cells' words, sorted by their (I, J) labels."""
        return signed_sum_text(
            ("*".join(cell_letters(J, I)), c)
            for (J, I), c in sorted(self.terms.items(),
                                    key=lambda t: (mask_face(t[0][1]), mask_face(t[0][0]))))

    @classmethod
    def from_text(cls, text):
        """Parse a signed sum of S/D words; letters may appear in any order,
        reordering circle letters flips the sign by the Koszul rule."""
        return read_text(text, lambda sc: read_signed_sum(sc, _read_cell_word, cls({})))


def _is_mask(x):
    """True for an int >= 0 that is no bool: a vertex bitmask."""
    return type(x) is int and x >= 0


def cell_letters(J, I):
    """The letters of the cell (J, I) in vertex order: `S` circles, `D` discs."""
    return [("D%d" if I >> (v - 1) & 1 else "S%d") % v for v in mask_face(J | I)]


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


def _off_star(K, smask):
    """The faces I of K_S, S the support whose bitmask is `smask`, for which
    the cell (S - I, I) is off the star of one vertex v of S, largest first:
    by size, then by labels, both descending.

    v is the vertex of S in the most faces of K_S, the least such v on ties
    (`_star_vertex`): the star pairs each face I without v with I + v, so it
    has twice as many faces as contain v, and its quotient leaves the fewest
    cells.  The cell (S - I, I) lies in the star exactly when I + v is a
    face.  A cone point of K_S is the vertex in the most faces, and no face
    is left.  The empty S has no vertex; its block, one cell in degree 0, is
    kept whole as the empty face.

    A dense K, whose faces fill an eighth or more of the 2^m vertex sets (m
    <= SHIFT_PASS_MAX_VERTICES), is read off its face indicator
    (`_dense_off_star`); any other off its `FaceIndex` (`_indexed_off_star`),
    where one AND over 2^m bits would cost more than the index.  The rule
    reads only m and the number of faces."""
    if not smask:
        return [0]
    if K.m <= SHIFT_PASS_MAX_VERTICES:
        faces, count = K.face_indicator()
        if count << 3 >= 1 << K.m:
            return _dense_off_star(K.m, faces, smask)
    return _indexed_off_star(K.face_index(), smask)


def _star_vertex(smask, inside, holds):
    """The bit of the vertex v of the bitmask `smask` whose bitset holds[v]
    meets `inside` the most, the least such v on ties: one popcount per
    vertex.  `inside` marks the faces of K_S and holds[v] the faces holding
    vertex v + 1, on one indexing, K's face indicator or its `FaceIndex`."""
    most, bits = -1, smask
    while bits:
        low = bits & -bits
        bits ^= low
        u = low.bit_length() - 1
        if (count := (inside & holds[u]).bit_count()) > most:
            v, most = u, count
    return v


def _dense_off_star(m, faces, smask):
    """`_off_star` off the face indicator `faces` of K on m vertices: the
    faces of K_S are its bits at the subsets of S, those holding no vertex
    outside S (`_upper_halves`); the faces I without v for which I + v is no
    face are the indicator less the sets that hold v and less itself
    shifted down by 2^v, the cone-free pass's first term.  The bits, listed
    ascending, are sorted by size and by labels, both descending: among
    sets of one size the labels descend as the word with its bits reversed
    ascends, and no table of the 2^m sets is built."""
    halves, inside, outside = _upper_halves(m), faces, ((1 << m) - 1) & ~smask
    while outside:
        low = outside & -outside
        outside ^= low
        inside &= ~halves[low.bit_length() - 1]
    v = _star_vertex(smask, inside, halves)
    out = _set_bits(inside & ~halves[v] & ~(faces >> (1 << v)))
    if len(out) > 1:
        # the 24-bit word reversed byte by byte, less 2^24 per vertex
        out.sort(key=lambda f: int.from_bytes(f.to_bytes(3, "big").translate(_REVERSED_BYTES),
                                              "little") - (f.bit_count() << 24))
    return out


_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))  # m <= 22 < 24


def _indexed_off_star(index, smask):
    """`_off_star` off K's `FaceIndex`, whose faces run by (size, labels):
    the faces of K_S are `within(smask)`, and those off the star of v are
    the ones the index's `star(v)` leaves out, read from the highest bit
    down."""
    within = index.within(smask)
    v = _star_vertex(smask, within, index.containing()) + 1
    rest, order, out = within & ~index.star(v), index.order, []
    while rest:
        top = rest.bit_length() - 1
        out.append(order[top])
        rest ^= 1 << top
    return out


def _star_cells(K, smask):
    """The basis of the block of the support whose bitmask is `smask`,
    modulo the star of one vertex v, as words for `insertion_columns` with
    `smask` as the bits that may enter: the cells off the star
    (`_off_star`), each as its circle mask J = S - I, from the largest face
    down, so by non-decreasing popcount.  Dropping disc letter b is b
    entering J, and a target in the star is no word, so the builder drops
    it."""
    return [smask & ~f for f in _off_star(K, smask)]


def support_table(blocks, shift):
    """Homology of (S, ChainComplex) blocks as {(S, Z_K degree): group},
    nontrivial only; `shift(S, d)` places block degree d in Z_K.  Every
    route returns its homology in this shape."""
    return {(S, shift(S, d)): h for S, C in blocks for d, h in C.homology_all().items()}


def fold_blocks(blocks, within=None, by_support=False):
    """The homology of exterior blocks on bitmasks, degree -> group summed
    over the blocks, or {(S, degree): group} with `by_support`; nontrivial
    groups only, S the support's bitmask.  Every cellular and Taylor table is
    one walk and this fold (`_block_groups`).  Ranks are summed as integers
    and torsion factors as lists, and each key's group is made once, at the
    end.  The per-support table keeps the walk's order, each block's degrees
    ascending; the degree sums run by degree."""
    ranks, torsion = {}, {}
    for union, d, rank, factors, times in _block_groups(blocks, within):
        _add_group(ranks, torsion, (union, d) if by_support else d, rank, factors, times)
    return _groups(ranks, torsion, ranks if by_support else sorted(ranks))


def _block_groups(blocks, within=None):
    """(union, degree, rank, torsion, times) for each nontrivial group of
    each block, in the walk's order, each block's degrees ascending.

    A block is (union, times, words): the bitmask of its support S, how
    many times its groups count (a twin orbit's size), and its basis on
    bitmasks by non-decreasing popcount, a word with s bits in Z_K degree
    2|S| - s.  A block whose first and last words have one popcount lies in
    one degree and has no differential: its words are its rank, with no
    column built.  The others are read from their insertion columns
    (`column_homology`), `within(union)` giving the bits that may enter a
    word, or the union itself when `within` is None; so `within` runs only
    for the blocks that build columns.  A block with no word adds nothing."""
    for union, times, words in blocks:
        if not words:
            continue
        shift = 2 * union.bit_count()
        if (s := words[0].bit_count()) == words[-1].bit_count():
            yield union, shift - s, len(words), (), times
            continue
        inside = within(union) if within else union
        for d, h in column_homology(*insertion_columns(words, inside)).items():
            yield union, shift + d, h.rank, h.torsion, times


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
    """Direct sum over S of {(S, degree): group}, as degree -> group."""
    out = {}
    for (_, d), h in per_support.items():
        out[d] = direct_sum(out.get(d), h)
    return dict(sorted(out.items()))


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
    return fold_blocks(((smask, 1, words) for smask, words in _lattice_cells(K)),
                       by_support=True)


def _lattice_cells(K):
    """(smask, `_star_cells(K, smask)`) for every support of
    `lattice_supports(K)`, in its order, once `_admit` has passed K: the
    blocks of the per-support table, built as they are read."""
    _admit(K)
    return ((smask, _star_cells(K, smask)) for smask in lattice_supports(K))


@lru_cache(maxsize=8)
def twin_classes(K):
    """The twin classes of two or more vertices of K, each as its vertices,
    ascending, in the order of their least vertex; a bounded memo, so the
    repeated tables of one K build its facet index once.

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
        blocks = ((smask, size, _star_cells(KP, smask)) for smask, size in twin_orbits(KP).items())
        for _, d, rank, factors, times in _block_groups(blocks):
            for t, count in enumerate(spread):
                _add_group(ranks, torsion, d + t, rank, factors, times * count)
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
