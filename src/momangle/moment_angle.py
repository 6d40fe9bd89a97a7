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

The boundary keeps the support J + I, so the chains split into one block
per vertex subset S (the Hochster splitting); homology and classes are
computed per block modulo the acyclic star of one vertex v, and the whole
complex is the tests' reference: the table visits only the blocks that can
carry homology, and a class projects onto the blocks it touches.

Inside S a cell is its disc mask f (the bits of I), of degree
|S| + popcount(f); it lies in the star of v exactly when f & vb or f | vb
is a face (vb the bit of v).  Its boundary drops one bit b of f with sign
(-1)^popcount((S & ~f) & (b - 1)), the circle letters below b.  The table
reads each quotient's homology from these boundary columns
(`exactalg.column_homology`); only cycle classes label them, as the
ChainComplex of a quotient (`zk_star_quotient`).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache, reduce
from itertools import combinations

from .complexes import (ParseError, SignedSum, SizeLimitError, face_mask, mask_face,
                        read_signed_sum, read_text, reduced_chain_complex, signed_sum_text)
from .exactalg import ChainComplex, HomologyClass, column_homology, direct_sum

ZK_MAX_VERTICES = 24


def cell_degree(cell):
    J, I = cell
    return 2 * len(I) + len(J)


def cell_boundary(cell):
    """Boundary of a single cell (J, I), both increasing, as {cell: coeff}:
    the disc letter i becomes a circle at its position p in J, sign (-1)^p."""
    J, I = cell
    out = {}
    for k, i in enumerate(I):
        p = bisect_left(J, i)
        out[(J[:p] + (i,) + J[p:], I[:k] + I[k + 1:])] = -1 if p % 2 else 1
    return out


class CellChain(SignedSum):
    """Homogeneous sparse integer combination of cells of (D^2)^m."""

    __slots__ = ("degree",)

    def __init__(self, terms):
        self.terms = {}
        degree = None
        for cell, c in terms.items():
            if not c:
                continue
            J, I = tuple(cell[0]), tuple(cell[1])
            if set(J) & set(I):
                raise ValueError(f"cell {cell} has overlapping S and D sets")
            d = cell_degree((J, I))
            if degree is None:
                degree = d
            elif degree != d:
                raise ValueError("cell chain is not homogeneous")
            self.terms[(J, I)] = int(c)
        self.degree = degree if degree is not None else 0

    @classmethod
    def unit(cls):
        return cls({((), ()): 1})

    def support(self):
        verts = set()
        for J, I in self.terms:
            verts.update(J), verts.update(I)
        return tuple(sorted(verts))

    def boundary(self):
        out = {}
        for cell, c in self.terms.items():
            for tgt, s in cell_boundary(cell).items():
                out[tgt] = out.get(tgt, 0) + c * s
        return CellChain(out)

    def product(self, other):
        """Concatenation product; factors must have disjoint vertex support.

        Sign: sort the concatenated letters by vertex; each transposition of
        two circle letters contributes -1 (disc letters are even)."""
        if set(self.support()) & set(other.support()):
            raise ValueError("product factors share a vertex")
        out = {}
        for (J1, I1), c1 in self.terms.items():
            for (J2, I2), c2 in other.terms.items():
                inv = sum(1 for a in J1 for b in J2 if b < a)
                sign = -1 if inv % 2 else 1
                cell = (tuple(sorted(J1 + J2)), tuple(sorted(I1 + I2)))
                out[cell] = out.get(cell, 0) + sign * c1 * c2
        return CellChain(out)

    def supported_in(self, K):
        return all(max(I, default=0) <= K.m and face_mask(I) in K.face_masks for _, I in self.terms)

    # -- text form ------------------------------------------------------------

    def to_text(self):
        return signed_sum_text(
            ("*".join(cell_letters(J, I)), c)
            for (J, I), c in sorted(self.terms.items(), key=lambda t: (t[0][1], t[0][0])))

    @classmethod
    def from_text(cls, text):
        """Parse a signed sum of S/D words; letters may appear in any order,
        reordering circle letters flips the sign by the Koszul rule."""
        return read_text(text, lambda sc: read_signed_sum(sc, _read_cell_word, cls.zero()))


def cell_letters(J, I):
    """The letters of the cell (J, I) in vertex order: `S` circles, `D` discs."""
    return [("D%d" if v in I else "S%d") % v for v in sorted(J + I)]


def _read_cell_word(sc):
    """`1`, or letters joined by `*`, multiplied in the order written."""
    if sc.accept("1"):
        return CellChain.unit()
    return reduce(CellChain.product, sc.items(lambda: _read_cell_letter(sc), "*"))


def _read_cell_letter(sc):
    if sc.accept("S"):
        return CellChain({((sc.integer(),), ()): 1})
    if sc.accept("D"):
        return CellChain({((), (sc.integer(),)): 1})
    raise ParseError("expected 'S' or 'D'", sc.pos)


# -- the chain complex of Z_K -------------------------------------------------

def zk_cells(K):
    """All cells kappa(J, I) with I in K, grouped by degree."""
    if K.m > ZK_MAX_VERTICES:
        raise SizeLimitError(f"Z_K cell enumeration refuses m={K.m} > {ZK_MAX_VERTICES}")
    by_degree = {}
    for I in K.faces_within(range(1, K.m + 1)):
        rest = [v for v in range(1, K.m + 1) if v not in set(I)]
        for k in range(len(rest) + 1):
            for J in combinations(rest, k):
                by_degree.setdefault(2 * len(I) + k, []).append((J, I))
    for d in by_degree:
        by_degree[d].sort()
    return by_degree


def _require_singletons(K):
    if not K.has_all_singletons():
        raise ValueError("Z_K needs every singleton to be a face")


@lru_cache(maxsize=8)
def zk_chain_complex(K):
    """Whole cellular chain complex of Z_K (degree of kappa(J,I) is 2|I|+|J|)."""
    _require_singletons(K)
    return ChainComplex.from_boundary(zk_cells(K), cell_boundary)


def mask_lattice(masks):
    """0 and every OR of some of the bitmasks `masks`, as a set."""
    unions = {0}
    for bits in masks:
        unions |= {u | bits for u in unions}
    return unions


def lattice_supports(K):
    """The empty set and every union of missing faces of K, by size and then
    lexicographically.  A vertex of S lies in no missing face inside S
    exactly when it is a cone point of K_S, so these are the empty set and
    the supports S with no cone point: every other block is acyclic."""
    unions = mask_lattice(face_mask(f) for f in K.missing_faces())
    return sorted(map(mask_face, unions), key=lambda S: (len(S), S))


def star_vertex(faces, S):
    """The vertex v of S whose star in K_S holds the most faces, the least
    such v on ties; `faces` are the bitmasks of the faces of K_S.  The star
    pairs each face I without v with I + v, so it has twice as many faces
    as contain v, and its quotient leaves the fewest cells.  S ascends, so
    the first greatest count is the least such v."""
    counts = [len([f for f in faces if f & b]) for b in [1 << (v - 1) for v in S]]
    return S[counts.index(max(counts))]


def _star_cells(S, faces, is_face):
    """The block of S modulo the star of v = star_vertex, on disc masks.

    `faces` are the bitmasks of the faces of K_S in `faces_within`'s order,
    `is_face` holds the bitmasks of every face of K.  The cell (S - I, I) is
    the mask f of I, of degree |S| + |I|; it lies in the star of v exactly
    when f & vb or f | vb is a face (vb the bit of v), and the quotient
    keeps the other cells.  Dropping the disc letter with bit b of f gives
    the target f ^ b with sign (-1)^popcount((S & ~f) & (b - 1)), the circle
    letters below b; a target in the star is dropped, and one that is
    neither in the quotient nor in the star raises.

    Returns (cells, columns): {degree: [f, ...]} in the order of the cells'
    (J, I) labels, J ascending, and {degree: {column: [(row, sign), ...]}},
    the nonzero columns of the quotient's differential.  The empty S has no
    vertex; its block, Z in degree 0, is returned whole."""
    if not S:
        return {0: [0]}, {}
    smask = face_mask(S)
    vb = 1 << (star_vertex(faces, S) - 1)
    cells = {}
    for f in faces:
        if not (f & vb or f | vb in is_face):
            cells.setdefault(len(S) + f.bit_count(), []).append(f)
    index = {}
    for d, fs in cells.items():
        # `faces` run by (size, labels); among the I of one size, J = S - I
        # ascends as I descends
        fs.reverse()
        index[d] = {f: j for j, f in enumerate(fs)}
    columns = {}
    for d, fs in cells.items():
        below = index.get(d - 1, {})
        out = {}
        for j, f in enumerate(fs):
            circles = smask & ~f
            column = []
            rest = f
            while rest:
                b = rest & -rest
                rest ^= b
                t = f ^ b
                if t | vb in is_face:       # in the star; t & vb is 0, as f & vb is
                    continue
                i = below.get(t)
                if i is None:
                    raise ValueError(f"boundary of {_mask_cell(S, f)} hits "
                                     f"{_mask_cell(S, t)}, which is not in the target basis")
                column.append((i, -1 if (circles & (b - 1)).bit_count() & 1 else 1))
            if column:
                out[j] = column
        if out:
            columns[d] = out
    return cells, columns


def _mask_cell(S, f):
    """The label (J, I) of the cell of S with disc mask f."""
    return mask_face(face_mask(S) & ~f), mask_face(f)


def zk_star_quotient(K, S, built=None):
    """The block of S modulo the star of v = star_vertex in K_S, as a
    labelled ChainComplex for cycle classes: the cells (S - I, I) with I + v
    no face of K, and `cell_boundary` with every target inside the star
    dropped.  `_star_cells` builds the cells and boundary columns on face
    masks; each mask is labelled (J, I) and the columns are kept as they
    are.  `built`, the (cells, columns) that `_star_cells` already gave for
    S (`zk_homology_by_support` keeps them on request), is labelled instead
    of being built again.

    The star's cells span a subcomplex, since d only drops disc letters, and
    it is the shifted augmented chain complex of a cone, so it is acyclic;
    the quotient has the block's homology over Z, torsion included.  The
    empty S has no vertex; its block, Z in degree 0, is returned whole."""
    _require_singletons(K)
    if S and S[-1] > K.m:
        raise ValueError(f"support {S} leaves the vertices 1..{K.m}")
    cells, columns = built or _star_cells(S, K.face_masks_within(S), K.face_masks)
    return ChainComplex({d: [_mask_cell(S, f) for f in fs] for d, fs in cells.items()},
                        columns)


def support_table(blocks, shift):
    """Homology of (S, ChainComplex) blocks as {(S, Z_K degree): group},
    nontrivial only; `shift(S, d)` places block degree d in Z_K.  Every
    route returns its homology in this shape."""
    return {(S, shift(S, d)): h for S, C in blocks for d, h in C.homology_all().items()}


def degree_sums(per_support):
    """Direct sum over S of {(S, degree): group}, as degree -> group."""
    out = {}
    for (_, d), h in per_support.items():
        out[d] = direct_sum(out.get(d), h)
    return dict(sorted(out.items()))


def class_by_support(block, support, degree, terms):
    """Class of a cycle, reduced only in the blocks it touches.

    `block(S)` is the quotient of S's whole block by an acyclic subcomplex,
    or None (S's piece is dropped).  Each piece of the terms, split by
    `support(key)`, is projected onto `block(S)`'s basis at `degree` and
    classed there even when empty, so one support's coordinates always have
    one length; they run in sorted S order.  The projection is a
    quasi-isomorphism, so the cycle bounds exactly when every piece does.
    The caller checks that every key is a basis element of the whole complex
    and that the chain is a cycle there."""
    pieces = {}
    for key, c in terms.items():
        pieces.setdefault(support(key), {})[key] = c
    coords, orders = (), ()
    for S, piece in sorted(pieces.items()):
        C = block(S)
        if C is None:
            continue
        basis = C.index.get(degree, {})
        cls = C.class_of(degree, {key: c for key, c in piece.items() if key in basis})
        coords += cls.coords
        orders += cls.orders
    return HomologyClass(coords, orders)


def all_subsets(m):
    """Every vertex subset of 1..m, by size and then lexicographically."""
    return (S for k in range(m + 1) for S in combinations(range(1, m + 1), k))


def zk_homology_by_support(K, quotients=None):
    """Homology of every support block, {(S, degree): group}, nontrivial only.

    Only the empty set and the unions of missing faces are visited
    (`lattice_supports`): any other S has a cone point, so K_S is a cone and
    its block, the shifted augmented chain complex of K_S, is acyclic.  Each
    visited block is reduced modulo the acyclic star of one vertex, which
    keeps its homology, torsion included: `_star_cells` builds the quotient
    on face masks (the cell with disc mask f has degree |S| + |f| and lies
    in the star of v when f & vb or f | vb is a face; dropping the disc bit
    b has sign (-1)^popcount((S & ~f) & (b - 1))), and `column_homology`
    reads the groups from its boundary columns, with no labelled complex
    built.  Only cycle classes label the columns (`zk_star_quotient`), and
    `zk_class` projects a cycle onto the same quotients.  `quotients`, a dict when
    given, receives the (cells, columns) of each visited S among its keys,
    so the classes can label the table's own builds.  The Hochster table still builds every full
    subcomplex, so `verify` checks both rules."""
    if K.m > ZK_MAX_VERTICES:
        raise SizeLimitError(f"Z_K cell enumeration refuses m={K.m} > {ZK_MAX_VERTICES}")
    _require_singletons(K)
    table = {}
    for S in lattice_supports(K):
        cells, columns = _star_cells(S, K.face_masks_within(S), K.face_masks)
        if quotients is not None and S in quotients:
            quotients[S] = cells, columns
        dims = {d: len(fs) for d, fs in cells.items()}
        for d, h in column_homology(dims, columns).items():
            table[(S, d)] = h
    return table


def zk_homology(K):
    """Integral homology of Z_K by the cellular route, degree -> group."""
    return degree_sums(zk_homology_by_support(K))


def zk_class(K, chain, block=None):
    """Homology class of a cellular cycle in Z_K, projected onto the star
    quotient of each block it touches; cells outside Z_K and non-cycles are
    refused.  `block(S)`, by default `zk_star_quotient(K, S)`, gives the
    quotients: a memo of it classes many chains against one quotient per
    support."""
    if not chain.supported_in(K):
        raise ValueError("chain has a cell outside Z_K")
    if chain.boundary():
        raise ValueError("chain is not a cycle")
    return class_by_support(block or (lambda S: zk_star_quotient(K, S)),
                            lambda cell: tuple(sorted(cell[0] + cell[1])),
                            chain.degree, chain.terms)


# -- Hochster decomposition -----------------------------------------------------

def _refuse_past_hochster_bound(K):
    if K.m > 20:
        raise SizeLimitError(f"Hochster table refuses m={K.m} > 20")


def cone_free_subsets(K):
    """The empty set and the subsets J with no cone point of K_J, found from
    the facets (`cone_point_within`); `verify` checks they are
    `lattice_supports(K)`.  A cone K_J is contractible."""
    _refuse_past_hochster_bound(K)
    return [J for J in all_subsets(K.m) if not J or K.cone_point_within(J) is None]


def hochster_table(K, subsets=None):
    """Reduced homology of the full subcomplexes, placed into Z_K degrees.

    Returns (per_subset, aggregate): per_subset maps (J, degree) to the
    nontrivial group contributed by K_J (simplicial degree p-1 sits in
    degree p+|J|), aggregate direct-sums the contributions per degree.
    J = the empty set contributes the basepoint class in degree 0.
    `subsets`, sorted tuples, limits J; the default `cone_free_subsets`
    leaves out only contractible K_J, so it gives every subset's table.
    """
    _refuse_past_hochster_bound(K)
    blocks = ((J, reduced_chain_complex(K.faces_within(J)))
              for J in (cone_free_subsets(K) if subsets is None else subsets))
    per_subset = support_table(blocks, lambda J, d: d + len(J) + 1)
    return per_subset, degree_sums(per_subset)
